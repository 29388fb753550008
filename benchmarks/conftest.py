"""Train tables shared by the layer benchmarks: the default farm sampled
at 60 or 400 days, min-max scaled on and restricted to the train rows."""

import numpy as np
import pytest

from soilcausal import ingest, synth


def _train_table(paper_width: bool, n_days: int = 400):
    scm, envs = synth.default_farm_benchmark(n_days=n_days)
    table = synth.sample_environments(scm, envs)
    if paper_width:
        table = ingest.add_field_onehots(ingest.lag_counts(table))
    train, _ = ingest.split_by_treatment(table, synth.TRAIN_TREATMENTS, [synth.TEST_TREATMENT])
    return ingest.min_max_apply(train, ingest.min_max_fit(train, train.names, np.ones(train.n, dtype=bool)))


@pytest.fixture(scope="session")
def narrow_train():
    """The 12 farm columns at 60 days (the ``farm-narrow`` workload's train
    table)."""
    return _train_table(paper_width=False, n_days=60)


@pytest.fixture(scope="session")
def long_train():
    """The 12 farm columns (the ``farm-long`` workload's train table)."""
    return _train_table(paper_width=False)


@pytest.fixture(scope="session")
def wide_train():
    """The paper-width table: 22 field one-hots and 7 events x 4 lag
    windows added to the 12 farm columns (62 columns)."""
    return _train_table(paper_width=True)
