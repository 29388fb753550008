"""Train tables shared by the layer benchmarks: the default farm sampled
at 400 days, min-max scaled on and restricted to the train rows."""

from dataclasses import replace

import numpy as np
import pytest

from soilcausal import ingest, synth


def _train_table(paper_width: bool):
    scm, envs = synth.default_farm_benchmark(n_days=400)
    table = synth.sample_environments(scm, envs)
    if paper_width:
        table = ingest.add_field_onehots(ingest.lag_counts(table))
    train = np.isin(table.treatment, synth.TRAIN_TREATMENTS)
    table = ingest.min_max_apply(table, ingest.min_max_fit(table, table.names, train))
    return replace(
        table,
        rows=table.rows[train],
        timestamps=table.timestamps[train],
        field_id=table.field_id[train],
        treatment=table.treatment[train],
    )


@pytest.fixture(scope="session")
def long_train():
    """The 12 farm columns (the ``farm-long`` workload's train table)."""
    return _train_table(paper_width=False)


@pytest.fixture(scope="session")
def wide_train():
    """The paper-width table: 22 field one-hots and 7 events x 4 lag
    windows added to the 12 farm columns (62 columns)."""
    return _train_table(paper_width=True)
