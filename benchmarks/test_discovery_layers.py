"""Micro-benchmarks of the discovery layers on the paper-width table: the
22 field one-hots and 7 events x 4 lag windows added to the 12-column farm
(62 columns), 400 days, min-max scaled on and restricted to the train rows.
They time one CI test, the Fisher-z and batch layers of PC, GES's forward
phase, whole ``pc``/``ges``/``gies`` calls as ``farm-wide`` runs them, and
one sink elimination plus class projection of the GIES pattern, the step
each greedy move takes.

    PYTHONPATH=src python -m pytest benchmarks

They are not part of the tier-1 suite (``testpaths`` is ``tests``).
"""

import numpy as np
import pytest

from soilcausal import discovery, graphs, stats, synth


@pytest.fixture(scope="module")
def wide(wide_train):
    names = tuple(sorted(wide_train.names))
    return names, stats.suff_stat(wide_train, names)


@pytest.fixture(scope="module")
def pc_levels(wide):
    """The (i, j, S) triples of each PC level on the wide table."""
    names, stat = wide
    levels = []

    def level_tests(triples):
        levels.append(triples)
        batch = stats.CIBatch(stat, triples)
        return batch.independent(), lambda mask: batch.read(mask, warn=stats.WarningCounter())

    discovery._pc_core(names, level_tests, discovery.DiscoveryConfig().max_cond_size)
    return levels


@pytest.fixture(scope="module")
def largest_pc_level(pc_levels):
    return max(pc_levels, key=len)


def test_fisher_z_scalar(benchmark, wide):
    _, stat = wide
    warn = stats.WarningCounter()
    benchmark(stats.fisher_z_test, 0, 1, (2, 3), stat, warn=warn)


def test_fisher_z_stack(benchmark, wide, pc_levels):
    """z and p-values of every partial correlation PC evaluates on the wide
    table (173,499 on the 400-day farm) as one stack, at level 0's dof."""
    _, stat = wide
    r = np.concatenate([stats._partial_correlations(stat.cov, np.asarray(t))[0] for t in pc_levels])
    benchmark.extra_info["tests"] = len(r)
    benchmark(stats._fisher_z, r, stat.n - 3)


def test_pc_level_batch(benchmark, wide, largest_pc_level):
    _, stat = wide
    benchmark.extra_info["triples"] = len(largest_pc_level)
    benchmark(stats.CIBatch, stat, largest_pc_level)


def test_ges_forward_phase(benchmark, wide_train, wide):
    names, _ = wide

    def forward():
        st = discovery._State(len(names), ())
        sc = discovery._Scorer(wide_train, names, None, stats.WarningCounter())
        discovery._forward_phase(st, sc, discovery.DiscoveryConfig())
        return st

    st = benchmark.pedantic(forward, rounds=3, iterations=1)
    assert any(st.pa) or any(st.und)


@pytest.fixture(scope="module")
def targets():
    _, envs = synth.default_farm_benchmark(n_days=400)
    return {t: sorted(nodes) for t, nodes in synth.targets_by_treatment(envs).items()}


@pytest.mark.parametrize("learner", ["pc", "ges", "gies"])
def test_learner_wide(benchmark, wide_train, targets, learner):
    cfg = discovery.DiscoveryConfig(use_interventions=True)
    learn = {
        "pc": lambda: discovery.pc(wide_train, warn=stats.WarningCounter()),
        "ges": lambda: discovery.ges(wide_train, warn=stats.WarningCounter()),
        "gies": lambda: discovery.gies(wide_train, cfg, targets, warn=stats.WarningCounter()),
    }[learner]
    pattern = benchmark.pedantic(learn, rounds=3, iterations=1)
    benchmark.extra_info["edges"] = len(pattern.directed) + len(pattern.undirected)


def test_extension_step_wide(benchmark, wide_train, targets):
    cfg = discovery.DiscoveryConfig(use_interventions=True)
    pattern = discovery.gies(wide_train, cfg, targets, warn=stats.WarningCounter())
    pinned = frozenset(pattern.meta["intervened"])
    out = benchmark(lambda: graphs.cpdag_of(graphs.consistent_extension(pattern), pinned))
    assert (out.directed, out.undirected) == (pattern.directed, pattern.undirected)
