"""Micro-benchmarks of the discovery layers on the paper-width table: the
22 field one-hots and 7 events x 4 lag windows added to the 12-column farm
(62 columns), 400 days, min-max scaled on and restricted to the train rows.

    PYTHONPATH=src python -m pytest benchmarks

They are not part of the tier-1 suite (``testpaths`` is ``tests``).
"""

import pytest

from soilcausal import discovery, stats


@pytest.fixture(scope="module")
def wide(wide_train):
    names = tuple(sorted(wide_train.names))
    return names, stats.suff_stat(wide_train, names)


@pytest.fixture(scope="module")
def largest_pc_level(wide):
    """The (i, j, S) triples of PC's largest level on the wide table."""
    names, stat = wide
    levels = []

    def level_tests(triples):
        levels.append(triples)
        batch = stats.CIBatch(stat, triples)
        return lambda k: batch.test(k, warn=stats.WarningCounter()).independent

    discovery._pc_core(names, level_tests, discovery.DiscoveryConfig().max_cond_size)
    return max(levels, key=len)


def test_fisher_z_scalar(benchmark, wide):
    _, stat = wide
    warn = stats.WarningCounter()
    benchmark(stats.fisher_z_test, 0, 1, (2, 3), stat, warn=warn)


def test_pc_level_batch(benchmark, wide, largest_pc_level):
    _, stat = wide
    benchmark.extra_info["triples"] = len(largest_pc_level)
    benchmark(stats.CIBatch, stat, largest_pc_level)


def test_ges_forward_phase(benchmark, wide):
    names, stat = wide

    def forward():
        st = discovery._State(names, ())
        sc = discovery._Scorer([stat] * len(names), stats.WarningCounter())
        discovery._forward_phase(st, sc, discovery.DiscoveryConfig())
        return st

    st = benchmark.pedantic(forward, rounds=3, iterations=1)
    assert any(st.pa) or any(st.und)
