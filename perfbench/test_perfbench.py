"""Small checks of the benchmark itself, on a tiny farm.

    python3 -m pytest perfbench
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402

TINY = workloads.Workload(
    name="tiny",
    n_days=8,
    paper_width=False,
    epochs=2,
    rf_trees=1,
    gbt_rounds=1,
    gbt_depth=3,
    mlp_epochs=1,
    probe=True,
)
QUALITY = ("mae.", "shd.", "parent_recall", "ok_frac")


def _declared(kind: str) -> dict:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def _quality(result: dict) -> dict:
    return {k: v for k, v in result["metrics"].items() if k.startswith(QUALITY)}


@pytest.fixture(scope="module")
def untraced():
    return run.benchmark(TINY, seed=1, seconds=0, trace=False)


def test_printed_metrics_match_benchmark_json(untraced):
    traced = run.benchmark(TINY, seed=1, seconds=0, trace=True)
    for result, kind in ((untraced, "end_to_end"), (traced, "per_layer")):
        assert result["correct"], result["notes"]
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        assert printed == _declared(kind)


def test_same_seed_gives_identical_quality(untraced):
    again = run.benchmark(TINY, seed=1, seconds=0, trace=False)
    assert again["correct"], again["notes"]
    assert _quality(again) == _quality(untraced)


def test_different_seed_gives_different_csv(tmp_path):
    one = workloads.generate(TINY, 1, tmp_path / "one")["config"]["csv"]
    two = workloads.generate(TINY, 2, tmp_path / "two")["config"]["csv"]
    assert Path(one).read_bytes() != Path(two).read_bytes()
