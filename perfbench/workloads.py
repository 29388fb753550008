"""Benchmark workloads and their untimed generation.

Each workload is the default synthetic farm at some length and width, plus
the training budgets its protocol run uses.  Generation happens here, in the
benchmark's own process and outside every timed region: the farm is sampled,
written as a CSV with its ``.schema`` sidecar, and the timed program
receives only those files.  Ground truth (the generating CPDAG and the
target's true parents) never leaves this module's caller.

The farm's values are the library default (``default_farm_benchmark``'s
master seed); ``--seed`` chooses how they are presented: the column order
of the schema and CSV, and the order of the CSV's rows.  The library
canonicalizes both, so every seed must give the same results; the quality
metrics then carry no sampling noise and any change to them is a change to
the program's results.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from soilcausal import graphs, ingest, synth
from soilcausal.seeding import derive_seed

# Paper-width probe: the 62-column table at the default 60 days.  Below 365
# days the 365-day and 730-day lag columns are identical and discovery raises.
PROBE_DAYS = 60


@dataclass(frozen=True)
class Workload:
    name: str
    n_days: int
    paper_width: bool  # add 7 x 4 lag windows and the 22 field one-hots
    epochs: int  # SAGE, ECC and random-edges SAGE
    rf_trees: int
    gbt_rounds: int
    gbt_depth: int
    mlp_epochs: int  # every fit of the 18-point grid and the refit
    probe: bool  # also run the 60-day paper-width defect probe


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="farm-narrow",
            n_days=60,
            paper_width=False,
            epochs=100,
            rf_trees=20,
            gbt_rounds=10,
            gbt_depth=20,
            mlp_epochs=20,
            probe=False,
        ),
        Workload(
            name="farm-long",
            n_days=400,
            paper_width=False,
            epochs=10,
            rf_trees=3,
            gbt_rounds=2,
            gbt_depth=20,
            mlp_epochs=5,
            probe=False,
        ),
        Workload(
            name="farm-wide",
            n_days=400,
            paper_width=True,
            epochs=1,
            rf_trees=1,
            gbt_rounds=1,
            gbt_depth=6,
            mlp_epochs=1,
            probe=True,
        ),
    )
}


def _write_farm(seed: int, n_days: int, path: Path):
    """Sample the default farm and write it with a seed-chosen column order
    and CSV row order; returns the table exactly as written."""
    scm, envs = synth.default_farm_benchmark(n_days=n_days)
    table = synth.sample_environments(scm, envs)
    rng = np.random.default_rng(derive_seed(seed, n_days))
    cols = rng.permutation(len(table.schema))
    table = ingest.Table(
        tuple(table.schema[k] for k in cols),
        table.rows[:, cols],
        table.timestamps,
        table.field_id,
        table.treatment,
        target=table.target,
    )
    ingest.write_csv(table, str(path))
    header, *body = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text(header + "".join(body[k] for k in rng.permutation(len(body))), encoding="utf-8")
    return scm, envs, table


def generate(workload: Workload, seed: int, out_dir: Path) -> dict:
    """Write the workload's input files and return the program config plus
    the ground truth the benchmark keeps for itself."""
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "farm.csv"
    scm, envs, table = _write_farm(seed, workload.n_days, csv_path)

    interventions = {
        t: sorted(nodes) for t, nodes in synth.targets_by_treatment(envs).items()
    }
    interventions_path = out_dir / "interventions.json"
    interventions_path.write_text(json.dumps(interventions, sort_keys=True))

    probe_csv = None
    if workload.probe:
        probe_csv = out_dir / "probe.csv"
        _write_farm(seed, PROBE_DAYS, probe_csv)

    config = {
        **asdict(workload),
        "csv": str(csv_path),
        "interventions": str(interventions_path),
        "probe_csv": str(probe_csv) if probe_csv else None,
        "train_treatments": list(synth.TRAIN_TREATMENTS),
        "test_treatment": synth.TEST_TREATMENT,
    }
    truth = {
        "table": table,
        "cpdag": synth.true_cpdag(scm),
        "target_parents": graphs.in_neighbors(scm.dag, scm.target),
        "train_rows": sum(
            e.n_fields * e.n_days for e in envs if e.treatment in synth.TRAIN_TREATMENTS
        ),
    }
    return {"config": config, "truth": truth}
