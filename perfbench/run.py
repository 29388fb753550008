"""Protocol benchmark for soilcausal.

    python3 perfbench/run.py --workload farm-narrow --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The benchmark writes the workload's farm
as CSV plus schema sidecar, presented in the order ``--seed`` chooses
(untimed), and starts the timed program (protocol.py) on those files in
fresh processes, one protocol run each, for at least ``--seconds``; more
set-up-only processes follow when that gave fewer than three set-up samples.
It then checks the outputs, prints every metric as ``name value unit`` and,
as the last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end metrics of
untraced runs; ``--trace 1`` adds one traced run and reports the per-layer
metrics, writing its spans to ``.perfbench/traces/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

SETUP_SAMPLES = 3  # setup_s is the median over this many fresh processes
CHILD_TIMEOUT_S = 170


def declared_units(kind: str) -> dict:
    """Metric name -> unit for ``end_to_end`` or ``per_layer``, as
    BENCHMARK.json declares them; the run must produce exactly these."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def _child_env() -> dict:
    threads = str(len(os.sched_getaffinity(0)))
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(SRC),
        OMP_NUM_THREADS=threads,
        OPENBLAS_NUM_THREADS=threads,
        MKL_NUM_THREADS=threads,
    )
    return env


def run_program(cfg: dict, work: Path, tag: str) -> dict:
    """One fresh process of the timed program; waits for it to end."""
    cfg_path, out_path = work / f"{tag}.config.json", work / f"{tag}.out.json"
    cfg_path.write_text(json.dumps(cfg))
    subprocess.run(
        [sys.executable, str(HERE / "protocol.py"), str(cfg_path), str(out_path)],
        env=_child_env(),
        cwd=ROOT,
        stdout=sys.stderr,
        timeout=CHILD_TIMEOUT_S,
        check=True,
    )
    return json.loads(out_path.read_text())


def _restricted(edges: dict, nodes):
    """The reported pattern's induced subgraph on ``nodes``."""
    from soilcausal import graphs

    keep = set(nodes)

    def inside(pairs):
        return [(a, b) for a, b in pairs if a in keep and b in keep]

    return graphs.Cpdag(tuple(nodes), inside(edges["directed"]), inside(edges["undirected"]))


def end_to_end(runs: list[dict], setups: list[float], truth: dict) -> dict:
    from soilcausal import graphs

    q = runs[0]["quality"]
    truth_cpdag = truth["cpdag"]
    parents = truth["target_parents"]
    # a raise in a timed run ends the benchmark, so the share is taken over
    # one run's calls plus the probe's
    probe = runs[0].get("probe", {"attempted": 0, "raised": 0})
    attempted = runs[0]["attempted"] + probe["attempted"]
    raised = runs[0]["raised"] + probe["raised"]
    return {
        "run_s": median(r["run_s"] for r in runs),
        "setup_s": median(setups),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in runs),
        "ok_frac": (attempted - raised) / attempted,
        **{f"mae.{k}": v for k, v in q["mae"].items()},
        **{
            f"shd.{k}": graphs.shd(_restricted(e, truth_cpdag.nodes), truth_cpdag)
            for k, e in q["patterns"].items()
        },
        "parent_recall": len(parents & set(q["target_in_neighbors"])) / len(parents),
    }


def per_layer(traced: dict, runs: list[dict], wl) -> dict:
    import tracing

    spans = traced["spans"]

    def t(*names):
        return sum(tracing.total(spans, n) for n in names)

    m = {
        "ingest.import_s": traced["import_s"],
        "ingest.read_csv_s": t("ingest.read_csv"),
        "ingest.features_s": t(
            "ingest.lag_counts", "ingest.add_field_onehots", "ingest.validate_model_ready"
        ),
        "ingest.scale_s": t("ingest.min_max_fit", "ingest.min_max_apply"),
        "ingest.rows": traced["rows"],
        "ingest.cols": traced["cols"],
        **{f"discovery.{a}_s": t(f"discovery.{a}") for a in ("pc", "ges", "gies")},
        "gnn.build_instances_s": t("gnn.build_instances"),
        "gnn.predict_s": t("gnn.predict"),
        "baselines.rf_train_s": t("baselines.rf_train"),
        "baselines.gbt_train_s": t("baselines.gbt_train"),
        "baselines.mlp_train_s": t("baselines.mlp_train"),
        "baselines.predict_s": t(
            "baselines.rf_predict", "baselines.gbt_predict", "baselines.mlp_predict"
        ),
        **traced["counts"],
        **traced["inner"],
    }
    m["discovery.pc_ci_tests_per_s"] = m["discovery.pc_ci_tests"] / m["discovery.pc_s"]
    for name in ("sage", "ecc", "random_edges"):
        m[f"gnn.train_s.{name}"] = t(f"gnn.train.{name}")
        m[f"gnn.epoch_ms.{name}"] = 1e3 * m[f"gnn.train_s.{name}"] / wl.epochs
    for layer, own in tracing.layer_self_times(spans).items():
        m[f"self_s.{layer}"] = own
    m["trace.overhead_s"] = traced["run_s"] - median(r["run_s"] for r in runs)
    top = sum(
        s["end"] - s["start"] for s in spans[traced["first_span"]:] if s["parent"] is None
    )
    m["trace.unaccounted_s"] = traced["run_s"] - top
    return m


def checks(samples: list[dict], truth: dict, csv_round_trip: bool) -> dict:
    """``samples`` are the outputs of every process that ran the protocol."""
    first = samples[0]["quality"]
    return {
        "read_csv round-trips the generated table": csv_round_trip,
        "scaler and discovery saw only the train rows": all(
            s["fitted_on"] == s["train_rows"] == truth["train_rows"] for s in samples
        ),
        "every prediction is finite": all(s["quality"]["finite"] for s in samples),
        "quality is identical in every run, traced or not": all(
            s["quality"] == first for s in samples
        ),
    }


def benchmark(wl, seed: int, seconds: float, trace: bool) -> dict:
    """Generate one workload, run the timed program on it and check its
    outputs.  Returns the result object plus human-readable notes."""
    import workloads
    from soilcausal import ingest

    work = OUT_DIR / f"work-{wl.name}-{seed}-{os.getpid()}"
    try:
        gen = workloads.generate(wl, seed, work)
        cfg, truth = gen["config"], gen["truth"]
        round_trip = ingest.read_csv(cfg["csv"]).equals(truth["table"])
        # one fresh process per protocol run, for at least ``seconds``;
        # only the first carries the probe
        runs = []
        start = time.perf_counter()
        while not runs or time.perf_counter() - start < seconds:
            probe_csv = None if runs else cfg["probe_csv"]
            runs.append(
                run_program({**cfg, "mode": "run", "probe_csv": probe_csv}, work, f"run{len(runs)}")
            )
        setups = [r["setup_s"] for r in runs] + [
            run_program({**cfg, "mode": "setup"}, work, f"setup{k}")["setup_s"]
            for k in range(SETUP_SAMPLES - len(runs))
        ]
        traced = run_program({**cfg, "mode": "trace"}, work, "trace") if trace else None
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ok = checks(runs + ([traced] if traced else []), truth, round_trip)
    notes = [f"check failed: {what}" for what, passed in ok.items() if not passed]
    notes.append("protocol runs (s): " + " ".join(f"{r['run_s']:.3f}" for r in runs))
    for learner, err in runs[0].get("probe", {}).get("errors", {}).items():
        notes.append(
            f"probe: {learner} raised on the {workloads.PROBE_DAYS}-day paper-width table: {err}"
        )

    if trace:
        metrics, units = per_layer(traced, runs, wl), declared_units("per_layer")
        trace_dir = OUT_DIR / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        (trace_dir / f"{wl.name}-seed{seed}.json").write_text(
            json.dumps({"workload": wl.name, "seed": seed, "spans": traced["spans"]})
        )
    else:
        metrics, units = end_to_end(runs, setups, truth), declared_units("end_to_end")
    if set(metrics) != set(units):
        raise RuntimeError(f"metric set mismatch: {sorted(set(metrics) ^ set(units))}")
    return {
        "correct": all(ok.values()),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["raised"] for r in runs),
        "metrics": {n: {"value": float(metrics[n]), "unit": units[n]} for n in units},
        "notes": notes,
    }


def main(argv=None) -> int:
    if not (SRC / "soilcausal" / "ingest.py").is_file():
        print(f"perfbench: no soilcausal source tree under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    # on SIGTERM, unwind normally: the running child is killed and waited
    # for, and the work directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    result = benchmark(workloads.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    for line in result.pop("notes"):
        print(line)
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
