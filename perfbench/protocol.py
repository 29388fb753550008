"""The timed program: the paper's protocol through soilcausal's public API.

Run as ``python3 perfbench/protocol.py CONFIG_JSON OUT_JSON`` by run.py, one
fresh process per sample, so import time, peak memory and the cold start
of every run are what a user pays for one run.  It receives only the
generated files named in the config:

1. setup: ``read_csv``; on paper-width workloads ``lag_counts`` and
   ``add_field_onehots``; ``validate_model_ready``; ``min_max_fit`` on the
   training treatments and ``min_max_apply``; the train/test row split;
2. one protocol run: PC, GES and GIES on the train rows; the PC skeleton
   and a random skeleton of equal size; SAGE, ECC and random-edges SAGE;
   RF, GBT and the MLP grid; predictions of all six models on the held-out
   treatment;
3. in trace mode the run records spans, and per-call measurements of the
   inner layers on this workload's own data follow it;
4. on workloads that carry one, the paper-width defect probe.
"""

import json
import resource
import sys
import time
from dataclasses import replace
from itertools import combinations
from statistics import median

from tracing import Calls

_IMPORT_START = time.perf_counter()
import numpy as np  # noqa: E402  (the import is part of the measured set-up)
from soilcausal import (  # noqa: E402
    baselines,
    discovery,
    engine,
    gnn,
    graphs,
    ingest,
    stats,
)

IMPORT_S = time.perf_counter() - _IMPORT_START

GIES_CONFIG = discovery.DiscoveryConfig(use_interventions=True)


def _rows(table, mask):
    return replace(
        table,
        rows=table.rows[mask],
        timestamps=table.timestamps[mask],
        field_id=table.field_id[mask],
        treatment=table.treatment[mask],
    )


def setup(cfg: dict, csv_path: str, calls: Calls):
    """From the CSV to model-ready train/test tables."""
    with calls.span("bench.setup"):
        table = calls.call("ingest.read_csv", ingest.read_csv, csv_path)
        if cfg["paper_width"]:
            table = calls.call("ingest.lag_counts", ingest.lag_counts, table)
            table = calls.call("ingest.add_field_onehots", ingest.add_field_onehots, table)
        calls.call("ingest.validate_model_ready", ingest.validate_model_ready, table)
        train_mask = np.isin(table.treatment, cfg["train_treatments"])
        scaler = calls.call(
            "ingest.min_max_fit", ingest.min_max_fit, table, table.names, train_mask
        )
        table = calls.call("ingest.min_max_apply", ingest.min_max_apply, table, scaler)
        train = _rows(table, train_mask)
        test = _rows(table, table.treatment == cfg["test_treatment"])
        with open(cfg["interventions"], encoding="utf-8") as fh:
            targets = json.load(fh)
    return table, scaler, train, test, targets


def _discovery_jobs(train, targets):
    """The three learners, each with its own per-run warning counter."""
    warns = {k: stats.WarningCounter() for k in ("pc", "ges", "gies")}
    jobs = {
        "pc": (discovery.pc, (train,), {"warn": warns["pc"]}),
        "ges": (discovery.ges, (train,), {"warn": warns["ges"]}),
        "gies": (discovery.gies, (train, GIES_CONFIG, targets), {"warn": warns["gies"]}),
    }
    return warns, jobs


def protocol(cfg: dict, train, test, targets, calls: Calls) -> dict:
    """One protocol run, from model-ready tables to the last prediction."""
    names, target = train.names, train.target
    with calls.span("bench.discovery"):
        warns, jobs = _discovery_jobs(train, targets)
        patterns = {
            k: calls.call(f"discovery.{k}", fn, *args, **kw)
            for k, (fn, args, kw) in jobs.items()
        }
    with calls.span("bench.skeleton"):
        skeleton = calls.call(
            "gnn.skeleton_from_pattern", gnn.skeleton_from_pattern, patterns["pc"], names, target
        )
        # drawn over the sorted names, so the column order cannot change it
        random_edges = calls.call(
            "baselines.random_skeleton",
            baselines.random_skeleton,
            sorted(names),
            target,
            n_edges=len(skeleton.edges),
        )
    with calls.span("bench.gnn"):
        fits, test_inst = {}, {}
        for name, kind, sk in (
            ("sage", "sage", skeleton),
            ("ecc", "ecc", skeleton),
            ("random_edges", "sage", random_edges),
        ):
            if sk not in test_inst:
                train_inst = calls.call("gnn.build_instances", gnn.build_instances, train, sk)
                test_inst[sk] = calls.call("gnn.build_instances", gnn.build_instances, test, sk)
            fits[name] = calls.call(
                f"gnn.train.{name}", gnn.train, kind, sk, train_inst, epochs=cfg["epochs"]
            )
    with calls.span("bench.baselines"):
        rf = calls.call("baselines.rf_train", baselines.rf_train, train, n_trees=cfg["rf_trees"])
        gbt = calls.call(
            "baselines.gbt_train",
            baselines.gbt_train,
            train,
            n_estimators=cfg["gbt_rounds"],
            max_depth=cfg["gbt_depth"],
        )
        mlp = calls.call("baselines.mlp_train", baselines.mlp_train, train, epochs=cfg["mlp_epochs"])
    with calls.span("bench.predict"):
        preds = {
            name: calls.call(
                "gnn.predict", gnn.predict, fit.model, fit.skeleton, test_inst[fit.skeleton]
            )
            for name, fit in fits.items()
        }
        preds["rf"] = calls.call("baselines.rf_predict", baselines.rf_predict, rf, test)
        preds["gbt"] = calls.call("baselines.gbt_predict", baselines.gbt_predict, gbt, test)
        preds["mlp"] = calls.call("baselines.mlp_predict", baselines.mlp_predict, mlp, test)
    return {
        "patterns": patterns,
        "warns": warns,
        "skeleton": skeleton,
        "rf": rf,
        "gbt": gbt,
        "mlp": mlp,
        "preds": preds,
        "y": test.column(target),
    }


def _edges(pattern) -> dict:
    return {
        "directed": sorted(map(list, pattern.directed)),
        "undirected": sorted(map(list, pattern.undirected)),
    }


def quality(res: dict) -> dict:
    """Everything a run produces that must not change with speed."""
    y = res["y"]
    skeleton = res["skeleton"]
    return {
        "mae": {k: float(np.mean(np.abs(p - y))) for k, p in res["preds"].items()},
        "finite": all(bool(np.isfinite(p).all()) for p in res["preds"].values()),
        "patterns": {k: _edges(p) for k, p in res["patterns"].items()},
        "target_in_neighbors": list(skeleton.in_neighbors(skeleton.target)),
    }


def _tree_nodes(root) -> int:
    count, stack = 0, [root]
    while stack:
        node = stack.pop()
        count += 1
        if not node.is_leaf:
            stack.extend((node.left, node.right))
    return count


def counts(res: dict) -> dict:
    """Work counts of one traced protocol run, read at the layer boundary."""
    pats, warns, skeleton = res["patterns"], res["warns"], res["skeleton"]
    out = {}
    for k, p in pats.items():
        out[f"discovery.{k}_edges"] = len(p.directed) + len(p.undirected)
    out["discovery.pc_ci_tests"] = pats["pc"].meta["ci_tests"]
    out["discovery.ges_sweeps"] = pats["ges"].meta["sweeps"]
    out["discovery.gies_sweeps"] = pats["gies"].meta["sweeps"]
    out["stats.singular_fallbacks"] = sum(w.singular_fallbacks for w in warns.values())
    out["stats.empty_interventional"] = sum(w.empty_interventional for w in warns.values())
    out["gnn.skeleton_nodes"] = skeleton.n_nodes
    out["gnn.skeleton_edges"] = len(skeleton.edges)
    out["gnn.closure_nodes"] = gnn.prune_to_target(skeleton, gnn.CONV_DEPTH["sage"]).n_nodes
    trees = [*res["rf"].trees, *res["gbt"].trees]
    out["baselines.tree_nodes"] = sum(_tree_nodes(t) for t in trees)
    out["baselines.mlp_fits"] = len(res["mlp"].grid_log) + 1  # the grid plus the refit
    return out


def _per_call(fn, calls_per_batch: int, batches: int = 5) -> float:
    """Median seconds per call over ``batches`` runs of ``fn``."""
    samples = []
    for _ in range(batches):
        t = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - t) / calls_per_batch)
    return median(samples)


def inner_layers(train, res: dict) -> dict:
    """Per-call times of the stats, graphs, engine and tree layers, each on
    this workload's own statistic, pattern, batch or design."""
    names = tuple(sorted(train.names))
    d = len(names)
    warn = stats.WarningCounter()
    stat = stats.suff_stat(train, names)
    pairs = list(combinations(range(d), 2))[:64]
    tests = [(i, j, [k for k in range(d) if k not in (i, j)][:2]) for i, j in pairs]
    scores = [(k, [p for p in range(d) if p != k][:3]) for k in range(d)]
    gies = res["patterns"]["gies"]

    rng = np.random.default_rng(0)
    batch, nodes, width = train.n, res["skeleton"].n_nodes, 16
    h = engine.parameter(rng.standard_normal((batch, nodes, width)))
    w = engine.parameter(rng.standard_normal((width, width)))
    zeros = np.zeros(batch * nodes * width)

    def matmul_fwd_bwd():
        h.zero_grad()
        w.zero_grad()
        out = engine.reshape(engine.matmul(h, w), (batch * nodes * width,))
        engine.mse(out, zeros).backward()

    params = gnn.init_sage(res["skeleton"]).params
    grads = [rng.standard_normal(p.values.shape) for p in params]
    adam = engine.AdamState.for_params(params, lr=1e-3)

    features = sorted(n for n in train.names if n != train.target)
    design, labels = train.matrix(features), train.column(train.target)
    t = time.perf_counter()
    baselines.cart_train(design, labels, max_depth=20)
    cart_s = time.perf_counter() - t

    return {
        "stats.suff_stat_ms": 1e3 * _per_call(lambda: stats.suff_stat(train, names), 1),
        "stats.fisher_z_us": 1e6 * _per_call(
            lambda: [stats.fisher_z_test(i, j, S, stat, warn=warn) for i, j, S in tests],
            len(tests),
        ),
        "stats.bic_local_us": 1e6 * _per_call(
            lambda: [stats.bic_local_stat(k, P, stat, warn=warn) for k, P in scores],
            len(scores),
        ),
        "graphs.meek_closure_us": 1e6 * _per_call(
            lambda: [graphs.meek_closure(gies) for _ in range(20)], 20
        ),
        "graphs.consistent_extension_us": 1e6 * _per_call(
            lambda: [graphs.consistent_extension(gies) for _ in range(20)], 20
        ),
        "engine.matmul_fwd_bwd_ms": 1e3 * _per_call(matmul_fwd_bwd, 1),
        "engine.adam_step_us": 1e6 * _per_call(
            lambda: [engine.adam_step(params, grads, adam) for _ in range(50)], 50
        ),
        "baselines.cart_tree_s": cart_s,
    }


def probe(cfg: dict) -> dict:
    """Discovery on the short paper-width probe table; each learner is
    attempted on its own and every raise is recorded, not hidden."""
    calls = Calls()
    _, _, train, _, targets = setup({**cfg, "paper_width": True}, cfg["probe_csv"], calls)
    _, jobs = _discovery_jobs(train, targets)
    errors = {}
    for k, (fn, args, kw) in jobs.items():
        try:
            calls.call(f"discovery.{k}", fn, *args, **kw)
        except Exception as exc:  # the probe reports whatever the learner raises
            errors[k] = f"{type(exc).__module__}.{type(exc).__name__}: {exc}"
    return {"attempted": calls.attempted, "raised": calls.raised, "errors": errors}


def main(cfg_path: str, out_path: str) -> None:
    """One process: set-up, then in ``run`` mode one untraced protocol run
    (and the probe, when the config names one), or in ``trace`` mode one
    traced protocol run and the inner-layer measurements."""
    with open(cfg_path, encoding="utf-8") as fh:
        cfg = json.load(fh)
    mode = cfg["mode"]
    calls = Calls(trace=mode == "trace")
    t = time.perf_counter()
    table, scaler, train, test, targets = setup(cfg, cfg["csv"], calls)
    out = {
        "import_s": IMPORT_S,
        "setup_s": IMPORT_S + time.perf_counter() - t,
        "rows": table.n,
        "cols": len(table.names),
        "train_rows": train.n,
        "fitted_on": scaler.fitted_on,
    }
    if mode in ("run", "trace"):
        first = len(calls.spans)
        t = time.perf_counter()
        res = protocol(cfg, train, test, targets, calls)
        out["run_s"] = time.perf_counter() - t
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        out["quality"] = quality(res)
        out["attempted"], out["raised"] = calls.attempted, calls.raised
    if mode == "trace":
        out["spans"], out["first_span"] = calls.spans, first
        out["counts"] = counts(res)
        out["inner"] = inner_layers(train, res)
    if mode == "run" and cfg["probe_csv"]:
        out["probe"] = probe(cfg)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
