"""Hashes of the discovered patterns and of the trained models' outputs, to
show that a change leaves them bit-identical: run it on two checkouts and
diff the output.

Discovery: ``pc``, ``ges`` and ``gies`` (with the benchmark's intervention
targets) on the red/blue train rows of the default farm at 60 and 400 days
(the ``farm-narrow`` and ``farm-long`` tables), of the 62-column paper-width
table at 400 days (``farm-wide``) and of the paper-width table at 60 days
(``farm-wide``'s probe), and on the 60-day train rows narrowed by
``ingest.select_columns`` to every column but ``plough``, with ``plough``
dropped from the targets (``farm-narrow-no-plough``: no row is
intervened, so ``gies`` returns ``ges``'s pattern).  Each line gives the
pattern, the sepsets and the CI test count (``pc``) or sweeps
(``ges``/``gies``), the warning counts and the greedy searches' cached
local BIC scores; a learner that raises prints its error and the counts at
the raise.

Models: on the 60- and 400-day tables (min-max scaled on and trained on the
red/blue rows, predicted on green) it trains SAGE and ECC on the PC
skeleton and SAGE on the random-edges skeleton at the benchmark's epochs,
the MLP grid at the benchmark's MLP epochs, and the random forest and
depth-20 boosting at the benchmark's trees and rounds; each tree line also
gives the models' total node count.  On the paper-width 400-day table it
trains the three graph models and the MLP grid for ``farm-wide``'s one
epoch.  Each graph model also prints the hash of its ``save_model``
checkpoint bytes, which pins the checkpoint format and the trained
parameters.

Farms: one line each for the 60- and 400-day default farms and the
400-day paper-width table, as sampled and before scaling, hashes the
columns' names and kinds in schema order, the (day, field, treatment) tags
and the rows.  These pin ``synth``'s own output, which every result above
reads only after discovery and scaling have canonicalized it.

Each hash is the first 16 hex digits of the SHA-256 of a ``loss_history``,
predictions or scores as little-endian float64, or of JSON.

    PYTHONPATH=src python benchmarks/output_hashes.py
"""

import hashlib
import json
import tempfile
from pathlib import Path

import numpy as np

from soilcausal import baselines, discovery, gnn, ingest, stats, synth


def _hash(arr) -> str:
    return hashlib.sha256(np.asarray(arr, dtype="<f8").tobytes()).hexdigest()[:16]


def _json_hash(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()[:16]


def _nodes(tree) -> int:
    return 1 if tree.is_leaf else 1 + _nodes(tree.left) + _nodes(tree.right)


def _sampled(n_days, paper_width):
    """The default farm's table, widened to paper width or not, before
    scaling, and its environments."""
    scm, envs = synth.default_farm_benchmark(n_days=n_days)
    table = synth.sample_environments(scm, envs)
    if paper_width:
        table = ingest.add_field_onehots(ingest.lag_counts(table))
    return table, envs


def _farm(n_days, paper_width):
    """Min-max scaled (on the train rows) train and test tables, and the
    benchmark's treatment -> intervened-columns mapping."""
    table, envs = _sampled(n_days, paper_width)
    train, held_out = ingest.split_by_treatment(table, synth.TRAIN_TREATMENTS, [synth.TEST_TREATMENT])
    scaler = ingest.min_max_fit(train, train.names, np.ones(train.n, dtype=bool))
    targets = {t: sorted(nodes) for t, nodes in synth.targets_by_treatment(envs).items()}
    return ingest.min_max_apply(train, scaler), ingest.min_max_apply(held_out[synth.TEST_TREATMENT], scaler), targets


class _RecordingScorer(discovery._Scorer):
    """The greedy searches' scorer, kept so its score cache can be hashed.
    The cache keys parent sets by bitmask; they are decoded to sorted index
    lists, so each line reads as it did when the keys were sets."""

    made: list = []

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.made.append(self)


def _discovery_line(name, learner, learn):
    warn = stats.WarningCounter()
    _RecordingScorer.made.clear()
    out = [name, learner]
    try:
        pat = learn(warn)
    except Exception as exc:  # a learner's raise is part of its output
        out += ["raised", f"{type(exc).__name__}: {exc}"]
    else:
        out += ["pattern", _json_hash([sorted(map(list, pat.directed)), sorted(map(list, pat.undirected))])]
        if "sepsets" in pat.meta:
            out += ["sepsets", _json_hash(sorted([list(p), list(s)] for p, s in pat.meta["sepsets"].items()))]
            out += ["ci_tests", str(pat.meta["ci_tests"])]
        else:
            out += ["sweeps", str(pat.meta["sweeps"])]
    out += ["singular_fallbacks", str(warn.singular_fallbacks), "empty_interventional", str(warn.empty_interventional)]
    if _RecordingScorer.made:
        made = _RecordingScorer.made
        cache = sorted((y, discovery._members(p), s) for sc in made for (y, p), s in sc.cache.items())
        out += ["scores", str(len(cache)), _json_hash([k[:2] for k in cache]), _hash([k[2] for k in cache])]
    print(*out)


def discovery_hashes():
    discovery._Scorer = _RecordingScorer
    gies_cfg = discovery.DiscoveryConfig(use_interventions=True)
    for name, n_days, paper_width in (
        ("farm-narrow", 60, False),
        ("farm-long", 400, False),
        ("farm-wide", 400, True),
        ("farm-wide-probe", 60, True),
    ):
        train, _, targets = _farm(n_days, paper_width)
        runs = [(name, train, targets)]
        if name == "farm-narrow":
            kept = [n for n in train.names if n != "plough"]
            narrow = {t: [n for n in nodes if n in kept] for t, nodes in targets.items()}
            runs.append(("farm-narrow-no-plough", ingest.select_columns(train, kept), narrow))
        for label, table, tags in runs:
            for learner, learn in (
                ("pc", lambda w: discovery.pc(table, warn=w)),
                ("ges", lambda w: discovery.ges(table, warn=w)),
                ("gies", lambda w: discovery.gies(table, gies_cfg, tags, warn=w)),
            ):
                _discovery_line(label, learner, learn)


def _checkpoint_hash(model) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "model.bin"
        gnn.save_model(path, model)
        return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


def _graph_model_lines(name, train, test, epochs):
    """SAGE and ECC on the PC skeleton, SAGE on the random-edges skeleton."""
    pattern = discovery.pc(train, warn=stats.WarningCounter())
    sk = gnn.skeleton_from_pattern(pattern, train.names, train.target)
    rnd = baselines.random_skeleton(sorted(train.names), train.target, n_edges=len(sk.edges))
    for model, kind, s in (("sage", "sage", sk), ("ecc", "ecc", sk), ("random_edges", "sage", rnd)):
        fit = gnn.train(kind, s, gnn.build_instances(train, s), epochs=epochs)
        pred = gnn.predict(fit.model, s, gnn.build_instances(test, s))
        print(name, model, "loss", _hash(fit.loss_history), "pred", _hash(pred))
        print(name, model, "checkpoint", _checkpoint_hash(fit.model))


def _mlp_line(name, train, test, epochs):
    mlp = baselines.mlp_train(train, epochs=epochs)
    log = [[list(hidden), lr, mse] for hidden, lr, mse in mlp.grid_log]
    print(name, "mlp grid_log", _json_hash(log), "pred", _hash(baselines.mlp_predict(mlp, test)))


def model_hashes():
    for name, n_days, epochs, mlp_epochs, rf_trees, gbt_rounds in (
        ("farm-narrow", 60, 100, 20, 20, 10),
        ("farm-long", 400, 10, 5, 3, 2),
    ):
        train, test, _ = _farm(n_days, paper_width=False)
        _graph_model_lines(name, train, test, epochs)
        _mlp_line(name, train, test, mlp_epochs)
        rf = baselines.rf_train(train, n_trees=rf_trees)
        nodes = sum(_nodes(tree) for tree in rf.trees)
        pred = baselines.rf_predict(rf, test)
        print(name, "rf nodes", nodes, "pred", _hash(pred))
        gbt = baselines.gbt_train(train, n_estimators=gbt_rounds, max_depth=20)
        nodes = sum(_nodes(tree) for tree in gbt.trees)
        pred = baselines.gbt_predict(gbt, test)
        print(name, "gbt nodes", nodes, "loss", _hash(gbt.loss_history), "pred", _hash(pred))
    train, test, _ = _farm(400, paper_width=True)
    _graph_model_lines("farm-wide", train, test, epochs=1)
    _mlp_line("farm-wide", train, test, epochs=1)


def farm_hashes():
    for name, n_days, paper_width in (("farm-narrow", 60, False), ("farm-long", 400, False), ("farm-wide", 400, True)):
        table, _ = _sampled(n_days, paper_width)
        columns = _json_hash([[c.name, c.kind] for c in table.schema])
        tags = [np.datetime_as_string(table.timestamps).tolist(), table.field_id.tolist(), table.treatment.tolist()]
        print(name, "table columns", columns, "tags", _json_hash(tags), "rows", _hash(table.rows))


if __name__ == "__main__":
    discovery_hashes()
    model_hashes()
    farm_hashes()
