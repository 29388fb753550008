"""Hashes of the discovered patterns and of the trained models' outputs, to
show that a change leaves them bit-identical: run it on two checkouts and
diff the output.

Discovery: ``pc``, ``ges`` and ``gies`` (with the benchmark's intervention
targets) on the red/blue train rows of the default farm at 60 and 400 days
(the ``farm-narrow`` and ``farm-long`` tables), of the 62-column paper-width
table at 400 days (``farm-wide``) and of the paper-width table at 60 days
(``farm-wide``'s probe).  Each line gives the pattern, the sepsets and the
CI test count (``pc``) or sweeps (``ges``/``gies``), the warning counts and
the greedy searches' cached local BIC scores; a learner that raises prints
its error and the counts at the raise.

Models: on the 60- and 400-day tables (min-max scaled on and trained on the
red/blue rows, predicted on green) it trains SAGE and ECC on the PC
skeleton and SAGE on the random-edges skeleton at the benchmark's epochs,
and the MLP grid at the benchmark's MLP epochs.

Each hash is the first 16 hex digits of the SHA-256 of a ``loss_history``,
predictions or scores as little-endian float64, or of JSON.

    PYTHONPATH=src python benchmarks/output_hashes.py
"""

import hashlib
import json
from dataclasses import replace

import numpy as np

from soilcausal import baselines, discovery, gnn, ingest, stats, synth


def _rows(table, mask):
    return replace(
        table,
        rows=table.rows[mask],
        timestamps=table.timestamps[mask],
        field_id=table.field_id[mask],
        treatment=table.treatment[mask],
    )


def _hash(arr) -> str:
    return hashlib.sha256(np.asarray(arr, dtype="<f8").tobytes()).hexdigest()[:16]


def _json_hash(obj) -> str:
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()[:16]


def _farm(n_days, paper_width):
    """Min-max scaled (on the train rows) train and test tables, and the
    benchmark's treatment -> intervened-columns mapping."""
    scm, envs = synth.default_farm_benchmark(n_days=n_days)
    table = synth.sample_environments(scm, envs)
    if paper_width:
        table = ingest.add_field_onehots(ingest.lag_counts(table))
    train_mask = np.isin(table.treatment, synth.TRAIN_TREATMENTS)
    table = ingest.min_max_apply(table, ingest.min_max_fit(table, table.names, train_mask))
    targets = {t: sorted(nodes) for t, nodes in synth.targets_by_treatment(envs).items()}
    return _rows(table, train_mask), _rows(table, table.treatment == synth.TEST_TREATMENT), targets


class _RecordingScorer(discovery._Scorer):
    """The greedy searches' scorer, kept so its score cache can be hashed."""

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
        cache = sorted((y, sorted(p), s) for sc in _RecordingScorer.made for (y, p), s in sc.cache.items())
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
        for learner, learn in (
            ("pc", lambda w: discovery.pc(train, warn=w)),
            ("ges", lambda w: discovery.ges(train, warn=w)),
            ("gies", lambda w: discovery.gies(train, gies_cfg, targets, warn=w)),
        ):
            _discovery_line(name, learner, learn)


def model_hashes():
    for name, n_days, epochs, mlp_epochs in (("farm-narrow", 60, 100, 20), ("farm-long", 400, 10, 5)):
        train, test, _ = _farm(n_days, paper_width=False)
        pattern = discovery.pc(train, warn=stats.WarningCounter())
        sk = gnn.skeleton_from_pattern(pattern, train.names, train.target)
        rnd = baselines.random_skeleton(sorted(train.names), train.target, n_edges=len(sk.edges))
        for model, kind, s in (("sage", "sage", sk), ("ecc", "ecc", sk), ("random_edges", "sage", rnd)):
            fit = gnn.train(kind, s, gnn.build_instances(train, s), epochs=epochs)
            pred = gnn.predict(fit.model, s, gnn.build_instances(test, s))
            print(name, model, "loss", _hash(fit.loss_history), "pred", _hash(pred))
        mlp = baselines.mlp_train(train, epochs=mlp_epochs)
        log = json.dumps([[list(hidden), lr, mse] for hidden, lr, mse in mlp.grid_log])
        pred = baselines.mlp_predict(mlp, test)
        print(name, "mlp grid_log", hashlib.sha256(log.encode()).hexdigest()[:16], "pred", _hash(pred))


if __name__ == "__main__":
    discovery_hashes()
    model_hashes()
