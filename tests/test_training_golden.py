"""Pins the trained models' outputs exactly.

On a small default-farm split (10 days, min-max scaled on the red/blue
rows, trained on red/blue and predicted on green), with the true DAG as
the skeleton, it records SAGE, ECC and random-edges SAGE ``loss_history``
and predictions, and the MLP grid log and predictions, in
``tests/data/training_golden.json``.  The MLP entries must match bit for
bit.  The graph models' entries must match within rtol 1e-9: their
convolutions compute only the target's receptive field, in GEMMs of other
shapes than the full-graph ones the file was recorded with, which moves
the last bits.  To re-record the named entries after an intended change,
keeping the bytes of the others:

    PYTHONPATH=src python tests/test_training_golden.py ecc

Without names it re-records every entry.
"""

import json
import sys
from pathlib import Path

import numpy as np

from soilcausal import baselines, gnn, ingest, synth

GOLDEN = Path(__file__).parent / "data" / "training_golden.json"


def _outputs() -> dict:
    scm, envs = synth.default_farm_benchmark(n_days=10)
    table = synth.sample_environments(scm, envs)
    train, held_out = ingest.split_by_treatment(table, synth.TRAIN_TREATMENTS, [synth.TEST_TREATMENT])
    scaler = ingest.min_max_fit(train, train.names, np.ones(train.n, dtype=bool))
    train, test = ingest.min_max_apply(train, scaler), ingest.min_max_apply(held_out[synth.TEST_TREATMENT], scaler)

    nodes = tuple(sorted(table.names))
    skeleton = gnn.GraphSkeleton(nodes=nodes, edges=tuple(scm.dag.edges), target=scm.target)
    random_edges = baselines.random_skeleton(nodes, scm.target, n_edges=len(skeleton.edges))
    out = {}
    for name, kind, sk in (
        ("sage", "sage", skeleton),
        ("ecc", "ecc", skeleton),
        ("random_edges", "sage", random_edges),
    ):
        fit = gnn.train(kind, sk, gnn.build_instances(train, sk), epochs=25, hidden=8)
        pred = gnn.predict(fit.model, sk, gnn.build_instances(test, sk))
        out[name] = {"loss_history": fit.loss_history, "predictions": pred.tolist()}
    mlp = baselines.mlp_train(train, epochs=4)
    out["mlp"] = {
        "grid_log": [[list(hidden), lr, mse] for hidden, lr, mse in mlp.grid_log],
        "predictions": baselines.mlp_predict(mlp, test).tolist(),
    }
    return out


def test_training_outputs_match_recorded_golden():
    # json round-trips a float64 through its repr, so equality is exact
    expected = json.loads(GOLDEN.read_text())
    got = json.loads(json.dumps(_outputs()))
    assert got.keys() == expected.keys()
    assert got["mlp"] == expected["mlp"]
    for name in ("sage", "ecc", "random_edges"):
        for key in ("loss_history", "predictions"):
            assert len(got[name][key]) == len(expected[name][key])
            np.testing.assert_allclose(got[name][key], expected[name][key], rtol=1e-9, atol=0)


if __name__ == "__main__":
    outputs = _outputs()
    names = sys.argv[1:] or list(outputs)
    unknown = sorted(set(names) - set(outputs))
    if unknown:
        sys.exit(f"unknown entries {unknown}; the entries are {list(outputs)}")
    # json round-trips every float through its repr, so the entries not
    # named are written back byte for byte
    recorded = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    GOLDEN.write_text(json.dumps({k: outputs[k] if k in names else recorded[k] for k in outputs}, indent=1) + "\n")
