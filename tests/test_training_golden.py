"""Pins the trained models' outputs exactly.

On a small default-farm split (10 days, min-max scaled on the red/blue
rows, trained on red/blue and predicted on green), with the true DAG as
the skeleton, it records SAGE, ECC and random-edges SAGE ``loss_history``
and predictions, and the MLP grid log and predictions, in
``tests/data/training_golden.json``.  Any change to the model layer that
moves one bit of these fails here.  To re-record after an intended change:

    PYTHONPATH=src python tests/test_training_golden.py
"""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np

from soilcausal import baselines, gnn, ingest, synth

GOLDEN = Path(__file__).parent / "data" / "training_golden.json"


def _rows(table, mask):
    return replace(
        table,
        rows=table.rows[mask],
        timestamps=table.timestamps[mask],
        field_id=table.field_id[mask],
        treatment=table.treatment[mask],
    )


def _outputs() -> dict:
    scm, envs = synth.default_farm_benchmark(n_days=10)
    table = synth.sample_environments(scm, envs)
    train_mask = np.isin(table.treatment, synth.TRAIN_TREATMENTS)
    table = ingest.min_max_apply(table, ingest.min_max_fit(table, table.names, train_mask))
    train = _rows(table, train_mask)
    test = _rows(table, table.treatment == synth.TEST_TREATMENT)

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
    assert json.loads(json.dumps(_outputs())) == expected


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(_outputs(), indent=1) + "\n")
