"""Hashes of the trained models' outputs, to show that a change leaves them
bit-identical: run it on two checkouts and diff the output.

On the default farm at 60 and 400 days (the ``farm-narrow`` and
``farm-long`` sizes, min-max scaled on and trained on the red/blue rows,
predicted on green) it trains SAGE and ECC on the PC skeleton and SAGE on
the random-edges skeleton at the benchmark's epochs, and the MLP grid at
the benchmark's MLP epochs.  Each line gives the first 16 hex digits of the
SHA-256 of a ``loss_history`` or of the predictions as little-endian
float64, or of the MLP ``grid_log`` as JSON.

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


def main():
    for name, n_days, epochs, mlp_epochs in (("farm-narrow", 60, 100, 20), ("farm-long", 400, 10, 5)):
        scm, envs = synth.default_farm_benchmark(n_days=n_days)
        table = synth.sample_environments(scm, envs)
        train_mask = np.isin(table.treatment, synth.TRAIN_TREATMENTS)
        table = ingest.min_max_apply(table, ingest.min_max_fit(table, table.names, train_mask))
        train = _rows(table, train_mask)
        test = _rows(table, table.treatment == synth.TEST_TREATMENT)
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
    main()
