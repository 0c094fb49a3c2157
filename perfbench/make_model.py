"""Regenerate the model that the predict_dip workload scores with.

    python3 perfbench/make_model.py

Run from the root of a checkout. Trains the benchmark's recipe with label
mixing (alpha=1) on the spirals draw of seed 0, standardized on its train
half, and writes the model and the standardization moments to
``perfbench/model/``. Training is deterministic per seed, so the same code
and numpy give the same files.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    dm, _ = run.import_dipmix()
    train_set, _, stats = run.make_split(dm, 0)
    params, metrics = run.train_model(dm, train_set, ("label_mixing", 1.0, 1), 0)
    run.MODEL.parent.mkdir(exist_ok=True)
    dm.save_model(params, run.MODEL)
    with open(run.MODEL_STATS, "w", encoding="utf-8") as fh:
        json.dump({"mean": stats.mean.tolist(), "std": stats.std.tolist()}, fh)
        fh.write("\n")
    print(f"final train_loss={metrics[-1].train_loss:.6f}; wrote {run.MODEL} and {run.MODEL_STATS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
