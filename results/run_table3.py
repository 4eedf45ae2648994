"""Full Table III run used to fill EXPERIMENTS.md (also run by the bench).

    PYTHONPATH=src python results/run_table3.py

writes ``table3.json`` next to this script.  ``scripts/table3_check.py``
re-runs the same ``CONFIG`` and ``SEED`` and checks every cell against it.
"""
import json
import os
import time

from repro.experiments import ExperimentConfig, run_table3
from repro.experiments.tables import format_table3

CONFIG = ExperimentConfig(epochs=120, max_positives=300, seed=0)
SEED = 0
TABLE3_JSON = os.path.join(os.path.dirname(os.path.abspath(__file__)), "table3.json")


def main() -> None:
    t0 = time.time()
    results = run_table3(config=CONFIG, seed=SEED)
    print(format_table3(results))
    payload = {
        d: {m: {"auc": r.auc, "f1": r.f1} for m, r in methods.items()}
        for d, methods in results.items()
    }
    with open(TABLE3_JSON, "w") as fh:
        json.dump(payload, fh, indent=1)
    print(f"\ntotal {time.time()-t0:.0f}s")


if __name__ == "__main__":
    main()
