#!/usr/bin/env python3
"""Check that Table III reproduces bit for bit.

    PYTHONPATH=src python scripts/table3_check.py

It takes no arguments.  It runs ``results/run_table3.py``'s config and
seed on all seven catalog graphs, one graph at a time, and compares
every method's AUC and F1 with ``results/table3.json`` to the last bit.
For each graph it prints one SHA-256 prefix over every method's test
scores (``MethodResult.extras["test_scores"]``), since a score can move
while its AUC does not: run it on the parent commit and on the change,
and the printed lines must match.  It exits 1, naming each moved,
missing or extra cell on stderr.  The seven graphs take about 20 s on a
2-vCPU host.

A change that means to move the table says so, then regenerates
``results/table3.json`` with ``results/run_table3.py`` together with
EXPERIMENTS.md.
"""

from __future__ import annotations

import hashlib
import json
import os
import runpy
import sys

import numpy as np

from repro.datasets.catalog import DATASETS
from repro.experiments.runner import run_dataset

RUN_TABLE3 = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "results",
    "run_table3.py",
)


def moved_cells(name: str, results: dict, expected: dict) -> "list[str]":
    """The graph's cells whose AUC or F1 differs from ``expected`` in
    any bit, or that only one side has."""
    moved = [
        f"{name} {method}: missing from the run"
        for method in sorted(set(expected) - set(results))
    ]
    for method, result in results.items():
        if method not in expected:
            moved.append(f"{name} {method}: not in the committed table")
            continue
        for metric in ("auc", "f1"):
            got = float(getattr(result, metric))
            want = float(expected[method][metric])
            if got.hex() != want.hex():
                moved.append(f"{name} {method} {metric}: {want!r} -> {got!r}")
    return moved


def scores_digest(results: dict) -> str:
    digest = hashlib.sha256()
    for method, result in results.items():
        scores = np.asarray(result.extras["test_scores"])
        digest.update(repr((method, scores.dtype.str, scores.shape)).encode())
        digest.update(np.ascontiguousarray(scores).tobytes())
    return digest.hexdigest()[:16]


def main() -> int:
    table3 = runpy.run_path(RUN_TABLE3)
    with open(table3["TABLE3_JSON"], encoding="utf-8") as fh:
        committed = json.load(fh)
    moved: "list[str]" = [
        f"{name}: not run" for name in sorted(set(committed) - set(DATASETS))
    ]
    for name in DATASETS:
        results = run_dataset(name, config=table3["CONFIG"], seed=table3["SEED"])
        print(f"{name} {scores_digest(results)}", flush=True)
        moved.extend(moved_cells(name, results, committed.get(name, {})))
    for line in moved:
        print(line, file=sys.stderr)
    if moved:
        return 1
    cells = sum(len(methods) for methods in committed.values())
    print(f"all {cells} cells unchanged")
    return 0


if __name__ == "__main__":
    sys.exit(main())
