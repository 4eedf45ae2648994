#!/usr/bin/env python3
"""Hash the batched extraction engine's outputs on the catalog graphs.

A bit-identity check for changes to the CSR engine: run it on the
parent commit and on the change, and the printed digests must match
line for line.

    PYTHONPATH=src python scripts/engine_digest.py

It takes no arguments.  Each of the seven catalog graphs is generated at
seed 0 and scale 1.  Its workload is ``PAIRS`` (300) ``workload_pairs``
plus a pair with a missing end node, a duplicate pair and a reversed
pair.  The digest covers, in this order:

* ``extract_multi_batch`` over all six entry modes, at K = 5 and K = 10,
  for both orderings, with compress on and off;
* batches of 37 pairs and then batches of 1 pair through one engine
  (default config), with the footprint each row reports;
* one ``max_hop=1`` extraction.

It prints one SHA-256 prefix per graph, then ``ALL <prefix>`` over all
of them.  It also re-extracts the default-config ``extract_multi_batch``
with the engine's slab budget (``repro.core.batch.SLAB_ENTRIES``) forced
down to ``FORCED_SLAB_ENTRIES``, so every pass is cut into many chunks
and slabs; it exits 1, naming the graph on stderr, if any row differs
from the unforced call's.  The seven graphs take about 60 s on a 2-vCPU
host.
"""

from __future__ import annotations

import hashlib
import sys

import numpy as np

from repro.core import batch
from repro.core.feature import ENTRY_MODES, SSFConfig, SSFExtractor
from repro.datasets.catalog import DATASETS, get_dataset
from repro.obs.profile import workload_pairs

PAIRS = 300
#: slab budget of the forced re-extraction: a few thousand gathered
#: entries, far below every catalog graph's pass volume
FORCED_SLAB_ENTRIES = 4096


def _update(digest: "hashlib._Hash", array: np.ndarray) -> None:
    digest.update(repr((array.dtype.str, array.shape)).encode())
    digest.update(np.ascontiguousarray(array).tobytes())


def _slabbed_rows_match(
    network: object, pairs: list, expected: "dict[str, np.ndarray]"
) -> bool:
    """Whether the default-config multi-mode rows come out bit for bit
    the same with the slab budget forced to ``FORCED_SLAB_ENTRIES``."""
    saved = batch.SLAB_ENTRIES
    batch.SLAB_ENTRIES = FORCED_SLAB_ENTRIES
    try:
        extractor = SSFExtractor(network, SSFConfig(), backend="csr")
        out = extractor.extract_multi_batch(pairs, ENTRY_MODES)
    finally:
        batch.SLAB_ENTRIES = saved
    return all(out[m].tobytes() == expected[m].tobytes() for m in ENTRY_MODES)


def graph_digest(name: str) -> "tuple[str, bool]":
    """The graph's digest, and whether its forced-slab rows match."""
    network = get_dataset(name).generate(seed=0, scale=1.0)
    pairs = workload_pairs(network, PAIRS, seed=0)
    a, b = pairs[0]
    pairs = pairs + [("missing node", a), pairs[1], (b, a)]
    digest = hashlib.sha256()
    default_rows: "dict[str, np.ndarray]" = {}
    for k in (5, 10):
        for ordering in ("influence", "hops"):
            for compress in (True, False):
                config = SSFConfig(k=k, ordering=ordering, compress=compress)
                extractor = SSFExtractor(network, config, backend="csr")
                out = extractor.extract_multi_batch(pairs, ENTRY_MODES)
                if config == SSFConfig():
                    default_rows = out
                for mode in ENTRY_MODES:
                    _update(digest, out[mode])
    extractor = SSFExtractor(network, SSFConfig(), backend="csr")
    for size in (37, 1):
        for start in range(0, len(pairs), size):
            footprints: "list[np.ndarray]" = []
            _update(
                digest,
                extractor.extract_batch(pairs[start : start + size], footprints),
            )
            for footprint in footprints:
                _update(digest, footprint)
    capped = SSFExtractor(network, SSFConfig(max_hop=1), backend="csr")
    _update(digest, capped.extract_batch(pairs))
    return digest.hexdigest(), _slabbed_rows_match(network, pairs, default_rows)


def main() -> int:
    total = hashlib.sha256()
    failed: "list[str]" = []
    for name in DATASETS:
        value, slabs_match = graph_digest(name)
        total.update(f"{name} {value}\n".encode())
        print(f"{name} {value[:16]}", flush=True)
        if not slabs_match:
            failed.append(name)
    print(f"ALL {total.hexdigest()[:16]}")
    for name in failed:
        print(
            f"{name}: rows differ with SLAB_ENTRIES={FORCED_SLAB_ENTRIES}",
            file=sys.stderr,
        )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
