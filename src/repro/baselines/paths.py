"""Path-counting scorers: Katz index (Katz 1953) and Local Path index.

Katz sums damped walk counts of every length,

    Katz(x, y) = Σ_{l=1..∞} β^l (A^l)_{xy},

here truncated at ``max_length`` terms (β = 0.001 per Sec. VI-C2 makes the
tail negligible: the l-th term is bounded by ``(β Δ)^l``).  Walk counts
are obtained by repeated sparse matrix–vector products from each queried
source node, cached per source, so scoring p pairs costs
``O(p · max_length · |E|)`` instead of a dense matrix power.

The Local Path index (Lü, Jin & Zhou 2009) — ``A² + ε A³`` — is included
as a related-work extra; the paper discusses it (ref. [8]) without
benchmarking it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Hashable

import numpy as np

from repro.baselines.base import LinkScorer
from repro.graph.temporal import DynamicNetwork

if TYPE_CHECKING:
    import scipy.sparse as sp

Node = Hashable


class _SparseWalkScorer(LinkScorer):
    """Shared machinery: sparse adjacency + cached per-source walk counts."""

    def __init__(self, max_length: int) -> None:
        super().__init__()
        if max_length < 2:
            raise ValueError(f"max_length must be >= 2, got {max_length}")
        self.max_length = max_length
        self._index: dict[Node, int] = {}
        self._matrix: "sp.csr_matrix | None" = None
        #: source node -> list of walk-count vectors for lengths 1..max_length
        self._walk_cache: dict[Node, list[np.ndarray]] = {}

    def _prepare(self, network: DynamicNetwork) -> None:
        import scipy.sparse as sp

        self._index = self.graph.node_index()
        n = len(self._index)
        rows, cols = [], []
        for u, v in self.graph.edges():
            i, j = self._index[u], self._index[v]
            rows.extend((i, j))
            cols.extend((j, i))
        data = np.ones(len(rows), dtype=np.float64)
        self._matrix = sp.csr_matrix((data, (rows, cols)), shape=(n, n))
        self._walk_cache.clear()

    def _walk_counts(self, source: Node) -> list[np.ndarray]:
        """Vectors ``(A^l) e_source`` for ``l = 1..max_length``."""
        cached = self._walk_cache.get(source)
        if cached is not None:
            return cached
        assert self._matrix is not None
        vec = np.zeros(self._matrix.shape[0])
        vec[self._index[source]] = 1.0
        counts: list[np.ndarray] = []
        for _ in range(self.max_length):
            vec = self._matrix @ vec
            counts.append(vec)
        self._walk_cache[source] = counts
        return counts


class Katz(_SparseWalkScorer):
    """Truncated Katz index with damping factor ``beta``."""

    name = "Katz"

    def __init__(self, beta: float = 0.001, max_length: int = 5) -> None:
        super().__init__(max_length)
        if not 0.0 < beta < 1.0:
            raise ValueError(f"beta must be in (0, 1), got {beta}")
        self.beta = beta

    def score(self, u: Node, v: Node) -> float:
        if not self._both_known(u, v):
            return 0.0
        target = self._index[v]
        total = 0.0
        damp = 1.0
        for counts in self._walk_counts(u):
            damp *= self.beta
            total += damp * counts[target]
        return total


class LocalPath(_SparseWalkScorer):
    """Local Path index ``(A²)_{xy} + ε (A³)_{xy}`` (Lü et al. 2009)."""

    name = "LP"

    def __init__(self, epsilon: float = 0.01) -> None:
        super().__init__(max_length=3)
        self.epsilon = epsilon

    def score(self, u: Node, v: Node) -> float:
        if not self._both_known(u, v):
            return 0.0
        target = self._index[v]
        counts = self._walk_counts(u)
        return float(counts[1][target] + self.epsilon * counts[2][target])
