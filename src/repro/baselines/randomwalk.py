"""Local Random Walk scorer (Liu & Lü 2010) — "RW" in the paper's tables.

A walker starts at ``x`` with the stationary initial weight
``q_x = |Γ(x)| / 2|E|`` and takes ``t`` steps of the row-normalised
transition matrix ``M`` (``p_x^t = M^T p_x^{t-1}``, Table I).  The
symmetric local-random-walk similarity is

    RW_t(x, y) = q_x · p_x^t[y] + q_y · p_y^t[x].

``t = 3`` captures the short-range structure the original paper found most
informative; walk distributions are cached per source node.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Hashable

import numpy as np

from repro.baselines.base import LinkScorer
from repro.graph.temporal import DynamicNetwork

if TYPE_CHECKING:
    import scipy.sparse as sp

Node = Hashable


class LocalRandomWalk(LinkScorer):
    """t-step local random walk similarity."""

    name = "RW"

    def __init__(self, steps: int = 3) -> None:
        super().__init__()
        if steps < 1:
            raise ValueError(f"steps must be >= 1, got {steps}")
        self.steps = steps
        self._index: dict[Node, int] = {}
        self._transition_t: "sp.csr_matrix | None" = None
        self._initial_weight: dict[Node, float] = {}
        self._walk_cache: dict[Node, np.ndarray] = {}

    def _prepare(self, network: DynamicNetwork) -> None:
        import scipy.sparse as sp

        graph = self.graph
        self._index = graph.node_index()
        n = len(self._index)
        rows, cols, data = [], [], []
        for u, v in graph.edges():
            i, j = self._index[u], self._index[v]
            # M[i, j] = 1/deg(i); we store M^T so stepping is a single matvec.
            rows.extend((j, i))
            cols.extend((i, j))
            data.extend((1.0 / graph.degree(u), 1.0 / graph.degree(v)))
        self._transition_t = sp.csr_matrix(
            (np.array(data), (rows, cols)), shape=(n, n)
        )
        num_edges = graph.number_of_edges()
        denom = 2.0 * num_edges if num_edges else 1.0
        self._initial_weight = {
            node: graph.degree(node) / denom for node in graph.nodes
        }
        self._walk_cache.clear()

    def _distribution(self, source: Node) -> np.ndarray:
        """``p_source`` after ``self.steps`` transition steps."""
        cached = self._walk_cache.get(source)
        if cached is not None:
            return cached
        assert self._transition_t is not None
        vec = np.zeros(self._transition_t.shape[0])
        vec[self._index[source]] = 1.0
        for _ in range(self.steps):
            vec = self._transition_t @ vec
        self._walk_cache[source] = vec
        return vec

    def score(self, u: Node, v: Node) -> float:
        if not self._both_known(u, v):
            return 0.0
        iu, iv = self._index[u], self._index[v]
        forward = self._initial_weight[u] * self._distribution(u)[iv]
        backward = self._initial_weight[v] * self._distribution(v)[iu]
        return float(forward + backward)
