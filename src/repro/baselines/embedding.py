"""Factorisation/embedding scorers beyond the paper's NMF baseline.

* :class:`TemporalNMF` — non-negative factorisation of the *influence-
  weighted* adjacency matrix ``W[u, v] = Σ_links exp(-θ (l_t - l_k))``.
  This follows Yu et al. (IJCAI 2017) — the paper's reference [28] and
  the source of its Eq. 2 decay — in spirit: the temporal analogue of
  the static NMF baseline, with the same solver.
* :class:`SpectralEmbedding` — classic spectral link prediction: embed
  nodes with the top-``rank`` eigenvectors of the (symmetrised, degree-
  normalised) adjacency and score pairs by the reconstructed affinity.
  A useful sanity baseline between the local heuristics and NMF.
"""

from __future__ import annotations

from typing import Hashable

import numpy as np

from repro.baselines.base import LinkScorer
from repro.baselines.nmf import nmf_factorize
from repro.core.influence import DEFAULT_THETA, normalized_influence
from repro.graph.temporal import DynamicNetwork
from repro.utils.rng import RngLike

Node = Hashable


class TemporalNMF(LinkScorer):
    """NMF of the influence-weighted adjacency (temporal ref-[28] analogue)."""

    name = "tNMF"

    def __init__(
        self,
        rank: int = 32,
        *,
        theta: float = DEFAULT_THETA,
        method: str = "pg",
        max_iter: int = 60,
        seed: RngLike = 0,
    ) -> None:
        super().__init__()
        if not 0.0 < theta <= 1.0:
            raise ValueError(f"theta must be in (0, 1], got {theta}")
        self.rank = rank
        self.theta = theta
        self.method = method
        self.max_iter = max_iter
        self.seed = seed
        self._index: dict[Node, int] = {}
        self._w: "np.ndarray | None" = None
        self._h: "np.ndarray | None" = None

    def _prepare(self, network: DynamicNetwork) -> None:
        import scipy.sparse as sp

        self._index = self.graph.node_index()
        n = len(self._index)
        present = (
            network.last_timestamp() + 1.0 if network.number_of_links() else 0.0
        )
        rows, cols, data = [], [], []
        for u, v in network.pair_iter():
            weight = normalized_influence(
                network.timestamps(u, v), present, self.theta
            )
            if weight <= 0:
                continue
            i, j = self._index[u], self._index[v]
            rows.extend((i, j))
            cols.extend((j, i))
            data.extend((weight, weight))
        matrix = sp.csr_matrix(
            (np.array(data), (rows, cols)), shape=(n, n), dtype=np.float64
        )
        rank = min(self.rank, max(1, n - 1))
        self._w, self._h = nmf_factorize(
            matrix, rank, method=self.method, max_iter=self.max_iter, seed=self.seed
        )

    def score(self, u: Node, v: Node) -> float:
        if not self._both_known(u, v):
            return 0.0
        assert self._w is not None and self._h is not None
        iu, iv = self._index[u], self._index[v]
        forward = float(self._w[iu] @ self._h[iv])
        backward = float(self._w[iv] @ self._h[iu])
        return 0.5 * (forward + backward)


class SpectralEmbedding(LinkScorer):
    """Top-eigenvector embedding of the normalised adjacency."""

    name = "Spectral"

    def __init__(self, rank: int = 32) -> None:
        super().__init__()
        if rank < 1:
            raise ValueError(f"rank must be >= 1, got {rank}")
        self.rank = rank
        self._index: dict[Node, int] = {}
        self._embedding: "np.ndarray | None" = None
        self._eigenvalues: "np.ndarray | None" = None

    def _prepare(self, network: DynamicNetwork) -> None:
        import scipy.sparse as sp
        import scipy.sparse.linalg as spla

        graph = self.graph
        self._index = graph.node_index()
        n = len(self._index)
        rows, cols = [], []
        for u, v in graph.edges():
            i, j = self._index[u], self._index[v]
            rows.extend((i, j))
            cols.extend((j, i))
        adjacency = sp.csr_matrix(
            (np.ones(len(rows)), (rows, cols)), shape=(n, n)
        )
        # symmetric degree normalisation D^{-1/2} A D^{-1/2}
        degrees = np.asarray(adjacency.sum(axis=1)).ravel()
        inv_sqrt = np.zeros_like(degrees)
        positive = degrees > 0
        inv_sqrt[positive] = 1.0 / np.sqrt(degrees[positive])
        scaling = sp.diags(inv_sqrt)
        normalised = scaling @ adjacency @ scaling

        rank = min(self.rank, max(1, n - 2))
        try:
            values, vectors = spla.eigsh(normalised, k=rank, which="LA")
        except (spla.ArpackNoConvergence, ValueError):
            dense = normalised.toarray()
            all_values, all_vectors = np.linalg.eigh(dense)
            values = all_values[-rank:]
            vectors = all_vectors[:, -rank:]
        self._eigenvalues = values
        self._embedding = vectors

    def score(self, u: Node, v: Node) -> float:
        if not self._both_known(u, v):
            return 0.0
        assert self._embedding is not None and self._eigenvalues is not None
        iu, iv = self._index[u], self._index[v]
        return float(
            (self._embedding[iu] * self._eigenvalues) @ self._embedding[iv]
        )
