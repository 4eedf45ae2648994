"""Non-negative matrix factorisation link prediction (Sec. VI-C1, "NMF").

The observed static adjacency matrix ``A`` is factorised as
``A ≈ W Hᵀ`` with non-negative factors of rank ``r``; the reconstruction
``(W Hᵀ)_{xy}`` scores candidate links.  Two solvers are provided:

* ``"pg"`` — alternating non-negative least squares where each subproblem
  is solved by the projected-gradient method of Lin (2007), the reference
  the paper cites ([24]);
* ``"mu"`` — the classic Lee–Seung multiplicative updates, cheaper per
  iteration and handy for tests.

Both operate on a sparse ``A`` so only ``O(nnz · r)`` work per iteration
touches the data matrix.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Hashable

import numpy as np

from repro.baselines.base import LinkScorer
from repro.graph.temporal import DynamicNetwork
from repro.utils.rng import RngLike, ensure_rng

if TYPE_CHECKING:
    import scipy.sparse as sp

Node = Hashable

_EPS = 1e-12


def nmf_factorize(
    matrix: "sp.spmatrix | np.ndarray",
    rank: int,
    *,
    method: str = "pg",
    max_iter: int = 100,
    tol: float = 1e-4,
    seed: RngLike = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Factorise a non-negative matrix as ``A ≈ W Hᵀ``.

    Args:
        matrix: non-negative (n, m) matrix, sparse or dense.
        rank: number of latent factors ``r >= 1``.
        method: ``"pg"`` (projected gradient ANLS, Lin 2007) or ``"mu"``
            (multiplicative updates).
        max_iter: outer iterations.
        tol: stop when the relative objective improvement falls below this.
        seed: RNG for the non-negative random initialisation.

    Returns:
        ``(W, H)`` with shapes (n, r) and (m, r).
    """
    import scipy.sparse as sp

    if rank < 1:
        raise ValueError(f"rank must be >= 1, got {rank}")
    if method not in ("pg", "mu"):
        raise ValueError(f"method must be 'pg' or 'mu', got {method!r}")
    a = sp.csr_matrix(matrix, dtype=np.float64)
    if a.nnz and a.data.min() < 0:
        raise ValueError("NMF requires a non-negative matrix")
    rng = ensure_rng(seed)
    n, m = a.shape
    scale = np.sqrt(max(a.mean(), _EPS) / rank)
    w = rng.random((n, rank)) * scale + _EPS
    h = rng.random((m, rank)) * scale + _EPS

    previous = np.inf
    for _ in range(max_iter):
        if method == "mu":
            w, h = _multiplicative_step(a, w, h)
        else:
            h = _projected_gradient_nnls(a.T.tocsr(), w, h)
            w = _projected_gradient_nnls(a, h, w)
        objective = _objective(a, w, h)
        if previous - objective <= tol * max(previous, _EPS):
            break
        previous = objective
    return w, h


def _objective(a: sp.csr_matrix, w: np.ndarray, h: np.ndarray) -> float:
    """``0.5 ||A - W Hᵀ||_F²`` computed without densifying ``W Hᵀ``."""
    # ||A||² - 2 <A, WHᵀ> + ||WHᵀ||²
    norm_a = float(a.multiply(a).sum())
    cross = float(np.sum((a @ h) * w))
    gram = (w.T @ w) @ (h.T @ h)
    return 0.5 * (norm_a - 2.0 * cross + float(np.trace(gram)))


def _multiplicative_step(
    a: sp.csr_matrix, w: np.ndarray, h: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One round of Lee–Seung updates for both factors."""
    wh_h = w @ (h.T @ h)
    w = w * ((a @ h) + _EPS) / (wh_h + _EPS)
    hw_w = h @ (w.T @ w)
    h = h * ((a.T @ w) + _EPS) / (hw_w + _EPS)
    return w, h


def _projected_gradient_nnls(
    a: sp.csr_matrix,
    basis: np.ndarray,
    start: np.ndarray,
    *,
    max_inner: int = 20,
    tol: float = 1e-4,
) -> np.ndarray:
    """Solve ``min_{X >= 0} 0.5 ||A - X Basisᵀ||²`` by projected gradient.

    This is the sub-problem solver of Lin (2007) with Armijo-style
    backtracking on the step size.
    """
    x = start.copy()
    gram = basis.T @ basis  # (r, r)
    atb = (a @ basis)  # (n, r)
    alpha = 1.0
    beta = 0.1
    sigma = 0.01
    for _ in range(max_inner):
        grad = x @ gram - atb
        # Projected-gradient norm as the stopping measure (Lin 2007, eq. 6).
        projected = grad.copy()
        mask = x <= 0
        projected[mask] = np.minimum(projected[mask], 0.0)
        if np.linalg.norm(projected) <= tol * (1.0 + np.linalg.norm(atb)):
            break
        # Backtracking line search on alpha.
        for _ in range(30):
            x_new = np.maximum(x - alpha * grad, 0.0)
            delta = x_new - x
            # Sufficient-decrease condition using the quadratic model.
            decrease = float(np.sum(grad * delta)) + 0.5 * float(
                np.sum((delta @ gram) * delta)
            )
            if decrease <= sigma * float(np.sum(grad * delta)):
                # condition satisfied when decrease is negative enough
                break
            alpha *= beta
        else:  # pragma: no cover - pathological conditioning
            break
        x = x_new
        alpha = min(alpha / beta, 1.0)  # allow the step to grow back
    return x


class NMFLinkPredictor(LinkScorer):
    """Link scorer backed by :func:`nmf_factorize` of the static adjacency."""

    name = "NMF"

    def __init__(
        self,
        rank: int = 32,
        *,
        method: str = "pg",
        max_iter: int = 60,
        seed: RngLike = 0,
    ) -> None:
        super().__init__()
        self.rank = rank
        self.method = method
        self.max_iter = max_iter
        self.seed = seed
        self._index: dict[Node, int] = {}
        self._w: "np.ndarray | None" = None
        self._h: "np.ndarray | None" = None

    def _prepare(self, network: DynamicNetwork) -> None:
        import scipy.sparse as sp

        graph = self.graph
        self._index = graph.node_index()
        n = len(self._index)
        rows, cols = [], []
        for u, v in graph.edges():
            i, j = self._index[u], self._index[v]
            rows.extend((i, j))
            cols.extend((j, i))
        a = sp.csr_matrix(
            (np.ones(len(rows)), (rows, cols)), shape=(n, n), dtype=np.float64
        )
        rank = min(self.rank, max(1, n - 1))
        self._w, self._h = nmf_factorize(
            a, rank, method=self.method, max_iter=self.max_iter, seed=self.seed
        )

    def score(self, u: Node, v: Node) -> float:
        if not self._both_known(u, v):
            return 0.0
        assert self._w is not None and self._h is not None
        iu, iv = self._index[u], self._index[v]
        # Symmetrised reconstruction (A is symmetric, the factors need not be).
        forward = float(self._w[iu] @ self._h[iv])
        backward = float(self._w[iv] @ self._h[iu])
        return 0.5 * (forward + backward)
