"""Structure Subgraph Feature extraction — Algorithm 3 and Definition 10.

The SSF of a target link ``e_t = (a, b)`` is the column-major unfolding of
the upper triangle of the K×K adjacency matrix of the normalized
K-structure subgraph, excluding the unknown target entry ``A(1, 2)``
(Eq. 5), giving a fixed length of ``K(K-1)/2 - 1``.

Entry modes (what ``A(m, n)`` holds for a present structure link):

* ``"influence"`` — the normalized influence of Eq. 3/4: the sum of
  exponentially decayed influences of every member-level link.  This is
  the paper's headline SSF.
* ``"count"`` — the raw number of member-level links (the paper's static
  **SSF-W** variant: "common 0/k entries", Sec. VI-C1).
* ``"binary"`` — 0/1 connectivity only.
* ``"distance"`` — the relaxed entries of Sec. V-B:
  ``A(m, n) = 1 / min(d(N_x, e_t), d(N_y, e_t))`` with ``d`` the hop
  distance of a structure node to the target link inside the structure
  subgraph.  The paper leaves the end-node case (distance 0) undefined;
  we clamp distances to a minimum of 1 so entries stay in ``(0, 1]``.
* ``"influence_distance"`` — the raw product of the influence and
  distance entries (an ablation).
* ``"temporal"`` — the library default and what the SSFLR/SSFNM
  experiments use: ``(1 + log1p(l̃)) / min_d``, i.e. the Sec. V-B
  distance relaxation modulated by the log-compressed normalized
  influence.  This reconciles the paper's two entry definitions
  (Sec. V-A says influence, Sec. V-B says the experiments used the
  distance relaxation): presence of a structure link keeps a
  bounded-away-from-zero base value (so old structure is not erased the
  way raw ``exp(-θΔ)`` erases it) while recent/multiple links
  monotonically increase the entry.

Raw influence sums and raw multi-link counts span many orders of
magnitude on dense networks, which cripples both the linear model and
the standardised MLP; ``SSFConfig.compress`` (default on) therefore
applies ``log1p`` to the ``"count"`` and ``"influence"`` modes.  Set it
off for the literal Eq. 4 values.

Notes on faithfulness:

* Eq. 5 ranges ``3 <= n < K``; read literally this drops column ``K``
  entirely and gives a length inconsistent with the worked Fig. 4 example.
  We read it as the upper triangle minus ``A(1, 2)`` (``3 <= n <= K``),
  matching both Fig. 4(d) and the WLNM convention the paper builds on.
* Links emerging *at* the prediction time would have influence 1 but are
  by construction absent from the observed network ``G_[tp, tq)``.
* When the component around the target link holds fewer than K structure
  nodes, the matrix (and hence the feature) is zero-padded — small
  components simply produce sparse features.
* End nodes that have never been seen (not in the network) yield the
  all-zero feature: there is no surrounding structure to encode.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, Hashable

import math

import numpy as np

if TYPE_CHECKING:
    from repro.core.batch import BatchExtractionEngine

from repro.core.influence import DEFAULT_THETA
from repro.core.kstructure import KStructureSubgraph, extract_k_structure_subgraph
from repro.core.structure import CSRStructureSubgraph, StructureSubgraph
from repro.graph.csr import CSRSnapshot
from repro.graph.temporal import DynamicNetwork
from repro.obs import span

Node = Hashable

ENTRY_MODES = (
    "temporal",
    "influence",
    "count",
    "binary",
    "distance",
    "influence_distance",
)

#: ``"csr"`` is the production substrate; ``"dict"`` is the readable
#: reference every csr path is checked against, asked for by name.
BACKENDS = ("dict", "csr")


@lru_cache(maxsize=None)
def unfold_indices(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Row/column index arrays of the Eq. 5 unfolding for one ``K``.

    Column-major upper triangle minus ``A(1, 2)``: for each 1-based column
    ``n`` in ``3..K``, rows ``1..n-1``.  Cached per ``K`` so ``_unfold``
    is a single fancy-index gather.
    """
    rows = np.concatenate([np.arange(n - 1) for n in range(3, k + 1)])
    cols = np.concatenate([np.full(n - 1, n - 1) for n in range(3, k + 1)])
    rows.flags.writeable = False
    cols.flags.writeable = False
    return rows, cols


@lru_cache(maxsize=None)
def upper_triangle_orders(selected: int) -> tuple[tuple[int, int], ...]:
    """All 1-based order pairs ``(m, n)``, ``m < n <= selected``, except
    the target entry ``(1, 2)`` — the Eq. 4 matrix slots to evaluate."""
    return tuple(
        (m, n)
        for n in range(2, selected + 1)
        for m in range(1, n)
        if (m, n) != (1, 2)
    )


def ssf_feature_dim(k: int) -> int:
    """Length of an SSF vector for a given ``K``: ``K(K-1)/2 - 1``."""
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    return k * (k - 1) // 2 - 1


@dataclass(frozen=True)
class SSFConfig:
    """Hyper-parameters of SSF extraction.

    Attributes:
        k: number of structure nodes selected (paper default 10).
        theta: influence damping factor (paper fixes 0.5).
        entry_mode: what adjacency entries encode; see module docstring.
        compress: apply ``log1p`` to the ``"count"`` and ``"influence"``
            entry values (heavy-tailed on dense networks); the other
            modes are already bounded.
        ordering: how Palette-WL's initial distances are measured —
            ``"influence"`` (footnote 1: structure-link lengths are the
            reciprocal normalized influence, so strong/recent structure
            ranks first; the default) or ``"hops"`` (unit lengths, the
            purely static ordering).
        max_hop: optional cap on the subgraph growth radius.
    """

    k: int = 10
    theta: float = DEFAULT_THETA
    entry_mode: str = "temporal"
    compress: bool = True
    ordering: str = "influence"
    max_hop: "int | None" = None

    def __post_init__(self) -> None:
        if self.k < 3:
            raise ValueError(f"k must be >= 3 for a non-empty feature, got {self.k}")
        if not 0.0 < self.theta <= 1.0:
            raise ValueError(f"theta must be in (0, 1], got {self.theta}")
        if self.entry_mode not in ENTRY_MODES:
            raise ValueError(
                f"entry_mode must be one of {ENTRY_MODES}, got {self.entry_mode!r}"
            )
        if self.ordering not in ("influence", "hops"):
            raise ValueError(
                f"ordering must be 'influence' or 'hops', got {self.ordering!r}"
            )
        if self.max_hop is not None and self.max_hop < 1:
            raise ValueError(f"max_hop must be >= 1, got {self.max_hop}")

    @property
    def feature_dim(self) -> int:
        return ssf_feature_dim(self.k)


class SSFExtractor:
    """Extracts SSF vectors for target links of one observed network.

    Example:
        >>> from repro.graph import DynamicNetwork
        >>> g = DynamicNetwork([("a", "c", 1), ("b", "c", 2), ("c", "d", 3)])
        >>> extractor = SSFExtractor(g, SSFConfig(k=4))
        >>> extractor.extract("a", "b").shape
        (5,)
    """

    def __init__(
        self,
        network: "DynamicNetwork | CSRSnapshot",
        config: "SSFConfig | None" = None,
        present_time: "float | None" = None,
        backend: str = "csr",
    ) -> None:
        """Args:
        network: the observed history ``G_[tp, tq)`` — a dict-backed
            :class:`DynamicNetwork` or a prebuilt :class:`CSRSnapshot`
            (build one per observed window and share it across
            extractors/workers to amortise the freeze cost).
        config: extraction hyper-parameters (defaults to ``SSFConfig()``).
        present_time: the prediction time ``l_t``; defaults to the
            network's last timestamp plus one unit, mirroring the paper's
            "predict the next timestamp" setup.
        backend: ``"csr"`` (the default: array pipeline over a frozen
            snapshot; a :class:`DynamicNetwork` is frozen here, so later
            changes to it are not seen) or ``"dict"`` (the faithful
            reference, read live; needs a :class:`DynamicNetwork`).
            Both give bit-identical features.
        """
        if backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}, got {backend!r}")
        if backend == "dict" and isinstance(network, CSRSnapshot):
            raise ValueError(
                "backend='dict' requires a DynamicNetwork, got a CSRSnapshot"
            )
        self._config = config or SSFConfig()
        self._backend = backend
        self._network: "DynamicNetwork | None" = None
        self._snapshot: "CSRSnapshot | None" = None
        if isinstance(network, CSRSnapshot):
            self._snapshot = network
        elif backend == "csr":
            self._snapshot = CSRSnapshot.from_dynamic(network)
        else:
            self._network = network
        source = self._substrate()
        if present_time is None:
            present_time = (
                source.last_timestamp() + 1.0 if source.number_of_links() else 0.0
            )
        self._present_time = float(present_time)
        self._batch_engine: "BatchExtractionEngine | None" = None

    @property
    def config(self) -> SSFConfig:
        return self._config

    @property
    def backend(self) -> str:
        """The backend: ``"dict"`` or ``"csr"``."""
        return self._backend

    @property
    def snapshot(self) -> "CSRSnapshot | None":
        """The frozen snapshot (``None`` on the dict backend)."""
        return self._snapshot

    @property
    def present_time(self) -> float:
        return self._present_time

    @property
    def feature_dim(self) -> int:
        return self._config.feature_dim

    def _substrate(self) -> "DynamicNetwork | CSRSnapshot":
        return self._snapshot if self._backend == "csr" else self._network

    def _has_node(self, node: Node) -> bool:
        return self._substrate().has_node(node)

    def _engine(self) -> "BatchExtractionEngine":
        """The batched CSR driver, built lazily and kept for the
        extractor's lifetime (its arena buffers amortise across batches)."""
        if self._batch_engine is None:
            from repro.core.batch import BatchExtractionEngine

            snapshot = self._snapshot
            assert snapshot is not None
            self._batch_engine = BatchExtractionEngine(
                snapshot,
                k=self._config.k,
                theta=self._config.theta,
                present_time=self._present_time,
                compress=self._config.compress,
                ordering=self._config.ordering,
                max_hop=self._config.max_hop,
            )
        return self._batch_engine

    # ------------------------------------------------------------------
    # extraction
    # ------------------------------------------------------------------
    def extract(self, a: Node, b: Node) -> np.ndarray:
        """The SSF vector ``V(e_t)`` of target link ``(a, b)`` (Def. 10)."""
        with span(f"feature.{self._config.entry_mode}", k=self._config.k):
            return self._unfold(self.adjacency_matrix(a, b))

    def extract_batch(
        self,
        pairs: "list[tuple[Node, Node]]",
        footprints: "list[np.ndarray] | None" = None,
        inner: "list[np.ndarray] | None" = None,
    ) -> np.ndarray:
        """SSF vectors for many target links, as a ``(pairs, dim)`` matrix.

        On ``backend="csr"`` this runs the batched driver
        (:class:`repro.core.batch.BatchExtractionEngine`): shared h-hop
        balls, arena work buffers and one vectorized Palette-WL pass over
        every subgraph of the batch.  The dict backend stays the
        loop-per-pair reference; both return bit-identical matrices.
        Pairs with a missing end node yield all-zero rows, in place.

        ``footprints`` (csr only) is extended with each row's snapshot
        node ids it depends on, and ``inner`` (csr only) with each row's
        inner ball: an edge event can change the row only if an endpoint
        lies in it or the event joins two footprint nodes — see
        :meth:`~repro.core.batch.BatchExtractionEngine.extract_batch`.
        """
        if self._backend == "csr":
            return self._engine().extract_batch(
                pairs, self._config.entry_mode, footprints, inner
            )
        if footprints is not None or inner is not None:
            # both are sets of snapshot node ids; dict has none
            raise ValueError("footprints and inner balls need the csr backend")
        out = np.zeros((len(pairs), self.feature_dim), dtype=np.float64)
        if not pairs:
            return out
        with span(
            f"feature.{self._config.entry_mode}",
            k=self._config.k,
            pairs=len(pairs),
        ):
            for row, (a, b) in enumerate(pairs):
                out[row] = self._unfold(self.adjacency_matrix(a, b))
        return out

    def extract_multi_batch(
        self, pairs: "list[tuple[Node, Node]]", modes: "tuple[str, ...]"
    ) -> dict[str, np.ndarray]:
        """Batched :meth:`extract_multi`: one matrix per entry mode.

        The expensive subgraph stage is shared across modes (and, on the
        CSR backend, across pairs — see :meth:`extract_batch`); each
        returned matrix row-aligns with ``pairs`` and equals the matching
        :meth:`extract_multi` vector bit for bit.
        """
        for mode in modes:
            if mode not in ENTRY_MODES:
                raise ValueError(f"unknown entry mode {mode!r}")
        if self._backend == "csr":
            return self._engine().extract_multi_batch(pairs, tuple(modes))
        out = {
            mode: np.zeros((len(pairs), self.feature_dim), dtype=np.float64)
            for mode in modes
        }
        if not pairs:
            return out
        subgraphs = [
            self.k_structure_subgraph(a, b)
            if self._has_node(a) and self._has_node(b)
            else None
            for a, b in pairs
        ]
        for mode in modes:
            with span(
                f"feature.{mode}", k=self._config.k, pairs=len(pairs), shared=True
            ):
                rows = out[mode]
                for row, ks in enumerate(subgraphs):
                    if ks is not None:
                        rows[row] = self._unfold(self._matrix_from_ks(ks, mode))
        return out

    def extract_multi(
        self, a: Node, b: Node, modes: "tuple[str, ...]"
    ) -> dict[str, np.ndarray]:
        """SSF vectors for several entry modes from ONE subgraph extraction.

        The K-structure subgraph (the expensive part) is shared; only the
        entry evaluation differs per mode.  The experiment runner shares
        extraction across SSF and SSF-W through the batched form,
        :meth:`extract_multi_batch`.
        """
        for mode in modes:
            if mode not in ENTRY_MODES:
                raise ValueError(f"unknown entry mode {mode!r}")
        if not (self._has_node(a) and self._has_node(b)):
            zero = np.zeros(self.feature_dim)
            return {mode: zero.copy() for mode in modes}

        ks = self.k_structure_subgraph(a, b)
        out: dict[str, np.ndarray] = {}
        for mode in modes:
            with span(f"feature.{mode}", k=self._config.k, shared=True):
                out[mode] = self._unfold(self._matrix_from_ks(ks, mode))
        return out

    def _matrix_from_ks(self, ks: KStructureSubgraph, mode: str) -> np.ndarray:
        k = self._config.k
        with span("influence_matrix", mode=mode):
            matrix = np.zeros((k, k), dtype=np.float64)
            rows: list[int] = []
            cols: list[int] = []
            values: list[float] = []
            for m, n in upper_triangle_orders(ks.number_selected()):
                if not ks.has_link(m, n):
                    continue
                rows.append(m - 1)
                cols.append(n - 1)
                values.append(self._entry_value(ks, m, n, mode))
            if values:
                matrix[rows, cols] = values
                matrix[cols, rows] = values
            return matrix

    def adjacency_matrix(self, a: Node, b: Node) -> np.ndarray:
        """The K×K normalized adjacency matrix ``A`` of Eq. 4.

        Rows/columns follow Palette-WL orders (row 0 = order 1 = end node
        ``a``'s structure node).  ``A(1, 2)`` — the target link itself —
        is fixed at 0; the matrix is symmetric.
        """
        if not (self._has_node(a) and self._has_node(b)):
            return np.zeros((self._config.k, self._config.k), dtype=np.float64)
        return self._matrix_from_ks(
            self.k_structure_subgraph(a, b), self._config.entry_mode
        )

    def k_structure_subgraph(self, a: Node, b: Node) -> KStructureSubgraph:
        """The ordered K-structure subgraph of ``(a, b)``.

        With ``ordering="influence"`` (default), structure nodes that the
        hop-distance bands and WL refinement leave tied are ordered by
        descending influence toward the two end nodes, so top-K selection
        keeps the most strongly/recently connected candidates — the role
        footnote 1's reciprocal-influence distances play, realised as a
        tie-break so feature positions stay consistent across links.
        """
        return extract_k_structure_subgraph(
            self._substrate(),
            a,
            b,
            self._config.k,
            max_hop=self._config.max_hop,
            tie_break=self._ordering_tie_break(),
        )

    def _ordering_tie_break(
        self,
    ) -> "Callable[[StructureSubgraph | CSRStructureSubgraph], list[float]] | None":
        """Per-node ``-influence-to-endpoints`` scores, or None for "hops".

        Structure nodes that the hop bands *and* the WL refinement leave
        tied are ordered by descending influence toward the two end
        nodes, so top-K selection keeps the most strongly/recently
        connected of otherwise-equivalent candidates (the footnote-1
        weighted-distance idea, realised without perturbing the
        structural ordering that keeps feature positions consistent).
        """
        if self._config.ordering == "hops":
            return None
        theta = self._config.theta
        present = self._present_time

        def scores(
            subgraph: "StructureSubgraph | CSRStructureSubgraph",
        ) -> list[float]:
            # Only structure nodes adjacent to an end node can score
            # nonzero, so walk the two end adjacencies instead of testing
            # every node against both ends.
            out = [0.0] * subgraph.number_of_structure_nodes()
            for endpoint in (0, 1):
                for idx in subgraph.adjacency(endpoint):
                    if idx != endpoint:
                        out[idx] -= subgraph.link_influence(
                            idx, endpoint, present, theta
                        )
            return out

        return scores

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _entry_value(self, ks: KStructureSubgraph, m: int, n: int, mode: str) -> float:
        if mode == "binary":
            return 1.0
        if mode == "count":
            count = float(ks.link_count(m, n))
            return math.log1p(count) if self._config.compress else count
        if mode == "influence":
            influence = self._influence(ks, m, n)
            return math.log1p(influence) if self._config.compress else influence
        if mode == "distance":
            return self._distance_entry(ks, m, n)
        if mode == "influence_distance":
            return self._influence(ks, m, n) * self._distance_entry(ks, m, n)
        if mode == "temporal":
            base = 1.0 + math.log1p(self._influence(ks, m, n))
            return base * self._distance_entry(ks, m, n)
        raise AssertionError(f"unhandled entry mode {mode!r}")  # pragma: no cover

    def _influence(self, ks: KStructureSubgraph, m: int, n: int) -> float:
        return ks.link_influence(m, n, self._present_time, self._config.theta)

    @staticmethod
    def _distance_entry(ks: KStructureSubgraph, m: int, n: int) -> float:
        d_m = ks.distances[m - 1]
        d_n = ks.distances[n - 1]
        finite = [d for d in (d_m, d_n) if d >= 0]
        if not finite:
            return 0.0
        return 1.0 / max(1, min(finite))

    def _unfold(self, matrix: np.ndarray) -> np.ndarray:
        """Eq. 5: upper triangle minus ``A(1, 2)``, column-major."""
        rows, cols = unfold_indices(self._config.k)
        return matrix[rows, cols]
