"""K-structure subgraph extraction — Definition 7 / Algorithm 3 (lines 1–8).

Starting from ``h = 1``, the h-hop structure subgraph is grown until it
contains at least ``K`` structure nodes (or the whole reachable component
has been absorbed), Palette-WL orders are assigned, and the top-K
structure nodes are selected.  The result is a fixed-size, canonically
ordered view that the SSF adjacency matrix is read off from.

The growth loop runs over either substrate: a dict-backed
:class:`~repro.graph.temporal.DynamicNetwork` (the faithful reference) or
a frozen :class:`~repro.graph.csr.CSRSnapshot` (array BFS + array
structure combination; bit-identical output).  The ordering / selection
stage downstream of the growth loop is substrate-agnostic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, TypeAlias

import numpy as np

from repro.core.distance import distances_to_link
from repro.graph.csr import concatenate_neighbor_slices, sorted_unique
from repro.core.palette_wl import palette_wl_order
from repro.core.structure import (
    CSRStructureSubgraph,
    StructureNode,
    StructureSubgraph,
    combine_structures,
    combine_structures_csr,
)
from repro.graph.csr import CSRSnapshot
from repro.graph.temporal import DynamicNetwork
from repro.obs import enabled as obs_enabled, observe, span

Node = Hashable

AnyStructureSubgraph: TypeAlias = "StructureSubgraph | CSRStructureSubgraph"


@dataclass
class KStructureSubgraph:
    """The ordered top-K slice of an h-hop structure subgraph.

    Attributes:
        source: the h-hop structure subgraph the selection came from
            (dict- or CSR-backed; both expose the same query surface).
        k: the requested number of structure nodes.
        h: the hop radius at which the growth loop stopped.
        selected: structure-node indices in order; ``selected[p]`` is the
            structure node with Palette-WL order ``p + 1``.  May be shorter
            than ``k`` when the whole reachable component holds fewer
            structure nodes (the SSF matrix is then zero-padded).
        distances: hop distance of each selected structure node to the
            target link, aligned with ``selected``.
    """

    source: "StructureSubgraph | CSRStructureSubgraph"
    k: int
    h: int
    selected: list[int]
    distances: list[int]

    def __post_init__(self) -> None:
        if len(self.selected) < 2:
            raise ValueError("selection must include both end structure nodes")
        if self.selected[0] != 0 or self.selected[1] != 1:
            raise ValueError("end structure nodes must hold orders 1 and 2")

    def number_selected(self) -> int:
        return len(self.selected)

    def node(self, order: int) -> StructureNode:
        """The structure node holding 1-based Palette-WL ``order``."""
        return self.source.nodes[self.selected[order - 1]]

    def has_link(self, order_m: int, order_n: int) -> bool:
        """Whether a structure link connects the nodes at these orders."""
        return self.source.has_structure_link(
            self.selected[order_m - 1], self.selected[order_n - 1]
        )

    def link_timestamps(self, order_m: int, order_n: int) -> tuple[float, ...]:
        """All member-level link timestamps between two selected nodes."""
        return self.source.link_timestamps(
            self.selected[order_m - 1], self.selected[order_n - 1]
        )

    def link_count(self, order_m: int, order_n: int) -> int:
        return self.source.link_count(
            self.selected[order_m - 1], self.selected[order_n - 1]
        )

    def link_influence(
        self, order_m: int, order_n: int, present_time: float, theta: float
    ) -> float:
        """Normalized influence (Eq. 3) between two selected nodes.

        On the CSR substrate this reads the precomputed per-link influence
        table; on the dict substrate it evaluates Eq. 2 per timestamp.
        Both give bit-identical sums.
        """
        return self.source.link_influence(
            self.selected[order_m - 1],
            self.selected[order_n - 1],
            present_time,
            theta,
        )


def extract_k_structure_subgraph(
    network: "DynamicNetwork | CSRSnapshot",
    a: Node,
    b: Node,
    k: int,
    max_hop: "int | None" = None,
    tie_break: "Callable[[AnyStructureSubgraph], list[float]] | None" = None,
    *,
    merge: bool = True,
) -> KStructureSubgraph:
    """Grow ``h`` until the structure subgraph holds >= ``k`` structure
    nodes, order it with Palette-WL, and select the top ``k``.

    Args:
        network: the observed network ``G_[tp, tq)`` — a dict-backed
            :class:`DynamicNetwork` or a frozen :class:`CSRSnapshot`
            (``a``/``b`` are always given as node *labels*).
        a: first end node of the target link (must be in ``network``).
        b: second end node.
        k: number of structure nodes to select (>= 2).
        max_hop: optional cap on the growth radius; defaults to growing
            until the whole reachable component is absorbed.
        tie_break: optional ``subgraph -> per-node scores`` (lower =
            earlier) ordering WL-tied structure nodes, e.g. by influence
            strength toward the end nodes (see
            :class:`~repro.core.feature.SSFExtractor`).
        merge: ``False`` turns Algorithm 1 off, so every node is its own
            structure node and growth stops at ``k`` plain nodes — the
            WLF subgraph (:class:`~repro.baselines.wlf.WLFExtractor`).

    Returns:
        The ordered selection; ``len(selected) < k`` only when the
        component around the target link is too small.
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")

    if isinstance(network, CSRSnapshot):
        subgraph, h = _grow_csr(network, a, b, k, max_hop, merge)
    else:
        subgraph, h = _grow_dict(network, a, b, k, max_hop, merge)

    tie_break_scores = tie_break(subgraph) if tie_break is not None else None
    order = palette_wl_order(subgraph, tie_break=tie_break_scores)
    by_order = sorted(range(len(order)), key=lambda i: order[i])
    selected = by_order[: min(k, len(by_order))]
    structure_distances = subgraph.distances_to_target()
    return KStructureSubgraph(
        source=subgraph,
        k=k,
        h=h,
        selected=selected,
        distances=[structure_distances[i] for i in selected],
    )


def _grow_dict(
    network: DynamicNetwork,
    a: Node,
    b: Node,
    k: int,
    max_hop: "int | None",
    merge: bool,
) -> tuple[StructureSubgraph, int]:
    """Algorithm 3 lines 1–8 over the dict substrate."""
    with span("subgraph_growth"):
        member_distances = distances_to_link(network, a, b, max_hop=max_hop)
    reachable = len(member_distances)
    max_distance = max(member_distances.values())

    h = 0
    while True:
        h += 1
        with span("subgraph_growth", h=h):
            node_set = {n for n, d in member_distances.items() if d <= h}
        if obs_enabled():
            observe("subgraph.ball_size", len(node_set))
            observe(
                "subgraph.frontier_size",
                sum(1 for d in member_distances.values() if d == h),
            )
        subgraph = combine_structures(network, node_set, a, b, merge=merge)
        enough = subgraph.number_of_structure_nodes() >= k
        exhausted = len(node_set) == reachable or h >= max_distance
        if enough or exhausted:
            break
    observe("subgraph.growth_h", h)
    return subgraph, h


def _grow_csr(
    snapshot: CSRSnapshot,
    a: Node,
    b: Node,
    k: int,
    max_hop: "int | None",
    merge: bool,
) -> tuple[CSRStructureSubgraph, int]:
    """Algorithm 3 lines 1–8 over the CSR substrate (incremental array BFS).

    Levels are expanded one hop at a time, one level ahead of the growth
    loop — "exhausted" is exactly "the next BFS level is empty" — so a
    link whose subgraph reaches K structure nodes at a small radius (the
    common case) never walks the rest of the component.
    """
    a_id = snapshot.node_id(a)
    b_id = snapshot.node_id(b)
    if a_id == b_id:
        raise ValueError("target link end nodes must be distinct")

    dist = np.full(snapshot.number_of_nodes(), -1, dtype=np.int32)
    seeds = np.array([a_id, b_id], dtype=np.int64)
    dist[seeds] = 0

    def expand(frontier: np.ndarray, depth: int) -> np.ndarray:
        """Nodes at exactly ``depth``, given the frontier at ``depth - 1``."""
        if frontier.size == 0:
            return frontier
        neighbors = concatenate_neighbor_slices(
            snapshot.indptr, snapshot.indices, frontier
        )
        fresh = neighbors[dist[neighbors] == -1]
        if fresh.size == 0:
            return np.zeros(0, dtype=np.int64)
        fresh = sorted_unique(fresh).astype(np.int64)
        dist[fresh] = depth
        return fresh

    with span("subgraph_growth"):
        next_level = expand(seeds, 1)

    h = 0
    node_ids = seeds
    subgraph: "CSRStructureSubgraph | None" = None
    while True:
        h += 1
        with span("subgraph_growth", h=h):
            node_ids = np.sort(
                np.concatenate([node_ids, next_level]), kind="stable"
            )
        if obs_enabled():
            observe("subgraph.ball_size", len(node_ids))
            observe("subgraph.frontier_size", int(next_level.size))
        # Fewer ball nodes than K can never combine into >= K structure
        # nodes, so the (quadratic-ish) combination is deferred until the
        # ball is big enough or growth stops — on high-K/small-component
        # links this skips every intermediate combine.
        subgraph = None
        enough = False
        if len(node_ids) >= k:
            subgraph = combine_structures_csr(
                snapshot, node_ids, a_id, b_id, merge=merge
            )
            enough = subgraph.number_of_structure_nodes() >= k
        if max_hop is not None and h >= max_hop:
            exhausted = True
        else:
            next_level = expand(next_level, h + 1)
            exhausted = next_level.size == 0
        if enough or exhausted:
            if subgraph is None:
                subgraph = combine_structures_csr(
                    snapshot, node_ids, a_id, b_id, merge=merge
                )
            break
    assert subgraph is not None
    observe("subgraph.growth_h", h)
    return subgraph, h
