"""Structure combination — Algorithm 1 and Definitions 4–6 of the paper.

Nodes of an h-hop subgraph that have *identical neighbour sets* play the
same topological role, so the paper merges each such equivalence class into
a single **structure node**; the merge is repeated on the resulting graph
until no two (non-end) structure nodes share a neighbourhood.  Links
between members of two structure nodes are collected into one **structure
link** that keeps every underlying timestamp, which later feeds the
normalized influence (Def. 8).

Two interchangeable implementations are provided, differing only in the
substrate they read:

* :func:`combine_structures` + :class:`StructureSubgraph` — the faithful
  reference over the dict-of-dict :class:`~repro.graph.temporal.DynamicNetwork`;
* :func:`combine_structures_csr` + :class:`CSRStructureSubgraph` — the
  array path over a frozen :class:`~repro.graph.csr.CSRSnapshot`: member
  neighbourhoods are sorted int slices, the round-0 grouping key is the
  raw bytes of each restricted neighbour slice (canonical because slices
  are id-sorted), and structure-link timestamps/influences are gathered
  straight from the snapshot's flat arrays.  Output is guaranteed
  bit-identical to the dict path (same partition, same sorted timestamps,
  same influence sums) — enforced by the backend differential tests.

Implementation notes:

* The two end nodes of the target link are always kept as singleton
  structure nodes (Def. 4, last sentence), even if another node happens to
  share their neighbourhood.
* Nodes merged into one structure node are never adjacent to each other:
  ``Γ(u) = Γ(v)`` and ``u ~ v`` would imply the self-loop ``u ∈ Γ(u)``,
  and the substrate forbids self-loops.  The same argument holds at every
  merge round, so structure links never need a self-loop case.
* Neither implementation copies the h-hop subgraph; both keep a reference
  to the parent substrate plus the node set ``V_h`` and resolve
  member-level timestamps lazily.  This is what makes per-link SSF
  extraction affordable on dense networks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, Sequence, TypeVar

import numpy as np

from repro.core.influence import normalized_influence
from repro.graph.csr import CSRSnapshot, concatenate_neighbor_slices
from repro.graph.temporal import DynamicNetwork
from repro.obs import enabled as obs_enabled, observe, span

Node = Hashable

#: opaque group-member type: node labels on the dict path, int ids on csr
_Member = TypeVar("_Member")


@dataclass(frozen=True)
class StructureNode:
    """A maximal set of nodes with a common neighbourhood (Def. 4)."""

    members: frozenset[Node]

    def __post_init__(self) -> None:
        if not self.members:
            raise ValueError("a structure node must have at least one member")

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, node: Node) -> bool:
        return node in self.members

    def representative(self) -> Node:
        """A deterministic member (smallest by repr), for display."""
        return min(self.members, key=repr)

    def sort_key(self) -> tuple[str, ...]:
        """Deterministic, label-based key used for tie-breaking orders."""
        return tuple(sorted(repr(m) for m in self.members))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = ",".join(sorted(repr(m) for m in self.members))
        return f"StructureNode({{{inner}}})"


class _StructureTopology:
    """Structure-level graph queries shared by both substrates.

    Subclasses must set ``self._adjacency`` (tuple of frozensets of int
    structure-node indices) and implement :meth:`number_of_structure_nodes`
    and :meth:`sort_key`.
    """

    _adjacency: tuple[frozenset[int], ...]
    # per-index sorted-neighbour cache, created on first use (class-level
    # None default so subclasses need no cooperative __init__)
    _adjacency_sorted: "list[tuple[int, ...] | None] | None" = None

    def number_of_structure_nodes(self) -> int:  # pragma: no cover - abstract
        raise NotImplementedError

    def sort_key(self, index: int) -> tuple[str, ...]:  # pragma: no cover - abstract
        raise NotImplementedError

    @property
    def endpoint_indices(self) -> tuple[int, int]:
        return (0, 1)

    def number_of_structure_links(self) -> int:
        return sum(len(adj) for adj in self._adjacency) // 2

    def adjacency(self, index: int) -> frozenset[int]:
        """Indices of structure nodes linked to ``index``."""
        return self._adjacency[index]

    def adjacency_sorted(self, index: int) -> tuple[int, ...]:
        """Neighbour indices of ``index`` as a sorted tuple (cached).

        The Palette-WL refinement sums floating hash contributions over a
        node's neighbours; iterating a *sorted* tuple makes that summation
        order canonical instead of depending on set-iteration order.
        """
        cache = self._adjacency_sorted
        if cache is None:
            cache = [None] * len(self._adjacency)
            self._adjacency_sorted = cache
        entry = cache[index]
        if entry is None:
            entry = tuple(sorted(self._adjacency[index]))
            cache[index] = entry
        return entry

    def has_structure_link(self, i: int, j: int) -> bool:
        return j in self._adjacency[i]

    def structure_link_pairs(self) -> Iterable[tuple[int, int]]:
        """All structure links as ``(i, j)`` with ``i < j``."""
        for i, adj in enumerate(self._adjacency):
            for j in adj:
                if i < j:
                    yield (i, j)

    # ------------------------------------------------------------------
    # distances
    # ------------------------------------------------------------------
    def distances_to_target(self) -> list[int]:
        """Hop distance of each structure node to the target link.

        Measured in the structure subgraph itself, as a multi-source BFS
        from the two end structure nodes (indices 0 and 1); both end nodes
        are at distance 0.  Unreachable structure nodes (possible when the
        two end nodes live in different components) get ``-1``.
        """
        dist = [-1] * self.number_of_structure_nodes()
        dist[0] = dist[1] = 0
        frontier = [0, 1]
        depth = 0
        while frontier:
            depth += 1
            nxt: list[int] = []
            for idx in frontier:
                for nb in self._adjacency[idx]:
                    if dist[nb] == -1:
                        dist[nb] = depth
                        nxt.append(nb)
            frontier = nxt
        return dist

    def distances_from(self, start: int) -> list[int]:
        """Hop distances from one structure node to all others (BFS).

        Unreachable structure nodes get ``-1``.  Used to build the
        Palette-WL initial ordering from *both* end nodes separately: a
        structure node adjacent to both ends (a common neighbour) must
        rank before one adjacent to a single end, which the single
        min-distance of :meth:`distances_to_target` cannot express.
        """
        if not 0 <= start < self.number_of_structure_nodes():
            raise IndexError(f"structure node index {start} out of range")
        dist = [-1] * self.number_of_structure_nodes()
        dist[start] = 0
        frontier = [start]
        depth = 0
        while frontier:
            depth += 1
            nxt: list[int] = []
            for idx in frontier:
                for nb in self._adjacency[idx]:
                    if dist[nb] == -1:
                        dist[nb] = depth
                        nxt.append(nb)
            frontier = nxt
        return dist


class StructureSubgraph(_StructureTopology):
    """An h-hop structure subgraph ``G_S`` (Def. 6), dict substrate.

    Structure nodes are addressed by integer index; indices 0 and 1 are
    always the end-node singletons ``{a}`` and ``{b}`` of the target link.

    Built by :func:`combine_structures`; not intended to be constructed
    directly except in tests.
    """

    def __init__(
        self,
        network: DynamicNetwork,
        node_set: frozenset[Node],
        member_sets: Sequence[frozenset[Node]],
        adjacency: Sequence[frozenset[int]],
        endpoints: tuple[Node, Node],
    ) -> None:
        self._network = network
        self._node_set = node_set
        self._nodes = tuple(StructureNode(m) for m in member_sets)
        self._adjacency = tuple(adjacency)
        self._endpoints = endpoints
        self._member_of = {
            member: idx for idx, ms in enumerate(member_sets) for member in ms
        }
        self._timestamp_cache: dict[tuple[int, int], tuple[float, ...]] = {}

    # ------------------------------------------------------------------
    # structure-level queries
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> tuple[StructureNode, ...]:
        """All structure nodes; ``nodes[0]``/``nodes[1]`` are the end nodes."""
        return self._nodes

    @property
    def endpoints(self) -> tuple[Node, Node]:
        """The (member-level) end nodes of the target link."""
        return self._endpoints

    def number_of_structure_nodes(self) -> int:
        return len(self._nodes)

    def sort_key(self, index: int) -> tuple[str, ...]:
        return self._nodes[index].sort_key()

    def structure_node_of(self, member: Node) -> int:
        """Index of the structure node containing ``member``."""
        try:
            return self._member_of[member]
        except KeyError:
            raise KeyError(f"node {member!r} not in this structure subgraph") from None

    # ------------------------------------------------------------------
    # member-level (timestamp) queries — resolved lazily, cached
    # ------------------------------------------------------------------
    def link_timestamps(self, i: int, j: int) -> tuple[float, ...]:
        """Sorted timestamps of every member-level link between structure
        nodes ``i`` and ``j`` (the set ``E_k`` of Def. 5)."""
        if i == j:
            raise ValueError("structure nodes have no internal links")
        key = (i, j) if i < j else (j, i)
        cached = self._timestamp_cache.get(key)
        if cached is not None:
            return cached
        if j not in self._adjacency[i]:
            stamps: tuple[float, ...] = ()
        else:
            small, large = self._nodes[key[0]].members, self._nodes[key[1]].members
            if len(small) > len(large):
                small, large = large, small
            collected: list[float] = []
            for member in small:
                row = self._network.neighbor_view(member)
                for other in large:
                    ts = row.get(other)
                    if ts:
                        collected.extend(ts)
            collected.sort()
            stamps = tuple(collected)
        self._timestamp_cache[key] = stamps
        return stamps

    def link_count(self, i: int, j: int) -> int:
        """Number of member-level links between structure nodes ``i``/``j``."""
        return len(self.link_timestamps(i, j))

    def link_influence(self, i: int, j: int, present_time: float, theta: float) -> float:
        """Normalized influence (Eq. 3) of the structure link ``(i, j)``."""
        return normalized_influence(self.link_timestamps(i, j), present_time, theta)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"StructureSubgraph(structure_nodes={len(self._nodes)}, "
            f"structure_links={self.number_of_structure_links()})"
        )


class CSRStructureSubgraph(_StructureTopology):
    """An h-hop structure subgraph over a :class:`CSRSnapshot` substrate.

    Same index contract as :class:`StructureSubgraph` (end nodes at 0/1);
    members are stored as sorted int-id arrays and member-level timestamps
    / influences are gathered from the snapshot's flat arrays on demand.
    """

    def __init__(
        self,
        snapshot: CSRSnapshot,
        node_ids: np.ndarray,
        member_ids: Sequence[np.ndarray],
        adjacency: Sequence[frozenset[int]],
        endpoint_ids: tuple[int, int],
    ) -> None:
        self._snapshot = snapshot
        self._node_ids = node_ids
        self._member_ids = tuple(member_ids)
        self._adjacency = tuple(adjacency)
        self._endpoint_ids = endpoint_ids
        self._nodes_cache: "tuple[StructureNode, ...] | None" = None
        self._sort_key_cache: dict[int, tuple[str, ...]] = {}
        self._slot_cache: dict[tuple[int, int], np.ndarray] = {}
        self._timestamp_cache: dict[tuple[int, int], tuple[float, ...]] = {}
        self._influence_cache: dict[tuple[int, int, float, float], float] = {}

    # ------------------------------------------------------------------
    # structure-level queries
    # ------------------------------------------------------------------
    @property
    def snapshot(self) -> CSRSnapshot:
        return self._snapshot

    @property
    def nodes(self) -> tuple[StructureNode, ...]:
        """Label-level :class:`StructureNode` views (built lazily)."""
        if self._nodes_cache is None:
            labels = self._snapshot.labels
            self._nodes_cache = tuple(
                StructureNode(frozenset(labels[int(m)] for m in ms))
                for ms in self._member_ids
            )
        return self._nodes_cache

    @property
    def endpoints(self) -> tuple[Node, Node]:
        labels = self._snapshot.labels
        return (labels[self._endpoint_ids[0]], labels[self._endpoint_ids[1]])

    def number_of_structure_nodes(self) -> int:
        return len(self._member_ids)

    def member_ids(self, index: int) -> np.ndarray:
        """Sorted int ids of the members of structure node ``index``."""
        return self._member_ids[index]

    def sort_key(self, index: int) -> tuple[str, ...]:
        """Label-based tie-break key, identical to the dict backend's
        ``StructureNode.sort_key`` (computed lazily per index)."""
        key = self._sort_key_cache.get(index)
        if key is None:
            labels = self._snapshot.labels
            key = tuple(
                sorted(repr(labels[int(m)]) for m in self._member_ids[index])
            )
            self._sort_key_cache[index] = key
        return key

    def structure_node_of(self, member: Node) -> int:
        """Index of the structure node containing member *label*."""
        member_id = self._snapshot.node_id(member)
        for idx, ms in enumerate(self._member_ids):
            pos = int(np.searchsorted(ms, member_id))
            if pos < ms.size and int(ms[pos]) == member_id:
                return idx
        raise KeyError(f"node {member!r} not in this structure subgraph")

    # ------------------------------------------------------------------
    # member-level queries — gathered from the snapshot arrays, cached
    # ------------------------------------------------------------------
    def _link_slots(self, key: tuple[int, int]) -> np.ndarray:
        """Directed edge slots covering every member-level link of one
        structure link (scanned from the smaller member side)."""
        cached = self._slot_cache.get(key)
        if cached is not None:
            return cached
        small, large = self._member_ids[key[0]], self._member_ids[key[1]]
        if small.size > large.size:
            small, large = large, small
        if small.size == 1 and large.size == 1:
            # singleton groups (the overwhelmingly common case): one probe
            slot = self._snapshot.edge_slot(int(small[0]), int(large[0]))
            slots = (
                np.array([slot], dtype=np.int64)
                if slot >= 0
                else np.zeros(0, dtype=np.int64)
            )
            self._slot_cache[key] = slots
            return slots
        indptr = self._snapshot.indptr
        indices = self._snapshot.indices
        found: list[np.ndarray] = []
        for u in small.tolist():
            lo, hi = int(indptr[u]), int(indptr[u + 1])
            row = indices[lo:hi]
            pos = np.searchsorted(row, large)
            valid = pos < row.size
            pos = pos[valid]
            hits = row[pos] == large[valid]
            if hits.any():
                found.append(lo + pos[hits])
        slots = (
            np.concatenate(found) if found else np.zeros(0, dtype=np.int64)
        )
        self._slot_cache[key] = slots
        return slots

    def link_timestamps(self, i: int, j: int) -> tuple[float, ...]:
        """Sorted timestamps of every member-level link between structure
        nodes ``i`` and ``j`` — bit-identical to the dict backend's."""
        if i == j:
            raise ValueError("structure nodes have no internal links")
        key = (i, j) if i < j else (j, i)
        cached = self._timestamp_cache.get(key)
        if cached is not None:
            return cached
        if j not in self._adjacency[i]:
            stamps: tuple[float, ...] = ()
        else:
            slots = self._link_slots(key)
            ts_indptr = self._snapshot.ts_indptr
            ts = self._snapshot.ts
            parts = [
                ts[ts_indptr[s] : ts_indptr[s + 1]] for s in slots.tolist()
            ]
            if parts:
                merged = np.sort(np.concatenate(parts), kind="stable")
                stamps = tuple(merged.tolist())
            else:
                stamps = ()
        self._timestamp_cache[key] = stamps
        return stamps

    def link_count(self, i: int, j: int) -> int:
        if i == j:
            raise ValueError("structure nodes have no internal links")
        if j not in self._adjacency[i]:
            return 0
        key = (i, j) if i < j else (j, i)
        slots = self._link_slots(key)
        ts_indptr = self._snapshot.ts_indptr
        return int((ts_indptr[slots + 1] - ts_indptr[slots]).sum())

    def link_influence(self, i: int, j: int, present_time: float, theta: float) -> float:
        """Normalized influence (Eq. 3) from the precomputed table.

        Gathers the per-link decayed influences and accumulates them in
        ascending-timestamp order with a scalar loop — the exact operation
        sequence of :func:`~repro.core.influence.normalized_influence`, so
        the sum is bit-identical to the dict backend's.
        """
        if i == j:
            raise ValueError("structure nodes have no internal links")
        key = (i, j) if i < j else (j, i)
        cache_key = (key, present_time, theta)
        cached = self._influence_cache.get(cache_key)
        if cached is not None:
            return cached
        if j not in self._adjacency[i]:
            value = 0.0
        else:
            slots = self._link_slots(key)
            table = self._snapshot.influence_table(present_time, theta)
            ts_indptr = self._snapshot.ts_indptr
            ts = self._snapshot.ts
            if slots.size == 1:
                # single edge slot: its segment is already ascending
                s = int(slots[0])
                total = 0.0
                for v in table[int(ts_indptr[s]) : int(ts_indptr[s + 1])].tolist():
                    total += v
                value = total
            elif slots.size:
                ts_parts: list[np.ndarray] = []
                influence_parts: list[np.ndarray] = []
                for s in slots.tolist():
                    lo, hi = int(ts_indptr[s]), int(ts_indptr[s + 1])
                    ts_parts.append(ts[lo:hi])
                    influence_parts.append(table[lo:hi])
                all_ts = np.concatenate(ts_parts)
                all_influence = np.concatenate(influence_parts)
                order = np.argsort(all_ts, kind="stable")
                total = 0.0
                for v in all_influence[order].tolist():
                    total += v
                value = total
            else:
                value = 0.0
        self._influence_cache[cache_key] = value
        return value

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CSRStructureSubgraph(structure_nodes={len(self._member_ids)}, "
            f"structure_links={self.number_of_structure_links()})"
        )


def combine_structures(
    network: DynamicNetwork,
    node_set: Iterable[Node],
    a: Node,
    b: Node,
) -> StructureSubgraph:
    """Algorithm 1: collapse an h-hop subgraph into its structure subgraph.

    Args:
        network: the parent dynamic network.
        node_set: the h-hop node set ``V_h`` (must contain ``a`` and ``b``).
        a: first end node of the target link.
        b: second end node of the target link.

    Returns:
        The fixed point of repeated same-neighbourhood merging, with the
        end nodes pinned to structure-node indices 0 and 1.
    """
    nodes = frozenset(node_set)
    if a not in nodes or b not in nodes:
        raise ValueError("node_set must contain both end nodes of the target link")
    if a == b:
        raise ValueError("target link end nodes must be distinct")

    with span("structure_combination"):
        result = _combine_structures(network, nodes, a, b)
    if obs_enabled():
        structure_nodes = result.number_of_structure_nodes()
        observe("structure.nodes_in", len(nodes))
        observe("structure.nodes_out", structure_nodes)
        observe("structure.compression_ratio", len(nodes) / structure_nodes)
    return result


def _combine_structures(
    network: DynamicNetwork,
    nodes: frozenset[Node],
    a: Node,
    b: Node,
) -> StructureSubgraph:
    # Member-level neighbourhoods restricted to V_h.  Nodes are visited in
    # repr order: labels are arbitrary hashables (possibly mixed types), so
    # repr is the only total order available, and any fixed order makes
    # group numbering independent of the hash seed.
    ordered_nodes = sorted(nodes, key=repr)
    restricted: dict[Node, frozenset[Node]] = {}
    for n in ordered_nodes:
        row = network.neighbor_view(n)
        if len(row) <= len(nodes):
            restricted[n] = frozenset(m for m in row if m in nodes)
        else:
            restricted[n] = frozenset(m for m in nodes if m in row)

    # Round 0: group non-end nodes by exact neighbourhood; end nodes pinned.
    group_of: dict[Node, int] = {a: 0, b: 1}
    groups: list[list[Node]] = [[a], [b]]
    by_key: dict[frozenset[Node], int] = {}
    for n in ordered_nodes:
        if n == a or n == b:
            continue
        key = restricted[n]
        idx = by_key.get(key)
        if idx is None:
            idx = len(groups)
            by_key[key] = idx
            groups.append([n])
        else:
            groups[idx].append(n)
        group_of[n] = idx

    # Iterate the merge at the structure level until a fixed point.  The
    # first round never merges: twins r, s satisfy y ∈ N(r) ⟺ y ∈ N(s),
    # so with symmetric adjacency every restricted neighbourhood is a
    # union of whole groups, and two groups with equal group-level
    # neighbourhoods would have equal node-level ones — one group.  The
    # loop stays as the literal Algorithm 1 this reference is checked by.
    rounds = 0
    while True:
        rounds += 1
        adjacency = _group_adjacency(groups, group_of, restricted)
        merged_groups, merged_of, changed = _merge_once(groups, adjacency)
        if not changed:
            break
        group_of = {
            member: merged_of[old_idx]
            for member, old_idx in group_of.items()
        }
        groups = merged_groups

    observe("structure.merge_rounds", rounds)
    member_sets = [frozenset(g) for g in groups]
    adjacency = _group_adjacency(groups, group_of, restricted)
    return StructureSubgraph(
        network=network,
        node_set=nodes,
        member_sets=member_sets,
        adjacency=[frozenset(adj) for adj in adjacency],
        endpoints=(a, b),
    )


def combine_structures_csr(
    snapshot: CSRSnapshot,
    node_ids: np.ndarray,
    a_id: int,
    b_id: int,
) -> CSRStructureSubgraph:
    """Algorithm 1 over a CSR snapshot — array form of
    :func:`combine_structures`, producing the identical partition.

    Args:
        snapshot: the frozen observed window.
        node_ids: sorted int ids of the h-hop node set ``V_h``.
        a_id: int id of the first end node (must be in ``node_ids``).
        b_id: int id of the second end node.
    """
    node_ids = np.asarray(node_ids, dtype=np.int64)
    if a_id == b_id:
        raise ValueError("target link end nodes must be distinct")
    if not (_sorted_contains(node_ids, a_id) and _sorted_contains(node_ids, b_id)):
        raise ValueError("node_set must contain both end nodes of the target link")

    with span("structure_combination"):
        result = _combine_structures_csr(snapshot, node_ids, a_id, b_id)
    if obs_enabled():
        structure_nodes = result.number_of_structure_nodes()
        observe("structure.nodes_in", len(node_ids))
        observe("structure.nodes_out", structure_nodes)
        observe("structure.compression_ratio", len(node_ids) / structure_nodes)
    return result


def _sorted_contains(sorted_ids: np.ndarray, value: int) -> bool:
    pos = int(np.searchsorted(sorted_ids, value))
    return pos < sorted_ids.size and int(sorted_ids[pos]) == value


def _combine_structures_csr(
    snapshot: CSRSnapshot,
    node_ids: np.ndarray,
    a_id: int,
    b_id: int,
) -> CSRStructureSubgraph:
    n = snapshot.number_of_nodes()
    in_set = np.zeros(n, dtype=bool)
    in_set[node_ids] = True

    # Member-level neighbourhoods restricted to V_h: each a sorted int
    # slice, so its raw bytes are a canonical grouping key (the
    # "sorted neighbour-slice hash" — dict keys hash the bytes).  Built
    # with ONE vectorised gather + filter over all of V_h; the per-node
    # entries are then views into the filtered flat array.
    flat = concatenate_neighbor_slices(snapshot, node_ids)
    keep = in_set[flat]
    kept_flat = flat[keep]
    counts = snapshot.indptr[node_ids + 1] - snapshot.indptr[node_ids]
    bounds = np.zeros(len(node_ids) + 1, dtype=np.int64)
    np.cumsum(counts, out=bounds[1:])
    keep_cum = np.zeros(flat.size + 1, dtype=np.int64)
    np.cumsum(keep, out=keep_cum[1:])
    kept_bounds = keep_cum[bounds]
    ids_list = node_ids.tolist()
    restricted: dict[int, np.ndarray] = {
        u: kept_flat[kept_bounds[i] : kept_bounds[i + 1]]
        for i, u in enumerate(ids_list)
    }

    # Round 0: group non-end nodes by exact neighbourhood; end nodes pinned.
    grp = np.full(n, -1, dtype=np.int64)
    grp[a_id], grp[b_id] = 0, 1
    groups: list[list[int]] = [[a_id], [b_id]]
    by_key: dict[bytes, int] = {}
    for u in ids_list:
        if u == a_id or u == b_id:
            continue
        key = restricted[u].tobytes()
        idx = by_key.get(key)
        if idx is None:
            idx = len(groups)
            by_key[key] = idx
            groups.append([u])
        else:
            groups[idx].append(u)
        grp[u] = idx

    # Same structure-level merge loop as the dict path (``_merge_once`` is
    # substrate-agnostic), with the member → group map kept as an array.
    # ``owners`` pairs each kept neighbour entry with its source node so
    # the per-round adjacency is two gathers over the edge list.
    owners = np.repeat(node_ids, kept_bounds[1:] - kept_bounds[:-1])
    rounds = 0
    while True:
        rounds += 1
        adjacency = _group_adjacency_csr(len(groups), grp, owners, kept_flat)
        merged_groups, merged_of, changed = _merge_once(groups, adjacency)
        if not changed:
            break
        remap = np.empty(len(groups), dtype=np.int64)
        for old_idx, new_idx in merged_of.items():
            remap[old_idx] = new_idx
        grp[node_ids] = remap[grp[node_ids]]
        groups = merged_groups

    observe("structure.merge_rounds", rounds)
    member_ids = [np.array(sorted(g), dtype=np.int64) for g in groups]
    # The loop exits when _merge_once changed nothing, so the adjacency
    # computed at the top of the last round is still valid for `groups`.
    return CSRStructureSubgraph(
        snapshot=snapshot,
        node_ids=node_ids,
        member_ids=member_ids,
        adjacency=[frozenset(adj) for adj in adjacency],
        endpoint_ids=(a_id, b_id),
    )


def _group_adjacency(
    groups: Sequence[Sequence[Node]],
    group_of: dict[Node, int],
    restricted: dict[Node, frozenset[Node]],
) -> list[set[int]]:
    """Structure-level adjacency induced by member-level links."""
    adjacency: list[set[int]] = [set() for _ in groups]
    for idx, members in enumerate(groups):
        adj = adjacency[idx]
        for member in members:
            for nb in restricted[member]:
                other = group_of[nb]
                if other != idx:
                    adj.add(other)
    return adjacency


def _group_adjacency_csr(
    n_groups: int,
    grp: np.ndarray,
    owners: np.ndarray,
    kept_flat: np.ndarray,
) -> list[set[int]]:
    """Array form of :func:`_group_adjacency`: two gathers over the
    restricted edge list (``owners[i] — kept_flat[i]``) instead of
    per-member-neighbour Python loops."""
    adjacency: list[set[int]] = [set() for _ in range(n_groups)]
    if kept_flat.size == 0:
        return adjacency
    src = grp[owners]
    dst = grp[kept_flat]
    distinct = src != dst
    codes = src[distinct] * n_groups + dst[distinct]
    # Sorted so group adjacency is filled in a canonical order regardless
    # of hash seed (the sets are consumed as frozensets, but keeping the
    # fill order fixed makes every downstream trace reproducible).
    for code in sorted(set(codes.tolist())):
        adjacency[code // n_groups].add(code % n_groups)
    return adjacency


def _merge_once(
    groups: "Sequence[Sequence[_Member]]",
    adjacency: Sequence[set[int]],
) -> "tuple[list[list[_Member]], dict[int, int], bool]":
    """One round of Algorithm 1's loop at the structure level.

    Groups (other than the pinned end groups 0 and 1) with identical
    structure-level neighbourhoods are merged.  Returns the new groups, the
    old-index → new-index mapping, and whether anything changed.  Member
    type is opaque — both the dict (labels) and CSR (int ids) paths use
    this.
    """
    new_groups: "list[list[_Member]]" = [list(groups[0]), list(groups[1])]
    new_of: dict[int, int] = {0: 0, 1: 1}
    by_key: dict[frozenset[int], int] = {}
    changed = False
    for idx in range(2, len(groups)):
        key = frozenset(adjacency[idx])
        target = by_key.get(key)
        if target is None:
            target = len(new_groups)
            by_key[key] = target
            new_groups.append(list(groups[idx]))
        else:
            new_groups[target].extend(groups[idx])
            changed = True
        new_of[idx] = target
    return new_groups, new_of, changed
