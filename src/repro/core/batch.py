"""Batched multi-pair SSF extraction over the CSR backend.

`SSFExtractor.extract` pays its full pipeline cost per pair: a fresh BFS,
fresh combine scratch, a Python-loop Palette-WL, per-link influence sums
and per-pair span bookkeeping.  For the paper's motivating workload —
scoring *many* candidate links against one frozen snapshot — most of that
cost is shareable.  :class:`BatchExtractionEngine` runs a whole pair list
through the CSR pipeline at once:

* **Frontier-sharing BFS** — h-hop balls are grown per *endpoint* (one
  level ahead, lazily) and cached for the whole batch, so pairs touching
  the same hub expand its ball once (``batch.ball_reuse_hits`` /
  ``batch.ball_reuse_misses`` count the sharing).  A pair's joint ball at
  radius ``h`` is exactly the union of its two endpoint balls, and
  "exhausted" is exactly "the union stopped growing".  Growth is
  level-synchronous: every pair still growing at radius ``h`` is advanced
  together, so all structure combination at one radius happens in ONE
  cross-pair array pass (:meth:`BatchExtractionEngine._combine_many`)
  instead of one quadratic-ish pass per pair.  That pass groups nodes
  once: the first same-neighbourhood grouping is already Alg. 1's fixed
  point, so combination is one merge round.
* **Arena buffers** — the |V|-sized BFS visited map and the |V|-sized
  node → combination-row map are allocated once per engine and reused
  across every pair of every batch via monotonically increasing stamps
  (never cleared, never reallocated).
* **Vectorized Palette-WL** — all structure subgraphs of a batch are laid
  out flat and refined together by
  :func:`repro.core.palette_wl.palette_wl_order_many`; tie-break scores
  (for tied nodes only) and SSF matrix entries are likewise evaluated as
  whole-batch array queries.
* **On-demand link slots** — adjacent structure nodes are completely
  joined: if ``u ∈ I`` is adjacent to ``v ∈ J``, every twin of ``u``
  shares ``u``'s restricted neighbourhood and so is adjacent to ``v``,
  and by the same argument to every twin of ``v``.  A structure link's
  member-level edges are therefore exactly ``I × J``; each one's directed
  edge slot is one ``searchsorted`` into the snapshot's sorted
  ``u·|V| + v`` keys, so only the links a row reads are ever resolved.
* **Memoized influence** — Eq. 4 decayed influences are read from one
  per-snapshot ``influence_table``; per-edge-slot influence sums and the
  sorted directed-edge keys are built once per engine, the sums with the
  reference's exact left-to-right accumulation order, and multi-slot
  structure links are memoized across pairs.
* **Slabs** — a combine pass gathers the snapshot row of every node in
  every pair's ball, so its arrays grow with that volume, not with the
  pair count.  Each pass's pairs are cut into chunks of at most
  :data:`SLAB_ENTRIES` gathered entries, counted from ``indptr`` before
  the gather; finished pairs are finished (Palette-WL, top-K, Eq. 4/5)
  as soon as they reach the same budget.  No chunk's pass state and no
  finished block outlives its slab; the call's ball cache, the slot-sum
  table and the multi-slot memo are shared by every slab.

The result is **bit-identical** to looping ``extract`` on the dict
backend (the untouched reference) — every floating-point reduction below
replays the reference operation sequence exactly (integer reductions are
always exact; the few genuinely sequential float sums stay scalar); the
randomized batched differential suite enforces it across all entry modes.

Arena lifetime rules: the engine (and its arena) lives as long as its
:class:`~repro.core.feature.SSFExtractor` — in pool workers that is the
whole worker lifetime, so chunks after the first allocate nothing
|V|-sized.  Ball caches are scoped per batch; slot-sum tables, edge
keys and multi-slot memos are scoped per engine; per-pair structures are
dropped when their slab is finished.
"""

from __future__ import annotations

import math
from typing import Hashable, Iterator, Sequence

import numpy as np

from repro.core.palette_wl import (
    _ColumnLayout,
    flat_hop_distances,
    palette_wl_order_many,
)
from repro.graph.csr import (
    CSRSnapshot,
    concatenate_neighbor_slices,
    sorted_unique,
    stable_argsort,
)
from repro.obs import enabled as obs_enabled, incr, observe_many, span

Node = Hashable
Pair = "tuple[Node, Node]"

#: Gathered neighbour entries per slab: a combine pass's pairs are cut
#: into chunks whose balls' snapshot degrees sum to at most this (a pair
#: over it runs alone), and finished pairs are finished once their
#: entries reach it.  A call under it runs as one slab.  Chosen from the
#: throughput-versus-budget sweep over the seven catalog graphs in
#: docs/PERFORMANCE.md ("Slabs").
SLAB_ENTRIES = 1_000_000


class BatchArena:
    """The reusable |V|-sized work buffers, shared by every pair of an
    engine.

    ``visited`` is *token-stamped* with per-ball BFS ownership: an entry
    is "set" only when it holds the ball's token, so reuse never needs a
    clearing pass.  ``row_of`` maps a node to its combination row, stamped
    ``base + row`` from a monotone per-arena base (never-stamped entries
    hold −1), so a stamp below the current segment's first row is stale.
    It cannot share ``visited``: pending balls still read their tokens.
    """

    def __init__(self, n_nodes: int) -> None:
        self.visited = np.zeros(n_nodes, dtype=np.int64)
        self.row_of = np.full(n_nodes, -1, dtype=np.int64)
        self._token = 0
        self._row_base = 0

    def next_token(self) -> int:
        """A fresh BFS ownership token for :attr:`visited`."""
        self._token += 1
        return self._token

    def claim_rows(self, n_rows: int) -> int:
        """A stamp base for ``n_rows`` fresh rows of :attr:`row_of`, above
        every stamp written before."""
        base = self._row_base
        self._row_base += n_rows
        return base


_EMPTY_LEVEL = np.zeros(0, dtype=np.int64)


class _Ball:
    """Level-synchronously grown single-source BFS ball around one endpoint.

    ``levels[d]`` holds the (sorted) node ids first claimed by this ball at
    level ``d``; extension stops when a level comes back empty (the
    component is absorbed).  Balls share the arena's token-stamped
    ``visited`` map, so a concurrently growing ball may re-stamp a node
    this ball already claimed and cause it to be *re*-claimed at a later
    level — harmless, because pair unions deduplicate (the union over
    ``levels[0..d]`` is always exactly the radius-``d`` ball as a set)
    and redundant frontier work is bounded by one level per clobber.
    """

    __slots__ = ("levels", "token", "exhausted")

    def __init__(self, seed: int, token: int) -> None:
        self.levels: list[np.ndarray] = [np.array([seed], dtype=np.int64)]
        self.token = token
        self.exhausted = False

    def level(self, depth: int) -> np.ndarray:
        """The nodes claimed at ``depth`` (empty beyond the last level)."""
        if depth < len(self.levels):
            return self.levels[depth]
        return _EMPTY_LEVEL


class _Growth:
    """Level-synchronous growth state for one not-yet-finished pair:
    ``union`` is its radius-h ball B_h and ``prev`` the ball one growth
    step before, B_{h-1} (the end nodes at h = 1)."""

    __slots__ = ("row", "a_id", "b_id", "ball_a", "ball_b", "union", "prev")

    def __init__(self, row: int, a_id: int, b_id: int) -> None:
        self.row = row
        self.a_id = a_id
        self.b_id = b_id
        self.ball_a: "_Ball | None" = None
        self.ball_b: "_Ball | None" = None
        self.union = np.zeros(0, dtype=np.int64)
        self.prev = np.array(sorted((a_id, b_id)), dtype=np.int64)


class _PassState:
    """Merge-converged state of one cross-pair combine pass.

    Segment ``s`` (one pair's candidate subgraph) owns global structure-
    group ids ``group_offsets[s]:group_offsets[s+1]``; ``grp_row`` maps
    every node-row (rows in (segment, node) order) to its global group.
    ``adj_indptr``/``adj_dst`` is the final global group-level adjacency
    (rows ascending).
    """

    __slots__ = (
        "node_of_row",
        "grp_row",
        "group_counts",
        "group_offsets",
        "adj_indptr",
        "adj_dst",
    )

    def __init__(
        self,
        node_of_row: np.ndarray,
        grp_row: np.ndarray,
        group_counts: np.ndarray,
        group_offsets: np.ndarray,
        adj_indptr: np.ndarray,
        adj_dst: np.ndarray,
    ) -> None:
        self.node_of_row = node_of_row
        self.grp_row = grp_row
        self.group_counts = group_counts
        self.group_offsets = group_offsets
        self.adj_indptr = adj_indptr
        self.adj_dst = adj_dst

    def block(
        self, segments: np.ndarray, first_group: int
    ) -> "tuple[np.ndarray, ...]":
        """The structure subgraphs of ``segments`` as one flat block,
        ``(group_counts, degrees, adjacency, member_counts, members)``.

        The segments' groups are renumbered ``first_group, first_group +
        1, ...`` in segment order.  Adjacency is intra-segment and a
        segment's groups keep their relative order, so each group's
        neighbours stay ascending.  Each group's members are its node ids
        ascending (the reference's ``np.sort`` per group): rows are in
        (segment, node) order, so a stable sort by group keeps them so.
        """
        counts = self.group_counts[segments]
        n_groups = int(counts.sum())
        groups = np.arange(n_groups, dtype=np.int64) + np.repeat(
            self.group_offsets[segments] - (np.cumsum(counts) - counts), counts
        )
        renumber = np.full(int(self.group_offsets[-1]), -1, dtype=np.int64)
        renumber[groups] = np.arange(n_groups, dtype=np.int64)
        degrees = self.adj_indptr[groups + 1] - self.adj_indptr[groups]
        adjacency = renumber[
            concatenate_neighbor_slices(self.adj_indptr, self.adj_dst, groups)
        ]
        row_group = renumber[self.grp_row]
        rows = np.flatnonzero(row_group >= 0)
        row_group = row_group[rows]
        members = self.node_of_row[rows[stable_argsort(row_group, n_groups)]]
        member_counts = np.bincount(row_group, minlength=n_groups)
        return counts, degrees, adjacency + first_group, member_counts, members


class _Chunk:
    """Pairs of one combine pass whose balls gather at most
    :data:`SLAB_ENTRIES` neighbour entries in total (or one pair over it).

    ``nodes`` lays the pairs' unions out back to back, pair ``s`` owning
    rows ``row_offsets[s]:row_offsets[s + 1]``; ``degrees`` holds each
    row's snapshot degree and ``entry_bounds`` their running sum from 0,
    so row ``r`` gathers entries ``entry_bounds[r]:entry_bounds[r + 1]``.
    """

    __slots__ = ("growths", "row_offsets", "nodes", "degrees", "entry_bounds")

    def __init__(
        self,
        growths: "list[_Growth]",
        row_offsets: np.ndarray,
        nodes: np.ndarray,
        degrees: np.ndarray,
        entry_bounds: np.ndarray,
    ) -> None:
        self.growths = growths
        self.row_offsets = row_offsets
        self.nodes = nodes
        self.degrees = degrees
        self.entry_bounds = entry_bounds

    def entries(self, segments: np.ndarray) -> int:
        """Neighbour entries the pairs ``segments`` gather."""
        bounds = self.entry_bounds[self.row_offsets]
        return int((bounds[segments + 1] - bounds[segments]).sum())


class _Slab:
    """Finished structure subgraphs awaiting the finish.

    ``blocks`` holds one flat block per pass, ``(rows, group_counts,
    degrees, adjacency, member_counts, members)`` (see
    :meth:`_PassState.block`), with group ids numbered across the blocks
    in order, so concatenating each field gives the slab's flat layout;
    ``rows`` says which output row each segment fills.  ``entries``
    counts the neighbour entries the slab's pairs gathered.
    """

    __slots__ = ("blocks", "groups", "entries")

    def __init__(self) -> None:
        self.blocks: "list[tuple[np.ndarray, ...]]" = []
        self.groups = 0
        self.entries = 0

    def add(self, state: _PassState, chunk: _Chunk, segments: "list[int]") -> None:
        """Add the finished ``segments`` of ``chunk``'s pass ``state``."""
        picked = np.array(segments, dtype=np.int64)
        block = state.block(picked, self.groups)
        self.groups += int(block[0].sum())
        self.entries += chunk.entries(picked)
        rows = np.array([chunk.growths[s].row for s in segments], dtype=np.int64)
        self.blocks.append((rows,) + block)


_MIX_INCREMENT = np.uint64(0x9E3779B97F4A7C15)
_MIX_FIRST = np.uint64(0xBF58476D1CE4E5B9)
_MIX_SECOND = np.uint64(0x94D049BB133111EB)


def _mix64(values: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer of every (non-negative int) value, as
    ``uint64`` words; the products wrap modulo 2**64."""
    z = values.astype(np.uint64)
    z += _MIX_INCREMENT
    z ^= z >> np.uint64(30)
    z *= _MIX_FIRST
    z ^= z >> np.uint64(27)
    z *= _MIX_SECOND
    z ^= z >> np.uint64(31)
    return z


def _group_ragged_rows(
    bounds: np.ndarray,
    flat: np.ndarray,
    rows: np.ndarray,
    segs: np.ndarray,
    n_segs: int,
) -> "tuple[np.ndarray, np.ndarray]":
    """Segment-aware grouping of content-identical ragged rows.

    Returns ``(ids, counts)``: ``ids[t]`` is the 0-based group id of
    ``rows[t]`` *within its segment*, numbered in order of each group's
    first occurrence among that segment's rows (the array form of the
    reference's sequential dict-keyed grouping, run for every segment at
    once); ``counts[s]`` is segment ``s``'s group count.  Rows of
    different segments never group together.

    Precondition: ``segs`` never decreases along ``rows`` (the caller
    passes ascending rows laid out in (segment, node) order), so one
    cumulative sum over row order numbers every segment's groups.

    Each row gets one 64-bit word: the wrapping sum of :func:`_mix64`
    over its (non-negative) entries, XOR-ed with a mix of (length,
    segment).  Rows are sorted once by word (in any tie order) and every
    row of a run of equal words is compared with the run's smallest
    position, entry by entry.  A run holding different contents is a
    word collision and is split exactly by (segment, raw bytes), visiting
    its rows in ascending position, so the partition is exact, never
    merely hash-probable, and each group's representative is its first
    row.
    """
    count = int(rows.size)
    if count == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(n_segs, dtype=np.int64)
    lo = bounds[:-1][rows]
    hi = bounds[1:][rows]
    lengths = hi - lo
    running = np.zeros(flat.size + 1, dtype=np.uint64)
    if flat.size:
        # entries are small ids: mixing each distinct value once is cheaper
        mixed = _mix64(np.arange(int(flat.max()) + 1, dtype=np.int64))
        np.cumsum(mixed[flat], out=running[1:])
    words = (running[hi] - running[lo]) ^ _mix64((segs << 32) + lengths)

    # repro-lint: disable=R602 -- tie order inside a run is never read
    order = np.argsort(words)
    sorted_words = words[order]
    run_start = np.empty(count, dtype=bool)
    run_start[0] = True
    np.not_equal(sorted_words[1:], sorted_words[:-1], out=run_start[1:])
    run_starts = np.flatnonzero(run_start)
    run_of = np.empty(count, dtype=np.int64)
    run_of[order] = np.cumsum(run_start) - 1
    rep = np.minimum.reduceat(order, run_starts)[run_of]

    follower = np.flatnonzero(rep != np.arange(count, dtype=np.int64))
    if follower.size:
        lead = rep[follower]
        differs = (lengths[follower] != lengths[lead]) | (
            segs[follower] != segs[lead]
        )
        check = np.flatnonzero(~differs)
        widths = lengths[follower[check]]
        n_entries = int(widths.sum())
        if n_entries:
            offsets = np.arange(n_entries, dtype=np.int64) - np.repeat(
                np.cumsum(widths) - widths, widths
            )
            mine = flat[np.repeat(lo[follower[check]], widths) + offsets]
            theirs = flat[np.repeat(lo[lead[check]], widths) + offsets]
            owner = np.repeat(check, widths)
            differs[owner[mine != theirs]] = True
        if bool(differs.any()):
            run_bounds = np.append(run_starts, count).tolist()
            for run in sorted(set(run_of[follower[differs]].tolist())):
                members = order[run_bounds[run] : run_bounds[run + 1]]
                firsts: "dict[tuple[int, bytes], int]" = {}
                for t in sorted(members.tolist()):
                    key = (int(segs[t]), flat[lo[t] : hi[t]].tobytes())
                    rep[t] = firsts.setdefault(key, t)

    is_first = rep == np.arange(count, dtype=np.int64)
    number = np.cumsum(is_first) - 1
    counts = np.bincount(segs[is_first], minlength=n_segs)
    seg_base = np.cumsum(counts) - counts
    return number[rep] - seg_base[segs], counts


def _nearest(d_x: np.ndarray, d_y: np.ndarray) -> np.ndarray:
    """Element-wise min of two hop-distance arrays, −1 (unreachable) only
    where both are −1: a BFS from both sources at once."""
    return np.where(d_x < 0, d_y, np.where(d_y < 0, d_x, np.minimum(d_x, d_y)))


def _feature_positions(k: int) -> np.ndarray:
    """(k, k) map from 0-based (row, col) to Eq. 5 feature position."""
    from repro.core.feature import unfold_indices

    rows, cols = unfold_indices(k)
    positions = np.full((k, k), -1, dtype=np.int64)
    positions[rows, cols] = np.arange(rows.size, dtype=np.int64)
    return positions


def _log1p_each(values: np.ndarray) -> np.ndarray:
    """Element-wise ``math.log1p`` — NOT ``np.log1p``, whose results can
    differ in the last bit from the C library call the reference makes."""
    return np.fromiter(
        (math.log1p(v) for v in values.tolist()),
        dtype=np.float64,
        count=values.size,
    )


class BatchExtractionEngine:
    """Chunk-level batched SSF extraction against one CSR snapshot.

    Owned (lazily) by a csr-backend :class:`~repro.core.feature.SSFExtractor`;
    its ``extract_batch``/``extract_multi_batch`` delegate here.  See the
    module docstring for the sharing model and docs/PERFORMANCE.md for
    when batching wins.
    """

    def __init__(
        self,
        snapshot: CSRSnapshot,
        k: int,
        theta: float,
        present_time: float,
        compress: bool,
        ordering: str,
        max_hop: "int | None",
    ) -> None:
        self._snapshot = snapshot
        self._k = k
        self._theta = theta
        self._present = present_time
        self._compress = compress
        self._ordering = ordering
        self._max_hop = max_hop
        self._dim = k * (k - 1) // 2 - 1
        self._arena = BatchArena(snapshot.number_of_nodes())
        self._positions = _feature_positions(k)
        self._slot_sums: "np.ndarray | None" = None
        self._edge_key_table: "np.ndarray | None" = None
        self._multi_slot_memo: dict[bytes, float] = {}
        self._repr_rank: "np.ndarray | None" = None

    # ------------------------------------------------------------------
    # public entry points
    # ------------------------------------------------------------------
    def extract_batch(
        self,
        pairs: "Sequence[Pair]",
        mode: str,
        footprints: "list[np.ndarray] | None" = None,
        inner: "list[np.ndarray] | None" = None,
    ) -> np.ndarray:
        """Feature matrix ``(len(pairs), dim)`` for one entry mode.

        ``footprints``, when given, is extended with one sorted node-id
        array per pair: the pair's final grown Def. 3 ball B_h, the only
        nodes its row depends on (empty for a pair with a missing end
        node).  ``inner``, when given, is extended with each pair's
        *inner ball*, sorted: B_{h-1}, the ball one growth step before
        the end (the two end nodes at h = 1), or B_h itself for a pair
        whose ball stopped growing or reached ``max_hop``.  An edge
        event can change the row only if an endpoint lies in the inner
        ball or both endpoints lie in the footprint (docs/SERVING.md).
        Collecting either list changes no feature bit.
        """
        with span(f"feature.{mode}", k=self._k, pairs=len(pairs)):
            return self._extract_all(
                pairs, (mode,), shared=False, footprints=footprints, inner=inner
            )[mode]

    def extract_multi_batch(
        self, pairs: "Sequence[Pair]", modes: "tuple[str, ...]"
    ) -> "dict[str, np.ndarray]":
        """Per-mode feature matrices from ONE shared subgraph pass."""
        return self._extract_all(pairs, modes, shared=True)

    # ------------------------------------------------------------------
    # pipeline
    # ------------------------------------------------------------------
    def _extract_all(
        self,
        pairs: "Sequence[Pair]",
        modes: "tuple[str, ...]",
        shared: bool,
        footprints: "list[np.ndarray] | None" = None,
        inner: "list[np.ndarray] | None" = None,
    ) -> "dict[str, np.ndarray]":
        out = {
            mode: np.zeros((len(pairs), self._dim), dtype=np.float64)
            for mode in modes
        }
        if not pairs:
            return out

        grown: "list[np.ndarray] | None" = (
            [_EMPTY_LEVEL] * len(pairs) if footprints is not None else None
        )
        inner_balls: "list[np.ndarray] | None" = (
            [_EMPTY_LEVEL] * len(pairs) if inner is not None else None
        )
        for slab in self._grow_and_combine(pairs, grown, inner_balls):
            self._finish(slab, modes, shared, out)
        if footprints is not None and grown is not None:
            footprints.extend(grown)
        if inner is not None and inner_balls is not None:
            inner.extend(inner_balls)
        return out

    def _finish(
        self,
        slab: _Slab,
        modes: "tuple[str, ...]",
        shared: bool,
        out: "dict[str, np.ndarray]",
    ) -> None:
        """Alg. 2 Palette-WL, top-K selection and the Eq. 4/5 entries of
        one slab's structure subgraphs, written into their rows of
        ``out``.  The slab's blocks are released first."""
        incr("batch.slabs")
        blocks, slab.blocks = slab.blocks, []
        # One flat layout for the slab: structure-graph adjacency (WL
        # input) and member CSR, segments in pass order.
        k = self._k
        job_rows, sizes, degrees, nbr_indices, member_counts, members_flat = (
            np.concatenate(column) for column in zip(*blocks)
        )
        del blocks
        n_segments = sizes.size
        seg_indptr = np.zeros(n_segments + 1, dtype=np.int64)
        np.cumsum(sizes, out=seg_indptr[1:])
        total = int(seg_indptr[-1])
        seg_ids = np.repeat(np.arange(n_segments, dtype=np.int64), sizes)
        nbr_indptr = np.zeros(total + 1, dtype=np.int64)
        np.cumsum(degrees, out=nbr_indptr[1:])
        member_indptr = np.zeros(total + 1, dtype=np.int64)
        np.cumsum(member_counts, out=member_indptr[1:])
        n_nodes = self._snapshot.number_of_nodes()

        def link_slots(
            q_seg: np.ndarray, i_loc: np.ndarray, j_loc: np.ndarray
        ) -> "tuple[np.ndarray, np.ndarray]":
            """Directed edge slots of many adjacent structure links:
            link ``q``'s are ``slots[bounds[q]:bounds[q + 1]]``.

            A link's member-level edges are all of ``I × J`` (module
            docstring), listed from the smaller side (the lower index on
            a tie) with both sides ascending — the reference's scan
            order."""
            low = np.minimum(i_loc, j_loc)
            high = np.maximum(i_loc, j_loc)
            base = seg_indptr[q_seg]
            swap = member_counts[base + low] > member_counts[base + high]
            small = base + np.where(swap, high, low)
            large = base + np.where(swap, low, high)
            width = member_counts[large]
            per_link = member_counts[small] * width
            bounds = np.zeros(q_seg.size + 1, dtype=np.int64)
            np.cumsum(per_link, out=bounds[1:])
            offsets = np.arange(int(bounds[-1]), dtype=np.int64)
            offsets -= np.repeat(bounds[:-1], per_link)
            width = np.repeat(width, per_link)
            u = np.repeat(member_indptr[small], per_link) + offsets // width
            v = np.repeat(member_indptr[large], per_link) + offsets % width
            keys = members_flat[u] * n_nodes + members_flat[v]
            return np.searchsorted(self._edge_keys(), keys), bounds

        def tie_break(nodes: np.ndarray) -> np.ndarray:
            """Eq. 4 tie-break scores of tied structure nodes: from 0.0,
            minus the influence of the link to end node 0, then minus
            that to end node 1 — the reference's per-endpoint order.

            Tied nodes are never end nodes (colours 1 and 2 are
            singleton classes), and rows ascend from the segment's two
            end nodes, so a row's first two entries say which end nodes
            it touches."""
            seg = seg_ids[nodes]
            start = seg_indptr[seg]
            row_lo = nbr_indptr[nodes]
            row_len = nbr_indptr[nodes + 1] - row_lo
            #: local ids of each row's first two neighbours (−1: none)
            first_two = np.full((2, nodes.size), -1, dtype=np.int64)
            for offset in (0, 1):
                has = row_len > offset
                first_two[offset, has] = (
                    nbr_indices[row_lo[has] + offset] - start[has]
                )
            adjacent = (
                first_two[0] == 0,
                (first_two[0] == 1) | (first_two[1] == 1),
            )
            scores = np.zeros(nodes.size, dtype=np.float64)
            for endpoint in (0, 1):
                hit = np.flatnonzero(adjacent[endpoint])
                if hit.size:
                    scores[hit] -= self._link_influences(
                        *link_slots(
                            seg[hit],
                            nodes[hit] - start[hit],
                            np.full(hit.size, endpoint, dtype=np.int64),
                        )
                    )
            return scores

        def sort_key(flat_index: int) -> "tuple[int, ...]":
            """Label key of a tied group: its members' ranks in the
            engine's repr order, ascending.  Rank order is repr order and
            equal reprs share a rank, so these tuples compare exactly
            like the reference's sorted repr tuples."""
            members = members_flat[
                member_indptr[flat_index] : member_indptr[flat_index + 1]
            ]
            return tuple(sorted(self._node_repr_rank()[members].tolist()))

        def singleton_ranks() -> np.ndarray:
            """Scalar sort-key ranks: singleton groups (the common case)
            key by ONE label repr, so its rank in the engine's repr order
            substitutes for the tuple in any all-singleton tied run."""
            rank = self._node_repr_rank()
            first = members_flat[member_indptr[:-1]]
            return np.where(
                member_counts == 1, rank[first], np.int64(-1)
            )

        # Each structure node's hop distances to the two end nodes: the
        # Palette-WL initial key, and (their element-wise min) the Eq. 5
        # distance to the target link.
        with span("palette_wl", nodes=total, segments=n_segments):
            from_a = flat_hop_distances(nbr_indptr, nbr_indices, seg_indptr[:-1])
            from_b = flat_hop_distances(
                nbr_indptr, nbr_indices, seg_indptr[:-1] + 1
            )
            orders = palette_wl_order_many(
                seg_indptr,
                nbr_indptr,
                nbr_indices,
                from_a,
                from_b,
                tie_break if self._ordering != "hops" else None,
                sort_key,
                singleton_ranks,
                limit=k,
            )

        # Top-K selection: orders up to K are the reference's 1-based
        # strict orders (larger ones only compare above K), so
        # "order <= k" IS the reference's stable top-min(k, size) pick.
        selected_mask = orders <= k
        sel_sizes = np.minimum(sizes, k)
        sel_indptr = np.zeros(n_segments + 1, dtype=np.int64)
        np.cumsum(sel_sizes, out=sel_indptr[1:])
        sel_nodes = np.flatnonzero(selected_mask)
        sel_flat = np.empty(int(sel_indptr[-1]), dtype=np.int64)
        sel_flat[sel_indptr[seg_ids[sel_nodes]] + orders[sel_nodes] - 1] = sel_nodes
        position_of = np.where(selected_mask, orders, 0)

        # Present structure links among the selected nodes: one global
        # adjacency gather; (m, n) kept when n > m, minus the target link.
        deg_sel = nbr_indptr[sel_flat + 1] - nbr_indptr[sel_flat]
        gathered = concatenate_neighbor_slices(nbr_indptr, nbr_indices, sel_flat)
        m_orders = np.repeat(orders[sel_flat], deg_sel)
        src_rep = np.repeat(sel_flat, deg_sel)
        seg_rep = np.repeat(seg_ids[sel_flat], deg_sel)
        n_orders = position_of[gathered]
        present = (n_orders > m_orders) & ~((m_orders == 1) & (n_orders == 2))
        link_m = m_orders[present]
        link_n = n_orders[present]
        link_i = src_rep[present]
        link_j = gathered[present]
        link_seg = seg_rep[present]
        link_row = job_rows[link_seg]
        feature_cols = self._positions[link_m - 1, link_n - 1]

        compress = self._compress
        selected_slots: "tuple[np.ndarray, np.ndarray] | None" = None
        link_infl: "np.ndarray | None" = None
        link_dist: "np.ndarray | None" = None

        def slots_of_links() -> "tuple[np.ndarray, np.ndarray]":
            nonlocal selected_slots
            if selected_slots is None:
                selected_slots = link_slots(
                    link_seg,
                    link_i - seg_indptr[link_seg],
                    link_j - seg_indptr[link_seg],
                )
            return selected_slots

        def influences() -> np.ndarray:
            nonlocal link_infl
            if link_infl is None:
                link_infl = self._link_influences(*slots_of_links())
            return link_infl

        def distance_entries() -> np.ndarray:
            nonlocal link_dist
            if link_dist is None:
                to_link = _nearest(from_a, from_b)
                nearest = _nearest(to_link[link_i], to_link[link_j])
                link_dist = np.where(
                    nearest < 0, 0.0, 1.0 / np.maximum(nearest, 1)
                )
            return link_dist

        def fill(mode: str) -> None:
            with span("influence_matrix", mode=mode, pairs=n_segments):
                if mode == "binary":
                    values = np.ones(link_m.size, dtype=np.float64)
                elif mode == "count":
                    # member-level link counts: exact integer sums
                    slots, bounds = slots_of_links()
                    ts_indptr = self._snapshot.ts_indptr
                    prefix = np.zeros(slots.size + 1, dtype=np.int64)
                    np.cumsum(
                        ts_indptr[slots + 1] - ts_indptr[slots], out=prefix[1:]
                    )
                    values = (prefix[bounds[1:]] - prefix[bounds[:-1]]).astype(
                        np.float64
                    )
                    if compress:
                        values = _log1p_each(values)
                elif mode == "influence":
                    values = influences()
                    if compress:
                        values = _log1p_each(values)
                elif mode == "distance":
                    values = distance_entries()
                elif mode == "influence_distance":
                    values = influences() * distance_entries()
                else:  # "temporal"
                    values = (1.0 + _log1p_each(influences())) * (
                        distance_entries()
                    )
                out[mode][link_row, feature_cols] = values

        for mode in modes:
            if shared:
                # extract_batch opens the one feature.<mode> span of its
                # call; a shared multi-mode pass opens one per mode and
                # slab here
                with span(f"feature.{mode}", k=k, pairs=n_segments, shared=True):
                    fill(mode)
            else:
                fill(mode)

    # ------------------------------------------------------------------
    # phase 1: level-synchronous growth + cross-pair combination
    # ------------------------------------------------------------------
    def _grow_and_combine(
        self,
        pairs: "Sequence[Pair]",
        grown: "list[np.ndarray] | None",
        inner: "list[np.ndarray] | None",
    ) -> "Iterator[_Slab]":
        """Def. 3 growth + Alg. 1 for every pair, yielding the finished
        pairs in slabs of about :data:`SLAB_ENTRIES` gathered entries; a
        finishing pair's union (its final radius-h ball) lands in
        ``grown[row]`` and its inner ball (see :meth:`extract_batch`) in
        ``inner[row]`` when asked.

        Each level cuts its combine pass into chunks by gather volume
        (:meth:`_chunks`) and runs them one by one through
        :meth:`_advance_chunk`, so a chunk's pass state is gone before
        the next chunk gathers.  A slab is yielded between chunks, never
        inside a span.  Ball extension and the per-pair merges run under
        ``subgraph_growth`` spans, combination and block extraction
        under ``structure_combination`` spans, so the two stage
        histograms time disjoint work."""
        k = self._k
        with span("subgraph_growth", h=1, pairs=len(pairs)):
            active = self._start_growth(pairs)
        slab = _Slab()
        h = 1
        while active:
            if obs_enabled():
                sizes = [int(g.union.size) for g in active]
                observe_many("subgraph.ball_size", sizes)
                observe_many(
                    "subgraph.frontier_size",
                    [size - g.prev.size for size, g in zip(sizes, active)],
                )
            # pairs whose ball holds fewer than K nodes cannot reach K
            # structure nodes: they only grow, alongside the first chunk
            small = [g for g in active if g.union.size < k]
            chunks: "list[_Chunk | None]" = []
            chunks += self._chunks([g for g in active if g.union.size >= k])
            growing: "list[_Growth]" = []
            finished = 0
            for index, chunk in enumerate(chunks or [None]):
                grew, count = self._advance_chunk(
                    chunk, small if index == 0 else [], h, slab, grown, inner
                )
                growing += grew
                finished += count
                if slab.entries >= SLAB_ENTRIES:
                    yield slab
                    slab = _Slab()
            observe_many("subgraph.growth_h", [h] * finished)
            active = growing
            h += 1
        if slab.blocks:
            yield slab

    def _advance_chunk(
        self,
        chunk: "_Chunk | None",
        small: "list[_Growth]",
        h: int,
        slab: _Slab,
        grown: "list[np.ndarray] | None",
        inner: "list[np.ndarray] | None",
    ) -> "tuple[list[_Growth], int]":
        """One chunk of level ``h``: Alg. 1 over its pairs, growth to
        ``h + 1`` of those short of K structure nodes (and of ``small``),
        and every pair that finishes at ``h`` added to ``slab``.

        Returns ``(growing, finished)``: the pairs whose ball grew, and
        how many pairs finished.  The pass state dies on return."""
        k = self._k
        done: "list[int]" = []
        pending: "list[tuple[_Growth, int | None]]" = []
        state: "_PassState | None" = None
        if chunk is not None:
            with span("structure_combination", h=h, pairs=len(chunk.growths)):
                state = self._combine_many(chunk)
            for segment, count in enumerate(state.group_counts.tolist()):
                if count >= k:
                    done.append(segment)
                else:
                    pending.append((chunk.growths[segment], segment))
        pending += [(growth, None) for growth in small]

        forced: "list[tuple[_Growth, int | None]]" = []
        growing: "list[_Growth]" = []
        if pending:
            if self._max_hop is not None and h >= self._max_hop:
                forced = pending
            else:
                with span("subgraph_growth", h=h + 1, pairs=len(pending)):
                    forced, growing = self._grow_pending(pending, h)
        # a pair that reached K keeps B_{h-1} as its inner ball; a forced
        # one keeps B_h, where one more edge could let its ball grow
        reached = [chunk.growths[s] for s in done] if chunk is not None else []
        stopped = [growth for growth, _segment in forced]
        done += [segment for _growth, segment in forced if segment is not None]
        leftover = [growth for growth, segment in forced if segment is None]
        if grown is not None:
            for growth in reached + stopped:
                grown[growth.row] = growth.union
        if inner is not None:
            for growth in reached:
                inner[growth.row] = growth.prev
            for growth in stopped:
                inner[growth.row] = growth.union
        if done or leftover:
            with span("structure_combination", h=h, pairs=len(done) + len(leftover)):
                if done:
                    assert state is not None and chunk is not None
                    slab.add(state, chunk, done)
                for part in self._chunks(leftover):
                    slab.add(
                        self._combine_many(part),
                        part,
                        list(range(len(part.growths))),
                    )
        return growing, len(done) + len(leftover)

    def _chunks(self, growths: "list[_Growth]") -> "list[_Chunk]":
        """Cut one combine pass's pairs, in order, into chunks of at most
        :data:`SLAB_ENTRIES` gathered entries (a pair over the budget
        alone).  The volume is each union's snapshot degree sum, read from
        ``indptr`` before any gather; a pass under the budget is one
        chunk."""
        if not growths:
            return []
        indptr = self._snapshot.indptr
        sizes = np.array([g.union.size for g in growths], dtype=np.int64)
        row_offsets = np.zeros(len(growths) + 1, dtype=np.int64)
        np.cumsum(sizes, out=row_offsets[1:])
        nodes = np.concatenate([g.union for g in growths])
        degrees = (indptr[nodes + 1] - indptr[nodes]).astype(np.int64)
        entry_bounds = np.zeros(nodes.size + 1, dtype=np.int64)
        np.cumsum(degrees, out=entry_bounds[1:])
        budget = SLAB_ENTRIES
        if int(entry_bounds[-1]) <= budget:
            return [_Chunk(growths, row_offsets, nodes, degrees, entry_bounds)]
        #: entries gathered before each pair
        before = entry_bounds[row_offsets]
        chunks: "list[_Chunk]" = []
        start = 0
        while start < len(growths):
            limit = int(before[start]) + budget
            end = int(np.searchsorted(before, limit, side="right")) - 1
            end = max(end, start + 1)
            lo, hi = int(row_offsets[start]), int(row_offsets[end])
            chunks.append(
                _Chunk(
                    growths[start:end],
                    row_offsets[start : end + 1] - lo,
                    nodes[lo:hi],
                    degrees[lo:hi],
                    entry_bounds[lo : hi + 1] - entry_bounds[lo],
                )
            )
            start = end
        return chunks

    def _start_growth(self, pairs: "Sequence[Pair]") -> "list[_Growth]":
        """Radius-1 growth state for every pair with both end nodes in the
        snapshot; endpoint balls are shared across the batch."""
        snapshot = self._snapshot
        arena = self._arena
        balls: dict[int, _Ball] = {}
        hits = 0
        misses = 0

        def ball_of(node_id: int) -> _Ball:
            nonlocal hits, misses
            ball = balls.get(node_id)
            if ball is None:
                misses += 1
                token = arena.next_token()
                arena.visited[node_id] = token
                ball = _Ball(node_id, token)
                balls[node_id] = ball
            else:
                hits += 1
            return ball

        active: "list[_Growth]" = []
        for row, (a, b) in enumerate(pairs):
            if not (snapshot.has_node(a) and snapshot.has_node(b)):
                continue
            a_id = snapshot.node_id(a)
            b_id = snapshot.node_id(b)
            if a_id == b_id:
                raise ValueError("target link end nodes must be distinct")
            growth = _Growth(row, a_id, b_id)
            growth.ball_a = ball_of(a_id)
            growth.ball_b = ball_of(b_id)
            active.append(growth)
        incr("batch.ball_reuse_hits", hits)
        incr("batch.ball_reuse_misses", misses)
        self._extend_balls([g.ball_a for g in active] + [g.ball_b for g in active], 1)
        init_parts: "list[np.ndarray]" = []
        init_owner: "list[int]" = []
        for index, growth in enumerate(active):
            assert growth.ball_a is not None and growth.ball_b is not None
            for part in (
                growth.ball_a.levels[0],
                growth.ball_a.level(1),
                growth.ball_b.levels[0],
                growth.ball_b.level(1),
            ):
                init_parts.append(part)
                init_owner.append(index)
        merged, bounds = self._merge_per_pair(init_parts, init_owner, len(active))
        for index, growth in enumerate(active):
            growth.union = (
                merged[bounds[index] : bounds[index + 1]]
                - index * self._snapshot.number_of_nodes()
            )
        return active

    def _grow_pending(
        self, pending: "list[tuple[_Growth, int | None]]", h: int
    ) -> "tuple[list[tuple[_Growth, int | None]], list[_Growth]]":
        """Advance every pending pair from radius ``h`` to ``h + 1``.

        Returns ``(forced, growing)``: pairs whose ball stopped growing
        (they finish at ``h``) and pairs whose union grew.
        """
        self._extend_balls(
            [g.ball_a for g, _ in pending] + [g.ball_b for g, _ in pending],
            h + 1,
        )
        # One global merge decides both questions per pair — did the
        # radius-(h+1) ball grow (else the pair is forced), and what is
        # the new union if it did.
        probe_parts: "list[np.ndarray]" = []
        probe_owner: "list[int]" = []
        for index, (growth, _segment) in enumerate(pending):
            assert growth.ball_a is not None
            assert growth.ball_b is not None
            for part in (
                growth.union,
                growth.ball_a.level(h + 1),
                growth.ball_b.level(h + 1),
            ):
                probe_parts.append(part)
                probe_owner.append(index)
        merged, bounds = self._merge_per_pair(probe_parts, probe_owner, len(pending))
        n_nodes = self._snapshot.number_of_nodes()
        forced: "list[tuple[_Growth, int | None]]" = []
        growing: "list[_Growth]" = []
        for index, (growth, segment) in enumerate(pending):
            lo, hi = int(bounds[index]), int(bounds[index + 1])
            if hi - lo == growth.union.size:
                forced.append((growth, segment))
            else:
                growth.prev = growth.union
                growth.union = merged[lo:hi] - index * n_nodes
                growing.append(growth)
        return forced, growing

    def _merge_per_pair(
        self,
        parts: "list[np.ndarray]",
        owner: "list[int]",
        n_pairs: int,
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Sorted-unique merge of many per-pair node-id piles at once.

        ``parts[i]`` belongs to pair ``owner[i]``; the merge of each
        pair's piles is one slice of the returned globally sorted key
        array (keys are ``pair * |V| + node`` — subtract the pair offset
        to recover node ids).  One global :func:`sorted_unique` replaces
        a Python-level unique/union call per pair.
        """
        n_nodes = self._snapshot.number_of_nodes()
        sizes = np.array([part.size for part in parts], dtype=np.int64)
        cat = np.concatenate(parts) if parts else _EMPTY_LEVEL
        owners = np.repeat(np.array(owner, dtype=np.int64), sizes)
        merged = sorted_unique(owners * n_nodes + cat)
        bounds = np.searchsorted(
            merged, np.arange(n_pairs + 1, dtype=np.int64) * n_nodes
        )
        return merged, bounds

    def _extend_balls(self, requested: "list[_Ball | None]", depth: int) -> None:
        """Grow every requested ball to ``depth`` in shared array passes.

        All live balls sit at the same level (growth is level-synchronous),
        so one pass gathers the neighbours of EVERY ball's frontier at
        once, masks out nodes already stamped with their ball's token, and
        splits the per-(ball, node) unique survivors back into per-ball
        sorted levels.  Nodes claimed by two balls in the same pass keep
        only one stamp — see :class:`_Ball` for why the later re-claim
        this can cause is harmless.
        """
        snapshot = self._snapshot
        visited = self._arena.visited
        n_nodes = snapshot.number_of_nodes()
        seen: "set[int]" = set()
        need: "list[_Ball]" = []
        for ball in requested:
            if (
                ball is not None
                and ball.token not in seen
                and not ball.exhausted
                and len(ball.levels) - 1 < depth
            ):
                seen.add(ball.token)
                need.append(ball)
        while need:
            frontier_sizes = np.array(
                [ball.levels[-1].size for ball in need], dtype=np.int64
            )
            frontier = np.concatenate([ball.levels[-1] for ball in need])
            degrees = (
                snapshot.indptr[frontier + 1] - snapshot.indptr[frontier]
            ).astype(np.int64)
            owner = np.repeat(
                np.repeat(np.arange(len(need), dtype=np.int64), frontier_sizes),
                degrees,
            )
            neighbors = concatenate_neighbor_slices(
                snapshot.indptr, snapshot.indices, frontier
            )
            tokens = np.array([ball.token for ball in need], dtype=np.int64)
            fresh = visited[neighbors] != tokens[owner]
            claim = sorted_unique(owner[fresh] * n_nodes + neighbors[fresh])
            claim_owner = claim // n_nodes
            claim_node = claim % n_nodes
            visited[claim_node] = tokens[claim_owner]
            bounds = np.searchsorted(
                claim_owner, np.arange(len(need) + 1, dtype=np.int64)
            )
            for index, ball in enumerate(need):
                level = claim_node[bounds[index] : bounds[index + 1]]
                if level.size == 0:
                    ball.exhausted = True
                else:
                    ball.levels.append(level)
            need = [
                ball
                for ball in need
                if not ball.exhausted and len(ball.levels) - 1 < depth
            ]

    def _combine_many(self, chunk: _Chunk) -> _PassState:
        """Algorithm 1 over every pair of one chunk, in shared array
        passes — same partition, adjacency and member order per pair as
        :func:`~repro.core.structure.combine_structures_csr`."""
        snapshot = self._snapshot
        n_nodes = snapshot.number_of_nodes()
        growths = chunk.growths
        n_segments = len(growths)
        row_offsets = chunk.row_offsets
        ball_sizes = np.diff(row_offsets)
        n_rows = int(row_offsets[-1])
        node_of_row = chunk.nodes
        seg_of_row = np.repeat(np.arange(n_segments, dtype=np.int64), ball_sizes)

        flat = concatenate_neighbor_slices(
            snapshot.indptr, snapshot.indices, node_of_row
        )
        entry_bounds = chunk.entry_bounds
        owner_row = np.repeat(np.arange(n_rows, dtype=np.int64), chunk.degrees)
        # Membership AND destination row of every gathered neighbour from
        # the arena's row map: stamp a segment's rows, then read its
        # entries.  Earlier segments and calls left only stamps below the
        # segment's first row, so "stamp >= first row" is membership.
        row_of = self._arena.row_of
        base = self._arena.claim_rows(n_rows)
        stamps = base + np.arange(n_rows, dtype=np.int64)
        dst_stamp = np.empty(flat.size, dtype=np.int64)
        row_bounds = row_offsets.tolist()
        seg_entry_bounds = entry_bounds[row_offsets]
        entry_list = seg_entry_bounds.tolist()
        for s in range(n_segments):
            lo, hi = row_bounds[s], row_bounds[s + 1]
            row_of[node_of_row[lo:hi]] = stamps[lo:hi]
            e_lo, e_hi = entry_list[s], entry_list[s + 1]
            dst_stamp[e_lo:e_hi] = row_of[flat[e_lo:e_hi]]
        dst_row = dst_stamp - base
        kept = np.flatnonzero(
            dst_row >= np.repeat(row_offsets[:-1], np.diff(seg_entry_bounds))
        )
        kept_dst_row = dst_row[kept]
        kept_owner_row = owner_row[kept]
        kept_indptr = np.zeros(n_rows + 1, dtype=np.int64)
        np.cumsum(
            np.bincount(kept_owner_row, minlength=n_rows), out=kept_indptr[1:]
        )

        # Per-segment sorted balls + disjoint per-segment key ranges give
        # one globally sorted haystack for the two end rows per segment.
        haystack = seg_of_row * n_nodes + node_of_row
        a_ids = np.array([g.a_id for g in growths], dtype=np.int64)
        b_ids = np.array([g.b_id for g in growths], dtype=np.int64)
        seg_range = np.arange(n_segments, dtype=np.int64)
        row_a = np.searchsorted(haystack, seg_range * n_nodes + a_ids)
        row_b = np.searchsorted(haystack, seg_range * n_nodes + b_ids)
        is_end_row = np.zeros(n_rows, dtype=bool)
        is_end_row[row_a] = True
        is_end_row[row_b] = True
        rest_rows = np.flatnonzero(~is_end_row)

        # Group non-end nodes by restricted-neighbour content per segment
        # (ascending node order = ascending row order), then pin the end
        # nodes to local groups 0/1.
        rest_ids, extra_counts = _group_ragged_rows(
            kept_indptr, kept_dst_row, rest_rows, seg_of_row[rest_rows], n_segments
        )
        group_counts = extra_counts + 2
        group_offsets = np.zeros(n_segments + 1, dtype=np.int64)
        np.cumsum(group_counts, out=group_offsets[1:])
        grp_row = np.empty(n_rows, dtype=np.int64)
        grp_row[row_a] = group_offsets[:-1]
        grp_row[row_b] = group_offsets[:-1] + 1
        grp_row[rest_rows] = group_offsets[seg_of_row[rest_rows]] + 2 + rest_ids

        # This grouping is already Alg. 1's fixed point, so the group
        # adjacency is built once.  Twins r, s (equal restricted
        # neighbourhoods) satisfy y ∈ N(r) ⟺ y ∈ N(s) for every y, so with
        # symmetric adjacency each N(r) is a union of whole groups; two
        # groups with equal group-level neighbourhoods would then have
        # equal node-level ones and be one group.  Twins are never
        # adjacent (no self-loops), so no kept edge joins a group to
        # itself.  The dict reference still iterates, as the oracle.
        n_groups_total = int(group_offsets[-1])
        unique_codes = sorted_unique(
            grp_row[kept_owner_row] * n_groups_total + grp_row[kept_dst_row]
        )
        adj_src = unique_codes // n_groups_total
        adj_dst = unique_codes - adj_src * n_groups_total
        adj_indptr = np.zeros(n_groups_total + 1, dtype=np.int64)
        np.cumsum(
            np.bincount(adj_src, minlength=n_groups_total), out=adj_indptr[1:]
        )

        if obs_enabled():
            observe_many("structure.merge_rounds", [1] * n_segments)
            nodes_in = [int(ball_sizes[s]) for s in range(n_segments)]
            nodes_out = [int(group_counts[s]) for s in range(n_segments)]
            observe_many("structure.nodes_in", nodes_in)
            observe_many("structure.nodes_out", nodes_out)
            observe_many(
                "structure.compression_ratio",
                [i / o for i, o in zip(nodes_in, nodes_out)],
            )
        return _PassState(
            node_of_row,
            grp_row,
            group_counts,
            group_offsets,
            adj_indptr,
            adj_dst,
        )

    # ------------------------------------------------------------------
    # phase 3 helpers: slot sums, edge keys and influence
    # ------------------------------------------------------------------
    def _slot_sum_table(self) -> np.ndarray:
        """Per-edge-slot influence sums, each accumulated left to right
        from 0.0 exactly as the reference's scalar loop does."""
        if self._slot_sums is None:
            snapshot = self._snapshot
            table = snapshot.influence_table(self._present, self._theta)
            layout = _ColumnLayout(snapshot.ts_indptr)
            self._slot_sums = layout.sums(table[layout.entries])
        return self._slot_sums

    def _edge_keys(self) -> np.ndarray:
        """``u * |V| + v`` of every directed edge slot ``u → v``: sorted,
        because CSR rows ascend by source and each row by target, so a
        key's position is its slot."""
        if self._edge_key_table is None:
            snapshot = self._snapshot
            n_nodes = snapshot.number_of_nodes()
            sources = np.repeat(
                np.arange(n_nodes, dtype=np.int64), np.diff(snapshot.indptr)
            )
            self._edge_key_table = sources * n_nodes + snapshot.indices
        return self._edge_key_table

    def _node_repr_rank(self) -> np.ndarray:
        """Rank of each node's label repr among the snapshot's distinct
        reprs — a scalar stand-in for the 1-tuple sort keys of singleton
        groups (equal reprs share a rank, so WL-tie stability holds)."""
        if self._repr_rank is None:
            labels = self._snapshot.labels
            reprs = [repr(labels[m]) for m in range(len(labels))]
            rank_of = {
                text: rank for rank, text in enumerate(sorted(set(reprs)))
            }
            self._repr_rank = np.fromiter(
                (rank_of[text] for text in reprs),
                dtype=np.int64,
                count=len(reprs),
            )
        return self._repr_rank

    def _link_influences(
        self, slots: np.ndarray, bounds: np.ndarray
    ) -> np.ndarray:
        """Normalized influences (Eq. 3) of many structure links, link
        ``q`` owning edge slots ``slots[bounds[q]:bounds[q + 1]]``."""
        per_link = np.diff(bounds)
        values = np.zeros(per_link.size, dtype=np.float64)
        single = np.flatnonzero(per_link == 1)
        if single.size:
            values[single] = self._slot_sum_table()[slots[bounds[single]]]
        multi = np.flatnonzero(per_link > 1)
        if multi.size:
            values[multi] = self._multi_slot_influence_many(
                slots, bounds[multi], bounds[multi + 1]
            )
        return values

    def _multi_slot_influence_many(
        self, slots: np.ndarray, lo: np.ndarray, hi: np.ndarray
    ) -> np.ndarray:
        """Reference multi-slot influences of many queries at once.

        The reference concatenates each query's per-slot event lists,
        stable-sorts by timestamp and accumulates scalar left-to-right.
        Here all uncached queries share ONE ragged gather and ONE stable
        lexsort, and a :class:`_ColumnLayout` replays each query's scalar
        add sequence bit-exactly.  Equal timestamps carry equal table
        values, so the order of a query's slots changes no bit.  Results
        are memoized per slot list across batches (same snapshot table).
        """
        out = np.empty(lo.size, dtype=np.float64)
        memo = self._multi_slot_memo
        lo_list = lo.tolist()
        hi_list = hi.tolist()
        miss_rows: "list[int]" = []
        miss_keys: "list[bytes]" = []
        for t in range(lo.size):
            key = slots[lo_list[t] : hi_list[t]].tobytes()
            cached = memo.get(key)
            if cached is None:
                miss_rows.append(t)
                miss_keys.append(key)
            else:
                out[t] = cached
        if not miss_rows:
            return out
        snapshot = self._snapshot
        table = snapshot.influence_table(self._present, self._theta)
        ts_indptr = snapshot.ts_indptr
        rows = np.array(miss_rows, dtype=np.int64)
        n_slots = hi[rows] - lo[rows]
        slot_offsets = np.zeros(rows.size + 1, dtype=np.int64)
        np.cumsum(n_slots, out=slot_offsets[1:])
        slot_pos = np.arange(int(slot_offsets[-1]), dtype=np.int64)
        slot_pos -= np.repeat(slot_offsets[:-1], n_slots)
        flat_slots = slots[np.repeat(lo[rows], n_slots) + slot_pos]
        slot_owner = np.repeat(np.arange(rows.size, dtype=np.int64), n_slots)
        ev_counts = ts_indptr[flat_slots + 1] - ts_indptr[flat_slots]
        ev_offsets = np.zeros(flat_slots.size + 1, dtype=np.int64)
        np.cumsum(ev_counts, out=ev_offsets[1:])
        ev_pos = np.arange(int(ev_offsets[-1]), dtype=np.int64)
        ev_pos -= np.repeat(ev_offsets[:-1], ev_counts)
        ev_src = np.repeat(ts_indptr[flat_slots], ev_counts) + ev_pos
        ev_owner = np.repeat(slot_owner, ev_counts)
        # Stable (owner, ts) sort == per-query argsort(ts, kind="stable")
        # over the slot-order concatenation the reference builds.
        order = np.lexsort((self._snapshot.ts[ev_src], ev_owner))
        values_sorted = table[ev_src[order]]
        query_offsets = np.zeros(rows.size + 1, dtype=np.int64)
        np.cumsum(
            np.bincount(ev_owner, minlength=rows.size), out=query_offsets[1:]
        )
        layout = _ColumnLayout(query_offsets)
        sums = layout.sums(values_sorted[layout.entries])
        out[rows] = sums
        for key, value in zip(miss_keys, sums.tolist()):
            memo[key] = value
        return out
