"""Batched multi-pair SSF extraction over the CSR backend.

`SSFExtractor.extract` pays its full pipeline cost per pair: a fresh BFS,
fresh combine scratch, a Python-loop Palette-WL, per-link influence sums
and per-pair span bookkeeping.  For the paper's motivating workload —
scoring *many* candidate links against one frozen snapshot — most of that
cost is shareable.  :class:`BatchExtractionEngine` runs a whole pair list
through the CSR pipeline at once:

* **Growth as pair-indexed arrays** — the pairs still growing at radius
  ``h`` are one set of flat arrays (:class:`_Pairs`): output rows, end
  nodes, and every pair's ball B_h and B_{h-1} laid out back to back.
  Growth is level-synchronous: every pair still growing at radius ``h``
  is advanced together, so all structure combination at one radius
  happens in ONE cross-pair array pass
  (:meth:`BatchExtractionEngine._combine_many`) instead of one
  quadratic-ish pass per pair.  That pass gathers the snapshot row of
  every node of every ball, which is also all a pair needs to grow:
  B_{h+1} is B_h plus the gathered neighbours outside it, and a pair
  whose gather leaves B_h nowhere has an exhausted ball.  The pass
  groups nodes once: the first same-neighbourhood grouping is already
  Alg. 1's fixed point, so combination is one merge round.
* **Arena buffer** — the |V|-sized node → combination-row map is
  allocated once per engine and part and reused across every pair of
  every batch via monotonically increasing stamps (never cleared, never
  reallocated).
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
  finished block outlives its slab; the slot-sum table and the
  multi-slot memo are shared by every slab.
* **Parts** — every pair's row depends on the frozen snapshot alone, so
  a call whose estimated h = 1 gather volume (each pair's degree sums
  over both end nodes' closed neighbourhoods, read from ``indptr``)
  exceeds one part's slab budget is cut into contiguous parts of about
  equal volume, one per usable CPU.  The calling thread runs the first
  part and short-lived threads the rest, each through the serial
  pipeline with its own arena and ``SLAB_ENTRIES / parts`` of the
  budget; the numpy passes release the GIL, so the parts overlap.  The
  influence, slot-sum, edge-key and repr-rank tables are built before
  the parts start and only read by them, and every part writes only its
  own rows, so the output is the serial call's bit for bit.  Inside a
  pool worker a call runs as one part.

The result is **bit-identical** to looping ``extract`` on the dict
backend (the untouched reference) — every floating-point reduction below
replays the reference operation sequence exactly (integer reductions are
always exact; the few genuinely sequential float sums stay scalar); the
randomized batched differential suite enforces it across all entry modes.

Arena lifetime rules: the engine (and its arenas, one per part) lives
as long as its :class:`~repro.core.feature.SSFExtractor` — in pool
workers that is the whole worker lifetime, so chunks after the first
allocate nothing |V|-sized.  Slot-sum tables, edge keys and multi-slot
memos are scoped per engine; per-pair structures are dropped when their
slab is finished.  An engine runs one call at a time: never share one
engine across threads.
"""

from __future__ import annotations

import contextvars
import math
import multiprocessing
import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Hashable, Iterator, Sequence

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
#: docs/PERFORMANCE.md ("Slabs").  A call cut into parts gives each part
#: an equal share of it (docs/PERFORMANCE.md, "Parts").
SLAB_ENTRIES = 1_000_000


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class BatchArena:
    """The reusable |V|-sized work buffer, shared by every pair of one
    part (an engine keeps one per part and reuses them across calls).

    ``row_of`` maps a node to its combination row, stamped ``base + row``
    from a monotone per-arena base (never-stamped entries hold −1), so a
    stamp below the current segment's first row is stale.
    """

    def __init__(self, n_nodes: int) -> None:
        self.row_of = np.full(n_nodes, -1, dtype=np.int64)
        self._row_base = 0

    def claim_rows(self, n_rows: int) -> int:
        """A stamp base for ``n_rows`` fresh rows of :attr:`row_of`, above
        every stamp written before."""
        base = self._row_base
        self._row_base += n_rows
        return base


_NO_NODES = np.zeros(0, dtype=np.int64)


def _ragged_positions(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``starts[i], ..., starts[i] + counts[i] - 1`` for every ``i``, in
    order: the positions of many slices of one flat array."""
    ends = counts.cumsum()
    positions = np.arange(int(ends[-1]) if ends.size else 0, dtype=np.int64)
    positions += (starts - ends + counts).repeat(counts)
    return positions


class _Pairs:
    """Growth state of the pairs at one radius ``h``, as pair-indexed
    arrays.

    Pair ``i`` fills output row ``rows[i]`` (ascending) and has end node
    ids ``a_ids[i]``/``b_ids[i]``.  Its ball B_h is ``nodes[bounds[i]:
    bounds[i + 1]]`` and the ball one growth step before, B_{h-1} (the
    end nodes at h = 1), ``prev[prev_bounds[i]:prev_bounds[i + 1]]``,
    both ascending.
    """

    __slots__ = ("rows", "a_ids", "b_ids", "nodes", "bounds", "prev", "prev_bounds")

    def __init__(
        self,
        rows: np.ndarray,
        a_ids: np.ndarray,
        b_ids: np.ndarray,
        nodes: np.ndarray,
        bounds: np.ndarray,
        prev: np.ndarray,
        prev_bounds: np.ndarray,
    ) -> None:
        self.rows = rows
        self.a_ids = a_ids
        self.b_ids = b_ids
        self.nodes = nodes
        self.bounds = bounds
        self.prev = prev
        self.prev_bounds = prev_bounds

    def __len__(self) -> int:
        return int(self.rows.size)

    def slice(self, lo: int, hi: int) -> "_Pairs":
        """Pairs ``lo:hi``, as views."""
        first, last = int(self.bounds[lo]), int(self.bounds[hi])
        prev_first = int(self.prev_bounds[lo])
        prev_last = int(self.prev_bounds[hi])
        return _Pairs(
            self.rows[lo:hi],
            self.a_ids[lo:hi],
            self.b_ids[lo:hi],
            self.nodes[first:last],
            self.bounds[lo : hi + 1] - first,
            self.prev[prev_first:prev_last],
            self.prev_bounds[lo : hi + 1] - prev_first,
        )

    @staticmethod
    def concat(pieces: "list[_Pairs]") -> "_Pairs | None":
        """The pairs of ``pieces`` in order (``None`` for none)."""
        pieces = [piece for piece in pieces if len(piece)]
        if len(pieces) < 2:
            return pieces[0] if pieces else None

        def bounds(name: str) -> np.ndarray:
            sizes = np.concatenate([np.diff(getattr(p, name)) for p in pieces])
            out = np.zeros(sizes.size + 1, dtype=np.int64)
            sizes.cumsum(out=out[1:])
            return out

        def joined(name: str) -> np.ndarray:
            return np.concatenate([getattr(p, name) for p in pieces])

        return _Pairs(
            joined("rows"),
            joined("a_ids"),
            joined("b_ids"),
            joined("nodes"),
            bounds("bounds"),
            joined("prev"),
            bounds("prev_bounds"),
        )


class _Part:
    """One contiguous run of a call's pairs with both end nodes in the
    snapshot: output rows ``rows``, end node ids ``a_ids``/``b_ids``.  It
    runs the serial pipeline with its own ``arena`` and cuts its passes
    and slabs at ``budget`` gathered entries."""

    __slots__ = ("rows", "a_ids", "b_ids", "arena", "budget")

    def __init__(
        self,
        rows: np.ndarray,
        a_ids: np.ndarray,
        b_ids: np.ndarray,
        arena: BatchArena,
        budget: int,
    ) -> None:
        self.rows = rows
        self.a_ids = a_ids
        self.b_ids = b_ids
        self.arena = arena
        self.budget = budget


class _PassState:
    """Merge-converged state of one cross-pair combine pass.

    Segment ``s`` (one pair's candidate subgraph) owns global structure-
    group ids ``group_offsets[s]:group_offsets[s+1]``; ``grp_row`` maps
    every node-row (rows in (segment, node) order) to its global group.
    ``adj_indptr``/``adj_dst`` is the final global group-level adjacency
    (rows ascending).  ``flat`` holds the pass's gathered neighbour
    entries, segment ``s`` owning ``flat[entry_bounds[s]:entry_bounds[s
    + 1]]``, and ``inside`` says which of them lie in their segment's
    ball.
    """

    __slots__ = (
        "node_of_row",
        "grp_row",
        "group_counts",
        "group_offsets",
        "adj_indptr",
        "adj_dst",
        "flat",
        "inside",
        "entry_bounds",
    )

    def __init__(
        self,
        node_of_row: np.ndarray,
        grp_row: np.ndarray,
        group_counts: np.ndarray,
        group_offsets: np.ndarray,
        adj_indptr: np.ndarray,
        adj_dst: np.ndarray,
        flat: np.ndarray,
        inside: np.ndarray,
        entry_bounds: np.ndarray,
    ) -> None:
        self.node_of_row = node_of_row
        self.grp_row = grp_row
        self.group_counts = group_counts
        self.group_offsets = group_offsets
        self.adj_indptr = adj_indptr
        self.adj_dst = adj_dst
        self.flat = flat
        self.inside = inside
        self.entry_bounds = entry_bounds

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
        groups = _ragged_positions(self.group_offsets[segments], counts)
        renumber = np.full(int(self.group_offsets[-1]), -1, dtype=np.int64)
        renumber[groups] = np.arange(n_groups, dtype=np.int64)
        degrees = self.adj_indptr[groups + 1] - self.adj_indptr[groups]
        adjacency = renumber[
            concatenate_neighbor_slices(self.adj_indptr, self.adj_dst, groups)
        ]
        row_group = renumber[self.grp_row]
        rows = (row_group >= 0).nonzero()[0]
        row_group = row_group[rows]
        members = self.node_of_row[rows[stable_argsort(row_group, n_groups)]]
        member_counts = np.bincount(row_group, minlength=n_groups)
        return counts, degrees, adjacency + first_group, member_counts, members


class _Chunk:
    """Pairs of one combine pass whose balls gather at most their part's
    budget of neighbour entries in total (or one pair over it).

    ``pairs`` lays the pairs' balls out back to back, pair ``s`` owning
    rows ``pairs.bounds[s]:pairs.bounds[s + 1]``; ``degrees`` holds each
    row's snapshot degree and ``entry_bounds`` their running sum from 0,
    so row ``r`` gathers entries ``entry_bounds[r]:entry_bounds[r + 1]``.
    """

    __slots__ = ("pairs", "degrees", "entry_bounds")

    def __init__(
        self, pairs: _Pairs, degrees: np.ndarray, entry_bounds: np.ndarray
    ) -> None:
        self.pairs = pairs
        self.degrees = degrees
        self.entry_bounds = entry_bounds

    def entries(self, segments: np.ndarray) -> int:
        """Neighbour entries the pairs ``segments`` gather."""
        bounds = self.entry_bounds[self.pairs.bounds]
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

    def add(self, state: _PassState, chunk: _Chunk, segments: np.ndarray) -> None:
        """Add the finished ``segments`` of ``chunk``'s pass ``state``."""
        block = state.block(segments, self.groups)
        self.groups += int(block[0].sum())
        self.entries += chunk.entries(segments)
        self.blocks.append((chunk.pairs.rows[segments],) + block)


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
        mixed[flat].cumsum(out=running[1:])
    words = (running[hi] - running[lo]) ^ _mix64((segs << 32) + lengths)

    # repro-lint: disable=R602 -- tie order inside a run is never read
    order = words.argsort()
    sorted_words = words[order]
    run_start = np.empty(count, dtype=bool)
    run_start[0] = True
    np.not_equal(sorted_words[1:], sorted_words[:-1], out=run_start[1:])
    run_starts = run_start.nonzero()[0]
    run_of = np.empty(count, dtype=np.int64)
    run_of[order] = run_start.cumsum() - 1
    rep = np.minimum.reduceat(order, run_starts)[run_of]

    follower = (rep != np.arange(count, dtype=np.int64)).nonzero()[0]
    if follower.size:
        lead = rep[follower]
        differs = (lengths[follower] != lengths[lead]) | (
            segs[follower] != segs[lead]
        )
        check = (~differs).nonzero()[0]
        widths = lengths[follower[check]]
        n_entries = int(widths.sum())
        if n_entries:
            offsets = np.arange(n_entries, dtype=np.int64)
            offsets -= (widths.cumsum() - widths).repeat(widths)
            mine = flat[lo[follower[check]].repeat(widths) + offsets]
            theirs = flat[lo[lead[check]].repeat(widths) + offsets]
            owner = check.repeat(widths)
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
    number = is_first.cumsum() - 1
    counts = np.bincount(segs[is_first], minlength=n_segs)
    seg_base = counts.cumsum() - counts
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
        # a pool worker's siblings already hold the other CPUs, so its
        # calls run as one part: threads never nest inside processes
        in_worker = multiprocessing.parent_process() is not None
        self._cpus = 1 if in_worker else _usable_cpus()
        #: one arena per part, the first for serial calls
        self._arenas = [BatchArena(snapshot.number_of_nodes())]
        self._positions = _feature_positions(k)
        self._slot_sums: "np.ndarray | None" = None
        self._edge_key_table: "np.ndarray | None" = None
        self._multi_slot_memo: dict[bytes, float] = {}
        self._repr_rank: "np.ndarray | None" = None
        self._closed_volume_table: "np.ndarray | None" = None

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
            [_NO_NODES] * len(pairs) if footprints is not None else None
        )
        inner_balls: "list[np.ndarray] | None" = (
            [_NO_NODES] * len(pairs) if inner is not None else None
        )
        rows, a_ids, b_ids = self._resolve(pairs)
        bounds = self._part_bounds(a_ids, b_ids)
        n_parts = len(bounds) - 1
        while len(self._arenas) < n_parts:
            self._arenas.append(BatchArena(self._snapshot.number_of_nodes()))
        budget = SLAB_ENTRIES // n_parts

        def run(index: int) -> None:
            lo, hi = bounds[index], bounds[index + 1]
            part = _Part(
                rows[lo:hi],
                a_ids[lo:hi],
                b_ids[lo:hi],
                self._arenas[index],
                budget,
            )
            for slab in self._grow_and_combine(part, grown, inner_balls):
                self._finish(slab, modes, shared, out)

        incr("batch.parts", n_parts if n_parts > 1 else 0)
        if n_parts == 1:
            run(0)
        else:
            self._run_parts(run, n_parts)
        if footprints is not None and grown is not None:
            footprints.extend(grown)
        if inner is not None and inner_balls is not None:
            inner.extend(inner_balls)
        return out

    def _resolve(
        self, pairs: "Sequence[Pair]"
    ) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        """``(rows, a_ids, b_ids)`` of every pair with both end nodes in
        the snapshot, in pair order; the other rows stay zero."""
        snapshot = self._snapshot
        a_ids = snapshot.node_ids((a for a, _ in pairs), len(pairs))
        b_ids = snapshot.node_ids((b for _, b in pairs), len(pairs))
        rows = ((a_ids >= 0) & (b_ids >= 0)).nonzero()[0]
        a_ids = a_ids[rows]
        b_ids = b_ids[rows]
        if bool((a_ids == b_ids).any()):
            raise ValueError("target link end nodes must be distinct")
        return rows, a_ids, b_ids

    def _part_bounds(self, a_ids: np.ndarray, b_ids: np.ndarray) -> "list[int]":
        """Where the call's resolved pairs are cut into parts: ``[0, n]``
        (one part) unless the call's estimated h = 1 gather volume exceeds
        one part's share of :data:`SLAB_ENTRIES` and averages at least
        ``SLAB_ENTRIES / 1000`` per pair, with one part per usable CPU.  A
        pair goes to the part its volume's midpoint falls in, so the parts
        are contiguous and of about equal volume."""
        n_pairs = int(a_ids.size)
        n_parts = min(self._cpus, n_pairs)
        if n_parts < 2:
            return [0, n_pairs]
        closed = self._closed_volumes()
        volumes = closed[a_ids] + closed[b_ids]
        total = int(volumes.sum())
        # a thread pays off only where numpy passes, which release the GIL,
        # outweigh the per-pair Python around them, which holds it: the
        # call must fill one part's budget with pairs that average at
        # least a thousandth of SLAB_ENTRIES (docs/PERFORMANCE.md, "Parts")
        if total <= SLAB_ENTRIES // n_parts or total * 1000 < SLAB_ENTRIES * n_pairs:
            return [0, n_pairs]
        doubled_midpoints = 2 * volumes.cumsum() - volumes
        cuts = (doubled_midpoints * n_parts).searchsorted(
            2 * total * np.arange(1, n_parts, dtype=np.int64)
        )
        return sorted({0, n_pairs, *cuts.tolist()})

    def _run_parts(self, run: "Callable[[int], None]", n_parts: int) -> None:
        """``run(0)`` on the calling thread and ``run(1..n_parts - 1)`` on
        short-lived threads, each in a copy of the caller's context (so
        its spans nest under the caller's); every thread is joined before
        this returns, and a part's exception is raised here."""
        # the tables every part reads, built once, before any part starts
        self._slot_sum_table()
        self._edge_keys()
        self._node_repr_rank()
        with ThreadPoolExecutor(
            max_workers=n_parts - 1, thread_name_prefix="batch-part"
        ) as pool:
            futures = [
                pool.submit(contextvars.copy_context().run, run, index)
                for index in range(1, n_parts)
            ]
            run(0)
            for future in futures:
                future.result()

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
        sizes.cumsum(out=seg_indptr[1:])
        total = int(seg_indptr[-1])
        seg_ids = np.arange(n_segments, dtype=np.int64).repeat(sizes)
        nbr_indptr = np.zeros(total + 1, dtype=np.int64)
        degrees.cumsum(out=nbr_indptr[1:])
        member_indptr = np.zeros(total + 1, dtype=np.int64)
        member_counts.cumsum(out=member_indptr[1:])
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
            per_link.cumsum(out=bounds[1:])
            offsets = np.arange(int(bounds[-1]), dtype=np.int64)
            offsets -= bounds[:-1].repeat(per_link)
            width = width.repeat(per_link)
            u = member_indptr[small].repeat(per_link) + offsets // width
            v = member_indptr[large].repeat(per_link) + offsets % width
            keys = members_flat[u] * n_nodes + members_flat[v]
            return self._edge_keys().searchsorted(keys), bounds

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
                hit = adjacent[endpoint].nonzero()[0]
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
        # distance to the target link.  One BFS sweep serves both: over
        # two copies of the flat adjacency, the second shifted by
        # ``total``, from end node 0 in the first and end node 1 in the
        # second.
        with span("palette_wl", nodes=total, segments=n_segments):
            both = flat_hop_distances(
                np.concatenate([nbr_indptr, nbr_indptr[1:] + nbr_indptr[-1]]),
                np.concatenate([nbr_indices, nbr_indices + total]),
                np.concatenate([seg_indptr[:-1], seg_indptr[:-1] + 1 + total]),
            )
            from_a = both[:total]
            from_b = both[total:]
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
        sel_sizes.cumsum(out=sel_indptr[1:])
        sel_nodes = selected_mask.nonzero()[0]
        sel_flat = np.empty(int(sel_indptr[-1]), dtype=np.int64)
        sel_flat[sel_indptr[seg_ids[sel_nodes]] + orders[sel_nodes] - 1] = sel_nodes
        position_of = np.where(selected_mask, orders, 0)

        # Present structure links among the selected nodes: one global
        # adjacency gather; (m, n) kept when n > m, minus the target link.
        deg_sel = nbr_indptr[sel_flat + 1] - nbr_indptr[sel_flat]
        gathered = concatenate_neighbor_slices(nbr_indptr, nbr_indices, sel_flat)
        m_orders = orders[sel_flat].repeat(deg_sel)
        src_rep = sel_flat.repeat(deg_sel)
        seg_rep = seg_ids[sel_flat].repeat(deg_sel)
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
                    (ts_indptr[slots + 1] - ts_indptr[slots]).cumsum(out=prefix[1:])
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
        part: _Part,
        grown: "list[np.ndarray] | None",
        inner: "list[np.ndarray] | None",
    ) -> "Iterator[_Slab]":
        """Def. 3 growth + Alg. 1 for every pair of ``part``, yielding the
        finished pairs in slabs of about the part's budget of gathered
        entries; a finishing pair's union (its final radius-h ball) lands
        in ``grown[row]`` and its inner ball (see :meth:`extract_batch`)
        in ``inner[row]`` when asked.

        Each level cuts its combine pass into chunks by gather volume
        (:meth:`_chunks`) and runs them one by one through
        :meth:`_advance_chunk`, so a chunk's pass state is gone before
        the next chunk gathers.  A slab is yielded between chunks, never
        inside a span.  Growth runs under ``subgraph_growth`` spans,
        combination and block extraction under ``structure_combination``
        spans, so the two stage histograms time disjoint work."""
        with span("subgraph_growth", h=1, pairs=len(part.rows)):
            pairs: "_Pairs | None" = self._start_growth(part)
        slab = _Slab()
        h = 1
        while pairs is not None:
            if obs_enabled():
                sizes = np.diff(pairs.bounds)
                observe_many("subgraph.ball_size", sizes.tolist())
                observe_many(
                    "subgraph.frontier_size",
                    (sizes - np.diff(pairs.prev_bounds)).tolist(),
                )
            growing: "list[_Pairs]" = []
            finished = 0
            for chunk in self._chunks(pairs, part.budget):
                grew, count = self._advance_chunk(part, chunk, h, slab, grown, inner)
                growing.append(grew)
                finished += count
                if slab.entries >= part.budget:
                    yield slab
                    slab = _Slab()
            observe_many("subgraph.growth_h", [h] * finished)
            pairs = _Pairs.concat(growing)
            h += 1
        if slab.blocks:
            yield slab

    def _advance_chunk(
        self,
        part: _Part,
        chunk: _Chunk,
        h: int,
        slab: _Slab,
        grown: "list[np.ndarray] | None",
        inner: "list[np.ndarray] | None",
    ) -> "tuple[_Pairs, int]":
        """One chunk of level ``h``: Alg. 1 over its pairs, growth to
        ``h + 1`` of those short of K structure nodes, and every pair that
        finishes at ``h`` added to ``slab``.  A pair whose ball holds
        fewer than K nodes cannot reach K structure nodes; it is combined
        all the same, and grows.

        Returns ``(growing, finished)``: the pairs whose ball grew, and
        how many pairs finished.  The pass state dies on return."""
        pairs = chunk.pairs
        with span("structure_combination", h=h, pairs=len(pairs)):
            state = self._combine_many(chunk, part.arena)
        reached = state.group_counts >= self._k
        stopped = ~reached
        growing = pairs.slice(0, 0)
        pending = stopped.nonzero()[0]
        if pending.size and (self._max_hop is None or h < self._max_hop):
            with span("subgraph_growth", h=h + 1, pairs=int(pending.size)):
                growing, grew = self._grow(pairs, state, pending)
            stopped[pending[grew]] = False
        done = (reached | stopped).nonzero()[0]
        # a pair that reached K keeps B_{h-1} as its inner ball; a stopped
        # one keeps B_h, where one more edge could let its ball grow
        if grown is not None or inner is not None:
            bounds = pairs.bounds.tolist()
            prev_bounds = pairs.prev_bounds.tolist()
            for segment, row in zip(done.tolist(), pairs.rows[done].tolist()):
                ball = pairs.nodes[bounds[segment] : bounds[segment + 1]]
                if grown is not None:
                    grown[row] = ball
                if inner is not None:
                    inner[row] = (
                        ball
                        if stopped[segment]
                        else pairs.prev[
                            prev_bounds[segment] : prev_bounds[segment + 1]
                        ]
                    )
        if done.size:
            with span("structure_combination", h=h, pairs=int(done.size)):
                slab.add(state, chunk, done)
        return growing, int(done.size)

    def _chunks(self, pairs: _Pairs, budget: int) -> "list[_Chunk]":
        """Cut one combine pass's pairs, in order, into chunks of at most
        ``budget`` gathered entries (a pair over the budget alone).  The
        volume is each ball's snapshot degree sum, read from ``indptr``
        before any gather; a pass under the budget is one chunk."""
        indptr = self._snapshot.indptr
        nodes = pairs.nodes
        degrees = (indptr[nodes + 1] - indptr[nodes]).astype(np.int64)
        entry_bounds = np.zeros(nodes.size + 1, dtype=np.int64)
        degrees.cumsum(out=entry_bounds[1:])
        if int(entry_bounds[-1]) <= budget:
            return [_Chunk(pairs, degrees, entry_bounds)]
        #: entries gathered before each pair
        before = entry_bounds[pairs.bounds]
        chunks: "list[_Chunk]" = []
        start = 0
        while start < len(pairs):
            limit = int(before[start]) + budget
            end = int(before.searchsorted(limit, side="right")) - 1
            end = max(end, start + 1)
            lo, hi = int(pairs.bounds[start]), int(pairs.bounds[end])
            chunks.append(
                _Chunk(
                    pairs.slice(start, end),
                    degrees[lo:hi],
                    entry_bounds[lo : hi + 1] - entry_bounds[lo],
                )
            )
            start = end
        return chunks

    def _start_growth(self, part: _Part) -> "_Pairs | None":
        """Radius-1 growth state for every pair of ``part``: B_1 is the
        two end nodes and their neighbours, B_0 the end nodes."""
        snapshot = self._snapshot
        n_nodes = snapshot.number_of_nodes()
        count = int(part.rows.size)
        if not count:
            return None
        ends = np.concatenate([part.a_ids, part.b_ids])
        index = np.arange(count, dtype=np.int64)
        owner = np.concatenate([index, index])
        degrees = snapshot.indptr[ends + 1] - snapshot.indptr[ends]
        keys = sorted_unique(
            np.concatenate(
                [
                    owner * n_nodes + ends,
                    owner.repeat(degrees) * n_nodes
                    + concatenate_neighbor_slices(
                        snapshot.indptr, snapshot.indices, ends
                    ),
                ]
            )
        )
        bounds = keys.searchsorted(np.arange(count + 1, dtype=np.int64) * n_nodes)
        nodes = keys - (np.arange(count, dtype=np.int64) * n_nodes).repeat(
            bounds[1:] - bounds[:-1]
        )
        prev = np.empty(2 * count, dtype=np.int64)
        np.minimum(part.a_ids, part.b_ids, out=prev[0::2])
        np.maximum(part.a_ids, part.b_ids, out=prev[1::2])
        return _Pairs(
            part.rows,
            part.a_ids,
            part.b_ids,
            nodes,
            bounds,
            prev,
            np.arange(0, 2 * count + 1, 2, dtype=np.int64),
        )

    def _grow(
        self, pairs: _Pairs, state: _PassState, pending: np.ndarray
    ) -> "tuple[_Pairs, np.ndarray]":
        """Advance the ``pending`` pairs of one pass from radius ``h`` to
        ``h + 1``.

        B_{h+1} is B_h plus every neighbour the pass gathered outside B_h
        (a node outside B_h adjacent to it is adjacent to its frontier).
        Returns the pairs whose ball grew, at ``h + 1``, and which of
        ``pending`` they are; a pending pair with no outside neighbour
        has an exhausted ball and finishes at ``h``."""
        n_nodes = self._snapshot.number_of_nodes()
        seg_entries = state.entry_bounds
        counts = seg_entries[pending + 1] - seg_entries[pending]
        positions = _ragged_positions(seg_entries[pending], counts)
        outside = ~state.inside[positions]
        owner = pending.repeat(counts)[outside]
        grew_seg = np.zeros(len(pairs), dtype=bool)
        grew_seg[owner] = True
        grew = grew_seg[pending]
        segments = pending[grew]
        ball_sizes = pairs.bounds[segments + 1] - pairs.bounds[segments]
        ball = pairs.nodes[_ragged_positions(pairs.bounds[segments], ball_sizes)]
        keys = sorted_unique(
            np.concatenate(
                [
                    (segments * n_nodes).repeat(ball_sizes) + ball,
                    owner * n_nodes + state.flat[positions[outside]],
                ]
            )
        )
        bounds = keys.searchsorted(
            np.concatenate([segments, [len(pairs)]]) * n_nodes
        )
        new_sizes = bounds[1:] - bounds[:-1]
        prev_bounds = np.zeros(segments.size + 1, dtype=np.int64)
        ball_sizes.cumsum(out=prev_bounds[1:])
        return (
            _Pairs(
                pairs.rows[segments],
                pairs.a_ids[segments],
                pairs.b_ids[segments],
                keys - (segments * n_nodes).repeat(new_sizes),
                bounds - bounds[0],
                ball,
                prev_bounds,
            ),
            grew,
        )

    def _combine_many(self, chunk: _Chunk, arena: BatchArena) -> _PassState:
        """Algorithm 1 over every pair of one chunk, in shared array
        passes — same partition, adjacency and member order per pair as
        :func:`~repro.core.structure.combine_structures_csr`."""
        snapshot = self._snapshot
        n_nodes = snapshot.number_of_nodes()
        pairs = chunk.pairs
        n_segments = len(pairs)
        row_offsets = pairs.bounds
        ball_sizes = row_offsets[1:] - row_offsets[:-1]
        n_rows = int(row_offsets[-1])
        node_of_row = pairs.nodes
        seg_of_row = np.arange(n_segments, dtype=np.int64).repeat(ball_sizes)

        flat = concatenate_neighbor_slices(
            snapshot.indptr, snapshot.indices, node_of_row
        )
        entry_bounds = chunk.entry_bounds
        owner_row = np.arange(n_rows, dtype=np.int64).repeat(chunk.degrees)
        # Membership AND destination row of every gathered neighbour from
        # the arena's row map: stamp a segment's rows, then read its
        # entries.  Earlier segments and calls left only stamps below the
        # segment's first row, so "stamp >= first row" is membership.  A
        # node can lie in many segments' balls, so the one |V|-sized map
        # holds one segment's stamps at a time.
        row_of = arena.row_of
        base = arena.claim_rows(n_rows)
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
        inside = dst_row >= row_offsets[:-1].repeat(
            seg_entry_bounds[1:] - seg_entry_bounds[:-1]
        )
        kept = inside.nonzero()[0]
        kept_dst_row = dst_row[kept]
        kept_owner_row = owner_row[kept]
        kept_indptr = np.zeros(n_rows + 1, dtype=np.int64)
        np.bincount(kept_owner_row, minlength=n_rows).cumsum(out=kept_indptr[1:])

        # Per-segment sorted balls + disjoint per-segment key ranges give
        # one globally sorted haystack for the two end rows per segment.
        haystack = seg_of_row * n_nodes + node_of_row
        seg_keys = np.arange(n_segments, dtype=np.int64) * n_nodes
        row_a = haystack.searchsorted(seg_keys + pairs.a_ids)
        row_b = haystack.searchsorted(seg_keys + pairs.b_ids)
        is_end_row = np.zeros(n_rows, dtype=bool)
        is_end_row[row_a] = True
        is_end_row[row_b] = True
        rest_rows = (~is_end_row).nonzero()[0]

        # Group non-end nodes by restricted-neighbour content per segment
        # (ascending node order = ascending row order), then pin the end
        # nodes to local groups 0/1.
        rest_ids, extra_counts = _group_ragged_rows(
            kept_indptr, kept_dst_row, rest_rows, seg_of_row[rest_rows], n_segments
        )
        group_counts = extra_counts + 2
        group_offsets = np.zeros(n_segments + 1, dtype=np.int64)
        group_counts.cumsum(out=group_offsets[1:])
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
        np.bincount(adj_src, minlength=n_groups_total).cumsum(out=adj_indptr[1:])

        if obs_enabled():
            observe_many("structure.merge_rounds", [1] * n_segments)
            nodes_in = ball_sizes.tolist()
            nodes_out = group_counts.tolist()
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
            flat,
            inside,
            seg_entry_bounds,
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
            self._slot_sums = _ColumnLayout(snapshot.ts_indptr).sums(table)
        return self._slot_sums

    def _edge_keys(self) -> np.ndarray:
        """``u * |V| + v`` of every directed edge slot ``u → v``: sorted,
        because CSR rows ascend by source and each row by target, so a
        key's position is its slot."""
        if self._edge_key_table is None:
            snapshot = self._snapshot
            n_nodes = snapshot.number_of_nodes()
            sources = np.arange(n_nodes, dtype=np.int64).repeat(
                np.diff(snapshot.indptr)
            )
            self._edge_key_table = sources * n_nodes + snapshot.indices
        return self._edge_key_table

    def _closed_volumes(self) -> np.ndarray:
        """Each node's h = 1 gather volume: the snapshot degrees summed
        over its closed neighbourhood, read from ``indptr``."""
        if self._closed_volume_table is None:
            snapshot = self._snapshot
            degrees = np.diff(snapshot.indptr)
            reach = np.zeros(snapshot.indices.size + 1, dtype=np.int64)
            degrees[snapshot.indices].cumsum(out=reach[1:])
            self._closed_volume_table = (
                degrees + reach[snapshot.indptr[1:]] - reach[snapshot.indptr[:-1]]
            )
        return self._closed_volume_table

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
        per_link = bounds[1:] - bounds[:-1]
        values = np.zeros(per_link.size, dtype=np.float64)
        single = (per_link == 1).nonzero()[0]
        if single.size:
            values[single] = self._slot_sum_table()[slots[bounds[single]]]
        multi = (per_link > 1).nonzero()[0]
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
        n_slots.cumsum(out=slot_offsets[1:])
        slot_pos = np.arange(int(slot_offsets[-1]), dtype=np.int64)
        slot_pos -= slot_offsets[:-1].repeat(n_slots)
        flat_slots = slots[lo[rows].repeat(n_slots) + slot_pos]
        slot_owner = np.arange(rows.size, dtype=np.int64).repeat(n_slots)
        ev_counts = ts_indptr[flat_slots + 1] - ts_indptr[flat_slots]
        ev_offsets = np.zeros(flat_slots.size + 1, dtype=np.int64)
        ev_counts.cumsum(out=ev_offsets[1:])
        ev_pos = np.arange(int(ev_offsets[-1]), dtype=np.int64)
        ev_pos -= ev_offsets[:-1].repeat(ev_counts)
        ev_src = ts_indptr[flat_slots].repeat(ev_counts) + ev_pos
        ev_owner = slot_owner.repeat(ev_counts)
        # Stable (owner, ts) sort == per-query argsort(ts, kind="stable")
        # over the slot-order concatenation the reference builds.
        order = np.lexsort((self._snapshot.ts[ev_src], ev_owner))
        values_sorted = table[ev_src[order]]
        query_offsets = np.zeros(rows.size + 1, dtype=np.int64)
        np.bincount(ev_owner, minlength=rows.size).cumsum(out=query_offsets[1:])
        sums = _ColumnLayout(query_offsets).sums(values_sorted)
        out[rows] = sums
        for key, value in zip(miss_keys, sums.tolist()):
            memo[key] = value
        return out
