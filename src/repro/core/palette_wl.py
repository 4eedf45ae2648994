"""Palette-WL structure-node ordering — Algorithm 2 of the paper.

A Weisfeiler–Lehman colour refinement that assigns each structure node an
order such that

* the two end structure nodes of the target link always receive orders
  1 and 2,
* structure nodes farther from the target link receive higher orders,
* topologically distinguishable structure nodes receive distinct orders.

The refinement update (Algorithm 2, line 4) hashes a node's neighbourhood
through logarithms of primes indexed by current orders:

    h(N_x) = C(N_x) + Σ_{N_p ∈ Γ(N_x)} log(P(C(N_p)))
                      / | Σ_{N_q ∈ V_S} log(P(C(N_q))) |

Because the correction term lies strictly in ``[0, 1)``, the update is
*order preserving*: nodes with distinct orders keep their relative order,
and only ties (equal orders) can split.  This both guarantees the
end-node anchoring (they start with the two smallest orders) and gives a
convergence proof: the number of distinct orders is non-decreasing and
bounded by ``|V_S|``.

Orders here are *dense ranks* — tied nodes share an order value — exactly
what the refinement needs to be able to split ties.  The public entry
point :func:`palette_wl_order` additionally returns a strict total order
(used to pick the top-K structure nodes) by breaking residual ties with a
deterministic label-based key.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.core.structure import StructureSubgraph
from repro.graph.csr import concatenate_neighbor_slices, sorted_unique, stable_argsort
from repro.obs import enabled as obs_enabled, incr, observe, observe_many, span
from repro.utils.primes import nth_prime

_MAX_ITERATIONS = 100


@lru_cache(maxsize=None)
def _log_prime(color: int) -> float:
    return math.log(nth_prime(color))


def palette_wl_order(
    subgraph: StructureSubgraph,
    tie_break: "Sequence[float] | None" = None,
) -> list[int]:
    """Assign a strict Palette-WL order to every structure node.

    The initial ordering key of each structure node (Algorithm 2, line 1:
    "increasingly with the distance to e_t") is
    :func:`bilateral_distance_scores` — the sum of hop distances to the
    two end nodes, the WLNM convention the paper's Algorithm 2 is
    adopted from, which ranks common neighbours (close to *both* ends)
    before one-sided neighbours.

    Args:
        subgraph: the h-hop structure subgraph; indices 0/1 are the end
            structure nodes.
        tie_break: optional per-node score (lower = earlier) used to
            order nodes the WL refinement leaves tied, *before* the
            label-based fallback.  The SSF extractor passes negative
            influence-to-endpoints here so that, among structurally
            equivalent candidates, the most strongly/recently connected
            ones occupy the selected top-K slots — the role footnote 1's
            weighted distances play on dense networks where hop bands
            have massive ties.

    Returns:
        ``order`` such that ``order[i]`` is the 1-based order of structure
        node ``i``; ``order[0] == 1`` and ``order[1] == 2`` always.
    """
    n = subgraph.number_of_structure_nodes()
    if n < 2:
        raise ValueError("structure subgraph must contain both end nodes")
    if tie_break is not None and len(tie_break) != n:
        raise ValueError(f"expected {n} tie-break scores, got {len(tie_break)}")

    with span("palette_wl", nodes=n):
        colors = _initial_colors(bilateral_distance_scores(subgraph))
        colors = _refine(subgraph, colors)
        return _strict_order(subgraph, colors, tie_break)


def bilateral_distance_scores(subgraph: StructureSubgraph) -> list[float]:
    """``d(N, a) + d(N, b)`` hop distances per structure node, the
    initial Palette-WL key.

    A common neighbour scores 2 (1 + 1) while a node adjacent to one end
    only scores at least 3 — so the initial colouring already separates
    the structurally central nodes, and top-K selection keeps them.
    Unreachability from one end (distance −1) contributes a
    large-but-finite penalty so half-reachable nodes still order among
    themselves by the reachable side; fully unreachable nodes sort last.
    """
    from_a = [float(d) for d in subgraph.distances_from(0)]
    from_b = [float(d) for d in subgraph.distances_from(1)]
    reached = [d for d in from_a + from_b if d >= 0]
    penalty = 2.0 * max(reached) + 1.0 if reached else 1.0
    return [
        (da if da >= 0 else penalty) + (db if db >= 0 else penalty)
        for da, db in zip(from_a, from_b)
    ]


def _initial_colors(scores: Sequence[float]) -> list[int]:
    """Dense ranks by score; end nodes pinned to colours 1 and 2.

    All non-end nodes with the same score share a colour (ties are what
    the WL refinement subsequently splits).  Negative scores (unreachable
    markers) rank after every non-negative one.
    """
    sortable = [(s if s >= 0 else math.inf) for s in scores]
    distinct = sorted(set(sortable[2:]))
    rank_of = {s: r + 3 for r, s in enumerate(distinct)}
    return [1, 2] + [rank_of[s] for s in sortable[2:]]


def _left_to_right_sum(values: Iterable[float]) -> float:
    """``0.0 + v0 + v1 + ...`` in order — the accumulation the batched
    path's :class:`_ColumnLayout` replays.  The builtin ``sum()`` does this
    on Python 3.10/3.11 but compensates the rounding of float sums since
    3.12, so it is not used here."""
    total = 0.0
    for value in values:
        total += value
    return total


def _refine(subgraph: StructureSubgraph, colors: list[int]) -> list[int]:
    """Iterate the prime-log hash until the colouring stops changing."""
    n = len(colors)
    for iteration in range(_MAX_ITERATIONS):
        log_primes = [_log_prime(c) for c in colors]
        total = _left_to_right_sum(log_primes)
        # `total` > 0 always (log 2 > 0 for every node).  Neighbour
        # contributions are summed in sorted-index order so the floating
        # accumulation is canonical (set-iteration order is not).
        hashes = [
            colors[i]
            + _left_to_right_sum(log_primes[j] for j in subgraph.adjacency_sorted(i))
            / abs(total)
            for i in range(n)
        ]
        new_colors = _dense_rank(hashes)
        # End nodes are guaranteed first by order preservation; pin anyway
        # so numeric noise can never violate the paper's invariant.
        new_colors[0], new_colors[1] = 1, 2
        if new_colors == colors:
            observe("palette_wl.iterations", iteration + 1)
            return colors
        colors = new_colors
    incr("palette_wl.max_iterations_hit")
    observe("palette_wl.iterations", _MAX_ITERATIONS)
    return colors


def _dense_rank(values: Sequence[float]) -> list[int]:
    """1-based dense ranks (equal values share a rank), with a tolerance.

    Floating hashes of symmetric nodes must compare equal; an absolute
    tolerance merges ranks whose hashes differ by less than 1e-9.
    """
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0] * len(values)
    rank = 0
    previous: "float | None" = None
    for idx in order:
        value = values[idx]
        if previous is None or value - previous > 1e-9:
            rank += 1
            previous = value
        ranks[idx] = rank
    return ranks


# ----------------------------------------------------------------------
# batched (many-subgraph) path — used by repro.core.batch
#
# The flat layout: S structure subgraphs are laid out back to back as one
# node range 0..N-1; ``seg_indptr[s]:seg_indptr[s+1]`` are segment ``s``'s
# nodes (local index = flat index − segment start; locals 0/1 are the end
# nodes).  ``nbr_indptr``/``nbr_indices`` are a flat CSR adjacency over
# the *flat* node ids with each row ascending — the batched analogue of
# ``adjacency_sorted`` — so segments are disjoint components and every
# per-subgraph loop of the reference path becomes one flat array pass.
# Every floating-point reduction below replays the reference path's
# left-to-right scalar accumulation order exactly, keeping batched
# results bit-identical per segment: ragged rows are banded by length
# and padded with trailing zeros (:class:`_ColumnLayout`), so each band
# adds its ``p``-th entries into its rows' accumulators in one call.
# ----------------------------------------------------------------------


def flat_hop_distances(
    nbr_indptr: np.ndarray, nbr_indices: np.ndarray, sources: np.ndarray
) -> np.ndarray:
    """Multi-source BFS hop distances over a flat CSR (−1 = unreachable).

    Levels are exact integers, so running all segments' BFS as one flat
    sweep (segments are disjoint components) reproduces the per-subgraph
    reference distances bit for bit.
    """
    n = int(nbr_indptr.size) - 1
    dist = np.full(n, -1, dtype=np.int64)
    dist[sources] = 0
    frontier = np.asarray(sources, dtype=np.int64)
    depth = 0
    while frontier.size:
        depth += 1
        neighbors = concatenate_neighbor_slices(nbr_indptr, nbr_indices, frontier)
        if neighbors.size == 0:
            break
        fresh = neighbors[dist[neighbors] == -1]
        if fresh.size == 0:
            break
        dist[fresh] = depth
        # The next frontier is the set of nodes just stamped; its order
        # never changes a level.  A level of more than n/8 entries is
        # read back with one scan of the node range, which beats sorting
        # it; a smaller one is de-duplicated by a sort.
        if fresh.size * 8 > n:
            frontier = (dist == depth).nonzero()[0]
        else:
            frontier = sorted_unique(fresh)
    return dist


_NO_INTS = np.zeros(0, dtype=np.int64)


def _segment_ids(seg_indptr: np.ndarray) -> np.ndarray:
    sizes = seg_indptr[1:] - seg_indptr[:-1]
    return np.arange(seg_indptr.size - 1, dtype=np.int64).repeat(sizes)


class _ColumnLayout:
    """Length-banded, padded layout of a ragged CSR for sequential row
    sums.

    Rows are cut into bands by length: band ``j`` holds the rows of
    ``2**j`` to ``2**(j + 1) - 1`` entries and is one C-ordered ``(L,
    w)`` block of a padded buffer, ``L`` its longest row and ``w`` its
    row count (at least 2): cell ``(p, c)`` holds the ``p``-th entry of
    the band's ``c``-th row, 0.0 past that row's end.  Reducing a block
    over axis 0 adds cell row ``p`` into ``w`` accumulators for ``p = 0,
    1, ...``, so every row adds its entries left to right, starting from
    its first — the reference's :func:`_left_to_right_sum`, bit for bit
    (``0.0 + v == v``, and a trailing ``+ 0.0`` changes no non-negative
    sum).  A one-column block would reduce pairwise instead, so a band
    of one row gets a second, all-zero column.  A sum costs one numpy
    call per band, not one per entry column, and the padding stays
    below the entries' own count.

    ``cells[e]`` is the buffer cell of CSR entry ``e`` (``indptr[0]`` is
    0), so :meth:`sums` takes the values in CSR order; empty rows sum to
    0.0.
    """

    __slots__ = ("cells", "size", "bands", "inverse", "slots")

    def __init__(self, indptr: np.ndarray) -> None:
        lengths = indptr[1:] - indptr[:-1]
        # band + 1 of a row: floor(log2(length)) + 1, 0 for an empty row;
        # under 64, so a one-byte stable (radix) sort ranks the rows
        key = np.frexp(lengths)[1]
        rank = key.astype(np.int8).argsort(kind="stable")
        ranked = lengths[rank]
        counts = np.bincount(key, minlength=1)
        empty = int(counts[0])
        per_band = counts[1:]
        used = per_band.nonzero()[0]
        count = per_band[used]
        first = (per_band.cumsum() - per_band)[used] + empty
        longest = (
            np.maximum.reduceat(ranked, first) if used.size else _NO_INTS
        )
        width = np.maximum(count, 2)
        cells = longest * width
        cell_base = cells.cumsum() - cells
        acc_base = width.cumsum() - width
        #: (first cell, longest row, width, first accumulator) per band
        self.bands: "list[tuple[int, int, int, int]]" = list(
            zip(
                cell_base.tolist(),
                longest.tolist(),
                width.tolist(),
                acc_base.tolist(),
            )
        )
        self.size = int(cells.sum())
        # empty rows read the one zero accumulator past the bands
        self.slots = int(width.sum()) + 1
        # the non-empty rows, in rank order: their band and column
        filled = rank[empty:]
        of_band = np.arange(used.size, dtype=np.int64).repeat(count)
        column = np.arange(filled.size, dtype=np.int64) - (first - empty)[of_band]
        row_width = np.zeros(rank.size, dtype=np.int64)
        row_width[filled] = width[of_band]
        row_cell = np.zeros(rank.size, dtype=np.int64)
        row_cell[filled] = cell_base[of_band] + column
        # entry e of a row starting at CSR position a lands in cell
        # (e - a) * width + the row's first cell: built in place, as it
        # runs as long as the CSR itself
        self.cells = np.arange(int(indptr[-1]), dtype=np.int64)
        self.cells -= indptr[:-1].repeat(lengths)
        self.cells *= row_width.repeat(lengths)
        self.cells += row_cell.repeat(lengths)
        self.inverse = np.empty(rank.size, dtype=np.int64)
        self.inverse[rank[:empty]] = self.slots - 1
        self.inverse[filled] = acc_base[of_band] + column

    def padded(self, values: np.ndarray, fill: "int | float") -> np.ndarray:
        """The buffer of ``values`` (one per CSR entry), ``fill`` in every
        padding cell."""
        buffer = np.full(self.size, fill, dtype=values.dtype)
        buffer[self.cells] = values
        return buffer

    def reduce(self, buffer: np.ndarray) -> np.ndarray:
        """Per-row left-to-right sums of a padded float64 buffer."""
        acc = np.zeros(self.slots, dtype=np.float64)
        for block, into in _band_blocks(self.bands, buffer, acc):
            np.add.reduce(block, axis=0, out=into)
        return acc[self.inverse]

    def sums(self, values: np.ndarray) -> np.ndarray:
        """Per-row left-to-right sums of ``values``, one per CSR entry."""
        return self.reduce(self.padded(values, 0.0))


def _band_blocks(
    bands: "list[tuple[int, int, int, int]]", buffer: np.ndarray, acc: np.ndarray
) -> "list[tuple[np.ndarray, np.ndarray]]":
    """Per band of a :class:`_ColumnLayout`, its ``(L, w)`` block of the
    padded ``buffer`` and the accumulators of ``acc`` (``slots`` long,
    zero-filled) its sums go to: ``np.add.reduce(block, axis=0,
    out=into)`` for every pair leaves each row's sum in
    ``acc[inverse[row]]``."""
    return [
        (
            buffer[cell : cell + longest * width].reshape(longest, width),
            acc[first : first + width],
        )
        for cell, longest, width, first in bands
    ]


def bilateral_distance_scores_many(
    seg_indptr: np.ndarray, from_a: np.ndarray, from_b: np.ndarray
) -> np.ndarray:
    """Batched :func:`bilateral_distance_scores` (unit lengths) per
    segment, from each flat node's hop distances to its segment's end
    nodes 0 (``from_a``) and 1 (``from_b``), −1 where unreachable."""
    seg_ids = _segment_ids(seg_indptr)
    seg_starts = seg_indptr[:-1]
    # max over the finite distances of both arrays: −1 sentinels sit below
    # the source's 0, so a plain per-segment int max is the finite max.
    max_a = np.maximum.reduceat(from_a, seg_starts)
    max_b = np.maximum.reduceat(from_b, seg_starts)
    penalty = 2.0 * np.maximum(max_a, max_b).astype(np.float64) + 1.0
    score_a = np.where(from_a >= 0, from_a.astype(np.float64), penalty[seg_ids])
    score_b = np.where(from_b >= 0, from_b.astype(np.float64), penalty[seg_ids])
    return score_a + score_b


def _initial_colors_many(
    scores: np.ndarray, seg_indptr: np.ndarray, seg_ids: np.ndarray
) -> np.ndarray:
    """Batched :func:`_initial_colors`: exact-equality dense ranks from 3
    over each segment's non-end nodes; end nodes pinned to 1 and 2."""
    position = np.arange(scores.size, dtype=np.int64) - seg_indptr[seg_ids]
    colors = np.zeros(scores.size, dtype=np.int64)
    colors[position == 0] = 1
    colors[position == 1] = 2
    tail = (position >= 2).nonzero()[0]
    if tail.size == 0:
        return colors
    sortable = np.where(scores[tail] >= 0, scores[tail], np.inf)
    tail_segs = seg_ids[tail]
    order = np.lexsort((sortable, tail_segs))
    sorted_vals = sortable[order]
    sorted_segs = tail_segs[order]
    boundary = np.empty(tail.size, dtype=bool)
    boundary[0] = True
    boundary[1:] = (sorted_vals[1:] != sorted_vals[:-1]) | (
        sorted_segs[1:] != sorted_segs[:-1]
    )
    cum = boundary.cumsum()
    seg_first = np.zeros(seg_indptr.size - 1, dtype=np.int64)
    starts = np.concatenate(
        [[True], sorted_segs[1:] != sorted_segs[:-1]]
    ).nonzero()[0]
    seg_first[sorted_segs[starts]] = cum[starts]
    ranks = cum - seg_first[sorted_segs] + 1
    colors[tail[order]] = ranks + 2
    return colors


def _split_ties(
    hashes: np.ndarray, colors: np.ndarray, seg_start: np.ndarray
) -> np.ndarray:
    """Batched :func:`_dense_rank` of one refinement pass's hashes,
    re-ranking only the tied colour classes.

    Precondition: ``colors`` are dense ranks ``1..m`` per segment and
    ``hashes[i] = colors[i] + f`` with ``f`` in ``[0, 1 − log 2/|total|]``
    (:func:`_refine`'s hash), on segments below 10^6 structure nodes;
    ``seg_start[i]`` is the flat index of node ``i``'s segment start.
    Then the last hash of colour ``c`` sits at least ``log 2/|total|`` —
    over 4e-8 — below the first hash of colour ``c + 1``, so the
    reference's 1e-9 chain starts a new rank at every class boundary and
    a pass only splits classes.  A singleton class keeps one rank; only
    nodes of larger classes (class id ``seg_start + colour − 1``) are
    sorted, by (class, hash).  A node's new colour is its old one plus
    the *splits* (new ranks started inside a class) of its segment's
    lower classes, plus, inside a tied class, the splits at or before
    its own sorted position.

    Within a class the reference chain is replayed exactly: a
    consecutive difference > 1e-9 is always a rank boundary (the running
    rank start is never above the previous value).  A block between such
    definite boundaries that reaches more than 1e-9 above its first
    value is re-scanned with the scalar anchored chain (block starts are
    rank starts, so blocks are independent); that is rare.
    """
    n = hashes.size
    class_of = seg_start + colors - 1
    tied = (np.bincount(class_of, minlength=n)[class_of] > 1).nonzero()[0]
    if tied.size == 0:
        # every class a singleton: nothing can split
        return colors
    # repro-lint: disable=R602 -- exactly equal hashes share one rank; their order is never read
    by_hash = tied[hashes[tied].argsort()]
    order = by_hash[stable_argsort(class_of[by_hash], n)]
    values = hashes[order]
    classes = class_of[order]
    class_start = np.empty(tied.size, dtype=bool)
    class_start[0] = True
    np.not_equal(classes[1:], classes[:-1], out=class_start[1:])
    #: sorted positions that start a new rank
    step = np.empty(tied.size, dtype=bool)
    step[0] = True
    np.greater(values[1:] - values[:-1], 1e-9, out=step[1:])
    step |= class_start
    block = step.cumsum() - 1
    wide = (values - values[step][block] > 1e-9).nonzero()[0]
    if wide.size:
        starts = np.append(step.nonzero()[0], tied.size).tolist()
        for index in sorted(set(block[wide].tolist())):
            start, end = starts[index], starts[index + 1]
            previous = values[start]
            for i in range(start + 1, end):
                if values[i] - previous > 1e-9:
                    step[i] = True
                    previous = values[i]
    split = step & ~class_start
    if not split.any():
        return colors
    #: splits in the class ids below each class id
    lower = np.bincount(classes[split], minlength=n)
    lower = lower.cumsum() - lower
    new = colors + lower[class_of] - lower[seg_start]
    inside = split.cumsum()
    new[order] += inside - np.maximum.accumulate(np.where(class_start, inside, 0))
    return new


@lru_cache(maxsize=None)
def _log_prime_table(bits: int) -> np.ndarray:
    """``log(P(c))`` at index ``c`` for every colour ``c < 2**bits``, and
    0.0 at index 0 (the padding colour).  Read-only: one table per size
    serves every caller."""
    size = 1 << bits
    table = np.zeros(size, dtype=np.float64)
    table[1:] = np.fromiter(
        (_log_prime(c) for c in range(1, size)), dtype=np.float64, count=size - 1
    )
    table.flags.writeable = False
    return table


def _refine_many(
    colors: np.ndarray,
    seg_indptr: np.ndarray,
    seg_ids: np.ndarray,
    nbr_indptr: np.ndarray,
    nbr_indices: np.ndarray,
) -> np.ndarray:
    """Batched :func:`_refine`: all segments iterate together.

    Every pass recomputes every segment (a converged segment is at a fixed
    point of the deterministic update, so recommitting it is a no-op) and
    the loop stops at the first pass that changes no colour; per-segment
    convergence is tracked only for the iteration metrics — results equal
    the per-subgraph reference.
    """
    n = colors.size
    seg_starts = seg_indptr[:-1]
    n_segments = seg_starts.size
    table = _log_prime_table(int((seg_indptr[1:] - seg_starts).max()).bit_length())
    # One layout serves both ragged sums: rows 0..S-1 are the segments
    # (their nodes in index order, for the totals), rows S.. the nodes'
    # neighbour lists.  Padding cells read node n, whose colour 0 has
    # log 0.0.
    layout = _ColumnLayout(
        np.concatenate([seg_indptr, nbr_indptr[1:] + seg_indptr[-1]])
    )
    summed = layout.padded(
        np.concatenate([np.arange(n, dtype=np.int64), nbr_indices]), n
    )
    neighbor_sum = layout.inverse[n_segments:]
    total_of_node = layout.inverse[:n_segments][seg_ids]
    # the cell map is spent before the value buffer is allocated
    bands, size, slots = layout.bands, layout.size, layout.slots
    del layout
    acc = np.zeros(slots, dtype=np.float64)
    values = np.empty(size, dtype=np.float64)
    blocks = _band_blocks(bands, values, acc)
    node_seg_start = seg_starts[seg_ids]
    current = np.zeros(n + 1, dtype=np.int64)
    track = obs_enabled()
    iterations = np.zeros(n_segments, dtype=np.int64)
    for iteration in range(1, _MAX_ITERATIONS + 1):
        current[:n] = colors
        # mode="clip" writes straight into ``values`` ("raise" buffers)
        table[current].take(summed, out=values, mode="clip")
        for block, into in blocks:
            np.add.reduce(block, axis=0, out=into)
        # totals are positive (log 2 per node), so |total| is the total
        hashes = colors + acc[neighbor_sum] / acc[total_of_node]
        new_colors = _split_ties(hashes, colors, node_seg_start)
        # a pass only splits classes, so it changed something iff it
        # returned new colours, and the end nodes' singleton classes 1
        # and 2 keep their colours (the reference pins them)
        if track:
            still = np.logical_or.reduceat(new_colors != colors, seg_starts)
            iterations[~still & (iterations == 0)] = iteration
        if new_colors is colors:
            break
        colors = new_colors
    if track:
        capped = iterations == 0
        iterations[capped] = _MAX_ITERATIONS
        observe_many("palette_wl.iterations", iterations.tolist())
        if bool(capped.any()):
            incr("palette_wl.max_iterations_hit", int(capped.sum()))
    return colors


def _strict_order_many(
    colors: np.ndarray,
    tie_break: "Callable[[np.ndarray], np.ndarray] | None",
    seg_indptr: np.ndarray,
    seg_ids: np.ndarray,
    sort_key: "Callable[[int], tuple]",
    singleton_ranks: "Callable[[], np.ndarray] | None" = None,
    limit: "int | None" = None,
) -> np.ndarray:
    """Batched :func:`_strict_order`; ``sort_key`` takes a flat node id.

    Refined colours are dense ranks ``1..m`` per segment, so a node's
    order is 1 + the number of its segment's nodes in lower colour
    classes + its rank inside its own class (class id
    ``seg_start + colour − 1``).  Only the nodes of classes with more
    than one member are sorted, by (class, tie-break, label rank), with
    equal keys kept in flat-id order — the stable sort of the reference.

    ``tie_break``, when given, is called once with the ascending flat ids
    of those tied nodes and returns their scores (lower = earlier);
    scores are only ever compared inside one class.  ``singleton_ranks``,
    when given, lazily supplies an int64 array mapping each flat node to
    a precomputed label-repr rank, or ``-1`` where no scalar rank exists
    (multi-member groups).  Ranks, too, only compare within one run of
    equal (class, tie-break), so runs whose nodes all carry a scalar rank
    skip the Python ``sort_key`` path entirely.

    ``limit``, when given, sorts only the classes whose first order is
    at most ``limit``: every order ``<= limit`` is the full call's, and
    every other node keeps its class's first order, above ``limit``
    (orders are then no longer a permutation past ``limit``).
    """
    n = colors.size
    seg_start = seg_indptr[seg_ids]
    class_of = seg_start + colors - 1
    class_size = np.bincount(class_of, minlength=n)
    below = class_size.cumsum() - class_size
    out = below[class_of] - seg_start + 1
    tied = class_size[class_of] > 1
    if limit is not None:
        tied &= out <= limit
    tied = tied.nonzero()[0]
    if tied.size == 0:
        return out
    tied_class = class_of[tied]
    ties = (
        tie_break(tied)
        if tie_break is not None
        else np.zeros(tied.size, dtype=np.float64)
    )
    order = np.lexsort((ties, tied_class))
    same = np.zeros(tied.size, dtype=bool)
    same[1:] = (tied_class[order[1:]] == tied_class[order[:-1]]) & (
        ties[order[1:]] == ties[order[:-1]]
    )
    run_starts = (~same).nonzero()[0]
    run_ends = np.append(run_starts[1:], tied.size)
    ambiguous = (run_ends - run_starts > 1).nonzero()[0]
    if ambiguous.size:
        # Residual ties resolve by label key.  Interning every tied
        # node's key as its rank among the distinct keys (ranks ordered
        # exactly as the tuples compare) lets ONE stable lexsort with the
        # rank column replace a Python re-sort per tied run; equal keys
        # keep first-lexsort order, matching sorted()'s stability.
        lengths = run_ends[ambiguous] - run_starts[ambiguous]
        offsets = np.arange(int(lengths.sum()), dtype=np.int64)
        offsets -= (lengths.cumsum() - lengths).repeat(lengths)
        #: positions in ``tied`` of every node of an ambiguous run
        slow = order[run_starts[ambiguous].repeat(lengths) + offsets]
        ranks = np.zeros(tied.size, dtype=np.int64)
        if singleton_ranks is not None:
            slow_ranks = singleton_ranks()[tied[slow]]
            run_of = np.arange(ambiguous.size, dtype=np.int64).repeat(lengths)
            run_ok = np.ones(ambiguous.size, dtype=bool)
            run_ok[run_of[slow_ranks < 0]] = False
            ok = run_ok[run_of]
            ranks[slow[ok]] = slow_ranks[ok]
            slow = slow[~ok]
        if slow.size:
            keys = [sort_key(node) for node in tied[slow].tolist()]
            rank_of = {
                key: rank for rank, key in enumerate(sorted(set(keys)))
            }
            ranks[slow] = np.fromiter(
                (rank_of[key] for key in keys),
                dtype=np.int64,
                count=len(keys),
            )
        order = np.lexsort((ranks, ties, tied_class))
    sorted_class = tied_class[order]
    class_start = np.empty(tied.size, dtype=bool)
    class_start[0] = True
    np.not_equal(sorted_class[1:], sorted_class[:-1], out=class_start[1:])
    position = np.arange(tied.size, dtype=np.int64)
    out[tied[order]] += position - np.maximum.accumulate(
        np.where(class_start, position, 0)
    )
    return out


def palette_wl_order_many(
    seg_indptr: np.ndarray,
    nbr_indptr: np.ndarray,
    nbr_indices: np.ndarray,
    from_a: np.ndarray,
    from_b: np.ndarray,
    tie_break: "Callable[[np.ndarray], np.ndarray] | None",
    sort_key: "Callable[[int], tuple]",
    singleton_ranks: "Callable[[], np.ndarray] | None" = None,
    limit: "int | None" = None,
) -> np.ndarray:
    """Strict Palette-WL orders for many structure subgraphs at once.

    Batched form of :func:`palette_wl_order` with the default bilateral
    initial scores and unit edge lengths (what the SSF extractor uses):
    ``S`` subgraphs laid out flat (see the section comment above) are
    coloured, refined and strict-ordered in shared array passes, returning
    the per-node 1-based order within its segment.  Bit-identical to
    calling :func:`palette_wl_order` per subgraph — enforced by the
    batched differential tests.

    Args:
        seg_indptr: int64 ``(S + 1,)`` flat node offsets per subgraph.
        nbr_indptr: int64 ``(N + 1,)`` flat adjacency offsets.
        nbr_indices: int64 flat neighbour ids, ascending within each row.
        from_a, from_b: int64 ``(N,)`` hop distances of each node to its
            segment's end node 0 and 1 (−1 = unreachable), as
            :func:`flat_hop_distances` from ``seg_indptr[:-1]`` and from
            ``seg_indptr[:-1] + 1`` returns them.
        tie_break: optional lazy WL-tie scores, as in
            :func:`palette_wl_order`: maps the ascending flat ids of the
            nodes the refinement leaves in a shared colour class to their
            float64 scores (lower = earlier).  Called at most once, and
            never for a node alone in its class.
        sort_key: label key of a flat node id, breaking residual ties;
            any tuples that compare as the reference's repr tuples do.
        singleton_ranks: optional lazy per-flat-node scalar key ranks
            (``-1`` = no scalar rank); see :func:`_strict_order_many`.
        limit: optional highest order the caller reads exactly (the
            top-K pick passes K); see :func:`_strict_order_many`.
    """
    sizes = seg_indptr[1:] - seg_indptr[:-1]
    if sizes.size and int(sizes.min()) < 2:
        raise ValueError("structure subgraph must contain both end nodes")
    seg_ids = _segment_ids(seg_indptr)
    scores = bilateral_distance_scores_many(seg_indptr, from_a, from_b)
    colors = _initial_colors_many(scores, seg_indptr, seg_ids)
    colors = _refine_many(colors, seg_indptr, seg_ids, nbr_indptr, nbr_indices)
    return _strict_order_many(
        colors, tie_break, seg_indptr, seg_ids, sort_key, singleton_ranks, limit
    )


def _strict_order(
    subgraph: StructureSubgraph,
    colors: Sequence[int],
    tie_break: "Sequence[float] | None" = None,
) -> list[int]:
    """Break residual colour ties deterministically into a total order.

    Nodes that the refinement could not distinguish are *structurally*
    symmetric around the target link; the optional ``tie_break`` score
    orders them by link strength, and a label-based key guarantees
    determinism beyond that.  The label key is only computed for nodes
    that are still tied after ``(colour, tie_break)`` — on most subgraphs
    that is nobody, so the member-label materialisation is skipped.
    """
    if tie_break is None:
        tie_break = [0.0] * len(colors)
    indices = sorted(
        range(len(colors)), key=lambda i: (colors[i], tie_break[i])
    )
    # Stable-resort runs of equal (colour, tie_break) by the label key.
    start = 0
    while start < len(indices):
        end = start + 1
        head = indices[start]
        while (
            end < len(indices)
            and colors[indices[end]] == colors[head]
            and tie_break[indices[end]] == tie_break[head]
        ):
            end += 1
        if end - start > 1:
            indices[start:end] = sorted(
                indices[start:end], key=subgraph.sort_key
            )
        start = end
    order = [0] * len(colors)
    for position, idx in enumerate(indices, start=1):
        order[idx] = position
    return order
