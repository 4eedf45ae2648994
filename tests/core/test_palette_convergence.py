"""Palette-WL behaviour on crafted symmetric and regular graphs, plus the
batched path's primitives against their scalar references."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import batch, palette_wl
from repro.core.palette_wl import (
    _ColumnLayout,
    _dense_rank,
    _initial_colors,
    _log_prime,
    _refine,
    _split_ties,
    _strict_order,
    _strict_order_many,
    palette_wl_order,
)
from repro.core.structure import combine_structures
from repro.core.subgraph import h_hop_node_set
from repro.graph.temporal import DynamicNetwork


def _left_to_right_sum(values):
    """``0.0 + v0 + v1 + ...`` in order: the oracle for every Palette-WL
    float sum (the builtin ``sum()`` compensates since Python 3.12)."""
    total = 0.0
    for value in values:
        total += value
    return total


class _Adjacency:
    """Stand-in subgraph for :func:`_refine`: sorted neighbour lists."""

    def __init__(self, rows):
        self._rows = rows

    def adjacency_sorted(self, index):
        return self._rows[index]


def _assert_split_ties_is_dense_rank(sizes, colors, hashes):
    """:func:`_split_ties` over segments of ``sizes`` equals the scalar
    :func:`_dense_rank` of each segment's hashes."""
    seg_indptr = np.zeros(sizes.size + 1, dtype=np.int64)
    np.cumsum(sizes, out=seg_indptr[1:])
    seg_start = np.repeat(seg_indptr[:-1], sizes)
    got = _split_ties(np.array(hashes), np.array(colors, dtype=np.int64), seg_start)
    for s in range(sizes.size):
        lo, hi = int(seg_indptr[s]), int(seg_indptr[s + 1])
        assert got[lo:hi].tolist() == _dense_rank(hashes[lo:hi])


def _draw_flat_csr(data, max_size, density):
    """A random flat CSR of 1–5 segments of 2..``max_size`` nodes each,
    with up to ``density`` × size undirected edges per segment (no
    self-loops), rows ascending: ``(seg_indptr, nbr_indptr,
    nbr_indices)``."""
    sizes = data.draw(st.lists(st.integers(2, max_size), min_size=1, max_size=5))
    seg_indptr = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(sizes, out=seg_indptr[1:])
    rows: list = [set() for _ in range(int(seg_indptr[-1]))]
    for s, size in enumerate(sizes):
        start = int(seg_indptr[s])
        for u, v in data.draw(
            st.lists(
                st.tuples(st.integers(0, size - 1), st.integers(0, size - 1)),
                max_size=size * density,
            )
        ):
            if u != v:
                rows[start + u].add(start + v)
                rows[start + v].add(start + u)
    nbr_indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([len(row) for row in rows], out=nbr_indptr[1:])
    nbr_indices = np.array([v for row in rows for v in sorted(row)], dtype=np.int64)
    return seg_indptr, nbr_indptr, nbr_indices


class _LabelledNodes:
    """Stand-in subgraph for :func:`_strict_order`: keys from a list."""

    def __init__(self, keys):
        self._keys = keys

    def sort_key(self, index):
        return self._keys[index]


def _order(network, a, b, h=3):
    nodes = h_hop_node_set(network, a, b, h)
    sub = combine_structures(network, nodes, a, b)
    return sub, palette_wl_order(sub)


class TestRegularGraphs:
    def test_cycle_graph(self):
        """On a cycle every non-end node pair equidistant from the link is
        symmetric; orders must still be a valid anchored permutation."""
        n = 8
        g = DynamicNetwork(
            [(f"c{i}", f"c{(i + 1) % n}", i + 1) for i in range(n)]
        )
        sub, order = _order(g, "c0", "c1")
        assert sorted(order) == list(range(1, len(order) + 1))
        assert order[0] == 1 and order[1] == 2

    def test_cycle_symmetric_nodes_rank_adjacent(self):
        """The two distance-1 neighbours (c7 and c2) are mirror images;
        WL cannot split them, so they take the next two orders (3, 4) in
        tie-break order."""
        n = 8
        g = DynamicNetwork(
            [(f"c{i}", f"c{(i + 1) % n}", i + 1) for i in range(n)]
        )
        sub, order = _order(g, "c0", "c1")
        o_c7 = order[sub.structure_node_of("c7")]
        o_c2 = order[sub.structure_node_of("c2")]
        assert {o_c7, o_c2} == {3, 4}

    def test_complete_bipartite(self):
        """K_{3,3} minus the target link: heavy symmetry, must terminate."""
        g = DynamicNetwork()
        ts = 1
        for u in ("u1", "u2", "u3"):
            for v in ("v1", "v2", "v3"):
                if (u, v) != ("u1", "v1"):
                    g.add_edge(u, v, ts)
                    ts += 1
        sub, order = _order(g, "u1", "v1")
        assert sorted(order) == list(range(1, len(order) + 1))

    def test_petersen_like_regular(self):
        """3-regular circulant graph: WL ties abound, result is stable."""
        n = 10
        g = DynamicNetwork()
        for i in range(n):
            g.add_edge(f"p{i}", f"p{(i + 1) % n}", 1)
            g.add_edge(f"p{i}", f"p{(i + 2) % n}", 2)
        sub1, order1 = _order(g, "p0", "p1")
        sub2, order2 = _order(g, "p0", "p1")
        assert order1 == order2


class TestRefinementInternals:
    def test_dense_rank_ties(self):
        assert _dense_rank([3.0, 1.0, 3.0, 2.0]) == [3, 1, 3, 2]

    def test_dense_rank_tolerance(self):
        ranks = _dense_rank([1.0, 1.0 + 1e-12, 2.0])
        assert ranks[0] == ranks[1]

    def test_refine_sums_log_primes_left_to_right(self):
        """The WL hash divides left-to-right sums, bit for bit, as the
        batched :class:`_ColumnLayout` does.  On K7 with colours 1..7 the
        total and node 2's neighbour sum differ from their correctly
        rounded values, which Python 3.12's compensated ``sum()`` returns
        here."""
        colors = list(range(1, 8))
        rows = [[j for j in range(7) if j != i] for i in range(7)]
        log_primes = [_log_prime(c) for c in colors]
        total = _left_to_right_sum(log_primes)
        assert total != math.fsum(log_primes)
        neighbour_2 = [log_primes[j] for j in rows[2]]
        assert _left_to_right_sum(neighbour_2) != math.fsum(neighbour_2)
        expected = [
            colors[i] + _left_to_right_sum(log_primes[j] for j in rows[i]) / total
            for i in range(7)
        ]
        with mock.patch.object(
            palette_wl, "_dense_rank", wraps=_dense_rank
        ) as ranked:
            assert _refine(_Adjacency(rows), colors) == colors
        hashes = ranked.call_args_list[0].args[0]
        assert hashes == expected

    def test_initial_colors_band_structure(self):
        colors = _initial_colors([0.0, 0.0, 2.0, 2.0, 3.0, -1.0])
        assert colors[:2] == [1, 2]
        assert colors[2] == colors[3]
        assert colors[4] > colors[2]
        assert colors[5] > colors[4]  # unreachable last

    def test_refinement_splits_distance_ties(self, fig3_network):
        """{G,H,I} (order-1 fans of A) and {D,E} (fans of B) and C all sit
        in the same distance band yet receive distinct final orders."""
        nodes = h_hop_node_set(fig3_network, "A", "B", 1)
        sub = combine_structures(fig3_network, nodes, "A", "B")
        order = palette_wl_order(sub)
        non_end = [order[i] for i in range(2, len(order))]
        assert len(set(non_end)) == len(non_end)


class TestBatchedPrimitives:
    @settings(max_examples=60, deadline=None)
    @given(
        lengths=st.lists(st.integers(0, 300), max_size=16),
        long_length=st.integers(1000, 1400),
        at=st.integers(0, 16),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_column_layout_sums_equal_left_to_right_sum(
        self, lengths, long_length, at, seed
    ):
        """Each row's sum is the explicit left-to-right sum, bit for bit;
        positive values spanning 16 decades make any other association
        (another column order, a pairwise reduction) round differently."""
        lengths.insert(min(at, len(lengths)), long_length)
        indptr = np.zeros(len(lengths) + 1, dtype=np.int64)
        np.cumsum(lengths, out=indptr[1:])
        rng = np.random.default_rng(seed)
        size = int(indptr[-1])
        values = (1.0 - rng.random(size)) * 10.0 ** rng.integers(-8, 9, size)
        layout = _ColumnLayout(indptr)
        sums = layout.sums(values)
        for row in range(len(lengths)):
            expected = _left_to_right_sum(values[indptr[row] : indptr[row + 1]].tolist())
            assert sums[row] == expected, row

    def test_split_ties_equals_scalar_dense_rank_per_segment(self):
        """Hashes are dense colours plus fractions in [0, 0.999]; some
        classes hold runs spaced 4e-10 to 1.1e-9 apart, which the 1e-9
        chain must re-scan from its anchor."""
        rng = np.random.default_rng(17)
        for _ in range(300):
            sizes = rng.integers(2, 40, size=rng.integers(1, 6))
            colors: list = []
            hashes: list = []
            for size in sizes.tolist():
                n_colors = int(rng.integers(1, size + 1))
                seg_colors = rng.permutation(
                    np.concatenate(
                        [
                            np.arange(1, n_colors + 1),
                            rng.integers(1, n_colors + 1, size - n_colors),
                        ]
                    )
                )
                fractions = rng.random(size) * 0.999
                for color in np.unique(seg_colors).tolist():
                    members = np.flatnonzero(seg_colors == color)
                    if members.size > 1 and rng.random() < 0.5:
                        start = rng.random() * 0.99
                        steps = rng.uniform(4e-10, 1.1e-9, members.size - 1)
                        run = start + np.concatenate([[0.0], np.cumsum(steps)])
                        fractions[members] = np.minimum(run, 0.999)
                colors.extend(seg_colors.tolist())
                hashes.extend((seg_colors + fractions).tolist())
            _assert_split_ties_is_dense_rank(sizes, colors, hashes)

    def test_split_ties_with_equal_hashes_and_large_classes(self):
        """Classes of 16 to 60 nodes (numpy's default sort reorders ties
        from 16 elements up) holding exactly equal hashes, in several
        segments whose hash ranges interleave: the tied nodes must be
        reordered by segment, stably, after the sort by hash."""
        rng = np.random.default_rng(29)
        for _ in range(100):
            sizes = rng.integers(16, 61, size=rng.integers(2, 5))
            colors: list = []
            hashes: list = []
            for size in sizes.tolist():
                n_colors = int(rng.integers(1, 4))
                seg_colors = rng.permutation(
                    np.concatenate(
                        [
                            np.arange(1, n_colors + 1),
                            rng.integers(1, n_colors + 1, size - n_colors),
                        ]
                    )
                )
                fractions = rng.random(size) * 0.999
                repeated = rng.random(size) < 0.5
                pool = rng.random(int(rng.integers(1, 6))) * 0.999
                fractions[repeated] = pool[
                    rng.integers(0, pool.size, int(repeated.sum()))
                ]
                colors.extend(seg_colors.tolist())
                hashes.extend((seg_colors + fractions).tolist())
            _assert_split_ties_is_dense_rank(sizes, colors, hashes)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_group_ragged_rows_equals_first_occurrence_dict(self, data):
        """Groups equal a dict keyed by (segment, row bytes), numbered by
        first occurrence in each segment — once with the real mixer, and
        once with a mixer that maps everything to zero, so that every
        row collides and only the exact byte split can tell rows apart."""
        pool = data.draw(
            st.lists(
                st.lists(st.integers(0, 5), max_size=6), min_size=1, max_size=6
            )
        )
        pick = st.one_of(
            st.sampled_from(pool), st.lists(st.integers(0, 5), max_size=6)
        )
        #: per segment: (row content, grouped?) — ungrouped rows stand for
        #: the end rows the engine leaves out of ``rows``
        segments = data.draw(
            st.lists(
                st.lists(st.tuples(pick, st.booleans()), max_size=10),
                min_size=1,
                max_size=5,
            )
        )
        contents: list = []
        rows: list = []
        segs: list = []
        for seg, entries in enumerate(segments):
            for content, grouped in entries:
                if grouped:
                    rows.append(len(contents))
                    segs.append(seg)
                contents.append(content)
        bounds = np.zeros(len(contents) + 1, dtype=np.int64)
        np.cumsum([len(c) for c in contents], out=bounds[1:])
        flat = np.array([v for c in contents for v in c], dtype=np.int64)
        rows_arr = np.array(rows, dtype=np.int64)
        segs_arr = np.array(segs, dtype=np.int64)

        first: dict = {}
        expected_counts = [0] * len(segments)
        expected_ids = []
        for row, seg in zip(rows, segs):
            key = (seg, flat[bounds[row] : bounds[row + 1]].tobytes())
            if key not in first:
                first[key] = expected_counts[seg]
                expected_counts[seg] += 1
            expected_ids.append(first[key])

        def zeros(values):
            return np.zeros(np.shape(values), dtype=np.uint64)

        for mixer in (batch._mix64, zeros):
            with mock.patch.object(batch, "_mix64", mixer):
                ids, counts = batch._group_ragged_rows(
                    bounds, flat, rows_arr, segs_arr, len(segments)
                )
            assert ids.tolist() == expected_ids
            assert counts.tolist() == expected_counts

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_two_source_bfs_is_min_of_single_source_runs(self, data):
        """Random multi-segment flat CSRs, sparse enough to leave nodes
        unreachable from one or both end nodes: a BFS from both end nodes
        at once is the element-wise min of the two single-source runs."""
        seg_indptr, nbr_indptr, nbr_indices = _draw_flat_csr(data, 9, 1)
        ends = seg_indptr[:-1]
        from_a = palette_wl.flat_hop_distances(nbr_indptr, nbr_indices, ends)
        from_b = palette_wl.flat_hop_distances(nbr_indptr, nbr_indices, ends + 1)
        both = palette_wl.flat_hop_distances(
            nbr_indptr, nbr_indices, np.concatenate([ends, ends + 1])
        )
        assert batch._nearest(from_a, from_b).tolist() == both.tolist()
        assert ((both < 0) == ((from_a < 0) & (from_b < 0))).all()

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_bfs_levels_equal_sorted_frontier_bfs(self, data):
        """Random multi-segment flat CSRs, from sparse (unreachable
        nodes) to dense (many duplicate fresh neighbours per level), and
        sources of one or both end nodes: levels equal a BFS whose next
        frontier is the sorted set of fresh neighbours."""
        seg_indptr, nbr_indptr, nbr_indices = _draw_flat_csr(
            data, 16, data.draw(st.integers(1, 4))
        )
        ends = seg_indptr[:-1]
        sources = data.draw(
            st.sampled_from([ends, ends + 1, np.concatenate([ends, ends + 1])])
        )
        expected = np.full(int(seg_indptr[-1]), -1, dtype=np.int64)
        expected[sources] = 0
        frontier = np.unique(sources)
        depth = 0
        while frontier.size:
            depth += 1
            neighbors = np.concatenate(
                [nbr_indices[nbr_indptr[u] : nbr_indptr[u + 1]] for u in frontier]
            )
            frontier = np.unique(neighbors[expected[neighbors] == -1])
            expected[frontier] = depth
        got = palette_wl.flat_hop_distances(nbr_indptr, nbr_indices, sources)
        assert got.tolist() == expected.tolist()

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_strict_order_many_equals_scalar_per_segment(self, data):
        """Dense colourings with repeated colours, tie-break scores and
        label keys with repeats; the tie-break callable only ever sees
        nodes of colour classes with more than one member."""
        sizes = data.draw(st.lists(st.integers(2, 12), min_size=1, max_size=5))
        keys = [("a",), ("b",), ("a", "b"), ("b", "a"), ("c",), ("a", "c", "c")]
        colors: list = []
        scores: list = []
        labels: list = []
        for size in sizes:
            n_colors = data.draw(st.integers(1, size))
            seg_colors = list(range(1, n_colors + 1)) + data.draw(
                st.lists(
                    st.integers(1, n_colors),
                    min_size=size - n_colors,
                    max_size=size - n_colors,
                )
            )
            colors.extend(data.draw(st.permutations(seg_colors)))
            scores.extend(
                data.draw(
                    st.lists(
                        st.sampled_from([0.0, -0.5, -1.25, -2.0]),
                        min_size=size,
                        max_size=size,
                    )
                )
            )
            labels.extend(
                data.draw(
                    st.lists(st.sampled_from(keys), min_size=size, max_size=size)
                )
            )
        use_ties = data.draw(st.booleans())
        use_ranks = data.draw(st.booleans())
        seg_indptr = np.zeros(len(sizes) + 1, dtype=np.int64)
        np.cumsum(sizes, out=seg_indptr[1:])
        seg_ids = np.repeat(np.arange(len(sizes), dtype=np.int64), sizes)
        color_arr = np.array(colors, dtype=np.int64)
        class_of = seg_indptr[seg_ids] + color_arr - 1
        class_size = np.bincount(class_of, minlength=color_arr.size)
        calls: list = []

        def tie_break(nodes):
            assert (class_size[class_of[nodes]] > 1).all()
            calls.append(nodes)
            return np.array(scores, dtype=np.float64)[nodes]

        singles = sorted(key for key in set(keys) if len(key) == 1)

        def singleton_ranks():
            return np.array(
                [singles.index(key) if len(key) == 1 else -1 for key in labels],
                dtype=np.int64,
            )

        got = _strict_order_many(
            color_arr,
            tie_break if use_ties else None,
            seg_indptr,
            seg_ids,
            lambda flat: labels[flat],
            singleton_ranks if use_ranks else None,
        )
        assert len(calls) <= 1
        for s in range(len(sizes)):
            lo, hi = int(seg_indptr[s]), int(seg_indptr[s + 1])
            expected = _strict_order(
                _LabelledNodes(labels[lo:hi]),
                colors[lo:hi],
                scores[lo:hi] if use_ties else None,
            )
            assert got[lo:hi].tolist() == expected

        # With a limit, every order up to it is the full call's, every
        # other order lies above it, and only classes starting at or
        # below it reach the tie-break.
        limit = data.draw(st.integers(1, 13))
        calls.clear()
        limited = _strict_order_many(
            color_arr,
            tie_break if use_ties else None,
            seg_indptr,
            seg_ids,
            lambda flat: labels[flat],
            singleton_ranks if use_ranks else None,
            limit,
        )
        low = got <= limit
        assert np.array_equal(limited[low], got[low])
        assert (limited[~low] > limit).all()
        first_order = got.copy()
        for node in range(got.size):
            same = class_of == class_of[node]
            first_order[node] = got[same].min()
        for nodes in calls:
            assert (first_order[nodes] <= limit).all()
