"""Tests for the frozen CSR snapshot substrate."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.influence import influence_array, normalized_influence
from repro.graph.csr import (
    CSRSnapshot,
    concatenate_neighbor_slices,
    sorted_unique,
    stable_argsort,
)
from repro.graph.temporal import DynamicNetwork


@pytest.fixture()
def network() -> DynamicNetwork:
    g = DynamicNetwork(
        [
            ("a", "b", 1),
            ("a", "b", 3),  # multi-link
            ("b", "c", 2),
            ("c", "d", 2),  # duplicate timestamp across pairs
            ("a", "d", 5),
        ]
    )
    g.add_node("lonely")  # isolated node must survive the freeze
    return g


class TestConstruction:
    def test_counts_match(self, network):
        snap = CSRSnapshot.from_dynamic(network)
        assert snap.number_of_nodes() == network.number_of_nodes()
        assert snap.number_of_links() == network.number_of_links()
        assert snap.number_of_pairs() == network.number_of_pairs()

    def test_labels_keep_insertion_order(self, network):
        snap = CSRSnapshot.from_dynamic(network)
        assert list(snap.labels) == network.nodes
        for node in network.nodes:
            assert snap.label_of(snap.node_id(node)) == node

    def test_neighbor_slices_sorted(self, network):
        snap = CSRSnapshot.from_dynamic(network)
        for node in network.nodes:
            nbrs = snap.neighbor_slice(snap.node_id(node))
            assert np.all(np.diff(nbrs) > 0)  # strictly ascending ids
            labels = {snap.label_of(int(i)) for i in nbrs}
            assert labels == network.neighbors(node)

    def test_pair_timestamps_match_dict(self, network):
        snap = CSRSnapshot.from_dynamic(network)
        for u, v in network.pair_iter():
            assert snap.pair_timestamps(u, v) == network.timestamps(u, v)
        assert snap.pair_timestamps("a", "ghost") == ()

    def test_timestamp_extremes(self, network):
        snap = CSRSnapshot.from_dynamic(network)
        assert snap.first_timestamp() == network.first_timestamp()
        assert snap.last_timestamp() == network.last_timestamp()

    def test_unknown_node(self, network):
        snap = CSRSnapshot.from_dynamic(network)
        assert not snap.has_node("ghost")
        with pytest.raises(KeyError):
            snap.node_id("ghost")

    def test_empty_network(self):
        snap = CSRSnapshot.from_dynamic(DynamicNetwork())
        assert snap.number_of_nodes() == 0
        assert snap.number_of_links() == 0


def _freeze_per_entry(network):
    """The freeze as one numpy scalar store per slot and one
    ``np.asarray`` per stamp list — the oracle for
    :meth:`CSRSnapshot.from_dynamic`'s list-built arrays."""
    labels = list(network)
    id_of = {label: i for i, label in enumerate(labels)}
    n = len(labels)
    indptr = np.zeros(n + 1, dtype=np.int64)
    for i, label in enumerate(labels):
        indptr[i + 1] = len(network.neighbor_view(label))
    np.cumsum(indptr, out=indptr)
    nnz = int(indptr[-1])
    indices = np.empty(nnz, dtype=np.int32)
    ts_counts = np.empty(nnz, dtype=np.int64)
    ts_chunks = []
    pos = 0
    for label in labels:
        row = network.neighbor_view(label)
        for nbr_id, stamps in sorted(
            (id_of[nbr], stamps) for nbr, stamps in row.items()
        ):
            indices[pos] = nbr_id
            ts_counts[pos] = len(stamps)
            ts_chunks.append(stamps)
            pos += 1
    ts_indptr = np.zeros(nnz + 1, dtype=np.int64)
    np.cumsum(ts_counts, out=ts_indptr[1:])
    ts = (
        np.concatenate([np.asarray(c, dtype=np.float64) for c in ts_chunks])
        if ts_chunks
        else np.zeros(0, dtype=np.float64)
    )
    return labels, indptr, indices, ts_indptr, ts


@st.composite
def dynamic_networks(draw):
    """Networks over int and string labels with multi-links, isolated
    nodes (a drawn self-pair only adds its node) and int or float
    stamps; the empty network included."""
    labels = draw(
        st.lists(
            st.one_of(st.integers(-5, 40), st.text(max_size=3)),
            unique=True,
            max_size=10,
        )
    )
    network = DynamicNetwork()
    if not labels:
        return network
    stamps = st.one_of(
        st.integers(-10, 10),
        st.floats(-10, 10, allow_nan=False, allow_infinity=False),
    )
    node = st.sampled_from(labels)
    for u, v, t in draw(st.lists(st.tuples(node, node, stamps), max_size=40)):
        if u == v:
            network.add_node(u)
        else:
            network.add_edge(u, v, t)
    return network


class TestFreezeEqualsPerEntryLoop:
    @settings(max_examples=150, deadline=None)
    @given(dynamic_networks())
    @example(DynamicNetwork())
    def test_arrays_dtypes_and_labels(self, network):
        snap = CSRSnapshot.from_dynamic(network)
        labels, *arrays = _freeze_per_entry(network)
        assert snap.labels == labels
        assert [type(label) for label in snap.labels] == [
            type(label) for label in labels
        ]
        got = [snap.indptr, snap.indices, snap.ts_indptr, snap.ts]
        for mine, theirs in zip(got, arrays):
            assert mine.dtype == theirs.dtype
            assert mine.shape == theirs.shape
            assert mine.tobytes() == theirs.tobytes()


class TestRoundtrip:
    def test_to_dynamic_equal(self, network):
        snap = CSRSnapshot.from_dynamic(network)
        assert snap.to_dynamic() == network

    def test_shared_memory_roundtrip(self, network):
        snap = CSRSnapshot.from_dynamic(network)
        handle = snap.to_shared()
        try:
            attached = CSRSnapshot.from_shared(handle)
            assert np.array_equal(attached.indptr, snap.indptr)
            assert np.array_equal(attached.indices, snap.indices)
            assert np.array_equal(attached.ts_indptr, snap.ts_indptr)
            assert np.array_equal(attached.ts, snap.ts)
            assert attached.labels == snap.labels
            assert attached.to_dynamic() == network
            del attached
        finally:
            handle.unlink()

    def test_shared_handle_pickles(self, network):
        import pickle

        snap = CSRSnapshot.from_dynamic(network)
        handle = snap.to_shared()
        try:
            clone = pickle.loads(pickle.dumps(handle))
            attached = CSRSnapshot.from_shared(clone)
            assert attached.to_dynamic() == network
            del attached
        finally:
            handle.unlink()


class TestInfluenceTable:
    def test_bit_parity_with_math_exp(self, network):
        snap = CSRSnapshot.from_dynamic(network)
        present = network.last_timestamp() + 1.0
        table = snap.influence_table(present, 0.5)
        assert table.shape == snap.ts.shape
        for u, v in network.pair_iter():
            slot = snap.edge_slot(snap.node_id(u), snap.node_id(v))
            lo, hi = snap.ts_indptr[slot], snap.ts_indptr[slot + 1]
            total = 0.0
            for value in table[lo:hi].tolist():
                total += value
            assert total == normalized_influence(
                network.timestamps(u, v), present, 0.5
            )

    def test_cached_per_key(self, network):
        snap = CSRSnapshot.from_dynamic(network)
        first = snap.influence_table(10.0, 0.5)
        assert snap.influence_table(10.0, 0.5) is first
        assert snap.influence_table(10.0, 0.25) is not first

    def test_influence_array_validates(self):
        with pytest.raises(ValueError):
            influence_array(np.array([5.0]), present_time=4.0)
        assert influence_array(np.zeros(0), present_time=1.0).size == 0

    def test_cache_bounded_lru(self, network):
        """A serving loop advances present_time per batch; without the
        LRU bound each distinct key pins one |ts|-sized table forever."""
        import repro.obs as obs
        from repro.graph.csr import INFLUENCE_TABLE_CACHE_SIZE
        from repro.obs.metrics import get_registry

        was_enabled = obs.enabled()
        get_registry().reset()
        obs.enable()
        try:
            snap = CSRSnapshot.from_dynamic(network)
            for step in range(INFLUENCE_TABLE_CACHE_SIZE + 5):
                snap.influence_table(10.0 + step, 0.5)
            assert len(snap._influence_tables) == INFLUENCE_TABLE_CACHE_SIZE
            counters = get_registry().snapshot()["counters"]
            assert counters["csr.influence_cache_evictions"] == 5.0
            # oldest key is gone, newest survives
            assert (10.0, 0.5) not in snap._influence_tables
            assert (
                10.0 + INFLUENCE_TABLE_CACHE_SIZE + 4,
                0.5,
            ) in snap._influence_tables
        finally:
            get_registry().reset()
            if not was_enabled:
                obs.disable()


class TestNeighborConcatenation:
    def test_matches_per_row_concat(self, network):
        snap = CSRSnapshot.from_dynamic(network)
        frontier = np.array(
            [snap.node_id("a"), snap.node_id("c"), snap.node_id("lonely")],
            dtype=np.int64,
        )
        got = concatenate_neighbor_slices(snap.indptr, snap.indices, frontier)
        expected = np.concatenate(
            [snap.neighbor_slice(int(i)) for i in frontier]
        )
        assert np.array_equal(got, expected)

    def test_empty_frontier(self, network):
        snap = CSRSnapshot.from_dynamic(network)
        assert concatenate_neighbor_slices(
            snap.indptr, snap.indices, np.zeros(0, dtype=np.int64)
        ).size == 0


@st.composite
def integer_arrays(draw):
    dtype = draw(st.sampled_from([np.int32, np.int64]))
    info = np.iinfo(dtype)
    values = draw(
        st.lists(
            st.one_of(st.integers(-3, 3), st.integers(int(info.min), int(info.max))),
            max_size=60,
        )
    )
    return np.array(values * draw(st.integers(1, 3)), dtype=dtype)


class TestSortedUnique:
    @given(integer_arrays())
    @example(np.zeros(0, dtype=np.int32))
    @example(np.zeros(0, dtype=np.int64))
    @example(np.array([-5], dtype=np.int32))
    @example(np.array([7], dtype=np.int64))
    @example(np.full(9, -2, dtype=np.int32))
    @example(np.full(9, 2**40, dtype=np.int64))
    def test_matches_np_unique(self, values):
        before = values.copy()
        got = sorted_unique(values)
        expected = np.unique(values)
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)
        assert np.array_equal(values, before)  # the input is not sorted in place


class TestStableArgsort:
    @settings(max_examples=150, deadline=None)
    @given(
        size=st.integers(0, 3000),
        bound=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
        dtype=st.sampled_from([np.int32, np.int64]),
    )
    @example(size=0, bound=1, seed=0, dtype=np.int64)
    @example(size=3000, bound=2, seed=0, dtype=np.int64)
    def test_matches_stable_argsort(self, size, bound, seed, dtype):
        """Keys from a small range, so ties are heavy; numpy's default
        sort already reorders ties from 16 elements up."""
        keys = np.random.default_rng(seed).integers(0, bound, size).astype(dtype)
        got = stable_argsort(keys, bound)
        expected = np.argsort(keys, kind="stable")
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)

    def test_rejects_composites_beyond_int64(self):
        keys = np.zeros(4, dtype=np.int64)
        with pytest.raises(OverflowError):
            stable_argsort(keys, 2**61)  # 4 * 2**61 == 2**63
        assert stable_argsort(keys, 2**61 - 1).tolist() == [0, 1, 2, 3]
