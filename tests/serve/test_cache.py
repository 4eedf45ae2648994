"""Feature-cache semantics: LRU bound, exact invalidation, clearing."""

from collections import OrderedDict
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.graph.csr import CSRSnapshot
from repro.graph.hashing import subgraph_fingerprint
from repro.graph.temporal import DynamicNetwork
from repro.obs.metrics import get_registry
from repro.serve import cache as cache_module
from repro.serve.cache import FeatureCache, pair_key

#: a node id in no footprint: the event (n, OUTSIDE) touches node n alone
OUTSIDE = 10**6


def row(value):
    return np.full(4, float(value))


def touching(*nodes):
    """One edge event per node, from it to a node no entry holds."""
    return [(node, OUTSIDE) for node in nodes]


class TestPairKey:
    def test_order_invariant(self):
        assert pair_key("b", "a") == pair_key("a", "b")

    def test_distinct_pairs_distinct_keys(self):
        assert pair_key("a", "b") != pair_key("a", "c")


class TestLruBound:
    def test_eviction_keeps_bound(self):
        cache = FeatureCache(max_entries=3)
        for i in range(7):
            cache.put(pair_key("u", f"c{i}"), row(i), [i], inner=[i])
        assert len(cache) == 3
        assert cache.evictions == 4
        # oldest entries are the evicted ones
        assert cache.get(pair_key("u", "c0")) is None
        assert cache.get(pair_key("u", "c6")) is not None

    def test_get_refreshes_recency(self):
        cache = FeatureCache(max_entries=2)
        cache.put(pair_key("u", "a"), row(0), [0], inner=[0])
        cache.put(pair_key("u", "b"), row(1), [1], inner=[1])
        assert cache.get(pair_key("u", "a")) is not None  # a is now MRU
        cache.put(pair_key("u", "c"), row(2), [2], inner=[2])
        assert cache.get(pair_key("u", "b")) is None
        assert cache.get(pair_key("u", "a")) is not None

    def test_eviction_unindexes(self):
        cache = FeatureCache(max_entries=1)
        cache.put(pair_key("u", "a"), row(0), [0, 1], inner=[0, 1])
        cache.put(pair_key("u", "b"), row(1), [2, 3], inner=[2, 3])
        # node 0 belonged only to the evicted entry: nothing to invalidate
        assert cache.invalidate_nodes(touching(0)) == []
        assert cache.invalidate_nodes(touching(2)) == [pair_key("u", "b")]


class TestBallInvalidation:
    def test_drops_exactly_ball_hits(self):
        cache = FeatureCache()
        cache.put(pair_key("u", "a"), row(0), [0, 1, 2], inner=[0, 1, 2])
        cache.put(pair_key("u", "b"), row(1), [0, 3, 4], inner=[0, 3, 4])
        cache.put(pair_key("u", "c"), row(2), [5, 6], inner=[5, 6])
        dropped = cache.invalidate_nodes(touching(1, 4))
        assert dropped == sorted([pair_key("u", "a"), pair_key("u", "b")])
        assert cache.invalidations == 2
        assert cache.get(pair_key("u", "c")) is not None
        assert cache.get(pair_key("u", "a")) is None

    def test_shared_node_drops_both(self):
        cache = FeatureCache()
        cache.put(pair_key("u", "a"), row(0), [0, 1], inner=[0, 1])
        cache.put(pair_key("v", "b"), row(1), [1, 2], inner=[1, 2])
        assert len(cache.invalidate_nodes(touching(1))) == 2
        assert len(cache) == 0

    def test_empty_footprint_not_stored(self):
        # a pair with an end node missing from the snapshot: its row
        # changes when the node arrives, which no index entry could see
        cache = FeatureCache()
        cache.put(pair_key("u", "a"), row(0), [0], inner=[0])
        cache.put(pair_key("u", "a"), row(1), [], inner=[])
        assert len(cache) == 0
        assert cache.get(pair_key("u", "a")) is None

    def test_miss_on_unknown_node(self):
        cache = FeatureCache()
        cache.put(pair_key("u", "a"), row(0), [0], inner=[0])
        assert cache.invalidate_nodes(touching(99)) == []
        assert len(cache) == 1


class TestInnerBallInvalidation:
    """An entry with an inner ball drops on an event endpoint in that
    ball, or on one event joining two of its footprint nodes."""

    def test_endpoint_in_inner_ball_drops(self):
        cache = FeatureCache()
        cache.put(pair_key("u", "a"), row(0), [0, 1, 2, 3], inner=[0, 1])
        assert cache.invalidate_nodes([(1, OUTSIDE)]) == [pair_key("u", "a")]

    def test_footprint_only_endpoint_keeps_the_entry(self):
        cache = FeatureCache()
        cache.put(pair_key("u", "a"), row(0), [0, 1, 2, 3], inner=[0, 1])
        # 2 and 3 lie in the footprint only, and each event's other end
        # lies outside it
        assert cache.invalidate_nodes([(2, OUTSIDE), (7, 3)]) == []
        assert cache.get(pair_key("u", "a")).tolist() == row(0).tolist()

    def test_one_event_joining_two_footprint_nodes_drops(self):
        cache = FeatureCache()
        cache.put(pair_key("u", "a"), row(0), [0, 1, 2, 3], inner=[0, 1])
        cache.put(pair_key("u", "b"), row(1), [0, 2, 8], inner=[0])
        # two events each touch one node of (u, a)'s footprint: kept
        assert cache.invalidate_nodes([(2, 5), (3, 6)]) == []
        # one event joins 2 and 3: (u, a) goes, (u, b) holds only 2
        assert cache.invalidate_nodes([(3, 2)]) == [pair_key("u", "a")]
        assert len(cache) == 1

    def test_re_put_replaces_the_inner_ball(self):
        cache = FeatureCache()
        cache.put(pair_key("u", "a"), row(0), [0, 1, 2], inner=[0, 1, 2])
        cache.put(pair_key("u", "a"), row(1), [0, 1, 2], inner=[0, 1])
        assert cache.invalidate_nodes([(2, OUTSIDE)]) == []
        assert cache.get(pair_key("u", "a")).tolist() == row(1).tolist()


class TestFingerprintVerify:
    def test_verify_drops_on_substrate_change(self):
        before = CSRSnapshot.from_dynamic(
            DynamicNetwork([("a", "b", 1.0), ("b", "c", 2.0)])
        )
        after = CSRSnapshot.from_dynamic(
            DynamicNetwork([("a", "b", 1.0), ("b", "c", 2.0), ("a", "c", 3.0)])
        )
        cache = FeatureCache()
        key = pair_key("a", "c")
        ball = [0, 1, 2]
        cache.put(key, row(0), ball, inner=ball, snapshot=before, fingerprint=True)
        # same snapshot verifies clean
        assert cache.get(key, snapshot=before, verify=True) is not None
        # changed substrate: fingerprint mismatch is a miss
        assert cache.get(key, snapshot=after, verify=True) is None
        assert len(cache) == 0

    def test_fingerprint_matches_module_function(self):
        snapshot = CSRSnapshot.from_dynamic(
            DynamicNetwork([("a", "b", 1.0), ("b", "c", 2.0)])
        )
        # c gains a link outside the footprint {a, b}: the module
        # function gives the footprint the same fingerprint, so the
        # verified probe hits; a second a-b stamp changes it, and the
        # probe misses
        outside = CSRSnapshot.from_dynamic(
            DynamicNetwork([("a", "b", 1.0), ("b", "c", 2.0), ("c", "d", 3.0)])
        )
        inside = CSRSnapshot.from_dynamic(
            DynamicNetwork([("a", "b", 1.0), ("b", "c", 2.0), ("a", "b", 3.0)])
        )
        assert subgraph_fingerprint(outside, [0, 1]) == subgraph_fingerprint(
            snapshot, [0, 1]
        )
        assert subgraph_fingerprint(inside, [0, 1]) != subgraph_fingerprint(
            snapshot, [0, 1]
        )
        cache = FeatureCache()
        key = pair_key("a", "b")
        cache.put(key, row(0), [0, 1], inner=[0, 1], snapshot=snapshot, fingerprint=True)
        assert cache.get(key, snapshot=outside, verify=True).tolist() == row(0).tolist()
        assert cache.get(key, snapshot=inside, verify=True) is None


class TestStats:
    def test_hit_rate(self):
        cache = FeatureCache()
        cache.put(pair_key("u", "a"), row(0), [0], inner=[0])
        cache.get(pair_key("u", "a"))
        cache.get(pair_key("u", "zzz"))
        assert cache.hit_rate == 0.5
        stats = cache.stats()
        assert stats["hits"] == 1.0 and stats["misses"] == 1.0

    def test_validation(self):
        with pytest.raises(ValueError, match="max_entries"):
            FeatureCache(max_entries=0)


class TestStore:
    def test_get_returns_a_copy(self):
        # max_entries=1: the next put reuses the hit's slot
        cache = FeatureCache(max_entries=1)
        cache.put(pair_key("u", "a"), row(1), [0], inner=[0])
        features = cache.get(pair_key("u", "a"))
        cache.put(pair_key("u", "b"), row(2), [1], inner=[1])
        cache.put(pair_key("u", "c"), row(3), [2], inner=[2])
        assert features.tolist() == row(1).tolist()

    def test_put_copies_the_row(self):
        cache = FeatureCache()
        features = row(1)
        cache.put(pair_key("u", "a"), features, [0], inner=[0])
        features[:] = 9.0
        assert cache.get(pair_key("u", "a")).tolist() == row(1).tolist()

    def test_compaction_keeps_rows_and_footprints(self):
        cache = FeatureCache()
        for i in range(6):
            ids = [10 * i, 10 * i + 1]
            cache.put(pair_key("u", f"c{i}"), row(i), ids, inner=ids)
        used = cache._end
        # dropping four of six runs leaves more dead ids than live ones
        cache.invalidate_nodes(touching(0, 11, 20, 41))
        assert cache._end < used and cache._dead == 0
        assert cache.invalidate_nodes(touching(31)) == [pair_key("u", "c3")]
        assert cache.get(pair_key("u", "c5")).tolist() == row(5).tolist()
        assert cache.invalidate_nodes(touching(50)) == [pair_key("u", "c5")]
        assert len(cache) == 0

    def test_compaction_keeps_inner_balls(self):
        cache = FeatureCache()
        for i in range(6):
            ball = [10 * i + j for j in range(4)]
            cache.put(pair_key("u", f"c{i}"), row(i), ball, inner=ball[:2])
        used = cache._end
        cache.invalidate_nodes(touching(0, 11, 20, 41))
        assert cache._end < used and cache._dead == 0
        # c3 and c5 slid down: their footprint-only nodes still keep
        # them, their inner balls and joined footprints still drop them
        assert cache.invalidate_nodes(touching(32, 53)) == []
        assert cache.invalidate_nodes([(32, 33)]) == [pair_key("u", "c3")]
        assert cache.invalidate_nodes(touching(51)) == [pair_key("u", "c5")]
        assert len(cache) == 0

    def test_growth_keeps_rows_and_footprints(self):
        cache = FeatureCache()
        # 200 entries of 40 ids outgrow the first 64 slots and 1024 ids
        for i in range(200):
            ids = range(40 * i, 40 * i + 40)
            cache.put(pair_key("u", f"c{i}"), row(i), ids, inner=ids)
        assert cache.invalidate_nodes(touching(5, 7999)) == [
            pair_key("u", "c0"),
            pair_key("u", "c199"),
        ]
        for i in range(1, 199):
            assert cache.get(pair_key("u", f"c{i}")).tolist() == row(i).tolist()

    def test_row_width_is_fixed_while_entries_live(self):
        cache = FeatureCache()
        cache.put(pair_key("u", "a"), row(0), [0], inner=[0])
        with pytest.raises(ValueError, match="does not fit"):
            cache.put(pair_key("u", "b"), np.zeros(3), [1], inner=[1])
        assert len(cache) == 1
        cache.clear()
        cache.put(pair_key("u", "b"), np.zeros(3), [1], inner=[1])
        assert cache.get(pair_key("u", "b")).shape == (3,)


class TestGauges:
    def test_puts_and_invalidation_set_entries_and_bytes(self):
        cache = FeatureCache()
        obs.enable()
        try:
            cache.put(pair_key("u", "a"), row(0), [0, 1], inner=[0, 1])
            cache.put(pair_key("u", "b"), row(1), [2], inner=[2])
            after_puts = get_registry().snapshot()["gauges"]
            cache.invalidate_nodes(touching(1))
            after_drop = get_registry().snapshot()["gauges"]
        finally:
            obs.disable()
        store_bytes = cache._rows.nbytes + cache._ids.nbytes
        assert after_puts["serve.cache.entries"] == 2.0
        assert after_puts["serve.cache.bytes"] == store_bytes
        assert after_drop["serve.cache.entries"] == 1.0

    def test_clear_counts_the_dropped_entries_and_zeroes_the_gauges(self):
        cache = FeatureCache()
        obs.enable()
        try:
            cache.put(pair_key("u", "a"), row(0), [0, 1], inner=[0, 1])
            cache.put(pair_key("u", "b"), row(1), [2], inner=[2])
            assert cache.clear() == 2
            gauges = get_registry().snapshot()["gauges"]
        finally:
            obs.disable()
        assert len(cache) == 0 and cache.clear() == 0
        assert gauges["serve.cache.entries"] == 0.0
        assert gauges["serve.cache.bytes"] == 0.0
        # clearing is not invalidation: the counter stays where it was
        assert cache.invalidations == 0


class ReferenceCache:
    """The cache contract in plain Python: an LRU ``OrderedDict`` of
    key -> (row copy, frozenset inner ball, frozenset footprint)."""

    def __init__(self, max_entries):
        self.max_entries = max_entries
        self.entries = OrderedDict()
        self.hits = self.misses = self.evictions = self.invalidations = 0

    def get(self, key):
        entry = self.entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self.entries.move_to_end(key)
        self.hits += 1
        return entry[0]

    def put(self, key, features, footprint, inner):
        self.entries.pop(key, None)
        if footprint:
            self.entries[key] = (
                features.copy(),
                frozenset(inner),
                frozenset(footprint),
            )
        if len(self.entries) > self.max_entries:
            self.entries.popitem(last=False)
            self.evictions += 1

    def invalidate_nodes(self, events):
        def changes(inner, footprint):
            return any(
                u in inner or v in inner or (u in footprint and v in footprint)
                for u, v in events
            )

        dropped = sorted(
            key
            for key, (_, inner, footprint) in self.entries.items()
            if changes(inner, footprint)
        )
        for key in dropped:
            del self.entries[key]
        self.invalidations += len(dropped)
        return dropped

    def clear(self):
        dropped = len(self.entries)
        self.entries.clear()
        return dropped


KEYS = [pair_key("u", f"c{i}") for i in range(6)]
NODE = st.integers(0, 11)
EVENT = st.tuples(NODE, NODE).filter(lambda event: event[0] != event[1])
ROW = st.lists(
    st.floats(allow_nan=True, allow_infinity=True, width=64), min_size=3, max_size=3
).map(np.array)
OPERATIONS = st.lists(
    st.one_of(
        st.tuples(
            st.just("put"),
            st.integers(0, len(KEYS) - 1),
            ROW,
            st.lists(NODE, max_size=6),
            st.lists(NODE, max_size=4),  # the inner ball
            st.booleans(),  # ids as int64 arrays, as the engine gives them
        ),
        st.tuples(st.just("get"), st.integers(0, len(KEYS) - 1)),
        st.tuples(st.just("invalidate"), st.lists(EVENT, max_size=3)),
        st.tuples(st.just("clear")),
    ),
    min_size=20,
    max_size=60,
)


def bits(features):
    return None if features is None else features.tobytes()


class TestAgainstReference:
    @settings(max_examples=150, deadline=None)
    @given(max_entries=st.integers(1, 5), operations=OPERATIONS)
    def test_matches_reference(self, max_entries, operations):
        cache = FeatureCache(max_entries)
        reference = ReferenceCache(max_entries)
        # tiny first reservations, so the store regrows its slots and ids
        with mock.patch.object(cache_module, "_FIRST_SLOTS", 2), mock.patch.object(
            cache_module, "_FIRST_IDS", 4
        ):
            for operation in operations:
                self._apply(cache, reference, operation)
                self._assert_same(cache, reference)

    @staticmethod
    def _apply(cache, reference, operation):
        name, args = operation[0], operation[1:]
        if name == "put":
            index, features, footprint, inner, as_array = args
            ids, ball = footprint, inner
            if as_array:
                ids = np.array(footprint, dtype=np.int64)
                ball = np.array(inner, dtype=np.int64)
            cache.put(KEYS[index], features, ids, inner=ball)
            reference.put(KEYS[index], features, footprint, inner)
        elif name == "get":
            got = cache.get(KEYS[args[0]])
            assert bits(got) == bits(reference.get(KEYS[args[0]]))
        elif name == "invalidate":
            assert cache.invalidate_nodes(args[0]) == reference.invalidate_nodes(
                args[0]
            )
        else:
            assert cache.clear() == reference.clear()

    @staticmethod
    def _assert_same(cache, reference):
        assert len(cache) == len(reference.entries)
        assert (cache.hits, cache.misses, cache.evictions, cache.invalidations) == (
            reference.hits,
            reference.misses,
            reference.evictions,
            reference.invalidations,
        )
        # read the store directly, so the checks move no counter or LRU link
        assert list(cache._slot_of) == list(reference.entries)
        for key, slot in cache._slot_of.items():
            features, inner, footprint = reference.entries[key]
            assert cache._rows[slot].tobytes() == features.tobytes()
            lo, mid, hi = cache._lo[slot], cache._mid[slot], cache._hi[slot]
            assert frozenset(cache._ids[lo:mid].tolist()) == inner
            assert frozenset(cache._ids[mid:hi].tolist()) == footprint
        # dead runs never outnumber the live ids between calls
        assert cache._dead <= cache._end - cache._dead
