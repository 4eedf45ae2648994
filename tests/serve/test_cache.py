"""Feature-cache semantics: LRU bound, exact invalidation, staleness."""

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
            cache.put(pair_key("u", f"c{i}"), row(i), [i], present_time=1.0)
        assert len(cache) == 3
        assert cache.evictions == 4
        # oldest entries are the evicted ones
        assert cache.get(pair_key("u", "c0")) is None
        assert cache.get(pair_key("u", "c6")) is not None

    def test_get_refreshes_recency(self):
        cache = FeatureCache(max_entries=2)
        cache.put(pair_key("u", "a"), row(0), [0], present_time=1.0)
        cache.put(pair_key("u", "b"), row(1), [1], present_time=1.0)
        assert cache.get(pair_key("u", "a")) is not None  # a is now MRU
        cache.put(pair_key("u", "c"), row(2), [2], present_time=1.0)
        assert cache.get(pair_key("u", "b")) is None
        assert cache.get(pair_key("u", "a")) is not None

    def test_eviction_unindexes(self):
        cache = FeatureCache(max_entries=1)
        cache.put(pair_key("u", "a"), row(0), [0, 1], present_time=1.0)
        cache.put(pair_key("u", "b"), row(1), [2, 3], present_time=1.0)
        # node 0 belonged only to the evicted entry: nothing to invalidate
        assert cache.invalidate_nodes(touching(0)) == []
        assert cache.invalidate_nodes(touching(2)) == [pair_key("u", "b")]


class TestBallInvalidation:
    def test_drops_exactly_ball_hits(self):
        cache = FeatureCache()
        cache.put(pair_key("u", "a"), row(0), [0, 1, 2], present_time=1.0)
        cache.put(pair_key("u", "b"), row(1), [0, 3, 4], present_time=1.0)
        cache.put(pair_key("u", "c"), row(2), [5, 6], present_time=1.0)
        dropped = cache.invalidate_nodes(touching(1, 4))
        assert dropped == sorted([pair_key("u", "a"), pair_key("u", "b")])
        assert cache.invalidations == 2
        assert cache.get(pair_key("u", "c")) is not None
        assert cache.get(pair_key("u", "a")) is None

    def test_shared_node_drops_both(self):
        cache = FeatureCache()
        cache.put(pair_key("u", "a"), row(0), [0, 1], present_time=1.0)
        cache.put(pair_key("v", "b"), row(1), [1, 2], present_time=1.0)
        assert len(cache.invalidate_nodes(touching(1))) == 2
        assert len(cache) == 0

    def test_empty_footprint_not_stored(self):
        # a pair with an end node missing from the snapshot: its row
        # changes when the node arrives, which no index entry could see
        cache = FeatureCache()
        cache.put(pair_key("u", "a"), row(0), [0], present_time=1.0)
        cache.put(pair_key("u", "a"), row(1), [], present_time=1.0)
        assert len(cache) == 0
        assert cache.get(pair_key("u", "a")) is None

    def test_miss_on_unknown_node(self):
        cache = FeatureCache()
        cache.put(pair_key("u", "a"), row(0), [0], present_time=1.0)
        assert cache.invalidate_nodes(touching(99)) == []
        assert len(cache) == 1


class TestInnerBallInvalidation:
    """An entry with an inner ball drops on an event endpoint in that
    ball, or on one event joining two of its footprint nodes."""

    def test_endpoint_in_inner_ball_drops(self):
        cache = FeatureCache()
        cache.put(pair_key("u", "a"), row(0), [0, 1, 2, 3], 1.0, inner=[0, 1])
        assert cache.invalidate_nodes([(1, OUTSIDE)]) == [pair_key("u", "a")]

    def test_footprint_only_endpoint_keeps_the_entry(self):
        cache = FeatureCache()
        cache.put(pair_key("u", "a"), row(0), [0, 1, 2, 3], 1.0, inner=[0, 1])
        # 2 and 3 lie in the footprint only, and each event's other end
        # lies outside it
        assert cache.invalidate_nodes([(2, OUTSIDE), (7, 3)]) == []
        assert cache.get(pair_key("u", "a")).features.tolist() == row(0).tolist()

    def test_one_event_joining_two_footprint_nodes_drops(self):
        cache = FeatureCache()
        cache.put(pair_key("u", "a"), row(0), [0, 1, 2, 3], 1.0, inner=[0, 1])
        cache.put(pair_key("u", "b"), row(1), [0, 2, 8], 1.0, inner=[0])
        # two events each touch one node of (u, a)'s footprint: kept
        assert cache.invalidate_nodes([(2, 5), (3, 6)]) == []
        # one event joins 2 and 3: (u, a) goes, (u, b) holds only 2
        assert cache.invalidate_nodes([(3, 2)]) == [pair_key("u", "a")]
        assert len(cache) == 1

    def test_put_without_inner_ball_uses_the_footprint(self):
        cache = FeatureCache()
        cache.put(pair_key("u", "a"), row(0), [0, 1, 2, 3], 1.0)
        cache.put(pair_key("u", "b"), row(1), [0, 1, 2, 3], 1.0, inner=[0, 1])
        assert cache.invalidate_nodes([(3, OUTSIDE)]) == [pair_key("u", "a")]

    def test_re_put_replaces_the_inner_ball(self):
        cache = FeatureCache()
        cache.put(pair_key("u", "a"), row(0), [0, 1, 2], 1.0, inner=[0, 1, 2])
        cache.put(pair_key("u", "a"), row(1), [0, 1, 2], 1.0, inner=[0, 1])
        assert cache.invalidate_nodes([(2, OUTSIDE)]) == []
        assert cache.get(pair_key("u", "a")).features.tolist() == row(1).tolist()


class TestStaleness:
    def test_stale_entry_dropped(self):
        cache = FeatureCache(max_staleness=2.0)
        cache.put(pair_key("u", "a"), row(0), [0], present_time=10.0)
        assert cache.get(pair_key("u", "a"), present_time=11.0) is not None
        assert cache.get(pair_key("u", "a"), present_time=13.5) is None
        assert len(cache) == 0

    def test_moved_clock_misses_by_default(self):
        exact = FeatureCache()
        unbounded = FeatureCache(max_staleness=None)
        for cache in (exact, unbounded):
            cache.put(pair_key("u", "a"), row(0), [0], present_time=10.0)
            assert cache.get(pair_key("u", "a"), present_time=10.0) is not None
        assert exact.get(pair_key("u", "a"), present_time=11.0) is None
        assert unbounded.get(pair_key("u", "a"), present_time=1e9) is not None


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
        cache.put(key, row(0), ball, present_time=4.0, snapshot=before, fingerprint=True)
        # same snapshot verifies clean
        assert cache.get(key, snapshot=before, verify=True) is not None
        # changed substrate: fingerprint mismatch is a miss
        assert cache.get(key, snapshot=after, verify=True) is None
        assert len(cache) == 0

    def test_fingerprint_matches_module_function(self):
        snapshot = CSRSnapshot.from_dynamic(
            DynamicNetwork([("a", "b", 1.0), ("b", "c", 2.0)])
        )
        cache = FeatureCache()
        key = pair_key("a", "b")
        cache.put(key, row(0), [0, 1], present_time=3.0, snapshot=snapshot, fingerprint=True)
        entry = cache.get(key)
        assert entry.fingerprint == subgraph_fingerprint(snapshot, [0, 1])


class TestStats:
    def test_hit_rate(self):
        cache = FeatureCache()
        cache.put(pair_key("u", "a"), row(0), [0], present_time=1.0)
        cache.get(pair_key("u", "a"))
        cache.get(pair_key("u", "zzz"))
        assert cache.hit_rate == 0.5
        stats = cache.stats()
        assert stats["hits"] == 1.0 and stats["misses"] == 1.0

    def test_validation(self):
        with pytest.raises(ValueError, match="max_entries"):
            FeatureCache(max_entries=0)
        with pytest.raises(ValueError, match="max_staleness"):
            FeatureCache(max_staleness=-1.0)


class TestStore:
    def test_get_returns_a_copy(self):
        # max_entries=1: the next put reuses the hit's slot
        cache = FeatureCache(max_entries=1)
        cache.put(pair_key("u", "a"), row(1), [0], present_time=1.0)
        features = cache.get(pair_key("u", "a")).features
        cache.put(pair_key("u", "b"), row(2), [1], present_time=1.0)
        cache.put(pair_key("u", "c"), row(3), [2], present_time=1.0)
        assert features.tolist() == row(1).tolist()

    def test_put_copies_the_row(self):
        cache = FeatureCache()
        features = row(1)
        cache.put(pair_key("u", "a"), features, [0], present_time=1.0)
        features[:] = 9.0
        assert cache.get(pair_key("u", "a")).features.tolist() == row(1).tolist()

    def test_compaction_keeps_rows_and_footprints(self):
        cache = FeatureCache()
        for i in range(6):
            cache.put(pair_key("u", f"c{i}"), row(i), [10 * i, 10 * i + 1], 1.0)
        used = cache._end
        # dropping four of six runs leaves more dead ids than live ones
        cache.invalidate_nodes(touching(0, 11, 20, 41))
        assert cache._end < used and cache._dead == 0
        assert cache.invalidate_nodes(touching(31)) == [pair_key("u", "c3")]
        assert cache.get(pair_key("u", "c5")).features.tolist() == row(5).tolist()
        assert cache.invalidate_nodes(touching(50)) == [pair_key("u", "c5")]
        assert len(cache) == 0

    def test_compaction_keeps_inner_balls(self):
        cache = FeatureCache()
        for i in range(6):
            ball = [10 * i + j for j in range(4)]
            cache.put(pair_key("u", f"c{i}"), row(i), ball, 1.0, inner=ball[:2])
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
            cache.put(pair_key("u", f"c{i}"), row(i), range(40 * i, 40 * i + 40), 1.0)
        assert cache.invalidate_nodes(touching(5, 7999)) == [
            pair_key("u", "c0"),
            pair_key("u", "c199"),
        ]
        for i in range(1, 199):
            assert cache.get(pair_key("u", f"c{i}")).features.tolist() == row(i).tolist()

    def test_row_width_is_fixed_while_entries_live(self):
        cache = FeatureCache()
        cache.put(pair_key("u", "a"), row(0), [0], present_time=1.0)
        with pytest.raises(ValueError, match="does not fit"):
            cache.put(pair_key("u", "b"), np.zeros(3), [1], present_time=1.0)
        assert len(cache) == 1
        cache.clear()
        cache.put(pair_key("u", "b"), np.zeros(3), [1], present_time=1.0)
        assert cache.get(pair_key("u", "b")).features.shape == (3,)


class TestGauges:
    def test_puts_and_invalidation_set_entries_and_bytes(self):
        cache = FeatureCache()
        obs.enable()
        try:
            cache.put(pair_key("u", "a"), row(0), [0, 1], present_time=1.0)
            cache.put(pair_key("u", "b"), row(1), [2], present_time=1.0)
            after_puts = get_registry().snapshot()["gauges"]
            cache.invalidate_nodes(touching(1))
            after_drop = get_registry().snapshot()["gauges"]
        finally:
            obs.disable()
        store_bytes = cache._rows.nbytes + cache._ids.nbytes
        assert after_puts["serve.cache.entries"] == 2.0
        assert after_puts["serve.cache.bytes"] == store_bytes
        assert after_drop["serve.cache.entries"] == 1.0


class ReferenceCache:
    """The cache contract in plain Python: an LRU ``OrderedDict`` of
    key -> (row copy, frozenset inner ball, frozenset footprint,
    extraction time), the footprint standing in for a missing inner
    ball."""

    def __init__(self, max_entries, max_staleness):
        self.max_entries = max_entries
        self.max_staleness = max_staleness
        self.entries = OrderedDict()
        self.hits = self.misses = self.evictions = self.invalidations = 0

    def get(self, key, present_time=None):
        entry = self.entries.get(key)
        if entry is not None and (
            self.max_staleness is not None
            and present_time is not None
            and abs(present_time - entry[3]) > self.max_staleness
        ):
            del self.entries[key]
            entry = None
        if entry is None:
            self.misses += 1
            return None
        self.entries.move_to_end(key)
        self.hits += 1
        return entry[0]

    def put(self, key, features, footprint, present_time, inner=None):
        self.entries.pop(key, None)
        if footprint:
            ball = footprint if inner is None else inner
            self.entries[key] = (
                features.copy(),
                frozenset(ball),
                frozenset(footprint),
                present_time,
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
            for key, (_, inner, footprint, _) in self.entries.items()
            if changes(inner, footprint)
        )
        for key in dropped:
            del self.entries[key]
        self.invalidations += len(dropped)
        return dropped

    def clear(self):
        self.entries.clear()


KEYS = [pair_key("u", f"c{i}") for i in range(6)]
TIMES = st.sampled_from([0.0, 1.0, 2.5])
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
            st.none() | st.lists(NODE, max_size=4),  # the inner ball
            TIMES,
            st.booleans(),  # ids as int64 arrays, as the engine gives them
        ),
        st.tuples(
            st.just("get"), st.integers(0, len(KEYS) - 1), st.none() | TIMES
        ),
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
    @given(
        max_entries=st.integers(1, 5),
        max_staleness=st.sampled_from([0.0, 1.0, None]),
        operations=OPERATIONS,
    )
    def test_matches_reference(self, max_entries, max_staleness, operations):
        cache = FeatureCache(max_entries, max_staleness=max_staleness)
        reference = ReferenceCache(max_entries, max_staleness)
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
            index, features, footprint, inner, present_time, as_array = args
            ids, ball = footprint, inner
            if as_array:
                ids = np.array(footprint, dtype=np.int64)
                ball = None if inner is None else np.array(inner, dtype=np.int64)
            cache.put(KEYS[index], features, ids, present_time, inner=ball)
            reference.put(KEYS[index], features, footprint, present_time, inner)
        elif name == "get":
            index, present_time = args
            entry = cache.get(KEYS[index], present_time=present_time)
            expected = reference.get(KEYS[index], present_time=present_time)
            got = None if entry is None else entry.features
            assert bits(got) == bits(expected)
        elif name == "invalidate":
            assert cache.invalidate_nodes(args[0]) == reference.invalidate_nodes(
                args[0]
            )
        else:
            cache.clear()
            reference.clear()

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
            features, inner, footprint, present_time = reference.entries[key]
            assert cache._rows[slot].tobytes() == features.tobytes()
            lo, mid, hi = cache._lo[slot], cache._mid[slot], cache._hi[slot]
            assert frozenset(cache._ids[lo:mid].tolist()) == inner
            assert frozenset(cache._ids[mid:hi].tolist()) == footprint
            assert cache._times[slot] == present_time
        # dead runs never outnumber the live ids between calls
        assert cache._dead <= cache._end - cache._dead
