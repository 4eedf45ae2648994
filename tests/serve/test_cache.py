"""Feature-cache semantics: LRU bound, footprint invalidation, staleness."""

import numpy as np
import pytest

from repro.graph.csr import CSRSnapshot
from repro.graph.hashing import subgraph_fingerprint
from repro.graph.temporal import DynamicNetwork
from repro.serve.cache import FeatureCache, pair_key


def row(value):
    return np.full(4, float(value))


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
        assert cache.invalidate_nodes([0]) == []
        assert cache.invalidate_nodes([2]) == [pair_key("u", "b")]


class TestBallInvalidation:
    def test_drops_exactly_ball_hits(self):
        cache = FeatureCache()
        cache.put(pair_key("u", "a"), row(0), [0, 1, 2], present_time=1.0)
        cache.put(pair_key("u", "b"), row(1), [0, 3, 4], present_time=1.0)
        cache.put(pair_key("u", "c"), row(2), [5, 6], present_time=1.0)
        dropped = cache.invalidate_nodes([1, 4])
        assert dropped == sorted([pair_key("u", "a"), pair_key("u", "b")])
        assert cache.invalidations == 2
        assert cache.get(pair_key("u", "c")) is not None
        assert cache.get(pair_key("u", "a")) is None

    def test_shared_node_drops_both(self):
        cache = FeatureCache()
        cache.put(pair_key("u", "a"), row(0), [0, 1], present_time=1.0)
        cache.put(pair_key("v", "b"), row(1), [1, 2], present_time=1.0)
        assert len(cache.invalidate_nodes([1])) == 2
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
        assert cache.invalidate_nodes([99]) == []
        assert len(cache) == 1


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
