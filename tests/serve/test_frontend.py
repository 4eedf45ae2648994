"""Serving front-end: cache-path exactness, invalidation, async surface."""

import asyncio
import time

import numpy as np
import pytest

from repro import obs
from repro.core.feature import SSFConfig, SSFExtractor
from repro.datasets import get_dataset
from repro.graph.csr import CSRSnapshot
from repro.graph.temporal import DynamicNetwork
from repro.obs.metrics import get_registry
from repro.robust.policy import RetryPolicy
from repro.serve import (
    AsyncScoringFrontend,
    DeltaCSRSnapshot,
    FeatureCache,
    ServingRecommender,
    ServingTimeout,
    pair_key,
    split_replay_stream,
)
from repro.utils.rng import ensure_rng


def small_network(seed=0, n_nodes=24, n_events=80, n_ts=10):
    rng = ensure_rng(seed)
    events = []
    # star spine keeps the graph connected (hop balls reach everything)
    for i in range(1, n_nodes):
        events.append((f"n{i - 1}", f"n{i}", float(rng.integers(1, n_ts))))
    while len(events) < n_events:
        u, v = rng.integers(0, n_nodes, size=2)
        if u == v:
            continue
        events.append((f"n{u}", f"n{v}", float(rng.integers(1, n_ts + 1))))
    return DynamicNetwork(events)


@pytest.fixture(scope="module")
def fresh():
    """Builds fresh serving cores (own delta, cache and memos) around
    one model fitted on ``small_network()``."""
    network = small_network()
    fitted = ServingRecommender.fit(network, config=SSFConfig(k=5), seed=0)

    def build(**kwargs):
        delta = DeltaCSRSnapshot.from_dynamic(network, theta=fitted.config.theta)
        return ServingRecommender(delta, fitted.model, fitted.config, **kwargs)

    return build


class TestServingExactness:
    def test_cached_path_equals_cold_recompute(self, fresh):
        """Footprint invalidation is exact, so a warm cache must
        reproduce a cold instance's recommendations after identical
        ingestion."""
        warm = fresh()
        cold = fresh()
        users = ["n0", "n3", "n7", "n3"]
        events = [("n1", "n9", 11.0), ("n20", "x", 11.0), ("n5", "n2", 12.0)]
        for user in users:  # warm the caches
            warm.recommend(user, top_n=5)
        warm.ingest(events)
        cold.ingest(events)
        for user in users:
            assert warm.recommend(user, top_n=5) == cold.recommend(user, top_n=5)
        assert warm.cache.hits > 0 or warm.result_hits > 0

    def test_repeat_query_hits_result_memo(self, fresh):
        serving = fresh()
        first = serving.recommend("n0", top_n=5)
        again = serving.recommend("n0", top_n=5)
        assert first == again
        assert serving.result_hits == 1

    def test_top_n_slices_shared_ranking(self, fresh):
        serving = fresh()
        ten = serving.recommend("n0", top_n=10)
        three = serving.recommend("n0", top_n=3)
        assert three == ten[:3]

    def test_batch_equals_sequential(self, fresh):
        batched = fresh()
        sequential = fresh()
        queries = [("n0", 5), ("n4", 5), ("n11", 3)]
        together = batched.recommend_many(queries)
        one_by_one = [sequential.recommend(u, top_n=n) for u, n in queries]
        assert together == one_by_one

    def test_unknown_user_raises(self, fresh):
        serving = fresh()
        with pytest.raises(KeyError, match="ghost"):
            serving.recommend("ghost")


class TestIngestInvalidation:
    def test_near_event_invalidates_far_event_does_not(self):
        # a long path: the two ends are far apart (the final-stamp
        # shortcuts give fit() the >= 2 positive pairs it needs while
        # keeping p10/p11 more than 2 hops from p0's candidate balls)
        path = DynamicNetwork(
            [(f"p{i}", f"p{i + 1}", float(i + 1)) for i in range(12)]
            + [("p0", "p5", 13.0), ("p3", "p8", 13.0)]
        )
        serving = ServingRecommender.fit(
            path, config=SSFConfig(k=4), seed=0, global_candidates=0
        )
        serving.recommend("p0", top_n=3)
        baseline = len(serving.cache)
        assert baseline > 0
        clock = serving.delta.scoring_time()

        # far event: both endpoints outside every footprint p0 touched,
        # at an existing stamp, so the serving clock stays put
        serving.ingest([("p10", "p11", 12.0)])
        assert serving.delta.scoring_time() == clock
        assert serving.cache.invalidations == 0
        assert len(serving.cache) == baseline
        serving.recommend("p0", top_n=3)
        assert serving.result_hits >= 1  # ranked result survived too

        # near event: lands inside the cached pairs' footprints
        serving.ingest([("p0", "p2", 21.0)])
        assert serving.cache.invalidations > 0

    def test_eviction_voids_ranked_results_at_next_ingest(self, fresh):
        # an evicted row can no longer be invalidated, so the result
        # scored from it must not outlive the next ingest
        serving = fresh(global_candidates=0, cache=FeatureCache(max_entries=1))
        serving.recommend("n0", top_n=5)
        assert serving.cache.evictions > 0
        clock = serving.delta.scoring_time()
        serving.ingest([("far1", "far2", 5.0)])  # new nodes, old stamp
        assert serving.delta.scoring_time() == clock
        serving.recommend("n0", top_n=5)
        assert serving.result_hits == 0 and serving.result_misses == 2

    def test_ingest_reflects_new_partner(self, fresh):
        serving = fresh()
        candidate = serving.recommend("n0", top_n=1)[0].node
        serving.ingest([("n0", candidate, 50.0)])
        # the new partner must no longer be suggested
        assert candidate not in {
            s.node for s in serving.recommend("n0", top_n=10)
        }

    def test_new_node_served(self, fresh):
        serving = fresh()
        serving.ingest([("fresh", "n0", 60.0)])
        suggestions = serving.recommend("fresh", top_n=3)
        assert suggestions  # friends-of-friends of n0 exist
        assert all(s.node != "n0" for s in suggestions)  # partner excluded

    def test_hub_reorder_keeps_untouched_pools(self):
        # two hubs at the newest stamp; the ingest moves H2 above H1
        # without changing the hub set or the serving clock
        network = DynamicNetwork(
            [("H1", f"a{i}", 3.0) for i in range(6)]
            + [("H2", f"b{i}", 3.0) for i in range(5)]
            + [("u", "v", 1.0), ("v", "w", 2.0), ("w", "x", 2.0)]
            + [("x", "y", 3.0), ("u", "w", 3.0), ("v", "x", 3.0)]
        )
        serving = ServingRecommender.fit(
            network, config=SSFConfig(k=4), seed=0, global_candidates=2
        )
        for user in ("u", "y", "a0", "b2"):
            serving.recommend(user, top_n=3)
        hubs = serving._hubs()
        clock = serving.delta.scoring_time()
        serving.ingest([("H2", "b0", 3.0), ("H2", "b1", 3.0)])
        assert serving._hubs() == hubs[::-1]
        assert serving.delta.scoring_time() == clock
        # b2's 2-hop ball holds H2; the other balls miss every endpoint
        assert sorted(serving._pool_memo) == ["a0", "u", "y"]


class TestRejectedIngest:
    def test_rejected_batch_changes_nothing(self):
        """A batch whose second event is invalid applies no event, so
        the delta, the cache and the memos stay as they were and every
        cached row still equals a cold extraction."""
        network = get_dataset("co-author").generate(seed=0, scale=0.3)
        history, _ = split_replay_stream(network, 0.2)
        config = SSFConfig(k=10, theta=0.5)
        serving = ServingRecommender.fit(history, config=config, seed=0)
        users = serving.delta.most_active(8)
        stored = {}  # key -> the orientation its row was extracted in
        for user in users:
            for cand in serving.candidates(user):
                stored.setdefault(pair_key(user, cand), (user, cand))
            serving.recommend(user, top_n=5)
        u0 = users[0]
        partner = next(
            c for c in serving.candidates(u0) if not history.has_edge(u0, c)
        )
        stamp = serving.delta.last_timestamp()
        before = (
            serving.delta.events_applied,
            serving.delta.number_of_nodes(),
            serving.delta.number_of_links(),
            serving.delta.scoring_time(),
            len(serving.cache),
            serving.cache.stats(),
            sorted(serving._pool_memo),
            sorted(serving._result_memo),
        )

        with pytest.raises(ValueError, match="self-loops"):
            serving.ingest([(u0, partner, stamp), ("x", "x", stamp)])

        assert serving.delta.pending_events == 0
        assert before == (
            serving.delta.events_applied,
            serving.delta.number_of_nodes(),
            serving.delta.number_of_links(),
            serving.delta.scoring_time(),
            len(serving.cache),
            serving.cache.stats(),
            sorted(serving._pool_memo),
            sorted(serving._result_memo),
        )
        snapshot = serving.delta.snapshot()
        cold_snapshot = CSRSnapshot.from_dynamic(history)
        assert np.array_equal(snapshot.indices, cold_snapshot.indices)
        assert np.array_equal(snapshot.ts, cold_snapshot.ts)
        pairs = list(stored.values())
        cold = SSFExtractor(
            snapshot,
            config,
            present_time=serving.delta.scoring_time(),
            backend="csr",
        ).extract_batch(pairs)
        for pair, row in zip(pairs, cold):
            cached = serving.cache.get(pair_key(*pair))
            assert cached is not None
            assert cached.tobytes() == row.tobytes(), pair


class TestAsyncFrontend:
    def test_concurrent_requests_coalesce(self, fresh):
        serving = fresh()
        batch_sizes = []
        inner = serving.recommend_many

        def spy(queries, **kwargs):
            batch_sizes.append(len(queries))
            return inner(queries, **kwargs)

        serving.recommend_many = spy

        async def scenario():
            async with AsyncScoringFrontend(serving) as frontend:
                # stall the worker briefly so requests pile up behind it
                blocker = asyncio.create_task(
                    frontend.ingest([("n0", "n23", 70.0)])
                )
                results = await asyncio.gather(
                    blocker,
                    *[frontend.recommend("n2", top_n=4) for _ in range(8)],
                )
                return results[1:]

        results = asyncio.run(scenario())
        assert all(result == results[0] for result in results)
        assert max(batch_sizes) > 1  # at least one multi-request batch

    def test_matches_sync_core(self, fresh):
        frontend_core = fresh()
        sync_core = fresh()

        async def scenario():
            async with AsyncScoringFrontend(frontend_core) as frontend:
                return await frontend.recommend("n5", top_n=5)

        assert asyncio.run(scenario()) == sync_core.recommend("n5", top_n=5)

    def test_timeout_raises_after_retries(self, fresh):
        serving = fresh()
        calls = []

        def slow(queries, **kwargs):
            calls.append(len(queries))
            time.sleep(0.25)
            return [[] for _ in queries]

        serving.recommend_many = slow
        retry = RetryPolicy(max_retries=1, chunk_timeout=0.05)

        async def scenario():
            async with AsyncScoringFrontend(serving, retry=retry) as frontend:
                await frontend.recommend("n0")

        with pytest.raises(ServingTimeout, match="deadline"):
            asyncio.run(scenario())
        assert len(calls) >= 1  # at least the first attempt was scored

    def test_caller_cancellation_leaves_worker_alive(self, fresh):
        serving = fresh()

        async def scenario():
            async with AsyncScoringFrontend(serving) as frontend:
                task = asyncio.create_task(frontend.recommend("n1", top_n=4))
                await asyncio.sleep(0)  # let it enqueue
                task.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await task
                # the worker must still serve subsequent requests
                return await frontend.recommend("n2", top_n=4)

        assert asyncio.run(scenario()) == serving.recommend("n2", top_n=4)

    def test_unknown_user_fails_fast(self, fresh):
        serving = fresh()

        async def scenario():
            async with AsyncScoringFrontend(serving) as frontend:
                await frontend.recommend("ghost")

        with pytest.raises(KeyError, match="ghost"):
            asyncio.run(scenario())

    def test_bad_top_n_fails_fast_alone(self, fresh):
        # three requests that would share one batch: only the bad one
        # fails, before it is enqueued
        serving = fresh()

        async def scenario():
            async with AsyncScoringFrontend(serving) as frontend:
                return await asyncio.gather(
                    frontend.recommend("n0", top_n=3),
                    frontend.recommend("n4", top_n=0),
                    frontend.recommend("n7", top_n=3),
                    return_exceptions=True,
                )

        first, bad, last = asyncio.run(scenario())
        assert isinstance(bad, ValueError) and "top_n" in str(bad)
        assert first == fresh().recommend("n0", top_n=3)
        assert last == fresh().recommend("n7", top_n=3)

    def test_retried_request_latency_counts_from_its_start(self, fresh):
        # the first scoring call outlasts the first attempt's deadline;
        # a retry is served at once, but the caller waited throughout
        serving = fresh()
        serving.recommend("n0", top_n=3)  # memoised: scoring is instant
        inner = serving.recommend_many
        calls = []

        def slow_once(queries, **kwargs):
            calls.append(len(queries))
            if len(calls) == 1:
                time.sleep(0.6)
            return inner(queries, **kwargs)

        serving.recommend_many = slow_once
        retry = RetryPolicy(max_retries=2, chunk_timeout=0.4)

        async def scenario():
            async with AsyncScoringFrontend(serving, retry=retry) as frontend:
                started = time.perf_counter()
                await frontend.recommend("n0", top_n=3)
                return time.perf_counter() - started

        get_registry().reset()
        obs.enable()
        try:
            waited = asyncio.run(scenario())
            latency = get_registry().snapshot()["histograms"]["serve.request_seconds"]
        finally:
            obs.disable()
            get_registry().reset()
        assert len(calls) >= 2 and waited >= 0.6
        assert latency["count"] == 1 and latency["max"] >= 0.6

    def test_requires_start(self, fresh):
        serving = fresh()
        frontend = AsyncScoringFrontend(serving)

        async def scenario():
            await frontend.recommend("n0")

        with pytest.raises(RuntimeError, match="not started"):
            asyncio.run(scenario())

    def test_ingest_through_frontend(self, fresh):
        serving = fresh()

        async def scenario():
            async with AsyncScoringFrontend(serving) as frontend:
                await frontend.recommend("n0", top_n=3)
                return await frontend.ingest([("n0", "brand_new", 80.0)])

        asyncio.run(scenario())
        assert serving.delta.has_node("brand_new")
