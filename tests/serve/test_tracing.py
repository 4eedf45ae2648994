"""Request-trace propagation: frontend, batching, pool workers, fallback."""

import asyncio
import os

import numpy as np
import pytest

from repro import obs
from repro.core.feature import SSFConfig
from repro.core.parallel import parallel_extract_batch
from repro.graph.temporal import DynamicNetwork
from repro.obs.export import trace_events, validate_flow_events, validate_trace
from repro.obs.trace import span
from repro.robust import RetryPolicy, inject
from repro.serve import AsyncScoringFrontend, DeltaCSRSnapshot, ServingRecommender
from repro.utils.rng import ensure_rng


@pytest.fixture(autouse=True)
def _recording_obs():
    obs.disable()
    obs.record_spans(False)
    obs.drain_span_records()
    obs.get_registry().reset()
    obs.enable()
    obs.record_spans(True)
    yield
    obs.disable()
    obs.record_spans(False)
    obs.drain_span_records()
    obs.get_registry().reset()


def small_network(seed=0, n_nodes=24, n_events=80, n_ts=10):
    rng = ensure_rng(seed)
    events = []
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


def _by_trace(records, trace_id):
    """The records belonging to a trace, by identity or membership."""
    return [
        r
        for r in records
        if r.get("trace_id") == trace_id or trace_id in r.get("trace_ids", ())
    ]


class TestFrontendTrace:
    def test_one_request_is_one_trace_end_to_end(self, fresh):
        serving = fresh()

        async def scenario():
            async with AsyncScoringFrontend(serving) as frontend:
                return await frontend.recommend("n3", top_n=4)

        asyncio.run(scenario())
        records = obs.drain_span_records()
        (request,) = [r for r in records if r["name"] == "serve.request"]
        trace = _by_trace(records, request["trace_id"])
        names = {r["name"] for r in trace}
        # frontend -> batch -> cache probe, one trace id throughout
        assert {"serve.request", "serve.score", "serve.cache_probe"} <= names
        assert request["tags"]["outcome"] == "ok"
        # the score span parents into the request, the probe into the score
        score = next(r for r in trace if r["name"] == "serve.score")
        probe = next(r for r in trace if r["name"] == "serve.cache_probe")
        assert score["parent_span_id"] == request["span_id"]
        assert probe["parent_span_id"] == score["span_id"]
        # and the whole thing exports as a valid flow-annotated trace
        payload = {"traceEvents": trace_events(records)}
        assert validate_trace(payload) == []
        assert validate_flow_events(payload) == []

    def test_score_span_splits_into_extract_model_and_rank(self, fresh):
        """A slow batch is attributed from its trace: every serve.score
        span holds its model call and its ranking, and a batch with
        cache misses its extraction, which holds the engine call."""
        serving = fresh()

        async def scenario():
            async with AsyncScoringFrontend(serving) as frontend:
                await asyncio.gather(
                    *[frontend.recommend(f"n{i}", top_n=3) for i in range(2, 6)]
                )
                await frontend.ingest([("n2", "n9", 70.0)])
                await frontend.recommend("n2", top_n=3)

        asyncio.run(scenario())
        records = obs.drain_span_records()
        scores = [r for r in records if r["name"] == "serve.score"]
        assert len(scores) >= 2

        def children(parent, name):
            return [
                r
                for r in records
                if r["name"] == name and r.get("parent_span_id") == parent["span_id"]
            ]

        for score in scores:
            assert len(children(score, "serve.model")) == 1
            assert len(children(score, "serve.rank")) == 1
            assert len(children(score, "serve.extract")) <= 1
        extracts = [e for s in scores for e in children(s, "serve.extract")]
        assert extracts and all(e["tags"]["pairs"] > 0 for e in extracts)
        # the engine's feature span nests under the extraction
        features = [r for r in records if r["name"].startswith("feature.")]
        assert features
        assert all(
            f["path"].startswith("serve.score/serve.extract/") for f in features
        )
        payload = {"traceEvents": trace_events(records)}
        assert validate_trace(payload) == []
        assert validate_flow_events(payload) == []

    def test_batch_fans_in_all_member_request_traces(self, fresh):
        serving = fresh()

        async def scenario():
            async with AsyncScoringFrontend(serving) as frontend:
                blocker = asyncio.create_task(
                    frontend.ingest([("n0", "n23", 70.0)])
                )
                await asyncio.gather(
                    blocker,
                    *[frontend.recommend(f"n{i}", top_n=3) for i in range(2, 8)],
                )

        asyncio.run(scenario())
        records = obs.drain_span_records()
        requests = [r for r in records if r["name"] == "serve.request"]
        assert len(requests) == 6
        scores = [r for r in records if r["name"] == "serve.score"]
        fanned = [s for s in scores if len(s.get("trace_ids", [])) > 1]
        assert fanned, "no multi-request batch was coalesced"
        member_ids = set(fanned[0]["trace_ids"])
        assert member_ids <= {r["trace_id"] for r in requests}
        # the batch span itself rides its first member's trace
        assert fanned[0]["trace_id"] in member_ids

    def test_ingest_trace_covers_delta_and_invalidation(self, fresh):
        # the ingest merges its events under its own span, also where no
        # hub ranking (global_candidates=0) would merge them
        for hubs in (20, 0):
            serving = fresh(global_candidates=hubs)

            async def scenario():
                async with AsyncScoringFrontend(serving) as frontend:
                    await frontend.recommend("n0", top_n=3)  # warm the cache
                    await frontend.ingest([("n0", "n9", 90.0)])
                    await frontend.recommend("n0", top_n=3)

            asyncio.run(scenario())
            records = obs.drain_span_records()
            (ingest,) = [r for r in records if r["name"] == "serve.ingest"]
            assert ingest["trace_id"] is not None
            trace = _by_trace(records, ingest["trace_id"])
            names = {r["name"] for r in trace}
            assert {
                "serve.ingest",
                "serve.delta_apply",
                "serve.delta.materialize",
                "serve.cache_invalidate",
            } <= names, hubs
            merges = [r for r in records if r["name"] == "serve.delta.materialize"]
            assert [r["trace_id"] for r in merges] == [ingest["trace_id"]], hubs

    def test_tracing_disabled_passes_no_trace_context(self, fresh):
        # with tracing off the batch carries no trace identity: the
        # frontend still passes rctx= and members=, both None
        obs.disable()
        obs.record_spans(False)
        serving = fresh()
        calls = []
        inner = serving.recommend_many

        def spy(queries, *, rctx, members):
            calls.append((rctx, members))
            return inner(queries, rctx=rctx, members=members)

        serving.recommend_many = spy

        async def scenario():
            async with AsyncScoringFrontend(serving) as frontend:
                return await frontend.recommend("n4", top_n=3)

        asyncio.run(scenario())
        assert calls == [(None, None)]


@pytest.fixture(scope="module")
def pool_case():
    network = small_network(seed=3, n_nodes=40, n_events=160, n_ts=12)
    nodes = sorted(network.nodes, key=repr)
    pairs = [(nodes[i], nodes[-(i + 1)]) for i in range(16) if nodes[i] != nodes[-(i + 1)]]
    return network, SSFConfig(k=4), pairs


class TestPoolPropagation:
    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_worker_chunks_reparent_to_the_request(
        self, pool_case, monkeypatch, method
    ):
        import multiprocessing as mp

        if method not in mp.get_all_start_methods():
            pytest.skip(f"{method} unavailable on this platform")
        monkeypatch.setenv("REPRO_START_METHOD", method)
        network, config, pairs = pool_case
        with span("serve.request", root=True) as request:
            trace_id = request.trace_id
            parallel_extract_batch(
                network, config, pairs, workers=2, min_pairs=1, chunksize=4
            )
        records = obs.drain_span_records()
        request_record = next(r for r in records if r["name"] == "serve.request")
        chunks = [r for r in records if r["name"] == "parallel.worker_chunk"]
        assert chunks, "pool did not run worker chunks"
        for chunk in chunks:
            assert chunk["trace_id"] == trace_id
            assert chunk["parent_span_id"] == request_record["span_id"]
            assert chunk["pid"] != os.getpid()  # really crossed the pool

    def test_fallback_chunks_parent_to_the_original_request(self, pool_case):
        # a crash with no fire budget exhausts retries; the in-parent
        # fallback spans must join the ORIGINAL request trace (a dead
        # worker's span ids never re-surface as parents)
        network, config, pairs = pool_case
        with inject("worker_crash", "1"):
            with span("serve.request", root=True) as request:
                trace_id = request.trace_id
                result = parallel_extract_batch(
                    network,
                    config,
                    pairs,
                    workers=2,
                    min_pairs=1,
                    chunksize=4,
                    retry=RetryPolicy(max_retries=1, chunk_timeout=5.0),
                )
        assert result.shape[0] == len(pairs)
        records = obs.drain_span_records()
        request_record = next(r for r in records if r["name"] == "serve.request")
        fallbacks = [r for r in records if r["name"] == "parallel.fallback_chunk"]
        assert fallbacks, "no in-parent fallback ran"
        for fallback in fallbacks:
            assert fallback["trace_id"] == trace_id
            assert fallback["pid"] == os.getpid()  # ran in the parent
            assert fallback["parent_span_id"] == request_record["span_id"]

    def test_fallback_matches_pooled_output_bit_identical(self, pool_case):
        network, config, pairs = pool_case
        clean = parallel_extract_batch(network, config, pairs, workers=1)
        with inject("worker_crash", "1"):
            recovered = parallel_extract_batch(
                network,
                config,
                pairs,
                workers=2,
                min_pairs=1,
                chunksize=4,
                retry=RetryPolicy(max_retries=1, chunk_timeout=5.0),
            )
        assert np.array_equal(clean, recovered)


class TestReplayHeartbeat:
    def test_replay_beats_once_per_query_with_queue_depth(self, monkeypatch):
        from repro.obs.bench import synthetic_network
        from repro.serve import replay as replay_module

        beats = []

        def spy(stage, **kwargs):
            beats.append((stage, kwargs))

        monkeypatch.setattr(replay_module, "heartbeat_tick", spy)
        network = synthetic_network(120, n_ts=16, seed=4)
        replay_module.run_replay(
            network,
            queries=30,
            concurrency=4,
            top_n=3,
            max_events=8,
            events_per_batch=4,
            seed=4,
        )
        replay_beats = [kw for stage, kw in beats if stage == "serve:replay"]
        assert len(replay_beats) == 30  # one per admitted query
        assert [kw["done"] for kw in replay_beats] == [
            float(i + 1) for i in range(30)
        ]
        assert all(kw["total"] == 30.0 for kw in replay_beats)
        assert all("queue_depth" in kw["extra"] for kw in replay_beats)
        assert any(kw["extra"]["queue_depth"] > 0 for kw in replay_beats)
        # rec/s is reported once any requests have completed
        assert any(kw["pairs_per_second"] for kw in replay_beats)
