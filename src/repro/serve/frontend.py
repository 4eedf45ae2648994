"""Serving front-end: batched scoring over the delta substrate.

Two layers:

* :class:`ServingRecommender` — the synchronous core.  Holds a
  :class:`~repro.serve.delta.DeltaCSRSnapshot`, a trained model and a
  :class:`~repro.serve.cache.FeatureCache`; ``ingest`` appends edge
  events and invalidates exactly the cached pairs the events can change,
  or the whole cache when the events move the serving clock;
  ``recommend_many`` scores several users' requests
  through ONE :meth:`~repro.core.feature.SSFExtractor.extract_batch`
  call, probing the cache per pair and extracting only the misses.
* :class:`AsyncScoringFrontend` — the asyncio surface.  Concurrent
  ``await frontend.recommend(user)`` calls are coalesced by a single
  worker task into ``recommend_many`` batches (run in an executor so the
  event loop stays responsive), with per-request deadlines and bounded
  re-enqueue retries driven by the same
  :class:`~repro.robust.policy.RetryPolicy` the offline pool uses.

This is the one recommender: :meth:`ServingRecommender.fit` trains the
model offline and seeds the substrate, and ``repro recommend``,
:func:`~repro.recommend.hit_rate_at_n` and ``repro serve --replay`` all
rank through it.  A pool is :func:`~repro.recommend.candidate_pool`:
the friends-of-friends ball plus the global hubs, which rank by
*decayed* activity (:meth:`~repro.serve.delta.DeltaCSRSnapshot.most_active`)
so recency matters.  That activity sums the Eq. 2 influence table the
extractor reads at the same clock, so a hub ranking adds no second
decay.  Scores are the model's decision scores, ranked with mergesort
tie-stability.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from functools import partial
from typing import Hashable, Iterable, Sequence

import numpy as np

from repro.core.feature import SSFConfig, SSFExtractor
from repro.graph.csr import CSRSnapshot
from repro.graph.temporal import DynamicNetwork
from repro.models.linear import LinearRegressionModel
from repro.models.neural import NeuralMachine
from repro.recommend import Suggestion, candidate_pool
from repro.robust.policy import RetryPolicy
from repro.serve.cache import FeatureCache, PairKey, pair_key
from repro.serve.delta import DeltaCSRSnapshot
from repro.obs import get_logger, incr, observe, span
from repro.obs.slo import slo_observe
from repro.obs.trace import TraceContext, current_context, new_trace
from repro.obs.trace import enabled as obs_enabled
from repro.sampling.splits import build_link_prediction_task

Node = Hashable
Event = "tuple[Node, Node, float]"

_LOG = get_logger("serve.frontend")

#: most recommend() calls a single worker wake-up folds into one
#: scoring batch — bounds per-batch latency without starving throughput
DEFAULT_MAX_BATCH = 64

#: training-sample cap of :meth:`ServingRecommender.fit` (positive pairs
#: of the last stamp) and the neural machine's epochs there
FIT_MAX_POSITIVES = 300
FIT_EPOCHS = 60


class ServingTimeout(TimeoutError):
    """A recommend() request exhausted its deadline and retry budget."""


class ServingRecommender:
    """Synchronous serving core: delta substrate + feature cache + model.

    Build with :meth:`fit` (train on a network, then serve it), or from
    a :class:`~repro.serve.delta.DeltaCSRSnapshot` and a trained model.
    """

    def __init__(
        self,
        delta: DeltaCSRSnapshot,
        model: "object",
        config: "SSFConfig | None" = None,
        *,
        candidate_hops: int = 2,
        global_candidates: int = 20,
        cache: "FeatureCache | None" = None,
        verify: bool = False,
    ) -> None:
        if candidate_hops < 1:
            raise ValueError(f"candidate_hops must be >= 1, got {candidate_hops}")
        if global_candidates < 0:
            raise ValueError("global_candidates must be >= 0")
        self.delta = delta
        self.model = model
        self.config = config or SSFConfig()
        self.candidate_hops = candidate_hops
        self.global_candidates = global_candidates
        self.cache = cache if cache is not None else FeatureCache()
        self.verify = verify
        self._extractor: "SSFExtractor | None" = None
        # per-snapshot-generation memos: hub pool + candidate pools are
        # pure functions of the substrate, so they survive until ingest.
        # Each pool memo keeps the hop-ball ids it was generated from: a
        # later event changes the pool only if an endpoint sits in that
        # ball (a new edge cannot shorten any path, and cannot bring a
        # node within reach unless one endpoint already was).
        self._hubs_memo: "list[Node] | None" = None
        self._pool_memo: dict[Node, tuple[list[Node], frozenset[int]]] = {}
        # scored-result memo: between ingests the whole pipeline is a
        # deterministic function of (user, substrate), so serving a
        # memoised ranking is EXACT, not an approximation.  Each entry
        # keeps the pool, its scores and their ranking order (a request
        # builds Suggestions for the top_n it reads) and the pair keys
        # it was scored from.
        self._result_memo: dict[
            Node, tuple[list[Node], np.ndarray, np.ndarray, frozenset[PairKey]]
        ] = {}
        # an evicted key can no longer be voided: ingest drops every
        # result once the cache has evicted since the last ingest
        self._evictions_seen = 0
        self.result_hits = 0
        self.result_misses = 0

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def fit(
        cls,
        network: DynamicNetwork,
        *,
        config: "SSFConfig | None" = None,
        model: str = "linear",
        seed: int = 0,
        **kwargs: "object",
    ) -> "ServingRecommender":
        """Self-supervised training on the network's own final timestamp.

        The model learns the paper's task on a seeded split at the last
        stamp (at most :data:`FIT_MAX_POSITIVES` positives): one
        ``extract_batch`` over the history before it, then a linear or
        neural (:data:`FIT_EPOCHS` epochs) fit.  The FULL network, last
        stamp included, seeds the delta substrate: at serving time
        everything observed is history, and the serving clock sits one
        observed median inter-stamp gap past the newest link.

        Args:
            network: the full interaction history.
            config: SSF hyper-parameters.
            model: ``"linear"`` or ``"neural"``.
            seed: RNG seed of the split and the neural machine.
            kwargs: passed on to the constructor.
        """
        if model not in ("linear", "neural"):
            raise ValueError(f"model must be 'linear' or 'neural', got {model!r}")
        config = config or SSFConfig()
        task = build_link_prediction_task(
            network, max_positives=FIT_MAX_POSITIVES, seed=seed
        )
        extractor = SSFExtractor(task.history, config, present_time=task.present_time)
        pairs = list(task.train_pairs) + list(task.test_pairs)
        labels = np.concatenate([task.train_labels, task.test_labels])
        _LOG.info("fitting %s recommender on %d labelled pairs", model, len(pairs))
        with span("recommend.fit", pairs=len(pairs)):
            features = extractor.extract_batch(pairs)
        if model == "linear":
            fitted = LinearRegressionModel().fit(features, labels)
        else:
            fitted = NeuralMachine(
                input_dim=features.shape[1], epochs=FIT_EPOCHS, seed=seed
            ).fit(features, labels)
        delta = DeltaCSRSnapshot.from_dynamic(network, theta=config.theta)
        return cls(delta, fitted, config, **kwargs)  # type: ignore[arg-type]

    # ------------------------------------------------------------------
    # ingestion
    # ------------------------------------------------------------------
    def ingest(
        self,
        events: "Iterable[Event]",
        *,
        rctx: "TraceContext | None" = None,
    ) -> int:
        """Apply edge events; returns how many cached pairs they voided.

        An event can change a cached row only if an endpoint lies in the
        row's inner ball or the event joins two nodes of its footprint
        (:mod:`repro.serve.cache`), so the events' ``(u_id, v_id)`` pairs
        go to :meth:`~repro.serve.cache.FeatureCache.invalidate_nodes`,
        which drops precisely those entries.  Every row and ranking also
        decays with the serving clock (Def. 8), so when the events move
        :meth:`~repro.serve.delta.DeltaCSRSnapshot.scoring_time` the
        cache and the result memo are emptied, and the cleared rows
        count as voided too.  The events are merged into the snapshot
        here, so the merge is timed and traced as part of the ingest.
        ``rctx`` (lint R304) threads the requesting trace across the
        executor boundary so the ingest span — and the merge and
        invalidation spans under it — carry the request's trace id.
        """
        with span("serve.ingest", ctx=rctx or current_context()) as ingest_span:
            clock = self.delta.scoring_time()
            touched = self.delta.apply(events)
            if not touched:
                return 0
            self.delta.snapshot()
            endpoints = {node_id for pair in touched for node_id in pair}
            # invalidate even when the clock moved, so that
            # ``cache.invalidations`` counts the rows the events changed
            dropped_keys = set(self.cache.invalidate_nodes(touched))
            voided = len(dropped_keys)
            if self.delta.scoring_time() != clock:
                voided += self.cache.clear()
                self._result_memo.clear()
            ingest_span.tags.update(touched=len(touched), invalidated=voided)
        # the substrate moved: rebuild the extractor lazily, and drop
        # exactly the memoised pools/results the events can have
        # changed — a pool when its hop ball reaches an event endpoint
        # (a new edge cannot shorten paths, and cannot bring a node
        # within reach unless an endpoint already was) or the hub set
        # changes (a pool is a set difference, blind to hub order), a
        # ranked result whenever its pool or any feature it was scored
        # from moved, or the cache evicted rows (a moved clock emptied
        # the result memo above)
        self._extractor = None
        old_hubs = self._hubs_memo
        self._hubs_memo = None
        evicted = self.cache.evictions != self._evictions_seen
        self._evictions_seen = self.cache.evictions
        if old_hubs is not None and set(self._hubs()) == set(old_hubs):
            pool_dropped = [
                user
                for user, (_, ball) in self._pool_memo.items()
                if not endpoints.isdisjoint(ball)
            ]
            for user in pool_dropped:
                del self._pool_memo[user]
            for user in [
                user
                for user, (*_, keys) in self._result_memo.items()
                if evicted or user in pool_dropped or not dropped_keys.isdisjoint(keys)
            ]:
                del self._result_memo[user]
        else:
            self._pool_memo.clear()
            self._result_memo.clear()
        return voided

    # ------------------------------------------------------------------
    # scoring
    # ------------------------------------------------------------------
    @property
    def extractor(self) -> SSFExtractor:
        """The current-snapshot extractor (rebuilt after each ingest)."""
        if self._extractor is None or self.delta.pending_events:
            snapshot = self.delta.snapshot()
            self._extractor = SSFExtractor(
                snapshot,
                self.config,
                present_time=self.delta.scoring_time(),
                backend="csr",
            )
        return self._extractor

    def _snapshot(self) -> CSRSnapshot:
        return self.extractor.snapshot  # type: ignore[return-value]

    def _hubs(self) -> list[Node]:
        if self._hubs_memo is None:
            self._hubs_memo = self.delta.most_active(self.global_candidates)
        return self._hubs_memo

    def candidates(self, user: Node) -> list[Node]:
        """Candidate partners: friends-of-friends ball plus decayed hubs."""
        memo = self._pool_memo.get(user)
        if memo is not None:
            return memo[0]
        pool, ball_ids = candidate_pool(
            self._snapshot(), user, self.candidate_hops, self._hubs()
        )
        self._pool_memo[user] = (pool, frozenset(ball_ids.tolist()))
        return pool

    def recommend(
        self,
        user: Node,
        top_n: int = 10,
        *,
        rctx: "TraceContext | None" = None,
    ) -> list[Suggestion]:
        """Single-user convenience wrapper over :meth:`recommend_many`."""
        return self.recommend_many([(user, top_n)], rctx=rctx)[0]

    def recommend_many(
        self,
        queries: "Sequence[tuple[Node, int]]",
        *,
        rctx: "TraceContext | None" = None,
        members: "list[str] | None" = None,
    ) -> list[list[Suggestion]]:
        """Score several users' requests through one extraction batch.

        Per query the candidate pool is generated, each (user, candidate)
        pair is probed against the feature cache, and every miss across
        ALL queries lands in one ``extract_batch`` call on the serving
        extractor's batched engine.  Fresh rows are cached with the
        footprint and inner ball the engine grew them on before scoring.

        ``rctx`` (lint R304) is the batch's primary trace context —
        normally the first live member request — and ``members`` the
        trace ids of every request folded into this batch: the batch
        span fans back out into per-request flows at export time.
        """
        if not queries:
            return []
        for _, top_n in queries:
            if top_n < 1:
                raise ValueError(f"top_n must be >= 1, got {top_n}")
        extractor = self.extractor
        snapshot = self._snapshot()

        # serve memoised rankings where the substrate has not moved
        final: "list[list[Suggestion] | None]" = [None] * len(queries)
        compute: list[tuple[int, Node, int]] = []
        for slot, (user, top_n) in enumerate(queries):
            memo = self._result_memo.get(user)
            if memo is not None:
                pool, scores, order, _ = memo
                final[slot] = _top(pool, scores, order, top_n)
                self.result_hits += 1
                incr("serve.results.hits")
                continue
            self.result_misses += 1
            incr("serve.results.misses")
            compute.append((slot, user, top_n))
        # coalesce duplicate users: one computation fills every slot
        compute_map: "dict[Node, list[tuple[int, int]]]" = {}
        for slot, user, top_n in compute:
            compute_map.setdefault(user, []).append((slot, top_n))
        if not compute:
            incr("serve.queries", len(queries))
            return [result if result is not None else [] for result in final]

        pools: list[list[Node]] = []
        keyed: list[list[PairKey]] = []
        cached: dict[PairKey, np.ndarray] = {}
        missed: dict[PairKey, tuple[Node, Node]] = {}
        with span(
            "serve.score",
            ctx=rctx or current_context(),
            members=members,
            queries=len(compute_map),
        ):
            with span("serve.cache_probe") as probe:
                for user in compute_map:
                    pool = self.candidates(user)
                    pools.append(pool)
                    keys: list[PairKey] = []
                    for cand in pool:
                        key = pair_key(user, cand)
                        keys.append(key)
                        if key in cached or key in missed:
                            continue
                        row = self.cache.get(
                            key, snapshot=snapshot, verify=self.verify
                        )
                        if row is not None:
                            cached[key] = row
                        else:
                            missed[key] = (user, cand)
                    keyed.append(keys)
                probe.tags.update(hits=len(cached), misses=len(missed))

            if missed:
                with span("serve.extract", pairs=len(missed)):
                    footprints: list[np.ndarray] = []
                    inner: list[np.ndarray] = []
                    fresh = extractor.extract_batch(
                        list(missed.values()), footprints, inner
                    )
                    for key, row, footprint, ball in zip(
                        missed, fresh, footprints, inner
                    ):
                        self.cache.put(
                            key,
                            row,
                            footprint,
                            inner=ball,
                            snapshot=snapshot,
                            fingerprint=self.verify,
                        )
                        cached[key] = row

            # one model call for the whole batch, split back per query
            offsets = [0]
            rows: list[np.ndarray] = []
            for keys in keyed:
                rows.extend(cached[key] for key in keys)
                offsets.append(len(rows))
            with span("serve.model", rows=len(rows)):
                scores = (
                    self.model.decision_scores(np.vstack(rows))  # type: ignore[attr-defined]
                    if rows
                    else np.zeros(0)
                )
            with span("serve.rank", queries=len(compute_map)):
                for query_index, (user, slots) in enumerate(compute_map.items()):
                    pool = pools[query_index]
                    lo, hi = offsets[query_index], offsets[query_index + 1]
                    query_scores = scores[lo:hi]
                    order = np.argsort(-query_scores, kind="mergesort")
                    self._result_memo[user] = (
                        pool,
                        query_scores,
                        order,
                        frozenset(keyed[query_index]),
                    )
                    for slot, top_n in slots:
                        final[slot] = _top(pool, query_scores, order, top_n)
        incr("serve.queries", len(queries))
        observe("serve.extract_pairs", float(len(missed)))
        return [result if result is not None else [] for result in final]


def _top(
    pool: "list[Node]", scores: np.ndarray, order: np.ndarray, top_n: int
) -> list[Suggestion]:
    """The ``top_n`` best-ranked pool members as suggestions."""
    return [
        Suggestion(node=pool[i], score=float(scores[i]))
        for i in order[:top_n].tolist()
    ]


# ----------------------------------------------------------------------
# asyncio surface
# ----------------------------------------------------------------------
@dataclass
class _ScoreJob:
    user: Node
    top_n: int
    future: "asyncio.Future[list[Suggestion]]"
    #: when the request's first attempt started: a request served on a
    #: retry has waited since then
    started: float
    cancelled: bool = False
    #: requester's trace context — carried as a field because the queue
    #: hand-off to the worker task does not propagate contextvars
    ctx: "TraceContext | None" = None


@dataclass
class _IngestJob:
    events: "list[tuple[Node, Node, float]]"
    future: "asyncio.Future[int]"
    ctx: "TraceContext | None" = None


class AsyncScoringFrontend:
    """Coalescing asyncio front-end over a :class:`ServingRecommender`.

    Concurrent ``recommend`` awaits funnel into one queue; a single
    worker task drains up to ``max_batch`` jobs per wake-up and scores
    the contiguous run in ONE ``recommend_many`` call, executed in the
    default executor so the event loop keeps accepting requests while
    numpy works.  Ingest jobs flow through the same queue, which
    serialises substrate mutation against scoring without locks.

    Deadlines reuse :class:`~repro.robust.policy.RetryPolicy`:
    ``chunk_timeout`` bounds each attempt and ``max_retries`` extra
    re-enqueues are granted before :class:`ServingTimeout` is raised.
    A timed-out or caller-cancelled request is flagged so the worker
    drops it instead of scoring work nobody awaits.

    Usage::

        async with AsyncScoringFrontend(core) as frontend:
            suggestions = await frontend.recommend("alice", top_n=5)
    """

    def __init__(
        self,
        recommender: ServingRecommender,
        *,
        max_batch: int = DEFAULT_MAX_BATCH,
        retry: "RetryPolicy | None" = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self.recommender = recommender
        self.max_batch = max_batch
        self.retry = retry if retry is not None else RetryPolicy.from_env()
        self._queue: "asyncio.Queue[_ScoreJob | _IngestJob] | None" = None
        self._worker: "asyncio.Task[None] | None" = None

    async def __aenter__(self) -> "AsyncScoringFrontend":
        await self.start()
        return self

    async def __aexit__(self, *exc_info: "object") -> None:
        await self.close()

    async def start(self) -> None:
        if self._worker is not None:
            return
        self._queue = asyncio.Queue()
        self._worker = asyncio.create_task(self._run(), name="repro-serve-worker")

    async def close(self) -> None:
        worker, self._worker = self._worker, None
        if worker is None:
            return
        worker.cancel()
        try:
            await worker
        except asyncio.CancelledError:
            pass
        queue, self._queue = self._queue, None
        if queue is not None:
            while not queue.empty():
                job = queue.get_nowait()
                if not job.future.done():
                    job.future.cancel()

    # ------------------------------------------------------------------
    # client API
    # ------------------------------------------------------------------
    async def recommend(
        self,
        user: Node,
        top_n: int = 10,
        *,
        rctx: "TraceContext | None" = None,
    ) -> list[Suggestion]:
        """Top-N suggestions for ``user``; batched behind the scenes.

        Raises :class:`ServingTimeout` once the per-attempt deadline
        (``retry.chunk_timeout``) has expired ``retry.max_retries + 1``
        times.  ``KeyError`` for unknown users and ``ValueError`` for a
        ``top_n`` below 1 fail fast, before any batch admission, so a
        bad request cannot fail the requests batched with it.

        ``rctx`` (lint R304) lets a caller attach the request to an
        existing trace; by default each request roots a fresh one.  The
        ``serve.request`` span is opened ONCE around the retry loop —
        retries and the in-parent fallback all parent to the original
        request, never to a dead attempt.
        """
        queue = self._require_started()
        if not self.recommender.delta.has_node(user):
            raise KeyError(f"user {user!r} not in network")
        if top_n < 1:
            raise ValueError(f"top_n must be >= 1, got {top_n}")
        started = time.perf_counter()
        timeout = self.retry.chunk_timeout
        attempts = self.retry.max_retries + 1
        with span("serve.request", ctx=rctx, root=True, user=str(user)) as request:
            ctx = request.ctx
            for attempt in range(attempts):
                job = _ScoreJob(
                    user,
                    top_n,
                    asyncio.get_running_loop().create_future(),
                    started,
                    ctx=ctx,
                )
                await queue.put(job)
                try:
                    if timeout is None:
                        result = await job.future
                    else:
                        result = await asyncio.wait_for(job.future, timeout)
                except asyncio.TimeoutError:
                    job.cancelled = True
                    incr("serve.request_timeouts")
                    _LOG.warning(
                        "recommend(%r) attempt %d/%d timed out after %.1fs",
                        user,
                        attempt + 1,
                        attempts,
                        timeout,
                    )
                except asyncio.CancelledError:
                    job.cancelled = True
                    request.tags.update(outcome="cancelled")
                    raise
                else:
                    request.tags.update(outcome="ok")
                    return result
            request.tags.update(outcome="timeout")
        elapsed = time.perf_counter() - started
        slo_observe(
            "serve.request",
            elapsed,
            ok=False,
            trace_id=ctx.trace_id if ctx is not None else None,
        )
        raise ServingTimeout(
            f"recommend({user!r}) exceeded {timeout}s deadline "
            f"{attempts} time(s)"
        )

    async def ingest(
        self,
        events: "Iterable[Event]",
        *,
        rctx: "TraceContext | None" = None,
    ) -> int:
        """Apply edge events through the worker queue (ordered against
        in-flight scoring); returns how many cached pairs they voided
        (:meth:`ServingRecommender.ingest`).
        ``rctx`` (lint R304) attaches the ingest to an existing trace;
        by default it roots its own."""
        queue = self._require_started()
        ctx = rctx
        if ctx is None and obs_enabled():
            ctx = new_trace()
        job = _IngestJob(
            [(u, v, float(ts)) for u, v, ts in events],
            asyncio.get_running_loop().create_future(),
            ctx=ctx,
        )
        await queue.put(job)
        return await job.future

    def _require_started(self) -> "asyncio.Queue[_ScoreJob | _IngestJob]":
        if self._queue is None or self._worker is None:
            raise RuntimeError(
                "frontend not started — use 'async with' or await start()"
            )
        return self._queue

    # ------------------------------------------------------------------
    # worker
    # ------------------------------------------------------------------
    async def _run(self) -> None:
        queue = self._queue
        assert queue is not None
        while True:
            jobs: list[_ScoreJob | _IngestJob] = [await queue.get()]
            while len(jobs) < self.max_batch and not queue.empty():
                jobs.append(queue.get_nowait())
            # process in arrival order, folding contiguous score runs
            # into single batches; ingest jobs act as barriers
            start = 0
            while start < len(jobs):
                job = jobs[start]
                if isinstance(job, _IngestJob):
                    await self._do_ingest(job)
                    start += 1
                    continue
                stop = start
                while stop < len(jobs) and isinstance(jobs[stop], _ScoreJob):
                    stop += 1
                await self._do_score(
                    [j for j in jobs[start:stop] if isinstance(j, _ScoreJob)]
                )
                start = stop

    async def _do_ingest(self, job: _IngestJob) -> None:
        loop = asyncio.get_running_loop()
        # run_in_executor does not propagate contextvars, so the trace
        # context crosses as an explicit kwarg (lint R304)
        call = partial(self.recommender.ingest, job.events, rctx=job.ctx)
        try:
            dropped = await loop.run_in_executor(None, call)
        except Exception as exc:
            if not job.future.done():
                job.future.set_exception(exc)
            return
        if not job.future.done():
            job.future.set_result(dropped)

    async def _do_score(self, run: list[_ScoreJob]) -> None:
        live = [job for job in run if not job.cancelled and not job.future.done()]
        if not live:
            return
        observe("serve.batch_size", float(len(live)))
        loop = asyncio.get_running_loop()
        queries = [(job.user, job.top_n) for job in live]
        # the batch adopts the first live member's context as its parent
        # (so one trace id reads frontend→batch→extract→worker end to
        # end) and records every member's trace id for flow fan-out
        primary = next((job.ctx for job in live if job.ctx is not None), None)
        member_ids = [job.ctx.trace_id for job in live if job.ctx is not None]
        call = partial(
            self.recommender.recommend_many,
            queries,
            rctx=primary,
            members=member_ids or None,
        )
        try:
            results = await loop.run_in_executor(None, call)
        except Exception as exc:
            for job in live:
                if not job.future.done():
                    job.future.set_exception(exc)
            return
        now = time.perf_counter()
        for job, result in zip(live, results):
            if not job.future.done():
                job.future.set_result(result)
                latency = now - job.started
                observe("serve.request_seconds", latency)
                slo_observe(
                    "serve.request",
                    latency,
                    ok=True,
                    trace_id=job.ctx.trace_id if job.ctx is not None else None,
                )
