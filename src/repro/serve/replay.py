"""Replay harness — measured serving over a recorded event stream.

``repro serve --replay`` (and the CI serving smoke step) drive this
module: take a temporal network, hold out its tail as live edge events,
fit the offline recommender on the head, then replay the tail through
the async front-end while issuing recommendation requests from a
hot-user pool.  The harness reports sustained recommendations/sec and
exact p50/p95/p99 request latencies (measured around each ``await``,
independent of whether obs collection is enabled), in a result shape
:func:`repro.obs.bench.compare_results` can gate and
:func:`repro.obs.bench.append_history` can record under the
``"serving"`` tag.

The query stream is deliberately head-heavy (weights ``1/(rank+1)``
over the decayed-activity hub pool): production recommendation traffic
concentrates on active users, and that concentration is exactly what
the feature cache is designed to exploit — the replay exercises the
cache hit path, the invalidation path (events land near hot users) and
the batched extraction miss path in realistic proportion.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Hashable

import numpy as np

from repro.core.feature import SSFConfig
from repro.graph.temporal import DynamicNetwork
from repro.obs import get_logger, heartbeat_tick, set_phase, span
from repro.robust.policy import RetryPolicy
from repro.sampling.splits import NetworkTooSmallError
from repro.serve.frontend import (
    DEFAULT_MAX_BATCH,
    AsyncScoringFrontend,
    ServingRecommender,
    ServingTimeout,
)
from repro.utils.rng import ensure_rng

Node = Hashable

_LOG = get_logger("serve.replay")


@dataclass(frozen=True)
class ReplayResult:
    """One replay run's measurements, bench-gate compatible."""

    nodes: int
    links: int
    queries: int
    completed: int
    timeouts: int
    ingested_events: int
    seconds: float
    recommendations_per_second: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    cache_hit_rate: float
    k: int
    seed: int

    def to_bench_result(self) -> dict[str, object]:
        """The ``repro bench --compare`` / history-record shape.

        ``pairs`` carries the query count (the serving unit of work) and
        ``pairs_per_second`` the sustained recommendation rate, so the
        existing throughput gate applies unchanged under the
        ``"serving"`` tag.
        """
        return {
            "nodes": self.nodes,
            "links": self.links,
            "pairs": self.queries,
            "k": self.k,
            "seed": self.seed,
            "tag": "serving",
            "backends": {
                "serving": {
                    "seconds": self.seconds,
                    "pairs_per_second": self.recommendations_per_second,
                    "p50_ms": self.p50_ms,
                    "p95_ms": self.p95_ms,
                    "p99_ms": self.p99_ms,
                    "cache_hit_rate": self.cache_hit_rate,
                    "timeouts": self.timeouts,
                    "ingested_events": self.ingested_events,
                }
            },
        }

    def summary(self) -> str:
        return (
            f"replayed {self.completed}/{self.queries} recommendations over "
            f"{self.nodes} nodes in {self.seconds:.2f}s "
            f"({self.recommendations_per_second:.0f} rec/s) | "
            f"latency p50={self.p50_ms:.2f}ms p95={self.p95_ms:.2f}ms "
            f"p99={self.p99_ms:.2f}ms | cache hit rate "
            f"{self.cache_hit_rate:.1%} | {self.ingested_events} events "
            f"ingested | {self.timeouts} timeouts"
        )


def split_replay_stream(
    network: DynamicNetwork, event_fraction: float = 0.2
) -> "tuple[DynamicNetwork, list[tuple[Node, Node, float]]]":
    """Split a network into (training history, replayable tail events).

    The cut falls on a timestamp boundary so the history is a clean
    observed window: the newest ``event_fraction`` of distinct stamps
    becomes the live stream, replayed in stamp order.
    """
    if not 0.0 < event_fraction < 1.0:
        raise ValueError(
            f"event_fraction must be in (0, 1), got {event_fraction}"
        )
    stamps = sorted(network.timestamp_set())
    if len(stamps) < 2:
        raise NetworkTooSmallError("need at least two distinct timestamps to replay")
    cut_index = max(1, int(round(len(stamps) * (1.0 - event_fraction))))
    cut_index = min(cut_index, len(stamps) - 1)
    cut = stamps[cut_index]
    history = network.slice(stamps[0], cut)
    tail = sorted(
        (edge for edge in network.edges() if edge[2] >= cut),
        key=lambda edge: (edge[2], repr(edge[0]), repr(edge[1])),
    )
    return history, tail


def run_replay(
    network: DynamicNetwork,
    *,
    queries: int = 500,
    concurrency: int = 16,
    top_n: int = 5,
    model: str = "linear",
    config: "SSFConfig | None" = None,
    hot_users: int = 32,
    event_fraction: float = 0.2,
    max_events: int = 200,
    events_per_batch: int = 4,
    max_batch: int = DEFAULT_MAX_BATCH,
    retry: "RetryPolicy | None" = None,
    seed: int = 0,
) -> ReplayResult:
    """Fit on the head of ``network``, replay its tail, measure serving.

    Training happens off the clock; the measured window covers request
    scoring AND event ingestion (with its cache invalidations and
    incremental snapshot merges), because that interleaving is the
    serving workload.
    """
    if queries < 1:
        raise ValueError(f"queries must be >= 1, got {queries}")
    if concurrency < 1:
        raise ValueError(f"concurrency must be >= 1, got {concurrency}")
    if hot_users < 1:
        raise ValueError(f"hot_users must be >= 1, got {hot_users}")
    config = config or SSFConfig()
    set_phase("serve:replay")

    history, tail = split_replay_stream(network, event_fraction)
    if len(tail) > max_events:
        tail = tail[:max_events]
    _LOG.info(
        "replay: fitting on %d nodes / %d links, tail of %d events",
        history.number_of_nodes(),
        history.number_of_links(),
        len(tail),
    )
    with span("serve.replay.fit"):
        core = ServingRecommender.fit(
            history, config=config, model=model, seed=seed
        )
    heartbeat_tick("serve:fit", force=True)

    # head-heavy query stream over the decayed-activity hub pool
    pool = core.delta.most_active(hot_users)
    if not pool:
        raise ValueError("no active users to replay against")
    rng = ensure_rng(seed)
    weights = np.array([1.0 / (rank + 1) for rank in range(len(pool))])
    weights /= weights.sum()
    user_stream = [
        pool[int(i)] for i in rng.choice(len(pool), size=queries, p=weights)
    ]

    # spread ingest batches evenly through the query stream; with more
    # batches than queries the last query admits the rest, in order
    batches = [
        tail[lo : lo + events_per_batch]
        for lo in range(0, len(tail), max(1, events_per_batch))
    ]
    ingest_at: dict[int, list[list[tuple[Node, Node, float]]]] = {}
    if batches:
        stride = max(1, queries // (len(batches) + 1))
        for index, batch in enumerate(batches):
            at = min((index + 1) * stride, queries - 1)
            ingest_at.setdefault(at, []).append(batch)

    latencies: list[float] = []
    timeouts = 0

    async def _one(frontend: AsyncScoringFrontend, user: Node) -> None:
        nonlocal timeouts
        started = time.perf_counter()
        try:
            await frontend.recommend(user, top_n=top_n)
        except ServingTimeout:
            timeouts += 1
            return
        latencies.append(time.perf_counter() - started)

    async def _drive() -> float:
        started = time.perf_counter()
        async with AsyncScoringFrontend(
            core, max_batch=max_batch, retry=retry
        ) as frontend:
            pending: "set[asyncio.Task[object]]" = set()
            for index, user in enumerate(user_stream):
                # each task enqueues its ingest in its first step, so
                # the batches reach the worker in creation order
                for batch in ingest_at.get(index, ()):
                    pending.add(asyncio.create_task(frontend.ingest(batch)))
                pending.add(asyncio.create_task(_one(frontend, user)))
                # one beat per admitted query — rec/s over completed
                # requests plus the live queue depth; the Heartbeat's own
                # min_interval throttles actual file writes
                elapsed = time.perf_counter() - started
                heartbeat_tick(
                    "serve:replay",
                    done=float(index + 1),
                    total=float(queries),
                    pairs_per_second=(
                        len(latencies) / elapsed if elapsed > 0 else None
                    ),
                    extra={"queue_depth": len(pending)},
                )
                if len(pending) >= concurrency:
                    done, pending = await asyncio.wait(
                        pending, return_when=asyncio.FIRST_COMPLETED
                    )
                    for task in done:
                        task.result()  # surface worker exceptions
            if pending:
                await asyncio.gather(*pending)
        return time.perf_counter() - started

    with span("serve.replay.drive", queries=queries):
        seconds = asyncio.run(_drive())
    heartbeat_tick("serve:done", force=True)

    completed = len(latencies)
    if completed:
        lat_ms = np.sort(np.asarray(latencies)) * 1e3
        p50, p95, p99 = (
            float(np.percentile(lat_ms, q)) for q in (50.0, 95.0, 99.0)
        )
    else:
        p50 = p95 = p99 = 0.0
    result = ReplayResult(
        nodes=core.delta.number_of_nodes(),
        links=core.delta.number_of_links(),
        queries=queries,
        completed=completed,
        timeouts=timeouts,
        ingested_events=core.delta.events_applied,
        seconds=seconds,
        recommendations_per_second=completed / seconds if seconds else 0.0,
        p50_ms=p50,
        p95_ms=p95,
        p99_ms=p99,
        cache_hit_rate=core.cache.hit_rate,
        k=config.k,
        seed=seed,
    )
    _LOG.info("%s", result.summary())
    return result
