"""Every row the serving cache returns equals a cold extraction.

:class:`CheckingCache` wraps :class:`FeatureCache` and compares each row
``get`` returns, bit for bit, against a fresh csr extraction of the pair
over a cold rebuild of the network, at the clock of the probe and in the
orientation the row was stored in (the cache keys rows by the unordered
pair, so a row stored while serving ``a`` is checked as ``(a, b)``).
"""

from __future__ import annotations

import ast
import random

import numpy as np
import pytest

from repro import obs
from repro.core.feature import SSFConfig, SSFExtractor
from repro.graph.csr import CSRSnapshot
from repro.graph.temporal import DynamicNetwork
from repro.obs.metrics import get_registry
from repro.serve import DeltaCSRSnapshot, FeatureCache, ServingRecommender


class SumModel:
    """Scores a row by its sum; which pairs get ranked first is beside
    the point here, only which rows the cache serves."""

    def decision_scores(self, rows: np.ndarray) -> np.ndarray:
        return rows.sum(axis=1)


class CheckingCache(FeatureCache):
    """A feature cache that checks every row it serves.

    Set :attr:`serving` to the user whose request is scored next, and
    append every ingested event to :attr:`events`.
    """

    def __init__(self, config: SSFConfig, events: list) -> None:
        super().__init__()
        self.config = config
        self.events = events
        self.serving = None
        self.stored: dict = {}
        self.checked = 0
        self._cold: dict = {}

    def put(self, key, features, *args, **kwargs):
        mine = repr(self.serving)
        other = key[1] if key[0] == mine else key[0]
        self.stored[key] = (self.serving, ast.literal_eval(other))
        super().put(key, features, *args, **kwargs)

    def get(self, key, **kwargs):
        entry = super().get(key, **kwargs)
        if entry is not None:
            pair = self.stored[key]
            expected = self._cold_extractor(kwargs["present_time"]).extract_batch(
                [pair]
            )[0]
            assert entry.features.view(np.uint64).tolist() == (
                expected.view(np.uint64).tolist()
            ), f"stale row served for {pair}"
            self.checked += 1
        return entry

    def _cold_extractor(self, present_time: float) -> SSFExtractor:
        stamp = (len(self.events), present_time)
        if stamp not in self._cold:
            snapshot = CSRSnapshot.from_dynamic(DynamicNetwork(self.events))
            self._cold[stamp] = SSFExtractor(
                snapshot, self.config, present_time=present_time, backend="csr"
            )
        return self._cold[stamp]


def serving_core(events: list, config: SSFConfig, **kwargs) -> ServingRecommender:
    cache = CheckingCache(config, list(events))
    delta = DeltaCSRSnapshot.from_dynamic(DynamicNetwork(events), theta=config.theta)
    return ServingRecommender(delta, SumModel(), config, cache=cache, **kwargs)


def serve(core: ServingRecommender, user: str) -> None:
    core.cache.serving = user
    core.recommend(user, top_n=3)


def ingest(core: ServingRecommender, batch: list) -> None:
    core.ingest(batch)
    core.cache.events.extend(batch)


def random_case(rng: random.Random) -> "tuple[list, list]":
    """A sparse random history and a stream of small ingest batches.

    About half of the streamed events reuse a stamp the history already
    holds, so they leave the serving clock where it was; the rest stamp
    one step past the newest event and move it.  A few bring new nodes.
    """
    n = rng.randint(12, 28)
    history = [(f"n{i}", f"n{i + 1}", float(rng.randint(1, 6))) for i in range(n - 1)]
    for _ in range(rng.randint(n // 3, n)):
        u, v = rng.sample(range(n), 2)
        history.append((f"n{u}", f"n{v}", float(rng.randint(1, 6))))
    last = max(ts for _, _, ts in history)
    batches = []
    for _ in range(6):
        batch = []
        for _ in range(rng.randint(1, 3)):
            u, v = rng.sample(range(n + 2), 2)
            if rng.random() < 0.5:
                stamp = float(rng.randint(1, int(last)))
            else:
                last += 1.0
                stamp = last
            batch.append((f"n{u}", f"n{v}", stamp))
        batches.append(batch)
    return history, batches


@pytest.mark.parametrize("seed", range(4))
def test_served_rows_equal_cold_extractions(seed):
    rng = random.Random(seed)
    history, batches = random_case(rng)
    config = SSFConfig(k=rng.choice([4, 6]), theta=0.5)
    core = serving_core(history, config, global_candidates=3, verify=True)
    checked_after_ingest = 0
    obs.enable()
    try:
        before = get_registry().snapshot()["counters"].get(
            "serve.cache.verify_drops", 0
        )
        for batch in [None] + batches:
            if batch is not None:
                ingest(core, batch)
            checked = core.cache.checked
            users = sorted(
                {u for u, _, _ in core.cache.events}, key=lambda u: int(u[1:])
            )
            for user in rng.sample(users, min(8, len(users))):
                serve(core, user)
            if batch is not None:
                checked_after_ingest += core.cache.checked - checked
        drops = get_registry().snapshot()["counters"].get(
            "serve.cache.verify_drops", 0
        )
    finally:
        obs.disable()
    # verify=True recomputes each hit's footprint fingerprint: exact
    # invalidation means it never finds a changed footprint
    assert drops == before
    assert checked_after_ingest > 0


def test_event_three_hops_out_invalidates_a_row_grown_past_two_hops():
    # a 6-node path plus a separate edge; with K = 10 the pair (p0, p2)
    # exhausts the path at h = 3, so its row depends on p5, three hops
    # from p2 and outside both endpoints' 2-hop balls
    history = [(f"p{i}", f"p{i + 1}", float(i + 1)) for i in range(5)]
    history.append(("q0", "q1", 5.0))
    config = SSFConfig(k=10, theta=0.5)
    core = serving_core(history, config, global_candidates=0)
    serve(core, "p0")
    assert core.cache.stored == {("'p0'", "'p2'"): ("p0", "p2")}
    clock = core.delta.scoring_time()
    # p5 gains a partner: growth from (p0, p2) now passes q0 and q1.
    # Stamp 5.0 already exists, so the serving clock stays put.
    ingest(core, [("p5", "q0", 5.0)])
    assert core.delta.scoring_time() == clock
    serve(core, "p2")  # probes (p2, p0): a stale row fails the check
    assert core.cache.invalidations == 1
