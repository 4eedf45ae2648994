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


#: (u, c) and (u, d) reach K = 4 structure nodes at h = 1: their inner
#: balls are their end nodes.  m1 and m2 are twins in (u, c)'s ball, n is
#: a neighbour of c three hops from u, and f0–f1 is a separate component.
SQUARE = [
    ("u", "m1", 1.0),
    ("u", "m2", 2.0),
    ("m1", "c", 3.0),
    ("m2", "c", 4.0),
    ("c", "n", 5.0),
    ("m1", "d", 2.0),
    ("f0", "f1", 1.0),
]


def cached_row(core: ServingRecommender, key) -> np.ndarray:
    return core.cache._rows[core.cache._slot_of[key]].copy()


def cold_row(core: ServingRecommender, pair) -> np.ndarray:
    present = core.delta.scoring_time()
    return core.cache._cold_extractor(present).extract_batch([pair])[0]


@pytest.mark.parametrize("partner", ["x", "f0"])
def test_event_off_the_inner_ball_keeps_the_row_and_the_ranking(partner):
    # n lies in (u, c)'s footprint but not in its inner ball, and the
    # event's other end (a new node, or one in another component) lies
    # outside the footprint: the row cannot change
    config = SSFConfig(k=4, theta=0.5)
    core = serving_core(SQUARE, config, global_candidates=0)
    serve(core, "u")
    key = ("'c'", "'u'")
    assert core.cache.stored[key] == ("u", "c")
    before = core.recommend("u", top_n=3)
    clock = core.delta.scoring_time()
    event = ("n", partner, 3.0)  # an existing stamp: the clock stays put
    ingest(core, [event])
    assert core.delta.scoring_time() == clock
    assert core.cache.invalidations == 0
    assert cached_row(core, key).tobytes() == cold_row(core, ("u", "c")).tobytes()
    # the ranked result survives too, and equals a cold instance's
    hits = core.result_hits
    after = core.recommend("u", top_n=3)
    assert core.result_hits == hits + 1
    assert after == before
    cold = serving_core(SQUARE + [event], config, global_candidates=0)
    assert cold.recommend("u", top_n=3) == after


def test_event_joining_a_neighbour_of_each_end_node_drops_the_row():
    config = SSFConfig(k=4, theta=0.5)
    core = serving_core(SQUARE, config, global_candidates=0)
    serve(core, "u")
    key = ("'c'", "'u'")
    # m2 (a neighbour of u) and n (a neighbour of c) each gain a new
    # partner: two events, neither joining two nodes of the footprint
    ingest(core, [("m2", "x1", 3.0), ("n", "x2", 3.0)])
    assert core.cache.invalidations == 0
    checked = core.cache.checked
    serve(core, "u")  # m2 moved u's pool: (u, c) is probed and checked
    assert core.cache.checked > checked
    stored = cached_row(core, key)
    # one event joining m2 and n splits the twins m1, m2 apart
    ingest(core, [("m2", "n", 3.0)])
    assert key not in core.cache._slot_of
    assert core.cache.invalidations == 1
    assert stored.tobytes() != cold_row(core, ("u", "c")).tobytes()
