"""Delta-ingestion correctness: rebuilt ≡ delta, bit for bit.

The serving layer's foundation is that a :class:`DeltaCSRSnapshot`
materialisation is indistinguishable from a full
``CSRSnapshot.from_dynamic`` rebuild — same labels, same four arrays,
same dtypes, same cached influence tables, and therefore bit-identical
SSF features over all six entry modes.
"""

import math

import numpy as np
import pytest

from repro.core.feature import ENTRY_MODES, SSFConfig, SSFExtractor
from repro.graph.csr import CSRSnapshot, hop_ball
from repro.graph.temporal import DynamicNetwork
from repro.serve.delta import DeltaCSRSnapshot
from repro.serve.frontend import ServingRecommender
from repro.utils.rng import ensure_rng


def random_events(n_nodes, n_events, n_ts, seed):
    rng = ensure_rng(seed)
    events = []
    while len(events) < n_events:
        u, v = rng.integers(0, n_nodes, size=2)
        if u == v:
            continue
        events.append((f"n{u}", f"n{v}", float(rng.integers(1, n_ts + 1))))
    return events


def assert_snapshots_identical(actual: CSRSnapshot, expected: CSRSnapshot):
    assert list(actual.labels) == list(expected.labels)
    for field in ("indptr", "indices", "ts_indptr", "ts"):
        got, want = getattr(actual, field), getattr(expected, field)
        assert got.dtype == want.dtype, field
        assert np.array_equal(got, want), field


class TestDeltaBitIdentity:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_matches_full_rebuild(self, seed):
        """Random ingestion schedule with interleaved materializations."""
        rng = ensure_rng(100 + seed)
        events = random_events(30, 200, 20, seed)
        warm = events[:80]
        delta = DeltaCSRSnapshot.from_dynamic(DynamicNetwork(warm))
        network = DynamicNetwork(warm)
        cursor = 80
        while cursor < len(events):
            step = int(rng.integers(1, 6))
            batch = events[cursor : cursor + step]
            delta.apply(batch)
            for u, v, ts in batch:
                network.add_edge(u, v, ts)
            cursor += step
            if rng.random() < 0.3:
                assert_snapshots_identical(
                    delta.snapshot(), CSRSnapshot.from_dynamic(network)
                )
        assert_snapshots_identical(
            delta.snapshot(), CSRSnapshot.from_dynamic(network)
        )

    def test_from_empty(self):
        events = random_events(12, 60, 8, seed=7)
        delta = DeltaCSRSnapshot()
        delta.apply(events)
        assert_snapshots_identical(
            delta.snapshot(), CSRSnapshot.from_dynamic(DynamicNetwork(events))
        )

    def test_dense_multilinks(self):
        """Few nodes, many events: repeated stamps on the same pairs."""
        events = random_events(6, 150, 4, seed=3)
        delta = DeltaCSRSnapshot.from_dynamic(DynamicNetwork(events[:50]))
        delta.apply(events[50:])
        network = DynamicNetwork(events)
        assert_snapshots_identical(
            delta.snapshot(), CSRSnapshot.from_dynamic(network)
        )

    def test_new_nodes_mid_stream(self):
        """Nodes unseen at seed time get rows in first-seen order."""
        warm = [("a", "b", 1.0), ("b", "c", 2.0)]
        delta = DeltaCSRSnapshot.from_dynamic(DynamicNetwork(warm))
        late = [("z", "a", 3.0), ("q", "z", 3.0), ("c", "q", 4.0)]
        delta.apply(late)
        expected = DynamicNetwork(warm + late)
        assert_snapshots_identical(
            delta.snapshot(), CSRSnapshot.from_dynamic(expected)
        )
        assert list(delta.snapshot().labels) == expected.nodes

    @pytest.mark.parametrize("mode", ENTRY_MODES)
    def test_features_identical_all_modes(self, mode):
        """The downstream guarantee: same features on every entry mode."""
        events = random_events(25, 160, 15, seed=11)
        delta = DeltaCSRSnapshot.from_dynamic(DynamicNetwork(events[:100]))
        delta.apply(events[100:130])
        delta.snapshot()  # intermediate materialisation
        delta.apply(events[130:])
        network = DynamicNetwork(events)

        config = SSFConfig(k=6, entry_mode=mode)
        rebuilt = SSFExtractor(
            CSRSnapshot.from_dynamic(network), config, present_time=100.0
        )
        incremental = SSFExtractor(delta.snapshot(), config, present_time=100.0)
        pairs = [("n0", "n5"), ("n3", "n9"), ("n1", "n20"), ("n7", "n12")]
        assert np.array_equal(
            rebuilt.extract_batch(pairs), incremental.extract_batch(pairs)
        )


def reference_activity(events, present, theta):
    """Per label: the sum of ``math.exp(-θ·(present − t))`` over its
    incident stamps, each event counted once at each end."""
    activity = {}
    for u, v, t in events:
        decayed = math.exp(-theta * (present - t))
        for node in (u, v):
            activity[node] = activity.get(node, 0.0) + decayed
    return activity


def snapshot_activity(delta, theta):
    """Per label: the current snapshot's influence table summed over
    the node's row, at the delta's serving clock."""
    snap = delta.snapshot()
    table = snap.influence_table(delta.scoring_time(), theta)
    return {
        snap.labels[u]: float(
            table[snap.ts_indptr[snap.indptr[u]] : snap.ts_indptr[snap.indptr[u + 1]]].sum()
        )
        for u in range(snap.number_of_nodes())
        if snap.indptr[u + 1] > snap.indptr[u]
    }


def close(a, b):
    return abs(a - b) <= 1e-12 * max(abs(a), abs(b))


class TestHubActivity:
    """``most_active`` ranks every linked node by the snapshot's own
    Eq. 2 table summed over its incident links, highest first, ties
    by node id."""

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_reference_sum(self, seed):
        theta = 0.3
        history = random_events(12, 40, 6, seed)
        delta = DeltaCSRSnapshot.from_dynamic(DynamicNetwork(history), theta=theta)
        seen = list(history)
        isolated = []
        checked_pending = set()
        for step in range(10):
            # later batches bring new nodes; pending batches accumulate
            # until a merge or a ranking
            batch = random_events(12 + 3 * step, 5, 6 + step, 1000 * seed + step)
            delta.apply(batch)
            seen.extend(batch)
            if step % 4 == 1:
                delta.snapshot()
            if step % 3 == 0:
                isolated.append(f"lonely{step}")
                delta.ensure_node(isolated[-1])
            if step % 3 == 2:
                continue
            checked_pending.add(delta.pending_events > 0)
            reference = reference_activity(seen, delta.scoring_time(), theta)
            got = delta.most_active(delta.number_of_nodes() + 5)
            assert delta.pending_events == 0
            assert sorted(got) == sorted(reference)
            assert not set(isolated) & set(got)
            for label, value in snapshot_activity(delta, theta).items():
                assert close(value, reference[label])
            expected = sorted(
                reference, key=lambda n: (-reference[n], delta.node_id(n))
            )
            for ours, theirs in zip(got, expected):
                assert ours == theirs or close(reference[ours], reference[theirs])
            for count in (1, 3, 20):
                assert delta.most_active(count) == got[:count]
        assert checked_pending == {True, False}

    def test_exact_ties_in_id_order(self):
        delta = DeltaCSRSnapshot(theta=0.5)
        # ids follow first sight: z=0, y=1, x=2, w=3, v=4, u=5
        delta.apply([("z", "y", 1.0), ("x", "w", 1.0), ("v", "u", 2.0)])
        delta.snapshot()
        delta.apply([("z", "y", 3.0), ("x", "w", 3.0)])  # left pending
        assert delta.most_active(6) == ["z", "y", "x", "w", "v", "u"]
        assert delta.most_active(3) == ["z", "y", "x"]

    def test_large_timestamps_stay_finite(self):
        """A prefix-sum form ``Σ exp(θ·t)`` overflows once θ·t > ~710."""
        events = [("a", "b", t) for t in (2_000.0, 2_001.0, 2_002.0)]
        events.append(("b", "c", 1_999.5))
        delta = DeltaCSRSnapshot(theta=0.5)
        delta.apply(events)
        reference = reference_activity(events, delta.scoring_time(), 0.5)
        for label, value in snapshot_activity(delta, 0.5).items():
            assert math.isfinite(value) and close(value, reference[label])
        assert delta.most_active(3) == ["b", "a", "c"]

    @pytest.mark.parametrize("theta", [0.0, 1.5, float("nan")])
    def test_theta_checked_at_construction(self, theta):
        with pytest.raises(ValueError, match="theta"):
            DeltaCSRSnapshot(theta=theta)
        with pytest.raises(ValueError, match="theta"):
            DeltaCSRSnapshot.from_dynamic(DynamicNetwork([("a", "b", 1.0)]), theta=theta)

    def test_empty_and_zero_count(self):
        delta = DeltaCSRSnapshot()
        delta.ensure_node("alone")
        assert delta.most_active(5) == []
        delta.apply([("a", "b", 1.0)])
        assert delta.most_active(0) == []
        assert delta.pending_events == 1

    def test_serving_shares_one_influence_table(self):
        """The hub ranking reads the table the engine reads at the same
        clock, so a served snapshot holds exactly one."""
        network = DynamicNetwork(random_events(20, 90, 8, 3))
        serving = ServingRecommender.fit(network, config=SSFConfig(k=5), seed=0)
        serving.ingest([("n1", "n7", 9.0), ("n4", "new", 9.0)])
        serving.recommend_many([("n1", 5), ("n4", 5), ("new", 5)])
        snapshot = serving.delta.snapshot()
        assert list(snapshot._influence_tables) == [
            (serving.delta.scoring_time(), serving.config.theta)
        ]


class TestIngestValidation:
    def test_rejects_self_loop(self):
        delta = DeltaCSRSnapshot()
        with pytest.raises(ValueError, match="self-loop"):
            delta.apply([("a", "a", 1.0)])

    def test_rejects_non_finite(self):
        delta = DeltaCSRSnapshot()
        with pytest.raises(ValueError, match="finite"):
            delta.apply([("a", "b", float("nan"))])

    @pytest.mark.parametrize(
        "bad, error",
        [
            (("x", "x", 2.0), ValueError),
            (("x", "y", float("inf")), ValueError),
            ((["x"], "y", 2.0), TypeError),
        ],
    )
    def test_rejected_batch_applies_nothing(self, bad, error):
        delta = DeltaCSRSnapshot()
        delta.apply([("a", "b", 1.0)])
        delta.snapshot()
        with pytest.raises(error):
            delta.apply([("a", "c", 2.0), bad])
        assert delta.pending_events == 0
        assert delta.events_applied == 1
        assert delta.number_of_nodes() == 2
        assert delta.last_timestamp() == 1.0
        assert delta.most_active(5) == ["a", "b"]

    def test_scoring_time_uses_median_gap(self):
        delta = DeltaCSRSnapshot()
        delta.apply([("a", "b", 10.0), ("b", "c", 20.0), ("a", "c", 30.0)])
        assert delta.scoring_time() == 40.0  # last + median gap (10.0)

    def test_returned_snapshot_immutable(self):
        delta = DeltaCSRSnapshot()
        delta.apply([("a", "b", 1.0)])
        first = delta.snapshot()
        ts_before = first.ts.copy()
        delta.apply([("a", "b", 0.5), ("c", "a", 2.0)])
        delta.snapshot()
        assert np.array_equal(first.ts, ts_before)


class TestHopBall:
    def test_matches_bfs_reference(self):
        events = random_events(15, 40, 5, seed=9)
        network = DynamicNetwork(events)
        network.add_node("isolated")
        snapshot = CSRSnapshot.from_dynamic(network)
        for start in network.nodes:
            # dict-side BFS reference, one hop at a time
            frontier, seen = {start}, {start}
            for hops in range(4):
                expected = sorted(snapshot.node_id(n) for n in seen)
                got = hop_ball(snapshot, snapshot.node_id(start), hops)
                assert got.dtype == np.int64
                assert got.tolist() == expected, (start, hops)
                nxt = set()
                for node in frontier:
                    for nb in network.neighbors(node):
                        if nb not in seen:
                            seen.add(nb)
                            nxt.add(nb)
                frontier = nxt
        assert hop_ball(snapshot, snapshot.node_id("isolated"), 3).tolist() == [
            snapshot.node_id("isolated")
        ]

    def test_zero_hops(self):
        snapshot = CSRSnapshot.from_dynamic(DynamicNetwork([("a", "b", 1.0)]))
        assert hop_ball(snapshot, 0, 0).tolist() == [0]
