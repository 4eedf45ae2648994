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
from repro.serve.delta import DecayedInfluenceIndex, DeltaCSRSnapshot
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


class TestDecayedInfluenceIndex:
    def test_matches_explicit_sum(self):
        index = DecayedInfluenceIndex(theta=0.5)
        stamps = [3.0, 1.0, 7.0, 7.0, 2.0]  # out of order, with a repeat
        for ts in stamps:
            index.observe(0, 1, ts)
        present = 9.0
        expected = sum(math.exp(-0.5 * (present - t)) for t in stamps)
        assert index.node_activity(0, present) == pytest.approx(
            expected, rel=1e-12
        )
        assert index.node_activity(1, present) == index.node_activity(0, present)

    def test_node_activity_sums_links(self):
        index = DecayedInfluenceIndex(theta=0.5)
        index.observe(0, 1, 1.0)
        index.observe(0, 2, 2.0)
        expected = math.exp(-0.5 * 2.0) + math.exp(-0.5 * 1.0)
        assert index.node_activity(0, 3.0) == pytest.approx(expected, rel=1e-12)

    def test_large_timestamps_stay_finite(self):
        """The naive prefix-sum form overflows once theta*t > ~710."""
        index = DecayedInfluenceIndex(theta=0.5)
        for ts in (2_000.0, 2_001.0, 2_002.0):
            index.observe(0, 1, ts)
        value = index.node_activity(0, 2_003.0)
        assert math.isfinite(value)
        expected = sum(math.exp(-0.5 * (2_003.0 - t)) for t in (2000.0, 2001.0, 2002.0))
        assert value == pytest.approx(expected, rel=1e-12)

    def test_most_active_deterministic_ties(self):
        index = DecayedInfluenceIndex(theta=0.5)
        index.observe(5, 9, 1.0)  # nodes 5 and 9 tie exactly
        index.observe(2, 7, 2.0)  # nodes 2 and 7 tie exactly, more recent
        assert index.most_active(3, 3.0) == [2, 7, 5]

    def test_rejects_past_present(self):
        index = DecayedInfluenceIndex()
        index.observe(0, 1, 5.0)
        with pytest.raises(ValueError, match="before the newest stamp"):
            index.node_activity(0, 4.0)


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
