"""Differential tests for the batched multi-pair extraction engine.

The batched CSR driver (:mod:`repro.core.batch`) must be *bit-identical*
to the untouched dict reference over every entry mode, every entry
point, and every pool path — these tests enforce the contract with
randomized networks plus the edge cases the driver special-cases
(empty batches, duplicate pairs, unseen endpoints interleaved with
valid ones).
"""

from __future__ import annotations

import random
import sys
import threading

import numpy as np
import pytest

from repro import obs
from repro.core.feature import ENTRY_MODES, SSFConfig, SSFExtractor
from repro.core.palette_wl import (
    flat_hop_distances,
    palette_wl_order,
    palette_wl_order_many,
)
from repro.core.parallel import parallel_extract_batch
from repro.core.structure import combine_structures
from repro.core.subgraph import h_hop_node_set
from repro.graph.csr import CSRSnapshot
from repro.graph.temporal import DynamicNetwork
from repro.obs.metrics import get_registry


def _random_network(rng: random.Random, n: int, m: int) -> DynamicNetwork:
    links = []
    for _ in range(m):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            links.append((f"n{u}", f"n{v}", float(rng.randint(1, 50))))
    return DynamicNetwork(links)


def _snapshot_ids(snapshot: CSRSnapshot, nodes: set) -> np.ndarray:
    """Sorted snapshot ids of a set of node labels."""
    return np.array(sorted(snapshot.node_id(n) for n in nodes), dtype=np.int64)


def _random_pairs(rng: random.Random, n: int, count: int) -> list:
    pairs = []
    for _ in range(count):
        u, v = rng.randrange(n), rng.randrange(n)
        if u == v:
            v = (v + 1) % n
        pairs.append((f"n{u}", f"n{v}"))
    return pairs


class TestBatchedDifferential:
    """Randomized batched-csr ≡ dict over all six entry modes."""

    @pytest.mark.parametrize("mode", ENTRY_MODES)
    def test_matches_dict_reference(self, mode):
        rng = random.Random(100 + ENTRY_MODES.index(mode))
        for _ in range(2):
            n = rng.randint(20, 60)
            network = _random_network(rng, n, rng.randint(n, n * 3))
            config = SSFConfig(
                k=rng.choice([4, 6, 10]),
                entry_mode=mode,
                ordering=rng.choice(["influence", "hops"]),
                max_hop=rng.choice([None, 2]),
                compress=rng.choice([True, False]),
            )
            pairs = _random_pairs(rng, n, rng.randint(3, 12))
            # unseen endpoint and an exact duplicate, interleaved
            pairs.insert(1, ("missing", "n0"))
            pairs.append(pairs[0])
            ref = SSFExtractor(network, config, backend="dict")
            got = SSFExtractor(network, config, backend="csr")
            assert np.array_equal(
                ref.extract_batch(pairs), got.extract_batch(pairs)
            )

    def test_multi_batch_matches_dict_all_modes(self):
        rng = random.Random(7)
        network = _random_network(rng, 80, 240)
        config = SSFConfig(k=8)
        pairs = _random_pairs(rng, 80, 25)
        pairs.insert(3, ("ghost", "n0"))
        pairs.insert(7, pairs[0])
        ref = SSFExtractor(network, config, backend="dict")
        got = SSFExtractor(network, config, backend="csr")
        expected = ref.extract_multi_batch(pairs, ENTRY_MODES)
        actual = got.extract_multi_batch(pairs, ENTRY_MODES)
        assert set(expected) == set(actual) == set(ENTRY_MODES)
        for mode in ENTRY_MODES:
            assert np.array_equal(expected[mode], actual[mode]), mode

    def test_one_engine_across_many_calls_matches_dict(self):
        """One engine answers successive calls of random sizes: each call
        must stamp its combination rows above every earlier call's, or a
        stale row map would pass off old rows as ball members."""
        rng = random.Random(23)
        n = 70
        network = _random_network(rng, n, 160)
        for hub in range(3):
            for v in rng.sample(range(n), 25):
                if v != hub:
                    network.add_edge(f"n{hub}", f"n{v}", float(rng.randint(1, 50)))
        config = SSFConfig(k=8)
        ref = SSFExtractor(network, config, backend="dict")
        got = SSFExtractor(network, config, backend="csr")
        previous = _random_pairs(rng, n, 5)
        for call in range(14):
            # overlap: endpoints and whole pairs of the previous call recur
            pairs = _random_pairs(rng, n, rng.randint(1, 40))
            pairs[: rng.randint(0, 3)] = previous[:3]
            if call % 3 == 0:
                pairs.insert(rng.randrange(len(pairs) + 1), ("missing", "n1"))
            if call % 4 == 1:
                pairs.append(pairs[0])
            if call % 2:
                expected = ref.extract_multi_batch(pairs, ENTRY_MODES)
                actual = got.extract_multi_batch(pairs, ENTRY_MODES)
                for mode in ENTRY_MODES:
                    assert np.array_equal(expected[mode], actual[mode]), (call, mode)
            else:
                assert np.array_equal(
                    ref.extract_batch(pairs), got.extract_batch(pairs)
                ), call
            previous = pairs

    def test_batched_matches_per_pair_csr(self):
        rng = random.Random(11)
        network = _random_network(rng, 60, 180)
        config = SSFConfig(k=6)
        pairs = _random_pairs(rng, 60, 20)
        extractor = SSFExtractor(network, config, backend="csr")
        single = np.stack([extractor.extract(a, b) for a, b in pairs])
        assert np.array_equal(single, extractor.extract_batch(pairs))

    @pytest.mark.parametrize("budget", [None, 256])
    @pytest.mark.parametrize("cpus", [1, 2])
    def test_wlf_matches_dict_reference(self, cpus, budget, monkeypatch):
        """WLF, the pipeline with Alg. 1 off: csr rows, per pair and
        batched (cut into slabs and parts when the budget is small),
        equal the dict reference's for K = 3..11."""
        from repro.baselines.wlf import WLFExtractor
        from repro.core import batch

        monkeypatch.setattr(batch, "_usable_cpus", lambda: cpus)
        if budget is not None:
            monkeypatch.setattr(batch, "SLAB_ENTRIES", budget)
        split_calls = 0
        run_parts = batch.BatchExtractionEngine._run_parts

        def counting(engine, run, n_parts):
            nonlocal split_calls
            split_calls += 1
            return run_parts(engine, run, n_parts)

        monkeypatch.setattr(batch.BatchExtractionEngine, "_run_parts", counting)
        rng = random.Random(31)
        for k in range(3, 12):
            n = rng.randint(12, 50)
            network = _random_network(rng, n, rng.randint(n, n * 3))
            network.add_node("isolated")
            # a component smaller than K once K > 3
            network.add_edges_from([("t0", "t1", 1.0), ("t1", "t2", 2.0)])
            pairs = _random_pairs(rng, n, rng.randint(8, 20))
            pairs.insert(rng.randrange(len(pairs) + 1), ("missing", "n0"))
            pairs += [pairs[0], pairs[1][::-1]]
            pairs += [("isolated", "n1"), ("t0", "t2"), ("t2", "n0")]
            expected = WLFExtractor(network, k=k, backend="dict").extract_batch(pairs)
            got = WLFExtractor(network, k=k)
            assert got.extract_batch(pairs).tobytes() == expected.tobytes(), k
            single = np.stack([got.extract(a, b) for a, b in pairs])
            assert single.tobytes() == expected.tobytes(), k
        assert (split_calls > 0) == (cpus == 2 and budget is not None)


class TestJoinedStructureLinks:
    """Structure links whose member-level links the engine enumerates as
    all of I × J, checked against the dict reference."""

    @staticmethod
    def _two_group_network() -> DynamicNetwork:
        """{u1, u2} and {v1, v2} are twin groups joined by six links."""
        return DynamicNetwork(
            [
                ("a", "u1", 1.0),
                ("a", "u2", 2.0),
                ("u1", "v1", 3.0),
                ("u1", "v1", 5.0),
                ("u1", "v2", 4.0),
                ("u2", "v1", 3.0),
                ("u2", "v2", 2.0),
                ("u2", "v2", 7.0),
                ("a", "b", 3.0),
                ("b", "w", 4.0),
                ("w", "x", 5.0),
                ("b", "y", 6.0),
            ]
        )

    def test_case_joins_two_multi_member_groups(self):
        network = self._two_group_network()
        sub = combine_structures(
            network, h_hop_node_set(network, "a", "x", 2), "a", "x"
        )
        u = sub.structure_node_of("u1")
        v = sub.structure_node_of("v1")
        assert set(sub.nodes[u].members) == {"u1", "u2"}
        assert set(sub.nodes[v].members) == {"v1", "v2"}
        assert sub.has_structure_link(u, v)
        assert sub.link_count(u, v) == 6

    @pytest.mark.parametrize("ordering", ["influence", "hops"])
    @pytest.mark.parametrize("k", [3, 4, 5, 6, 7])
    def test_two_multi_member_groups_match_dict(self, k, ordering):
        network = self._two_group_network()
        pairs = [("a", "x"), ("x", "a"), ("u1", "v2")]
        for compress in (True, False):
            config = SSFConfig(k=k, ordering=ordering, compress=compress)
            expected = SSFExtractor(network, config, backend="dict").extract_multi_batch(
                pairs, ENTRY_MODES
            )
            actual = SSFExtractor(network, config, backend="csr").extract_multi_batch(
                pairs, ENTRY_MODES
            )
            for mode in ENTRY_MODES:
                assert np.array_equal(expected[mode], actual[mode]), mode

    @pytest.fixture(scope="class")
    def digg(self):
        from repro.datasets.catalog import get_dataset
        from repro.obs.profile import workload_pairs

        network = get_dataset("digg").generate(seed=0, scale=0.5)
        return network, workload_pairs(network, 100, seed=0)

    @pytest.mark.parametrize("ordering", ["influence", "hops"])
    def test_digg_matches_dict(self, digg, ordering):
        """The graph offline-hub measures, at half scale."""
        network, pairs = digg
        config = SSFConfig(k=10, ordering=ordering)
        expected = SSFExtractor(network, config, backend="dict").extract_multi_batch(
            pairs, ENTRY_MODES
        )
        actual = SSFExtractor(network, config, backend="csr").extract_multi_batch(
            pairs, ENTRY_MODES
        )
        for mode in ENTRY_MODES:
            assert np.array_equal(expected[mode], actual[mode]), mode


class TestFootprints:
    """Each row's footprint is the pair's final grown Def. 3 ball."""

    def test_footprint_is_final_grown_ball(self):
        rng = random.Random(61)
        seen = {"reached_k": 0, "exhausted": 0, "cut": 0, "missing": 0}
        for _ in range(8):
            n = rng.randint(20, 60)
            network = _random_network(rng, n, rng.randint(n // 2, n * 3))
            # a 3-node component: its pairs run out of nodes before K
            network.add_edges_from([("t0", "t1", 1.0), ("t1", "t2", 2.0)])
            snapshot = CSRSnapshot.from_dynamic(network)
            config = SSFConfig(
                k=rng.choice([4, 6, 10, 16]),
                ordering=rng.choice(["influence", "hops"]),
                max_hop=rng.choice([None, 2]),
            )
            pairs = _random_pairs(rng, n, rng.randint(3, 12))
            pairs.insert(1, ("missing", "n0"))
            pairs.append(pairs[0])
            pairs.append(("t2", "t0"))
            reference = SSFExtractor(network, config, backend="dict")
            footprints: list = []
            rows = SSFExtractor(snapshot, config, backend="csr").extract_batch(
                pairs, footprints
            )
            plain = SSFExtractor(snapshot, config, backend="csr").extract_batch(pairs)
            assert rows.tobytes() == plain.tobytes()
            assert len(footprints) == len(pairs)
            for (a, b), footprint in zip(pairs, footprints):
                if not (snapshot.has_node(a) and snapshot.has_node(b)):
                    assert footprint.size == 0
                    seen["missing"] += 1
                    continue
                ks = reference.k_structure_subgraph(a, b)
                ball = _snapshot_ids(snapshot, h_hop_node_set(network, a, b, ks.h))
                assert np.array_equal(footprint, ball)
                beyond = h_hop_node_set(network, a, b, ks.h + 1)
                if ks.number_selected() >= config.k:
                    seen["reached_k"] += 1
                elif len(beyond) == ball.size:
                    seen["exhausted"] += 1
                else:
                    assert ks.h == config.max_hop
                    seen["cut"] += 1
        assert all(seen.values()), seen

    def test_batch_extract_reports_the_same_footprints(self):
        """Serving reuses one extractor across batches: a second call on
        the same engine, and an extractor over the unfrozen network,
        report the first call's rows and footprints."""
        rng = random.Random(67)
        network = _random_network(rng, 40, 100)
        snapshot = CSRSnapshot.from_dynamic(network)
        pairs = _random_pairs(rng, 40, 10) + [("ghost", "n1")]
        config = SSFConfig(k=6)
        extractor = SSFExtractor(snapshot, config, backend="csr")
        direct: list = []
        rows = extractor.extract_batch(pairs, direct)
        for again in (extractor, SSFExtractor(network, config, backend="csr")):
            served: list = []
            got = again.extract_batch(pairs, served)
            assert got.tobytes() == rows.tobytes()
            assert [f.tolist() for f in served] == [f.tolist() for f in direct]

    @pytest.mark.parametrize("ordering", ["influence", "hops"])
    def test_mixed_finish_rows_land_at_their_own_positions(self, ordering):
        """One batch whose segments finish in an order unlike their rows:
        at radius 3, 1 and 2, a pair whose component holds fewer than K
        nodes (the separate small-pair combine), a missing end node and a
        duplicate.  Every row and footprint equals the dict reference's
        at its own position."""
        network = DynamicNetwork(
            # path: (p0, p1) reaches K = 5 structure nodes at radius 3
            [(f"p{i}", f"p{i + 1}", float(i + 1)) for i in range(8)]
            # dense: (a, b) reaches them at radius 1, with twins x1, x2
            + [
                ("a", "b", 2.0),
                ("a", "x1", 3.0),
                ("a", "x2", 5.0),
                ("b", "x3", 4.0),
                ("a", "x4", 6.0),
                ("b", "x4", 1.0),
                ("x1", "z", 7.0),
                ("x2", "z", 8.0),
            ]
            # (q0, q1) reaches them at radius 2, with twins q3, q4
            + [
                ("q0", "q1", 1.0),
                ("q1", "q2", 2.0),
                ("q2", "q3", 3.0),
                ("q2", "q4", 4.0),
                ("q0", "q5", 5.0),
            ]
            # a 3-node component
            + [("t0", "t1", 1.0), ("t1", "t2", 2.0)]
        )
        pairs = [
            ("p0", "p1"),
            ("missing", "a"),
            ("a", "b"),
            ("t2", "t0"),
            ("q0", "q1"),
            ("p0", "p1"),
            ("b", "a"),
        ]
        config = SSFConfig(k=5, ordering=ordering)
        reference = SSFExtractor(network, config, backend="dict")
        radii = [
            reference.k_structure_subgraph(a, b).h
            for a, b in pairs
            if (a, b) != ("missing", "a")
        ]
        assert radii == [3, 1, 1, 2, 3, 1]
        assert reference.k_structure_subgraph("t2", "t0").number_selected() < 5

        expected = reference.extract_multi_batch(pairs, ENTRY_MODES)
        engine = SSFExtractor(network, config, backend="csr")
        actual = engine.extract_multi_batch(pairs, ENTRY_MODES)
        for mode in ENTRY_MODES:
            assert np.array_equal(expected[mode], actual[mode]), mode
        footprints: list = []
        rows = engine.extract_batch(pairs, footprints)
        assert np.array_equal(rows, reference.extract_batch(pairs))
        snapshot = engine.snapshot
        for (a, b), footprint in zip(pairs, footprints):
            if a == "missing":
                assert footprint.size == 0
                continue
            h = reference.k_structure_subgraph(a, b).h
            ball = _snapshot_ids(snapshot, h_hop_node_set(network, a, b, h))
            assert np.array_equal(footprint, ball), (a, b)

    def test_dict_backend_refuses_footprints(self):
        network = _random_network(random.Random(71), 10, 20)
        extractor = SSFExtractor(network, SSFConfig(k=4), backend="dict")
        with pytest.raises(ValueError, match="csr"):
            extractor.extract_batch([("n0", "n1")], [])
        with pytest.raises(ValueError, match="csr"):
            extractor.extract_batch([("n0", "n1")], inner=[])


class TestInnerBalls:
    """Each row's inner ball is B_{h-1} for a pair that reached K
    structure nodes at its final radius h, and B_h for a pair whose ball
    stopped growing or hit ``max_hop`` (B_0 is the two end nodes)."""

    @pytest.mark.parametrize("budget", [None, 64])
    def test_inner_ball_matches_a_bfs_reference(self, budget, monkeypatch):
        from repro.core import batch

        if budget is not None:
            monkeypatch.setattr(batch, "SLAB_ENTRIES", budget)
        rng = random.Random(79)
        seen = {"h1": 0, "deeper": 0, "stopped": 0, "cut": 0, "missing": 0}
        for _ in range(10):
            n = rng.randint(20, 60)
            network = _random_network(rng, n, rng.randint(n // 2, n * 3))
            # a 3-node component: its pairs run out of nodes before K
            network.add_edges_from([("t0", "t1", 1.0), ("t1", "t2", 2.0)])
            snapshot = CSRSnapshot.from_dynamic(network)
            config = SSFConfig(
                k=rng.choice([3, 4, 6, 10, 16]),
                ordering=rng.choice(["influence", "hops"]),
                max_hop=rng.choice([None, 1, 2]),
            )
            pairs = _random_pairs(rng, n, rng.randint(3, 12))
            pairs.insert(1, ("missing", "n0"))
            pairs.append(pairs[0])
            pairs.append(("t2", "t0"))
            reference = SSFExtractor(network, config, backend="dict")
            footprints: list = []
            inner: list = []
            rows = SSFExtractor(snapshot, config, backend="csr").extract_batch(
                pairs, footprints, inner
            )
            plain_footprints: list = []
            plain = SSFExtractor(snapshot, config, backend="csr").extract_batch(
                pairs, plain_footprints
            )
            assert rows.tobytes() == plain.tobytes()
            assert [f.tolist() for f in footprints] == [
                f.tolist() for f in plain_footprints
            ]
            assert len(inner) == len(pairs)
            for (a, b), ball in zip(pairs, inner):
                if not (snapshot.has_node(a) and snapshot.has_node(b)):
                    assert ball.size == 0
                    seen["missing"] += 1
                    continue
                ks = reference.k_structure_subgraph(a, b)
                reached = ks.number_selected() >= config.k
                radius = ks.h - 1 if reached else ks.h
                expected = _snapshot_ids(
                    snapshot, h_hop_node_set(network, a, b, radius)
                )
                assert np.array_equal(ball, expected), (a, b, ks.h, reached)
                if reached:
                    seen["h1" if ks.h == 1 else "deeper"] += 1
                elif ks.h == config.max_hop:
                    seen["cut"] += 1
                else:
                    seen["stopped"] += 1
            # batches of one report the same inner balls
            for pair, ball in zip(pairs, inner):
                alone: list = []
                SSFExtractor(snapshot, config, backend="csr").extract_batch(
                    [pair], inner=alone
                )
                assert alone[0].tolist() == ball.tolist(), pair
        assert all(seen.values()), seen


class TestBatchEdgeCases:
    @pytest.fixture(scope="class")
    def tiny(self):
        return DynamicNetwork(
            [("a", "b", 1.0), ("b", "c", 2.0), ("a", "c", 3.0)]
        )

    @pytest.mark.parametrize("backend", ["dict", "csr"])
    def test_empty_batch(self, tiny, backend):
        extractor = SSFExtractor(tiny, SSFConfig(k=3), backend=backend)
        assert extractor.extract_batch([]).shape == (
            0,
            extractor.feature_dim,
        )
        multi = extractor.extract_multi_batch([], ("temporal", "count"))
        assert set(multi) == {"temporal", "count"}
        assert multi["temporal"].shape == (0, extractor.feature_dim)

    @pytest.mark.parametrize("backend", ["dict", "csr"])
    def test_identical_endpoints_raise(self, tiny, backend):
        extractor = SSFExtractor(tiny, SSFConfig(k=3), backend=backend)
        with pytest.raises(ValueError, match="distinct"):
            extractor.extract_batch([("a", "a")])

    @pytest.mark.parametrize("backend", ["dict", "csr"])
    def test_unknown_mode_raises(self, tiny, backend):
        extractor = SSFExtractor(tiny, SSFConfig(k=3), backend=backend)
        with pytest.raises(ValueError, match="unknown entry mode"):
            extractor.extract_multi_batch([("a", "b")], ("bogus",))

    @pytest.mark.parametrize("backend", ["dict", "csr"])
    def test_missing_endpoints_zero_rows(self, tiny, backend):
        extractor = SSFExtractor(tiny, SSFConfig(k=3), backend=backend)
        out = extractor.extract_batch(
            [("a", "b"), ("nope", "b"), ("a", "also-nope"), ("b", "c")]
        )
        assert not out[1].any() and not out[2].any()
        assert np.array_equal(
            out[0], extractor.extract_batch([("a", "b")])[0]
        )

    @pytest.mark.parametrize("backend", ["dict", "csr"])
    def test_duplicate_pairs_identical_rows(self, tiny, backend):
        extractor = SSFExtractor(tiny, SSFConfig(k=3), backend=backend)
        out = extractor.extract_batch([("a", "b"), ("b", "c"), ("a", "b")])
        assert np.array_equal(out[0], out[2])


class TestBatchExtractEntry:
    """``SSFExtractor.extract_batch`` / ``extract_multi_batch`` dispatch
    over every ``backend`` value."""

    def test_backends_agree(self):
        rng = random.Random(23)
        network = _random_network(rng, 40, 120)
        pairs = _random_pairs(rng, 40, 10)

        def rows(backend: str) -> np.ndarray:
            return SSFExtractor(network, SSFConfig(), backend=backend).extract_batch(
                pairs
            )

        ref = rows("dict")
        assert np.array_equal(ref, rows("csr"))

    def test_modes_return_per_mode_dict(self):
        rng = random.Random(29)
        network = _random_network(rng, 30, 90)
        pairs = _random_pairs(rng, 30, 6)
        extractor = SSFExtractor(network, SSFConfig(), backend="csr")
        out = extractor.extract_multi_batch(pairs, ("temporal", "binary"))
        assert set(out) == {"temporal", "binary"}
        single = extractor.extract_batch(pairs)
        assert np.array_equal(out["temporal"], single)


class TestFeatureSpanCount:
    """One ``span.feature.<mode>`` observation per engine call."""

    def _feature_histograms(self, call):
        rng = random.Random(37)
        network = _random_network(rng, 40, 120)
        pairs = _random_pairs(rng, 40, 8)
        extractor = SSFExtractor(
            CSRSnapshot.from_dynamic(network), SSFConfig(k=6), backend="csr"
        )
        get_registry().reset()
        obs.enable()
        try:
            call(extractor, pairs)
            return get_registry().snapshot()["histograms"]
        finally:
            obs.disable()
            get_registry().reset()

    def test_extract_batch_records_one_feature_span(self):
        histograms = self._feature_histograms(
            lambda extractor, pairs: extractor.extract_batch(pairs)
        )
        assert histograms["span.feature.temporal"]["count"] == 1

    def test_multi_batch_records_one_feature_span_per_mode(self):
        histograms = self._feature_histograms(
            lambda extractor, pairs: extractor.extract_multi_batch(
                pairs, ("temporal", "binary")
            )
        )
        assert histograms["span.feature.temporal"]["count"] == 1
        assert histograms["span.feature.binary"]["count"] == 1


class TestStageSpans:
    """The engine's growth and combination spans time disjoint work."""

    def test_growth_and_combination_do_not_overlap(self):
        rng = random.Random(43)
        network = _random_network(rng, 60, 180)
        pairs = _random_pairs(rng, 60, 20)
        extractor = SSFExtractor(
            CSRSnapshot.from_dynamic(network), SSFConfig(k=6), backend="csr"
        )
        obs.drain_span_records()
        obs.enable()
        obs.record_spans(True)
        try:
            extractor.extract_batch(pairs)
            records = obs.drain_span_records()
        finally:
            obs.record_spans(False)
            obs.disable()
            get_registry().reset()

        def total(name: str) -> float:
            return sum(r["dur"] for r in records if r["name"] == name)

        assert not [
            r["path"]
            for r in records
            if "subgraph_growth/structure_combination" in r["path"]
        ]
        growth = total("subgraph_growth")
        combination = total("structure_combination")
        assert growth > 0 and combination > 0
        assert growth + combination <= total("feature.temporal")


class TestSlabs:
    """A call cut into slabs of a few thousand gathered entries returns
    the uncut call's rows, footprints and ball sharing."""

    BUDGET = 2048

    @pytest.fixture(scope="class")
    def case(self):
        rng = random.Random(83)
        network = _random_network(rng, 300, 1500)
        # a hub whose radius-1 ball alone gathers more than the budget
        network.add_edges_from(
            [
                ("hub", f"n{v}", float(rng.randint(1, 50)))
                for v in rng.sample(range(300), 200)
            ]
        )
        # a path (finishes late) and a 3-node component (never reaches K)
        network.add_edges_from([(f"p{i}", f"p{i + 1}", float(i + 1)) for i in range(8)])
        network.add_edges_from([("t0", "t1", 1.0), ("t1", "t2", 2.0)])
        # 9-cliques: their pairs never reach K = 10 and finish together,
        # gathering more than the budget between them
        for c in range(4):
            network.add_edges_from(
                [
                    (f"c{c}_{i}", f"c{c}_{j}", float(1 + (i * j) % 7))
                    for i in range(9)
                    for j in range(i + 1, 9)
                ]
            )
        pairs = _random_pairs(rng, 300, 40)
        pairs += [
            ("hub", "n1"),
            ("missing", "n0"),
            pairs[0],
            pairs[2][::-1],
            ("p0", "p1"),
            ("t2", "t0"),
        ]
        pairs += [(f"c{c}_{i}", f"c{c}_{i + 1}") for c in range(4) for i in range(8)]
        return network, pairs

    def _run(self, network, pairs):
        extractor = SSFExtractor(network, SSFConfig(k=10), backend="csr")
        get_registry().reset()
        obs.enable()
        try:
            multi = extractor.extract_multi_batch(pairs, ENTRY_MODES)
            footprints: list = []
            rows = extractor.extract_batch(pairs, footprints)
            counters = get_registry().snapshot()["counters"]
        finally:
            obs.disable()
            get_registry().reset()
        return multi, rows, footprints, counters, extractor.snapshot

    def test_forced_budget_changes_nothing(self, case, monkeypatch):
        from repro.core import batch

        # one part, so the slab counts compare one serial pipeline
        # (TestParts checks a call cut into parts)
        monkeypatch.setattr(batch, "_usable_cpus", lambda: 1)
        network, pairs = case
        multi, rows, footprints, counters, snapshot = self._run(network, pairs)

        chunks: list = []
        cut = batch.BatchExtractionEngine._chunks

        def recording(engine, pass_pairs, budget):
            parts = cut(engine, pass_pairs, budget)
            assert np.concatenate([part.pairs.rows for part in parts]).tolist() == (
                pass_pairs.rows.tolist()
            )
            chunks.extend(parts)
            return parts

        monkeypatch.setattr(batch, "SLAB_ENTRIES", self.BUDGET)
        monkeypatch.setattr(batch.BatchExtractionEngine, "_chunks", recording)
        slab_multi, slab_rows, slab_footprints, slab_counters, _ = self._run(
            network, pairs
        )

        for mode in ENTRY_MODES:
            assert slab_multi[mode].tobytes() == multi[mode].tobytes(), mode
        assert slab_rows.tobytes() == rows.tobytes()
        assert [f.tolist() for f in slab_footprints] == [f.tolist() for f in footprints]
        # one slab per uncut call; many once cut
        assert counters["batch.slabs"] == 2
        assert slab_counters["batch.slabs"] > 2 * 4
        for chunk in chunks:
            volume = chunk.entries(np.arange(len(chunk.pairs)))
            assert len(chunk.pairs) == 1 or volume <= self.BUDGET

        # the batch covers what slabbing must keep apart
        indptr = snapshot.indptr
        gathers = [int((indptr[f + 1] - indptr[f]).sum()) for f in footprints]
        assert max(gathers) > self.BUDGET
        reference = SSFExtractor(network, SSFConfig(k=10), backend="dict")
        radii = {
            reference.k_structure_subgraph(a, b).h
            for a, b in pairs
            if a != "missing"
        }
        assert len(radii) >= 3, radii
        assert footprints[pairs.index(("missing", "n0"))].size == 0


class TestParts:
    """A call cut into parts that run on threads returns the one-part
    call's rows, footprints and inner balls bit for bit, raises its
    errors, and leaves no thread behind."""

    BUDGET = 2048

    @pytest.fixture(autouse=True)
    def budget(self, monkeypatch):
        from repro.core import batch

        monkeypatch.setattr(batch, "SLAB_ENTRIES", self.BUDGET)

    @pytest.fixture(scope="class")
    def case(self):
        rng = random.Random(89)
        network = _random_network(rng, 200, 900)
        network.add_edges_from(
            [
                ("hub", f"n{v}", float(rng.randint(1, 50)))
                for v in rng.sample(range(200), 120)
            ]
        )
        network.add_edges_from([("t0", "t1", 1.0), ("t1", "t2", 2.0)])
        for c in range(3):
            network.add_edges_from(
                [
                    (f"c{c}_{i}", f"c{c}_{j}", float(1 + (i * j) % 5))
                    for i in range(9)
                    for j in range(i + 1, 9)
                ]
            )
        pairs = _random_pairs(rng, 200, 30)
        pairs += [("hub", "n3"), ("missing", "n0"), pairs[0], pairs[4][::-1]]
        pairs += [("t2", "t0")] + [(f"c{c}_0", f"c{c}_1") for c in range(3)]
        pairs += _random_pairs(rng, 200, 10)
        return network, pairs

    @staticmethod
    def _extractor(network, cpus, monkeypatch):
        from repro.core import batch

        monkeypatch.setattr(batch, "_usable_cpus", lambda: cpus)
        return SSFExtractor(network, SSFConfig(k=10), backend="csr")

    def _extract(self, network, pairs, cpus, monkeypatch):
        extractor = self._extractor(network, cpus, monkeypatch)
        get_registry().reset()
        obs.enable()
        try:
            multi = extractor.extract_multi_batch(pairs, ENTRY_MODES)
            footprints: list = []
            inner: list = []
            rows = extractor.extract_batch(pairs, footprints, inner)
            counters = get_registry().snapshot()["counters"]
        finally:
            obs.disable()
            get_registry().reset()
        return (multi, rows, footprints, inner), counters

    @staticmethod
    def _assert_same(got, expected):
        multi, rows, footprints, inner = got
        for mode in ENTRY_MODES:
            assert multi[mode].tobytes() == expected[0][mode].tobytes(), mode
        assert rows.tobytes() == expected[1].tobytes()
        assert [f.tolist() for f in footprints] == [f.tolist() for f in expected[2]]
        assert [f.tolist() for f in inner] == [f.tolist() for f in expected[3]]

    @pytest.mark.parametrize("cpus", [2, 3])
    def test_parts_equal_the_one_part_call(self, case, cpus, monkeypatch):
        from repro.core import batch

        network, pairs = case
        expected, serial_counters = self._extract(network, pairs, 1, monkeypatch)

        budgets: list = []
        cut = batch.BatchExtractionEngine._chunks

        def recording(engine, pass_pairs, budget):
            budgets.append(budget)
            chunks = cut(engine, pass_pairs, budget)
            for chunk in chunks:
                volume = chunk.entries(np.arange(len(chunk.pairs)))
                assert len(chunk.pairs) == 1 or volume <= budget
            return chunks

        monkeypatch.setattr(batch.BatchExtractionEngine, "_chunks", recording)
        before = set(threading.enumerate())
        got, counters = self._extract(network, pairs, cpus, monkeypatch)
        assert not set(threading.enumerate()) - before

        self._assert_same(got, expected)
        assert serial_counters["batch.parts"] == 0
        # both calls (multi-mode and single-mode) split, one part per CPU,
        # each part cutting its passes at its share of the budget
        assert counters["batch.parts"] == 2 * cpus
        assert set(budgets) == {self.BUDGET // cpus}
        assert counters["batch.slabs"] > serial_counters["batch.slabs"]

    @staticmethod
    def _estimate(snapshot, pairs):
        """The call's h = 1 volume estimate, from its definition: each
        pair's degrees summed over both end nodes' closed
        neighbourhoods."""
        indptr, indices = snapshot.indptr.tolist(), snapshot.indices.tolist()

        def closed(node):
            v = snapshot.node_id(node)
            nbrs = indices[indptr[v] : indptr[v + 1]]
            return len(nbrs) + sum(indptr[x + 1] - indptr[x] for x in nbrs)

        return sum(
            closed(a) + closed(b)
            for a, b in pairs
            if snapshot.has_node(a) and snapshot.has_node(b)
        )

    def _parts_run(self, network, pairs, budget, monkeypatch):
        from repro.core import batch

        monkeypatch.setattr(batch, "SLAB_ENTRIES", budget)
        _, counters = self._extract(network, pairs, 2, monkeypatch)
        return counters["batch.parts"]

    def test_split_rule_keys_on_volume(self, case, monkeypatch):
        """A call splits once its estimate exceeds one part's share of
        the budget, unless its pairs average under a thousandth of it."""
        network, pairs = case
        snapshot = CSRSnapshot.from_dynamic(network)
        total = self._estimate(snapshot, pairs)
        assert self._parts_run(network, pairs, 2 * total, monkeypatch) == 0
        assert self._parts_run(network, pairs, 2 * total - 2, monkeypatch) == 4
        # thin pairs (a 3-node path) pull the mean under SLAB_ENTRIES/1000:
        # at SLAB_ENTRIES = thin_total the mean is thin_total / len(thin)
        thin = pairs + [("t2", "t0")] * 2000
        thin_total = self._estimate(snapshot, thin)
        assert len(thin) > 1000
        assert self._parts_run(network, thin, thin_total, monkeypatch) == 0
        assert self._parts_run(network, pairs, total, monkeypatch) == 4

    def test_many_parts_under_a_short_switch_interval(self, case, monkeypatch):
        """More parts than this host's cores, switching threads every few
        microseconds: a lost or crossed write would move a row."""
        network, pairs = case
        expected, _ = self._extract(network, pairs, 1, monkeypatch)
        extractor = self._extractor(network, 6, monkeypatch)
        results: list = []

        def stress():
            for _ in range(3):
                results.append(extractor.extract_multi_batch(pairs, ENTRY_MODES))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            runner = threading.Thread(target=stress, daemon=True)
            runner.start()
            runner.join(timeout=300)
        finally:
            sys.setswitchinterval(interval)
        assert not runner.is_alive()
        assert len(results) == 3
        for multi in results:
            for mode in ENTRY_MODES:
                assert multi[mode].tobytes() == expected[0][mode].tobytes()

    def test_self_pair_in_the_last_part_raises_the_serial_error(
        self, case, monkeypatch
    ):
        network, pairs = case
        bad = pairs + [("n7", "n7")]
        with pytest.raises(ValueError) as serial:
            self._extractor(network, 1, monkeypatch).extract_batch(bad)
        before = set(threading.enumerate())
        with pytest.raises(ValueError) as split:
            self._extractor(network, 2, monkeypatch).extract_batch(bad)
        assert str(split.value) == str(serial.value)
        assert not set(threading.enumerate()) - before

    def test_an_error_in_a_thread_part_is_raised_after_the_join(
        self, case, monkeypatch
    ):
        from repro.core import batch

        network, pairs = case
        last_row = len(pairs) - 1
        combine = batch.BatchExtractionEngine._combine_many
        failed_on: list = []

        def failing(engine, chunk, arena):
            if last_row in chunk.pairs.rows.tolist():
                failed_on.append(threading.get_ident())
                raise RuntimeError("part failed")
            return combine(engine, chunk, arena)

        monkeypatch.setattr(batch.BatchExtractionEngine, "_combine_many", failing)
        extractor = self._extractor(network, 2, monkeypatch)
        before = set(threading.enumerate())
        with pytest.raises(RuntimeError, match="part failed"):
            extractor.extract_batch(pairs)
        assert not set(threading.enumerate()) - before
        assert failed_on and failed_on[0] != threading.get_ident()

    def test_one_cpu_starts_no_thread(self, case, monkeypatch):
        network, pairs = case
        extractor = self._extractor(network, 1, monkeypatch)

        def refuse(thread):
            raise AssertionError(f"thread {thread.name} started")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        rows = extractor.extract_batch(pairs)
        assert rows.shape == (len(pairs), extractor.feature_dim)

    def test_split_call_stage_spans_share_the_callers_trace(
        self, case, monkeypatch
    ):
        network, pairs = case
        extractor = self._extractor(network, 2, monkeypatch)
        obs.drain_span_records()
        obs.enable()
        obs.record_spans(True)
        try:
            with obs.span("request", root=True) as request:
                extractor.extract_batch(pairs)
            records = obs.drain_span_records()
        finally:
            obs.record_spans(False)
            obs.disable()
            get_registry().reset()
        stages = [
            r
            for r in records
            if r["name"]
            in (
                "subgraph_growth",
                "structure_combination",
                "palette_wl",
                "influence_matrix",
            )
        ]
        assert {r["name"] for r in stages} == {
            "subgraph_growth",
            "structure_combination",
            "palette_wl",
            "influence_matrix",
        }
        assert len({r["tid"] for r in stages}) == 2
        assert {r.get("trace_id") for r in stages} == {request.trace_id}
        assert all(
            r["path"].startswith("request/feature.temporal/") for r in stages
        )

    def test_pool_workers_after_a_split_call_run_one_part(
        self, case, monkeypatch
    ):
        network, pairs = case
        expected = self._extractor(network, 1, monkeypatch).extract_batch(pairs)
        # forked workers inherit both patches: only the engine's own
        # rule keeps them to one part
        split = self._extractor(network, 2, monkeypatch).extract_batch(pairs)
        assert split.tobytes() == expected.tobytes()
        monkeypatch.setenv("REPRO_START_METHOD", "fork")
        before = set(threading.enumerate())
        get_registry().reset()
        obs.enable()
        try:
            pooled = parallel_extract_batch(
                network,
                SSFConfig(k=10),
                pairs,
                workers=2,
                min_pairs=1,
                chunksize=len(pairs) // 2,
            )
            counters = get_registry().snapshot()["counters"]
        finally:
            obs.disable()
            get_registry().reset()
        assert pooled.tobytes() == expected.tobytes()
        assert not set(threading.enumerate()) - before
        # the workers' engine counters reached the parent, none of a part
        assert counters["parallel.pairs_extracted"] == len(pairs)
        assert counters["batch.slabs"] > 0
        assert counters.get("batch.parts", 0) == 0


def _flat_subgraphs(subgraphs):
    """The flat layout of ``palette_wl_order_many`` over structure
    subgraphs: ``(seg_indptr, nbr_indptr, nbr_indices, sort_key)``."""
    sizes = [s.number_of_structure_nodes() for s in subgraphs]
    seg_indptr = np.zeros(len(subgraphs) + 1, dtype=np.int64)
    np.cumsum(sizes, out=seg_indptr[1:])
    degrees, indices = [], []
    for seg, sub in enumerate(subgraphs):
        for i in range(sizes[seg]):
            row = sub.adjacency_sorted(i)
            degrees.append(len(row))
            indices.extend(j + int(seg_indptr[seg]) for j in row)
    nbr_indptr = np.zeros(len(degrees) + 1, dtype=np.int64)
    np.cumsum(np.array(degrees, dtype=np.int64), out=nbr_indptr[1:])

    def sort_key(flat: int):
        seg = int(np.searchsorted(seg_indptr, flat, side="right")) - 1
        return subgraphs[seg].sort_key(flat - int(seg_indptr[seg]))

    return seg_indptr, nbr_indptr, np.array(indices, dtype=np.int64), sort_key


class TestPaletteWLManyParity:
    def test_matches_per_subgraph_reference(self):
        rng = random.Random(41)
        network = _random_network(rng, 50, 150)
        subgraphs = []
        for a, b in _random_pairs(rng, 50, 8):
            nodes = h_hop_node_set(network, a, b, 2)
            if len(nodes) < 2:
                continue
            subgraphs.append(combine_structures(network, nodes, a, b))
        assert subgraphs
        seg_indptr, nbr_indptr, nbr_indices, sort_key = _flat_subgraphs(subgraphs)
        ends = seg_indptr[:-1]
        from_a = flat_hop_distances(nbr_indptr, nbr_indices, ends)
        from_b = flat_hop_distances(nbr_indptr, nbr_indices, ends + 1)
        batched = palette_wl_order_many(
            seg_indptr, nbr_indptr, nbr_indices, from_a, from_b, None, sort_key
        )
        expected = np.concatenate(
            [
                np.asarray(palette_wl_order(sub), dtype=np.int64)
                for sub in subgraphs
            ]
        )
        assert np.array_equal(batched, expected)


class TestRefinementCap:
    """At a refinement cap of 1, 2 or 3 passes, segments still splitting
    stop where the per-subgraph reference stops."""

    @pytest.fixture(params=[1, 2, 3])
    def cap(self, request, monkeypatch):
        from repro.core import palette_wl

        monkeypatch.setattr(palette_wl, "_MAX_ITERATIONS", request.param)
        return request.param

    def test_batched_order_equals_the_reference(self, cap, monkeypatch):
        from repro.core import palette_wl

        still_splitting = 0
        for seed in range(6):
            rng = random.Random(300 + seed)
            n = rng.randint(30, 70)
            network = _random_network(rng, n, rng.randint(2 * n, 4 * n))
            subgraphs = []
            for a, b in _random_pairs(rng, n, 10):
                nodes = h_hop_node_set(network, a, b, rng.choice([1, 2]))
                if len(nodes) >= 2:
                    subgraphs.append(combine_structures(network, nodes, a, b))
            seg_indptr, nbr_indptr, nbr_indices, sort_key = _flat_subgraphs(
                subgraphs
            )
            ends = seg_indptr[:-1]
            batched = palette_wl_order_many(
                seg_indptr,
                nbr_indptr,
                nbr_indices,
                flat_hop_distances(nbr_indptr, nbr_indices, ends),
                flat_hop_distances(nbr_indptr, nbr_indices, ends + 1),
                None,
                sort_key,
            )
            capped = [palette_wl_order(sub) for sub in subgraphs]
            assert batched.tolist() == [o for order in capped for o in order]
            with monkeypatch.context() as uncapped:
                uncapped.setattr(palette_wl, "_MAX_ITERATIONS", 100)
                still_splitting += sum(
                    palette_wl_order(sub) != order
                    for sub, order in zip(subgraphs, capped)
                )
        # the cap cut some segments short while their classes still split
        assert still_splitting > 0

    @pytest.mark.parametrize("mode", ENTRY_MODES)
    def test_engine_equals_dict(self, cap, mode):
        rng = random.Random(400 + ENTRY_MODES.index(mode))
        n = rng.randint(40, 70)
        network = _random_network(rng, n, rng.randint(2 * n, 4 * n))
        config = SSFConfig(
            k=rng.choice([6, 10]),
            entry_mode=mode,
            ordering=rng.choice(["influence", "hops"]),
        )
        pairs = _random_pairs(rng, n, 16)
        ref = SSFExtractor(network, config, backend="dict")
        got = SSFExtractor(network, config, backend="csr")
        assert ref.extract_batch(pairs).tobytes() == got.extract_batch(pairs).tobytes()


class TestCallSizeInvariance:
    """One engine answers a pair list alike as one call, as 1-pair calls
    and as calls of random sizes: rows in every mode, footprints and
    inner balls."""

    @pytest.fixture(scope="class")
    def case(self):
        rng = random.Random(97)
        network = _random_network(rng, 120, 420)
        # a 3-node path: a component smaller than K
        network.add_edges_from([("t0", "t1", 3.0), ("t1", "t2", 5.0)])
        pairs = _random_pairs(rng, 120, 30)
        pairs += [
            pairs[3],  # a duplicate
            pairs[5][::-1],  # a reversed pair
            ("missing", "n4"),  # a missing end node
            ("t0", "t2"),
            ("n7", "t1"),
        ]
        rng.shuffle(pairs)
        return network, pairs

    @staticmethod
    def _splits(pairs, seed):
        rng = random.Random(seed)
        one = [pairs]
        single = [[pair] for pair in pairs]
        sized = []
        start = 0
        while start < len(pairs):
            end = start + rng.randint(1, 9)
            sized.append(pairs[start:end])
            start = end
        return {"one call": one, "1-pair calls": single, "random sizes": sized}

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("max_hop", [None, 1])
    def test_rows_footprints_and_inner_balls(self, case, cpus, max_hop, monkeypatch):
        from repro.core import batch

        monkeypatch.setattr(batch, "_usable_cpus", lambda: cpus)
        network, pairs = case
        extractor = SSFExtractor(network, SSFConfig(k=10, max_hop=max_hop), backend="csr")
        answers = {}
        for name, calls in self._splits(pairs, 5 + cpus).items():
            multi = {mode: [] for mode in ENTRY_MODES}
            rows, footprints, inner = [], [], []
            for call in calls:
                for mode, matrix in extractor.extract_multi_batch(
                    call, ENTRY_MODES
                ).items():
                    multi[mode].append(matrix)
                rows.append(extractor.extract_batch(call, footprints, inner))
            answers[name] = (
                {mode: np.vstack(m).tobytes() for mode, m in multi.items()},
                np.vstack(rows).tobytes(),
                [f.tolist() for f in footprints],
                [b.tolist() for b in inner],
            )
        expected = answers.pop("one call")
        for name, got in answers.items():
            assert got[0] == expected[0], name
            assert got[1:] == expected[1:], name
        # the edge cases are in the list, and the small component's
        # pairs finish on a stopped ball
        footprints = expected[2]
        assert footprints[pairs.index(("missing", "n4"))] == []
        snapshot = extractor.snapshot
        small = {snapshot.node_id(f"t{i}") for i in range(3)}
        assert set(footprints[pairs.index(("t0", "t2"))]) == small


class TestPoolPathDifferential:
    """Batched chunks through fork AND spawn pools ≡ dict reference."""

    @pytest.fixture(scope="class")
    def case(self):
        rng = random.Random(53)
        network = _random_network(rng, 70, 210)
        pairs = _random_pairs(rng, 70, 24)
        config = SSFConfig(k=6)
        reference = SSFExtractor(network, config, backend="dict")
        return network, config, pairs, reference.extract_batch(pairs)

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_pool_matches_dict(self, case, start_method, monkeypatch):
        network, config, pairs, expected = case
        monkeypatch.setenv("REPRO_START_METHOD", start_method)
        out = parallel_extract_batch(
            network,
            config,
            pairs,
            workers=2,
            min_pairs=1,
            backend="csr",
        )
        assert np.array_equal(out, expected)
