"""Tests for the prequential streaming evaluation."""

import numpy as np
import pytest

from repro.core.feature import SSFConfig
from repro.graph.csr import CSRSnapshot
from repro.streaming import (
    PrequentialResult,
    StreamingSSFPredictor,
    prequential_evaluate,
)


class TestStreamingPredictor:
    def test_observe_builds_history(self):
        predictor = StreamingSSFPredictor(SSFConfig(k=4))
        predictor.observe([("a", "b", 1.0), ("b", "c", 1.0)])
        predictor.observe([("c", "d", 2.0)])
        assert predictor.history.number_of_links() == 3

    def test_rejects_time_regression(self):
        predictor = StreamingSSFPredictor(SSFConfig(k=4))
        predictor.observe([("a", "b", 2.0)])
        with pytest.raises(ValueError, match="advance"):
            predictor.observe([("b", "c", 1.0)])

    def test_rejects_mixed_timestamps(self):
        predictor = StreamingSSFPredictor(SSFConfig(k=4))
        with pytest.raises(ValueError, match="single timestamp"):
            predictor.observe([("a", "b", 1.0), ("b", "c", 2.0)])

    def test_observe_skips_unknown_endpoint_positives(self):
        """Regression: a link whose endpoint first appears with this very
        stamp must not be harvested as a training positive — its features
        are the degenerate empty-history vector, and labelling it 1 while
        negatives come from observed nodes teaches 'degenerate ⇒ 1'."""
        predictor = StreamingSSFPredictor(SSFConfig(k=4), seed=0)
        predictor.observe([("a", "b", 1.0), ("b", "c", 1.0)])
        predictor.observe([("a", "c", 2.0), ("x", "y", 2.0), ("c", "z", 2.0)])
        positives = {
            pair
            for pair, label in zip(
                predictor._window_pairs, predictor._window_labels
            )
            if label == 1
        }
        assert ("a", "c") in positives
        assert ("x", "y") not in positives
        assert ("c", "z") not in positives
        # the new nodes still enter the history for future stamps
        assert predictor.history.has_node("x")
        assert predictor.history.has_node("z")

    def test_scores_zero_before_model_ready(self):
        predictor = StreamingSSFPredictor(SSFConfig(k=4))
        predictor.observe([("a", "b", 1.0)])
        assert not predictor.is_ready
        assert np.allclose(predictor.score([("a", "b")]), 0.0)

    def test_becomes_ready_with_data(self, small_dataset):
        predictor = StreamingSSFPredictor(
            SSFConfig(k=6), refit_every=1, seed=0
        )
        for stamp in sorted(small_dataset.timestamp_set()):
            edges = [
                (u, v, ts) for u, v, ts in small_dataset.edges() if ts == stamp
            ]
            predictor.observe(edges)
        assert predictor.is_ready
        scores = predictor.score(list(small_dataset.pair_iter())[:5])
        assert scores.shape == (5,)

    def test_window_bounded(self, small_dataset):
        predictor = StreamingSSFPredictor(
            SSFConfig(k=5), window_size=40, refit_every=5, seed=0
        )
        for stamp in sorted(small_dataset.timestamp_set()):
            edges = [
                (u, v, ts) for u, v, ts in small_dataset.edges() if ts == stamp
            ]
            predictor.observe(edges)
        assert len(predictor._window_pairs) <= 40

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"model": "bogus"},
            {"refit_every": 0},
            {"window_size": 5},
            {"backend": "auto"},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            StreamingSSFPredictor(SSFConfig(k=4), **kwargs)


class TestPrequentialEvaluate:
    def test_beats_chance_on_easy_stream(self, small_dataset):
        predictor = StreamingSSFPredictor(
            SSFConfig(k=8), model="linear", refit_every=2, seed=0
        )
        result = prequential_evaluate(
            small_dataset, predictor, warmup_fraction=0.5, min_positives=5
        )
        assert len(result.aucs) >= 3
        assert result.mean_auc > 0.6

    def test_warmup_skips_early_stamps(self, small_dataset):
        predictor = StreamingSSFPredictor(SSFConfig(k=6), seed=0)
        result = prequential_evaluate(
            small_dataset, predictor, warmup_fraction=0.8, min_positives=5
        )
        stamps = sorted(small_dataset.timestamp_set())
        cutoff = stamps[int(len(stamps) * 0.8)]
        assert all(t > cutoff for t in result.timestamps)

    def test_validation(self, small_dataset):
        predictor = StreamingSSFPredictor(SSFConfig(k=4))
        with pytest.raises(ValueError):
            prequential_evaluate(small_dataset, predictor, warmup_fraction=1.0)

    def test_empty_result_nan_mean(self):
        assert np.isnan(PrequentialResult().mean_auc)

    def test_summary_counts_windows_and_never_prints_nan(self):
        assert str(PrequentialResult(skipped=[3.0, 4.0])) == (
            "prequential windows: 0 scored, 2 skipped"
        )
        scored = PrequentialResult(timestamps=[5.0], aucs=[0.75], skipped=[4.0])
        assert scored.summary() == "windows: 1 scored, 1 skipped, mean AUC=0.750"


class _ScriptedPredictor:
    """Duck-typed streaming predictor whose per-window quality is scripted.

    Scores the first ``good_windows`` scored windows perfectly (AUC 1.0)
    and inverts every later window (AUC 0.0) — a deterministic quality
    collapse for exercising the drift monitors.
    """

    is_ready = True

    def __init__(self, good_windows=2):
        from repro.graph import DynamicNetwork

        self.history = DynamicNetwork()
        self.good_windows = good_windows
        self.windows_scored = 0
        self._current_positives = set()

    def _new_positive_pairs(self, edges):
        seen, out = set(), []
        for u, v, _ in edges:
            key = frozenset((u, v))
            if key not in seen:
                seen.add(key)
                out.append((u, v))
        self._current_positives = seen
        return out

    def score(self, pairs):
        good = self.windows_scored < self.good_windows
        self.windows_scored += 1
        # drifted windows rank negatives above positives AND compress the
        # score distribution, so auc_drift and score_shift both move
        hit, miss = (1.0, 0.0) if good else (0.0, 0.2)
        return np.array(
            [
                hit if frozenset(p) in self._current_positives else miss
                for p in pairs
            ]
        )

    def observe(self, edges):
        self.history.add_edges_from(edges)


def _drifting_network():
    """Four stamps: a base graph, then three dense waves over its nodes."""
    from repro.graph import DynamicNetwork

    nodes = [f"n{i}" for i in range(12)]
    network = DynamicNetwork()
    for i in range(12):
        network.add_edge(nodes[i], nodes[(i + 1) % 12], 0.0)
    for stamp, offset in ((1.0, 2), (2.0, 3), (3.0, 4)):
        for i in range(6):
            network.add_edge(nodes[i], nodes[(i + offset) % 12], stamp)
    return network


class TestDriftMonitors:
    def _run(self, **kwargs):
        from repro import obs
        from repro.obs.metrics import get_registry

        obs.enable()
        get_registry().reset()
        try:
            result = prequential_evaluate(
                _drifting_network(),
                _ScriptedPredictor(good_windows=2),
                warmup_fraction=0.0,
                min_positives=5,
                seed=0,
                **kwargs,
            )
            snapshot = get_registry().snapshot()
        finally:
            obs.disable()
            get_registry().reset()
        return result, snapshot

    def test_collapse_fires_one_structured_alert(self):
        result, snapshot = self._run(drift_threshold=0.2)
        assert result.aucs == [1.0, 1.0, 0.0]
        assert len(result.alerts) == 1
        alert = result.alerts[0]
        assert alert["timestamp"] == 3.0
        assert alert["auc"] == 0.0
        assert alert["mean_auc"] == 1.0
        assert alert["drift"] == 1.0
        assert alert["threshold"] == 0.2
        assert snapshot["counters"]["stream.drift_alerts"] == 1.0
        assert snapshot["counters"]["obs.alerts.auc_drift"] == 1.0

    def test_gauges_track_the_last_window(self):
        _, snapshot = self._run(drift_threshold=0.2)
        gauges = snapshot["gauges"]
        assert gauges["stream.last_window_auc"] == 0.0
        assert gauges["stream.auc_drift"] == -1.0
        assert gauges["stream.positive_rate"] == 0.5
        assert gauges["stream.score_shift"] < 0
        assert snapshot["counters"]["stream.windows_scored"] == 3.0
        assert snapshot["histograms"]["stream.window_auc"]["count"] == 3

    def test_none_threshold_disables_alerting(self):
        result, snapshot = self._run(drift_threshold=None)
        assert result.aucs == [1.0, 1.0, 0.0]  # scoring is unchanged
        assert result.alerts == []
        assert "stream.drift_alerts" not in snapshot["counters"]

    def test_nonpositive_threshold_rejected(self):
        with pytest.raises(ValueError, match="drift_threshold"):
            prequential_evaluate(
                _drifting_network(),
                _ScriptedPredictor(),
                drift_threshold=-0.5,
            )

    @pytest.mark.parametrize("threshold", [float("nan"), float("inf")])
    def test_non_finite_threshold_rejected(self, threshold):
        """A NaN or an infinity never compares above a drift, so it
        would switch alerting off without a word."""
        with pytest.raises(ValueError, match="drift_threshold"):
            prequential_evaluate(
                _drifting_network(),
                _ScriptedPredictor(),
                drift_threshold=threshold,
            )


class TestNeuralStreamingVariant:
    def test_neural_model_stream(self, small_dataset):
        predictor = StreamingSSFPredictor(
            SSFConfig(k=5),
            model="neural",
            refit_every=5,
            epochs=10,
            seed=0,
        )
        result = prequential_evaluate(
            small_dataset, predictor, warmup_fraction=0.6, min_positives=5
        )
        assert predictor.is_ready
        assert all(0.0 <= auc <= 1.0 for auc in result.aucs)


class TestStreamingOnTheEngine:
    """The default stream runs on the csr engine and equals the dict
    reference bit for bit."""

    @staticmethod
    def _stream(network, **kwargs):
        predictor = StreamingSSFPredictor(
            SSFConfig(k=6), refit_every=2, window_size=10_000, seed=0, **kwargs
        )
        result = prequential_evaluate(
            network, predictor, warmup_fraction=0.5, min_positives=5, seed=0
        )
        return predictor, result

    def test_default_backend_matches_dict_reference(self, small_dataset):
        engine, engine_result = self._stream(small_dataset)
        reference, reference_result = self._stream(small_dataset, backend="dict")
        assert engine.backend == "csr"
        assert engine_result.aucs, "the stream scored no window"
        assert engine_result.timestamps == reference_result.timestamps
        assert engine_result.aucs == reference_result.aucs
        assert engine._window_pairs == reference._window_pairs
        assert np.array_equal(
            np.stack(engine._window_features), np.stack(reference._window_features)
        )

    def test_one_freeze_per_history_state(self, small_dataset, monkeypatch):
        """score() and the observe() of the same stamp read one snapshot:
        the history is frozen again only after observe() changes it."""
        frozen = []
        freeze = CSRSnapshot.from_dynamic.__func__

        def counting(cls, network):
            frozen.append(network.number_of_links())
            return freeze(cls, network)

        monkeypatch.setattr(CSRSnapshot, "from_dynamic", classmethod(counting))
        _, result = self._stream(small_dataset)
        assert result.aucs, "the stream scored no window"
        # the history only grows, so its link count names its state
        assert len(frozen) == len(set(frozen))

    def test_observe_makes_one_engine_call_per_harvested_stamp(
        self, small_dataset, monkeypatch
    ):
        from repro.core.batch import BatchExtractionEngine

        calls = []
        original = BatchExtractionEngine.extract_batch

        def counting(self, pairs, *args, **kwargs):
            calls.append(len(pairs))
            return original(self, pairs, *args, **kwargs)

        monkeypatch.setattr(BatchExtractionEngine, "extract_batch", counting)
        predictor = StreamingSSFPredictor(SSFConfig(k=6), window_size=10_000)
        harvested = 0
        for stamp in sorted(small_dataset.timestamp_set()):
            edges = [e for e in small_dataset.edges() if e[2] == stamp]
            before = len(predictor._window_pairs)
            calls.clear()
            predictor.observe(edges)
            grown = len(predictor._window_pairs) - before
            assert calls == ([grown] if grown else [])
            harvested += grown > 0
        assert harvested > 0
