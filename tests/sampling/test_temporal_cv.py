"""Tests for rolling-origin temporal cross-validation."""

import pytest

from repro.experiments.config import ExperimentConfig
from repro.graph.temporal import DynamicNetwork
from repro.sampling import NetworkTooSmallError
from repro.sampling.temporal_cv import (
    build_temporal_folds,
    cross_validate_method,
)


class TestBuildTemporalFolds:
    def test_folds_predict_distinct_recent_stamps(self, small_dataset):
        folds = build_temporal_folds(small_dataset, n_folds=3, min_positives=5)
        assert 1 <= len(folds) <= 3
        assert folds.prediction_times == sorted(
            folds.prediction_times, reverse=True
        )
        for task, stamp in zip(folds.tasks, folds.prediction_times):
            assert task.present_time == stamp
            assert task.history.last_timestamp() < stamp

    def test_skips_thin_stamps(self):
        g = DynamicNetwork()
        # stamp 10 has many positives, stamp 9 only one pair
        for i in range(12):
            g.add_edge(f"a{i}", f"b{i}", 1)
            g.add_edge(f"a{i}", f"c{i}", 10)
        g.add_edge("a0", "b1", 9)
        folds = build_temporal_folds(g, n_folds=2, min_positives=5)
        assert 9.0 in folds.skipped_times
        assert folds.prediction_times[0] == 10.0

    def test_no_usable_fold_raises(self):
        g = DynamicNetwork([("a", "b", 1), ("c", "d", 2)])
        with pytest.raises(NetworkTooSmallError):
            build_temporal_folds(g, n_folds=2, min_positives=5)

    def test_validation(self, small_dataset):
        with pytest.raises(ValueError):
            build_temporal_folds(small_dataset, n_folds=0)
        with pytest.raises(ValueError):
            build_temporal_folds(small_dataset, min_positives=1)

    def test_seed_varies_by_fold(self, small_dataset):
        folds = build_temporal_folds(
            small_dataset, n_folds=2, min_positives=5, seed=3
        )
        if len(folds) == 2:
            assert folds.tasks[0].train_pairs != folds.tasks[1].train_pairs


class TestCrossValidateMethod:
    def test_aggregates(self, small_dataset):
        result = cross_validate_method(
            small_dataset,
            "CN",
            config=ExperimentConfig().fast(),
            n_folds=2,
            min_positives=5,
        )
        assert result.method == "CN"
        assert len(result.auc_values) >= 1
        assert 0.0 <= result.auc_mean <= 1.0
        assert result.auc_std >= 0.0

    def test_str_contains_mean_and_folds(self, small_dataset):
        result = cross_validate_method(
            small_dataset,
            "PA",
            config=ExperimentConfig().fast(),
            n_folds=2,
            min_positives=5,
        )
        text = str(result)
        assert "PA" in text and "folds" in text
