"""Tests for the link-prediction task construction (Sec. VI-C2)."""

import numpy as np
import pytest

from repro.graph.temporal import DynamicNetwork
from repro.sampling.splits import NetworkTooSmallError, build_link_prediction_task


class TestTaskConstruction:
    def test_history_excludes_last_timestamp(self, small_dataset):
        task = build_link_prediction_task(small_dataset, seed=0)
        assert task.present_time == small_dataset.last_timestamp()
        assert task.history.last_timestamp() < task.present_time

    def test_positives_emerge_at_present(self, small_dataset):
        task = build_link_prediction_task(small_dataset, seed=0)
        for (u, v), label in zip(task.train_pairs, task.train_labels):
            if label == 1:
                stamps = small_dataset.timestamps(u, v)
                assert task.present_time in stamps

    def test_negatives_not_linked_at_present(self, small_dataset):
        task = build_link_prediction_task(small_dataset, seed=0)
        for (u, v), label in zip(
            list(task.train_pairs) + list(task.test_pairs),
            np.concatenate([task.train_labels, task.test_labels]),
        ):
            if label == 0:
                assert task.present_time not in small_dataset.timestamps(u, v)

    def test_negatives_exclude_history_by_default(self, small_dataset):
        task = build_link_prediction_task(small_dataset, seed=0)
        for (u, v), label in zip(task.train_pairs, task.train_labels):
            if label == 0:
                assert not task.history.has_edge(u, v)

    def test_lax_negatives_allowed(self, small_dataset):
        task = build_link_prediction_task(
            small_dataset, seed=0, exclude_history_negatives=False
        )
        assert task.metadata["exclude_history_negatives"] is False

    def test_balanced_classes(self, small_dataset):
        task = build_link_prediction_task(small_dataset, seed=0)
        assert task.train_labels.sum() == len(task.train_labels) - task.train_labels.sum()
        assert task.test_labels.sum() == len(task.test_labels) - task.test_labels.sum()

    def test_train_fraction(self, small_dataset):
        task = build_link_prediction_task(small_dataset, train_fraction=0.7, seed=0)
        n_train_pos = int(task.train_labels.sum())
        n_test_pos = int(task.test_labels.sum())
        observed = n_train_pos / (n_train_pos + n_test_pos)
        assert observed == pytest.approx(0.7, abs=0.05)

    def test_negative_ratio(self, small_dataset):
        task = build_link_prediction_task(small_dataset, negative_ratio=2.0, seed=0)
        n_pos = int(task.train_labels.sum())
        n_neg = len(task.train_labels) - n_pos
        assert n_neg == pytest.approx(2 * n_pos, abs=1)

    def test_max_positives_caps(self, small_dataset):
        task = build_link_prediction_task(small_dataset, max_positives=10, seed=0)
        total_pos = int(task.train_labels.sum() + task.test_labels.sum())
        assert total_pos == 10

    def test_no_duplicate_pairs(self, small_dataset):
        task = build_link_prediction_task(small_dataset, seed=0)
        seen = set()
        for u, v in list(task.train_pairs) + list(task.test_pairs):
            key = frozenset((u, v))
            assert key not in seen
            seen.add(key)

    def test_deterministic(self, small_dataset):
        t1 = build_link_prediction_task(small_dataset, seed=4)
        t2 = build_link_prediction_task(small_dataset, seed=4)
        assert t1.train_pairs == t2.train_pairs
        assert np.array_equal(t1.train_labels, t2.train_labels)

    def test_summary(self, small_dataset):
        summary = build_link_prediction_task(small_dataset, seed=0).summary()
        assert summary["train_positive"] > 0
        assert summary["test_positive"] > 0
        assert summary["history_links"] < small_dataset.number_of_links()


class TestValidation:
    def test_empty_network(self):
        with pytest.raises(ValueError):
            build_link_prediction_task(DynamicNetwork())

    def test_single_positive_rejected(self):
        g = DynamicNetwork([("a", "b", 1), ("c", "d", 1), ("a", "c", 2)])
        with pytest.raises(NetworkTooSmallError, match="positive"):
            build_link_prediction_task(g)

    def test_bad_train_fraction(self, small_dataset):
        with pytest.raises(ValueError):
            build_link_prediction_task(small_dataset, train_fraction=1.0)

    def test_bad_negative_ratio(self, small_dataset):
        with pytest.raises(ValueError):
            build_link_prediction_task(small_dataset, negative_ratio=0)

    def test_too_dense_for_negatives(self):
        # complete multigraph at the last stamp: no room for negatives
        g = DynamicNetwork()
        nodes = list("abc")
        for i, u in enumerate(nodes):
            for v in nodes[i + 1 :]:
                g.add_edge(u, v, 1)
                g.add_edge(u, v, 2)
        with pytest.raises((ValueError, RuntimeError)):
            build_link_prediction_task(g)
