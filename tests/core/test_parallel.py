"""Tests for multiprocess feature extraction (determinism + fallbacks)."""

import numpy as np
import pytest

from repro.core.feature import SSFConfig, SSFExtractor
from repro.core.parallel import (
    MIN_PAIRS_FOR_POOL,
    min_pairs_for_pool,
    parallel_extract_batch,
)
from repro.graph.csr import CSRSnapshot


@pytest.fixture(scope="module")
def case():
    from repro.datasets.catalog import get_dataset
    from repro.sampling.splits import build_link_prediction_task

    network = get_dataset("co-author").generate(seed=0, scale=0.25)
    task = build_link_prediction_task(network, max_positives=60, seed=0)
    return task.history, task.present_time, list(task.train_pairs)


class TestSequentialPath:
    def test_matches_extractor(self, case):
        history, present, pairs = case
        config = SSFConfig(k=6)
        via_parallel = parallel_extract_batch(
            history, config, pairs, present_time=present, workers=1
        )
        direct = SSFExtractor(history, config, present_time=present).extract_batch(
            pairs
        )
        assert np.array_equal(via_parallel, direct)

    def test_small_batch_never_pools(self, case):
        history, present, pairs = case
        few = pairs[: MIN_PAIRS_FOR_POOL - 1]
        out = parallel_extract_batch(
            history, SSFConfig(k=6), few, present_time=present, workers=8
        )
        assert out.shape[0] == len(few)

    def test_empty_batch(self, case):
        history, present, _ = case
        out = parallel_extract_batch(
            history, SSFConfig(k=6), [], present_time=present, workers=2
        )
        assert out.shape == (0, SSFConfig(k=6).feature_dim)

    def test_multi_mode_shapes(self, case):
        history, present, pairs = case
        out = parallel_extract_batch(
            history,
            SSFConfig(k=6),
            pairs[:10],
            present_time=present,
            modes=("temporal", "count"),
            workers=1,
        )
        assert set(out) == {"temporal", "count"}
        assert out["temporal"].shape == (10, SSFConfig(k=6).feature_dim)


class TestPooledPath:
    def test_workers_bit_identical(self, case):
        history, present, pairs = case
        config = SSFConfig(k=6)
        sequential = parallel_extract_batch(
            history, config, pairs, present_time=present, workers=1
        )
        pooled = parallel_extract_batch(
            history, config, pairs, present_time=present, workers=2
        )
        assert np.array_equal(sequential, pooled)

    def test_workers_multi_mode_identical(self, case):
        history, present, pairs = case
        config = SSFConfig(k=6)
        kwargs = dict(present_time=present, modes=("temporal", "count"))
        sequential = parallel_extract_batch(
            history, config, pairs, workers=1, **kwargs
        )
        pooled = parallel_extract_batch(
            history, config, pairs, workers=2, **kwargs
        )
        for mode in sequential:
            assert np.array_equal(sequential[mode], pooled[mode])


class TestCsrBackend:
    def test_csr_pool_bit_identical(self, case):
        history, present, pairs = case
        config = SSFConfig(k=6)
        sequential = parallel_extract_batch(
            history, config, pairs, present_time=present, workers=1, backend="dict"
        )
        pooled = parallel_extract_batch(
            history, config, pairs, present_time=present, workers=2, backend="csr"
        )
        assert np.array_equal(sequential, pooled)

    def test_prebuilt_snapshot_reused(self, case):
        history, present, pairs = case
        config = SSFConfig(k=6)
        snapshot = CSRSnapshot.from_dynamic(history)
        sequential = parallel_extract_batch(
            history, config, pairs, present_time=present, workers=1, backend="dict"
        )
        pooled = parallel_extract_batch(
            snapshot, config, pairs, present_time=present, workers=2
        )
        assert np.array_equal(sequential, pooled)

    def test_csr_multi_mode_identical(self, case):
        history, present, pairs = case
        config = SSFConfig(k=6)
        kwargs = dict(present_time=present, modes=("temporal", "count"))
        sequential = parallel_extract_batch(
            history, config, pairs, workers=1, backend="dict", **kwargs
        )
        pooled = parallel_extract_batch(
            history, config, pairs, workers=2, backend="csr", **kwargs
        )
        for mode in sequential:
            assert np.array_equal(sequential[mode], pooled[mode])


class TestPoolThresholds:
    def test_min_pairs_override(self, case):
        history, present, pairs = case
        config = SSFConfig(k=6)
        few = pairs[:10]
        sequential = parallel_extract_batch(
            history, config, few, present_time=present, workers=1
        )
        pooled = parallel_extract_batch(
            history,
            config,
            few,
            present_time=present,
            workers=2,
            min_pairs=4,
            chunksize=2,
        )
        assert np.array_equal(sequential, pooled)

    def test_env_override(self):
        assert min_pairs_for_pool() == MIN_PAIRS_FOR_POOL
        assert min_pairs_for_pool(99) == 99

    def test_negative_override_rejected(self):
        with pytest.raises(ValueError):
            min_pairs_for_pool(-1)


class TestConfigIntegration:
    def test_n_jobs_threads_through_runner(self, case):
        from repro.experiments.config import ExperimentConfig

        with pytest.raises(ValueError):
            ExperimentConfig(n_jobs=0)
        assert ExperimentConfig(n_jobs=2).n_jobs == 2

    def test_backend_validated(self):
        from repro.experiments.config import ExperimentConfig

        with pytest.raises(ValueError):
            ExperimentConfig(backend="sparse")
        with pytest.raises(ValueError):
            ExperimentConfig(backend="auto")
        assert ExperimentConfig(backend="csr").backend == "csr"
        assert ExperimentConfig().backend == "csr"

    def test_dict_backend_rejects_worker_processes(self):
        from repro.experiments.config import ExperimentConfig

        with pytest.raises(ValueError, match="n_jobs=2"):
            ExperimentConfig(backend="dict", n_jobs=2)
        assert ExperimentConfig(backend="dict", n_jobs=1).n_jobs == 1


class TestDictIsInProcessOnly:
    @pytest.mark.parametrize("n_pairs", [0, 10])
    def test_dict_with_workers_raises(self, case, n_pairs):
        history, present, pairs = case
        with pytest.raises(ValueError, match="backend='dict'.*workers=2"):
            parallel_extract_batch(
                history,
                SSFConfig(k=6),
                pairs[:n_pairs],
                present_time=present,
                workers=2,
                min_pairs=1,
                backend="dict",
            )
