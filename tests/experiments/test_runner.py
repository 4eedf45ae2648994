"""Tests for the experiment runner (feature cache, method evaluation)."""

import dataclasses

import numpy as np
import pytest

from repro.datasets.catalog import get_dataset
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import LinkPredictionExperiment, run_dataset


@pytest.fixture(scope="module")
def experiment():
    net = get_dataset("co-author").generate(seed=0, scale=0.25)
    return LinkPredictionExperiment(net, ExperimentConfig().fast())


class TestFeatureCache:
    def test_shapes(self, experiment):
        for kind in ("ssf", "ssf_w", "wlf"):
            x_train, x_test = experiment.feature_matrices(kind)
            assert x_train.shape[0] == len(experiment.task.train_pairs)
            assert x_test.shape[0] == len(experiment.task.test_pairs)
            assert x_train.shape[1] == 44  # K=10

    def test_cache_identity(self, experiment):
        first = experiment.feature_matrices("ssf")
        second = experiment.feature_matrices("ssf")
        assert first[0] is second[0]

    def test_ssf_variants_differ(self, experiment):
        ssf = experiment.feature_matrices("ssf")[0]
        ssf_w = experiment.feature_matrices("ssf_w")[0]
        assert not np.allclose(ssf, ssf_w)

    def test_unknown_kind(self, experiment):
        with pytest.raises(ValueError):
            experiment.feature_matrices("bogus")

    def test_wlf_backends_agree_on_one_shared_snapshot(self, experiment, monkeypatch):
        """WLF honours ``backend``: dict and csr matrices are bit-identical,
        and on csr the SSF and WLF passes share one frozen snapshot."""
        from repro.graph.csr import CSRSnapshot

        freezes = []
        freeze = CSRSnapshot.from_dynamic

        def counting(network):
            freezes.append(network)
            return freeze(network)

        monkeypatch.setattr(CSRSnapshot, "from_dynamic", staticmethod(counting))
        matrices = {}
        for backend in ("dict", "csr"):
            config = dataclasses.replace(ExperimentConfig().fast(), backend=backend)
            fresh = LinkPredictionExperiment(
                experiment.network, config, task=experiment.task
            )
            fresh.feature_matrices("ssf")
            matrices[backend] = fresh.feature_matrices("wlf")
        assert freezes == [experiment.task.history]
        for dict_rows, csr_rows in zip(matrices["dict"], matrices["csr"]):
            assert dict_rows.tobytes() == csr_rows.tobytes()


class TestRunMethod:
    @pytest.mark.parametrize("name", ["CN", "Katz", "RW", "NMF"])
    def test_ranking_methods(self, experiment, name):
        result = experiment.run_method(name)
        assert 0.0 <= result.auc <= 1.0
        assert 0.0 <= result.f1 <= 1.0
        assert "threshold" in result.extras

    @pytest.mark.parametrize("name", ["WLLR", "SSFLR", "SSFNM", "SSFNM-W"])
    def test_feature_methods(self, experiment, name):
        result = experiment.run_method(name)
        assert 0.0 <= result.auc <= 1.0
        assert result.method == name

    def test_unknown_method(self, experiment):
        with pytest.raises(KeyError):
            experiment.run_method("bogus")

    def test_run_methods_subset(self, experiment):
        results = experiment.run_methods(["CN", "PA"])
        assert set(results) == {"CN", "PA"}

    def test_better_than_chance(self, experiment):
        """SSFLR must beat chance on an easy synthetic dataset."""
        assert experiment.run_method("SSFLR").auc > 0.6


class TestRunDataset:
    def test_by_name(self):
        results = run_dataset(
            "co-author",
            config=ExperimentConfig().fast(),
            methods=["CN"],
            seed=0,
            scale=0.2,
        )
        assert "CN" in results

    def test_by_network(self, experiment):
        results = run_dataset(
            experiment.network,
            config=ExperimentConfig().fast(),
            methods=["PA"],
        )
        assert "PA" in results

    def test_reproducible(self):
        kwargs = dict(
            config=ExperimentConfig().fast(), methods=["CN"], seed=3, scale=0.2
        )
        r1 = run_dataset("digg", **kwargs)
        r2 = run_dataset("digg", **kwargs)
        assert r1["CN"].auc == r2["CN"].auc
