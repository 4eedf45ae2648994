"""Integration tests: the instrumented pipeline and its CLI surface.

The key invariant — enforced differentially here — is that observability
NEVER changes numerics: extraction with tracing enabled is bit-identical
to extraction with tracing disabled (the seed behaviour).
"""

import json
import logging

import numpy as np
import pytest

from repro import obs
from repro.cli import main
from repro.core.feature import SSFConfig, SSFExtractor
from repro.datasets.catalog import get_dataset
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import LinkPredictionExperiment
from repro.obs.metrics import get_registry
from repro.obs.profile import (
    STAGE_HISTOGRAMS,
    run_extraction_profile,
    workload_pairs,
)


@pytest.fixture(autouse=True)
def _clean_obs_state():
    # main() calls configure_logging, which installs a handler on the
    # repro root logger and disables propagation; restore the logger so
    # later caplog-based tests still see repro.* records
    root = logging.getLogger("repro")
    saved = (list(root.handlers), root.level, root.propagate)
    obs.disable()
    get_registry().reset()
    yield
    obs.disable()
    get_registry().reset()
    root.handlers[:] = saved[0]
    root.setLevel(saved[1])
    root.propagate = saved[2]


@pytest.fixture(scope="module")
def network():
    return get_dataset("co-author").generate(seed=0, scale=0.15)


@pytest.fixture(scope="module")
def pairs(network):
    return list(network.pair_iter())[:12]


class TestDifferential:
    def test_instrumented_extraction_bit_identical(self, network, pairs):
        extractor = SSFExtractor(network, SSFConfig(k=8))
        baseline = np.stack([extractor.extract(a, b) for a, b in pairs])

        obs.enable()
        instrumented = np.stack([extractor.extract(a, b) for a, b in pairs])
        obs.disable()
        after = np.stack([extractor.extract(a, b) for a, b in pairs])

        np.testing.assert_array_equal(baseline, instrumented)
        np.testing.assert_array_equal(baseline, after)

    def test_multi_mode_bit_identical(self, network, pairs):
        extractor = SSFExtractor(network, SSFConfig(k=8))
        modes = ("temporal", "count")
        baseline = [extractor.extract_multi(a, b, modes) for a, b in pairs]
        obs.enable()
        instrumented = [extractor.extract_multi(a, b, modes) for a, b in pairs]
        for base, inst in zip(baseline, instrumented):
            for mode in modes:
                np.testing.assert_array_equal(base[mode], inst[mode])


class TestStageMetrics:
    def test_all_four_stages_recorded(self, network, pairs):
        obs.enable()
        extractor = SSFExtractor(network, SSFConfig(k=8))
        for a, b in pairs:
            extractor.extract(a, b)
        histograms = get_registry().snapshot()["histograms"]
        for _, key in STAGE_HISTOGRAMS:
            assert histograms[key]["count"] > 0, key
        # ratio metrics ride along with the stage spans
        assert histograms["structure.compression_ratio"]["count"] > 0
        assert histograms["palette_wl.iterations"]["count"] > 0
        assert histograms["subgraph.growth_h"]["count"] == len(pairs)

    def test_disabled_run_records_nothing(self, network, pairs):
        extractor = SSFExtractor(network, SSFConfig(k=8))
        for a, b in pairs:
            extractor.extract(a, b)
        assert get_registry().snapshot()["histograms"] == {}


class TestRunnerCacheCounters:
    def test_hit_and_miss_counters(self, network):
        obs.enable()
        config = ExperimentConfig(epochs=2, max_positives=20, seed=0)
        experiment = LinkPredictionExperiment(network, config)
        experiment.feature_matrices("ssf")     # miss (extracts ssf + ssf_w)
        experiment.feature_matrices("ssf")     # hit
        experiment.feature_matrices("ssf_w")   # hit (shared extraction)
        counters = get_registry().snapshot()["counters"]
        assert counters["runner.feature_cache.misses"] == 1.0
        assert counters["runner.feature_cache.hits"] == 2.0


class TestProfileWorkload:
    def test_workload_is_deterministic(self, network):
        first = workload_pairs(network, 20, seed=3)
        second = workload_pairs(network, 20, seed=3)
        assert first == second
        assert len(first) == 20

    def test_workload_mixes_observed_and_random(self, network):
        pairs = workload_pairs(network, 20, seed=0)
        observed = set(network.pair_iter())

        def is_observed(p):
            return p in observed or (p[1], p[0]) in observed

        flags = [is_observed(p) for p in pairs]
        assert any(flags) and not all(flags)

    def test_report_covers_all_stages(self, network):
        report = run_extraction_profile(
            network, dataset="co-author", k=8, n_pairs=10
        )
        for label in (
            "subgraph growth",
            "structure combination",
            "Palette-WL ordering",
            "influence matrix",
        ):
            assert label in report
        assert "p50 ms" in report and "p95 ms" in report
        assert "compression ratio" in report
        assert "WL iterations" in report

    def test_profile_restores_disabled_state(self, network):
        assert not obs.enabled()
        run_extraction_profile(network, k=8, n_pairs=4)
        assert not obs.enabled()

    def test_profile_times_one_batched_call(self):
        """The profile runs the batched engine once, not per-pair
        ``extract()`` — on a small graph too, where the dict loop once ran."""
        small = get_dataset("co-author").generate(seed=0, scale=0.15)
        assert small.number_of_links() < 4096
        run_extraction_profile(small, k=8, n_pairs=10)
        snapshot = get_registry().snapshot()
        assert snapshot["histograms"]["span.feature.temporal"]["count"] == 1
        assert snapshot["counters"].get("batch.slabs", 0) >= 1


class TestCliObservability:
    def _run(self, capsys, *argv):
        code = main(list(argv))
        assert code == 0
        return capsys.readouterr().out

    def test_profile_command(self, capsys):
        out = self._run(
            capsys,
            "profile",
            "--dataset", "co-author",
            "--scale", "0.15",
            "--pairs", "10",
            "--k", "8",
        )
        assert "SSF extraction profile" in out
        assert "subgraph growth" in out
        assert "influence matrix" in out

    def test_metrics_out_writes_valid_json(self, capsys, tmp_path):
        path = tmp_path / "metrics.json"
        self._run(
            capsys,
            "profile",
            "--dataset", "co-author",
            "--scale", "0.15",
            "--pairs", "8",
            "--k", "8",
            "--metrics-out", str(path),
        )
        snapshot = json.loads(path.read_text())
        assert set(snapshot) == {"counters", "gauges", "histograms"}
        assert snapshot["histograms"]["span.palette_wl"]["count"] > 0

    def test_metrics_out_on_experiment_command(self, capsys, tmp_path):
        path = tmp_path / "metrics.json"
        self._run(
            capsys,
            "table3",
            "--dataset", "co-author",
            "--scale", "0.15",
            "--epochs", "2",
            "--max-positives", "20",
            "--methods", "SSFLR",
            "--metrics-out", str(path),
        )
        snapshot = json.loads(path.read_text())
        assert snapshot["counters"]["runner.feature_cache.misses"] >= 1.0
        assert snapshot["histograms"]["span.structure_combination"]["count"] > 0

    def test_log_flags_accepted_and_diagnostics_off_stdout(self, capsys):
        out = self._run(
            capsys,
            "--log-level", "debug",
            "--log-json",
            "stats",
            "--dataset", "co-author",
            "--scale", "0.1",
        )
        # stdout carries ONLY the command output, never diagnostics
        assert "avg degree" in out
        assert '"level"' not in out

    def test_observability_left_disabled_after_main(self, capsys):
        self._run(
            capsys,
            "profile",
            "--dataset", "co-author",
            "--scale", "0.15",
            "--pairs", "4",
            "--k", "8",
        )
        assert not obs.enabled()
