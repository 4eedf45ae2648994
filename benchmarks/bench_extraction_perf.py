"""Microbenchmarks — the cost of the extraction pipeline stages.

These ARE timing benchmarks (multiple rounds): per-link cost of
Algorithm 1 (structure combination), Algorithm 2 (Palette-WL) and
Algorithm 3 (full SSF extraction), plus the WLF baseline for comparison,
on a mid-size dataset.

A final (non-timing) pass re-runs extraction with observability enabled
and writes the registry snapshot to ``results/extraction_metrics.json``
— the machine-readable per-stage baseline later performance PRs diff
against.

The dict-vs-csr-vs-batched throughput comparison is ``repro bench``
(:func:`repro.obs.bench.run_extraction_bench`).
"""

import json

import pytest

from conftest import RESULTS_DIR, bench_network
from repro import obs
from repro.baselines.wlf import WLFExtractor
from repro.core.feature import SSFConfig, SSFExtractor
from repro.core.palette_wl import palette_wl_order
from repro.core.structure import combine_structures
from repro.core.subgraph import h_hop_node_set


@pytest.fixture(scope="module")
def network():
    return bench_network("co-author")


@pytest.fixture(scope="module")
def sample_pairs(network):
    return list(network.pair_iter())[:20]


def test_perf_structure_combination(benchmark, network, sample_pairs):
    node_sets = [
        (a, b, h_hop_node_set(network, a, b, 1)) for a, b in sample_pairs
    ]

    def run():
        for a, b, nodes in node_sets:
            combine_structures(network, nodes, a, b)

    benchmark(run)


def test_perf_palette_wl(benchmark, network, sample_pairs):
    subgraphs = [
        combine_structures(network, h_hop_node_set(network, a, b, 1), a, b)
        for a, b in sample_pairs
    ]

    def run():
        for subgraph in subgraphs:
            palette_wl_order(subgraph)

    benchmark(run)


def test_perf_ssf_extraction(benchmark, network, sample_pairs):
    extractor = SSFExtractor(network, SSFConfig(k=10), backend="dict")

    def run():
        for a, b in sample_pairs:
            extractor.extract(a, b)

    benchmark(run)


def test_perf_ssf_extraction_csr(benchmark, network, sample_pairs):
    extractor = SSFExtractor(network, SSFConfig(k=10), backend="csr")

    def run():
        for a, b in sample_pairs:
            extractor.extract(a, b)

    benchmark(run)


def test_perf_ssf_multi_mode_shares_extraction(benchmark, network, sample_pairs):
    extractor = SSFExtractor(network, SSFConfig(k=10))

    def run():
        for a, b in sample_pairs:
            extractor.extract_multi(a, b, ("temporal", "count"))

    benchmark(run)


def test_perf_wlf_extraction(benchmark, network, sample_pairs):
    extractor = WLFExtractor(network, k=10)

    def run():
        for a, b in sample_pairs:
            extractor.extract(a, b)

    benchmark(run)


def test_extraction_metrics_snapshot(network, sample_pairs):
    """Emit the machine-readable per-stage baseline (not a timing test).

    Runs last in this module so the instrumented pass cannot perturb the
    timing benchmarks above.
    """
    registry = obs.get_registry()
    obs.enable()
    registry.reset()
    try:
        extractor = SSFExtractor(network, SSFConfig(k=10))
        for a, b in sample_pairs:
            extractor.extract(a, b)
        snapshot = registry.snapshot()
    finally:
        obs.disable()
        registry.reset()

    for stage in (
        "span.subgraph_growth",
        "span.structure_combination",
        "span.palette_wl",
        "span.influence_matrix",
    ):
        assert snapshot["histograms"][stage]["count"] > 0

    def scrub(obj):
        if isinstance(obj, dict):
            return {k: scrub(v) for k, v in obj.items()}
        if isinstance(obj, float) and obj != obj:
            return None
        return obj

    path = RESULTS_DIR / "extraction_metrics.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scrub(snapshot), fh, indent=1, sort_keys=True)
        fh.write("\n")
