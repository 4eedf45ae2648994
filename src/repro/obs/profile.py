"""A parameterized extraction workload with a per-stage profile report.

Backs the ``repro profile`` CLI command: run one batched SSF extraction
(:meth:`~repro.core.feature.SSFExtractor.extract_batch`, the path the
experiment runner and serving take) over a deterministic sample of
target links with observability enabled, then render what the metrics
registry saw — per-stage call counts and p50/p95/max wall times for the
four pipeline stages of Algorithms 1–3 (h-hop subgraph growth, structure
combination, Palette-WL ordering, normalized-influence matrix) plus the
structural ratios (growth depth, compression ratio, WL iterations) that
explain *why* the timings look the way they do.

This is the measurement harness every later performance PR is expected
to quote numbers from.
"""

from __future__ import annotations

import time

from repro.obs.metrics import get_registry
from repro.obs import trace
from repro.utils.rng import ensure_rng

#: (display name, histogram key) for the four extraction stages, in
#: pipeline order — the acceptance surface of the profile table.
STAGE_HISTOGRAMS = (
    ("subgraph growth", "span.subgraph_growth"),
    ("structure combination", "span.structure_combination"),
    ("Palette-WL ordering", "span.palette_wl"),
    ("influence matrix", "span.influence_matrix"),
)


def workload_pairs(network, n_pairs: int, seed: int = 0) -> list:
    """A deterministic profiling workload of ``n_pairs`` target links.

    Half the pairs are observed links spread evenly over the network's
    pair list (dense neighbourhoods, the expensive case); the other half
    are random node pairs (the negative-sample case an experiment run
    spends half its extraction budget on).
    """
    if n_pairs < 1:
        raise ValueError(f"n_pairs must be >= 1, got {n_pairs}")
    observed = list(network.pair_iter())
    rng = ensure_rng(seed)
    n_observed = min(len(observed), (n_pairs + 1) // 2)
    pairs: list = []
    if n_observed:
        stride = max(1, len(observed) // n_observed)
        pairs.extend(observed[::stride][:n_observed])
    nodes = network.nodes
    while len(pairs) < n_pairs and len(nodes) >= 2:
        i, j = rng.integers(len(nodes)), rng.integers(len(nodes))
        if i != j:
            pairs.append((nodes[int(i)], nodes[int(j)]))
    return pairs


def run_extraction_profile(
    network,
    *,
    dataset: str = "network",
    k: int = 10,
    n_pairs: int = 100,
    mode: str = "temporal",
    seed: int = 0,
) -> str:
    """Profile SSF extraction on ``network`` and render the stage table.

    Resets the default registry (instrumentation always records there),
    enables observability for the duration of the workload (restoring
    the previous state afterwards), and returns the report.
    """
    # imported here: repro.core.feature itself imports repro.obs
    from repro.core.feature import SSFConfig, SSFExtractor

    registry = get_registry()
    pairs = workload_pairs(network, n_pairs, seed=seed)
    config = SSFConfig(k=k, entry_mode=mode)
    extractor = SSFExtractor(network, config)

    was_enabled = trace.enabled()
    trace.enable()
    registry.reset()
    started = time.perf_counter()
    try:
        extractor.extract_batch(pairs)
    finally:
        if not was_enabled:
            trace.disable()
    elapsed = time.perf_counter() - started
    return format_profile_report(
        registry.snapshot(),
        dataset=dataset,
        n_pairs=len(pairs),
        k=k,
        mode=mode,
        elapsed=elapsed,
    )


def format_profile_report(
    snapshot: dict,
    *,
    dataset: str,
    n_pairs: int,
    k: int,
    mode: str,
    elapsed: float,
) -> str:
    """Render a registry snapshot as the per-stage profile report."""
    histograms = snapshot.get("histograms", {})
    per_link_ms = 1e3 * elapsed / n_pairs if n_pairs else float("nan")
    lines = [
        f"SSF extraction profile: dataset={dataset}  pairs={n_pairs}  "
        f"k={k}  mode={mode}",
        f"total {elapsed:.3f} s  ({per_link_ms:.2f} ms/link)",
        "",
        f"{'stage':<24}{'calls':>8}{'p50 ms':>10}{'p95 ms':>10}"
        f"{'max ms':>10}{'total s':>10}",
    ]
    for label, key in STAGE_HISTOGRAMS:
        h = histograms.get(key)
        if not h or not h.get("count"):
            lines.append(f"{label:<24}{0:>8}{'-':>10}{'-':>10}{'-':>10}{'-':>10}")
            continue
        lines.append(
            f"{label:<24}{h['count']:>8}"
            f"{1e3 * h['p50']:>10.3f}{1e3 * h['p95']:>10.3f}"
            f"{1e3 * h['max']:>10.3f}{h['sum']:>10.3f}"
        )

    lines.append("")
    lines.append("pipeline ratios")
    growth = histograms.get("subgraph.growth_h")
    if growth and growth.get("count"):
        lines.append(
            f"  h-hop growth depth      p50 {growth['p50']:g}   "
            f"max {growth['max']:g}"
        )
    compression = histograms.get("structure.compression_ratio")
    nodes_in = histograms.get("structure.nodes_in")
    nodes_out = histograms.get("structure.nodes_out")
    if compression and compression.get("count"):
        detail = ""
        if nodes_in and nodes_out:
            detail = (
                f"   (nodes in {nodes_in['mean']:.1f} -> "
                f"structure nodes {nodes_out['mean']:.1f})"
            )
        lines.append(
            f"  compression ratio       mean {compression['mean']:.2f}x{detail}"
        )
    wl = histograms.get("palette_wl.iterations")
    if wl and wl.get("count"):
        lines.append(
            f"  WL iterations           mean {wl['mean']:.2f}   p95 {wl['p95']:g}"
        )
    return "\n".join(lines)
