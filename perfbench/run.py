"""Run one benchmark workload and print its metrics as one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload offline-hub --seed 0 --seconds 40 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced run.  ``--trace 1``
runs the workload twice in one process, untraced and then with every layer
wrapped, prints the per-layer metrics of the traced run and writes its spans
to ``perfbench/out/trace-<workload>.npz``.  The last line of standard output
is the result; the line before it holds the environment stamp, the work
counts and the check notes.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"

# set-ups per untraced run; setup_s is their median
SETUPS = 5

END_TO_END_UNITS = {
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


# units of the per-layer metrics (the traced run's output)
LAYER_UNITS = {
    name: (
        "ms" if name.endswith("_ms") or "_ms_" in name
        else "s" if name.endswith("_s")
        else "ratio" if name.endswith(("_ratio", "_frac"))
        else "count"
    )
    for name in (
        "runner.passes", "runner.pass_s", "csr.freeze_s", "batch.calls", "batch.pairs",
        "batch.pairs_per_call_p50", "batch.busy_s", "batch.self_s", "palette_wl.order_s",
        "palette_wl.distances_s", "model.fit_s", "model.score_s", "delta.seed_s",
        "delta.events", "delta.apply_s", "delta.merges", "delta.merge_s", "cache.hits",
        "cache.misses", "cache.hit_ratio", "cache.get_s", "cache.puts", "cache.put_s",
        "cache.invalidated", "cache.invalidate_s", "cache.evictions", "recommender.batches",
        "recommender.users_per_batch_p50", "recommender.memo_hits", "recommender.memo_misses",
        "recommender.memo_hit_ratio", "recommender.self_s", "recommender.candidates_s",
        "recommender.ingest_s", "frontend.requests", "frontend.queue_wait_ms_p50",
        "frontend.queue_wait_ms_p99", "frontend.timeouts", "trace.window_s",
        "trace.overhead_frac",
    )
}


def parse_args(argv: "list[str] | None") -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def environment_error() -> "str | None":
    """Why this process may not run the benchmark, or ``None``."""
    pinned = sorted(key for key in os.environ if key.startswith("REPRO_"))
    if pinned:
        return f"refusing to run with {', '.join(pinned)} set: REPRO_* variables change the work"
    if not (SRC / "repro" / "__init__.py").is_file():
        return f"no program source at {SRC}"
    return None


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    layers: tuple,
    setups: int,
    checks: bool,
    scale: float = 1.0,
):
    """Set up ``setups`` times, run the window on the last set-up, check it.

    ``scale`` shrinks the catalog network (the benchmark's own tests use it).
    Returns the workload, its tracer, and each set-up's seconds.
    """
    from tracing import Tracer
    from workloads import WORKLOADS

    tracer = Tracer(layers)
    setup_s = []
    with tracer:
        for _ in range(setups):
            workload = None
            gc.collect()  # the previous set-up's garbage must not count
            workload = WORKLOADS[name](seed, seconds, scale)
            started = time.perf_counter()
            workload.setup()
            setup_s.append(time.perf_counter() - started)
        gc.collect()
        tracer.set_phase("window")
        workload.run_window()
        tracer.set_phase("check")
        if checks:
            workload.check()
    return workload, tracer, setup_s


def work_counts(workload, tracer) -> "dict[str, int]":
    """The window's work, from the program's counters and the count spans."""
    stats = tracer.layer_stats("window")
    extract = stats.get("batch.extract", {})
    counts = {
        "engine_calls": int(extract.get("calls", 0)),
        "engine_pairs": int(extract.get("size", 0)),
        "delta_merges": int(stats.get("delta.snapshot", {}).get("calls", 0)),
    }
    counts.update(workload.counts())
    return counts


def end_to_end(workload, setup_s: "list[float]") -> "dict[str, float]":
    import numpy as np

    latency = workload.latency_ms
    return {
        "throughput_per_s": statistics.median(workload.rates),
        "latency_p50_ms": float(np.median(latency)),
        "latency_p99_ms": float(np.percentile(latency, 99)),
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(workload, tracer, untraced_window_s: float) -> "dict[str, float]":
    import numpy as np

    window = tracer.layer_stats("window")
    setup = tracer.layer_stats("setup")
    counts = work_counts(workload, tracer)

    def get(stats: dict, name: str, field: str) -> float:
        return stats.get(name, {}).get(field, 0.0)

    def ratio(hits: float, misses: float) -> float:
        return hits / (hits + misses) if hits + misses else 0.0

    cache_hits = get(window, "cache.get", "size")
    cache_misses = get(window, "cache.get", "calls") - cache_hits
    memo_hits = counts.get("memo_hits", 0)
    memo_misses = counts.get("memo_misses", 0)
    waits = tracer.queue_waits_ms("window")
    palette_s = get(window, "palette_wl.order", "busy_s") + get(window, "palette_wl.distances", "busy_s")
    return {
        "runner.passes": get(window, "runner.pass", "calls"),
        "runner.pass_s": get(window, "runner.pass", "busy_s"),
        "csr.freeze_s": get(window, "csr.freeze", "busy_s"),
        "batch.calls": get(window, "batch.extract", "calls"),
        "batch.pairs": get(window, "batch.extract", "size"),
        "batch.pairs_per_call_p50": get(window, "batch.extract", "size_p50"),
        "batch.busy_s": get(window, "batch.extract", "busy_s"),
        "batch.self_s": get(window, "batch.extract", "busy_s") - palette_s,
        "palette_wl.order_s": get(window, "palette_wl.order", "busy_s"),
        "palette_wl.distances_s": get(window, "palette_wl.distances", "busy_s"),
        # fitting and seeding happen only in set-up, so they report set-up
        "model.fit_s": get(setup, "model.fit", "busy_s"),
        "model.score_s": get(window, "model.score", "busy_s"),
        "delta.seed_s": get(setup, "delta.seed", "busy_s"),
        "delta.events": get(window, "delta.apply", "size"),
        "delta.apply_s": get(window, "delta.apply", "busy_s"),
        "delta.merges": get(window, "delta.snapshot", "calls"),
        "delta.merge_s": get(window, "delta.snapshot", "busy_s"),
        "cache.hits": cache_hits,
        "cache.misses": cache_misses,
        "cache.hit_ratio": ratio(cache_hits, cache_misses),
        "cache.get_s": get(window, "cache.get", "busy_s"),
        "cache.puts": get(window, "cache.put", "calls"),
        "cache.put_s": get(window, "cache.put", "busy_s"),
        "cache.invalidated": get(window, "cache.invalidate", "size"),
        "cache.invalidate_s": get(window, "cache.invalidate", "busy_s"),
        "cache.evictions": float(counts.get("cache_evictions", 0)),
        "recommender.batches": get(window, "recommender.batch", "calls"),
        "recommender.users_per_batch_p50": get(window, "recommender.batch", "size_p50"),
        "recommender.memo_hits": float(memo_hits),
        "recommender.memo_misses": float(memo_misses),
        "recommender.memo_hit_ratio": ratio(memo_hits, memo_misses),
        "recommender.self_s": get(window, "recommender.batch", "self_s"),
        "recommender.candidates_s": get(window, "recommender.candidates", "busy_s"),
        "recommender.ingest_s": get(window, "recommender.ingest", "busy_s"),
        "frontend.requests": float(waits.size),
        "frontend.queue_wait_ms_p50": float(np.median(waits)) if waits.size else 0.0,
        "frontend.queue_wait_ms_p99": float(np.percentile(waits, 99)) if waits.size else 0.0,
        "frontend.timeouts": float(tracer.timeouts["window"]),
        "trace.window_s": workload.window_s,
        "trace.overhead_frac": workload.window_s / untraced_window_s - 1.0,
    }


def main(argv: "list[str] | None" = None) -> int:
    args = parse_args(argv)
    problem = environment_error()
    if problem:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np

    import repro.obs
    from tracing import ALL_LAYERS, COUNT_LAYERS
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if repro.obs.enabled():
        print("perfbench: repro.obs must stay disabled", file=sys.stderr)
        return 2

    if args.trace:
        base, base_tracer, _ = run_workload(args.workload, args.seed, args.seconds, COUNT_LAYERS, 1, False)
        workload, tracer, _ = run_workload(args.workload, args.seed, args.seconds, ALL_LAYERS, 1, True)
        counts = work_counts(workload, tracer)
        if counts != work_counts(base, base_tracer):
            workload.faults.append("traced work counts differ from the untraced run's")
        metrics = per_layer(workload, tracer, base.window_s)
        units = LAYER_UNITS
        tracer.dump(
            BENCH_DIR / "out" / f"trace-{args.workload}.npz",
            {"workload": args.workload, "seed": args.seed, "seconds": args.seconds},
        )
    else:
        workload, tracer, setup_s = run_workload(args.workload, args.seed, args.seconds, COUNT_LAYERS, SETUPS, True)
        counts = work_counts(workload, tracer)
        metrics = end_to_end(workload, setup_s)
        units = END_TO_END_UNITS
    samples = int(workload.latency_ms.size)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "nproc": len(os.sched_getaffinity(0)),
        },
        "window_s": workload.window_s,
        "segment_rates": workload.rates,
        "latency_samples": samples,
        "samples_beyond_p99": samples - math.ceil(0.99 * samples),
        "counts": counts,
        "notes": workload.notes,
        "faults": workload.faults,
    }
    print(json.dumps(info, default=float))
    result = {
        "correct": workload.failed == 0 and not workload.faults,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
