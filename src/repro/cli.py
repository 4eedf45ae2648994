"""Command-line interface: ``python -m repro <command> ...``.

Every evaluation artefact of the paper is reachable from the terminal:

=============  ============================================================
command        regenerates
=============  ============================================================
``stats``      a structural/temporal report of one dataset (or file)
``table1``     Table I + the Fig. 1 feature comparison
``table2``     Table II dataset statistics
``table3``     Table III link-prediction results
``ksweep``     one Fig. 7 panel (AUC/F1 vs K)
``patterns``   one Fig. 6 panel (most frequent K-structure pattern)
``motivating`` the Fig. 1 celebrity/fan walkthrough
``crossval``   rolling-origin temporal cross-validation (extension)
``report``     a one-shot markdown dataset report, or — with ``--metrics``
               / ``--checkpoint`` / ``--bench`` — a run report joining
               observability artefacts (metrics, checkpoints, benchmarks)
``recommend``  top-N partner suggestions for one node (extension)
``stream``     prequential test-then-train streaming evaluation (extension)
``profile``    per-stage extraction timing/ratio profile (observability)
``bench``      extraction throughput benchmark + history + regression gate
``lint``       repo-specific determinism/contract static analysis
=============  ============================================================

Dataset selection: ``--dataset <name>`` for a synthetic catalog network
(use ``--scale`` to shrink it) or ``--file <path>`` for a timestamped
edge list (optionally ``--span`` to normalise the timestamps).

Observability: the global ``--log-level``/``--log-json`` flags control
diagnostic logging (stderr; command output stays on stdout).  On
experiment commands, ``--metrics-out PATH`` dumps the metrics-registry
snapshot (worker metrics included — pool workers ship theirs back at
chunk boundaries) and ``--trace-out PATH`` writes the recorded spans as
Chrome Trace Event JSON for Perfetto.  ``--telemetry-port PORT`` serves
live OpenMetrics exposition (plus ``/healthz``) while the command runs
(``--telemetry-linger SECONDS`` keeps it up after completion for
scrapers racing short runs), and ``--heartbeat PATH`` keeps an atomic
JSON progress file fresh for tailing.  ``repro report --metrics ...`` joins those artefacts into a
run report and ``repro bench --compare`` gates on throughput
regressions.  See docs/OBSERVABILITY.md.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Any, Sequence

from repro import obs
from repro.analysis import network_report
from repro.analysis.lint import add_lint_arguments, execute_lint
from repro.datasets.catalog import DATASETS, dataset_statistics, get_dataset
from repro.datasets.loaders import load_dataset_file
from repro.experiments.config import ExperimentConfig
from repro.experiments.figures import format_k_sweep, k_sweep, mine_frequent_pattern
from repro.experiments.methods import METHOD_ORDER, validate_method_name
from repro.experiments.motivating import (
    format_motivating_table,
    motivating_comparison,
)
from repro.experiments.runner import LinkPredictionExperiment
from repro.experiments.tables import format_table1, format_table2, format_table3
from repro.graph.temporal import DynamicNetwork
from repro.sampling.splits import NetworkTooSmallError
from repro.sampling.temporal_cv import cross_validate_method


def _int_at_least(text: str, low: int) -> int:
    """Parse an integer >= ``low`` for an argparse ``type=``."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < low:
        raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
    return value


def _positive_int(text: str) -> int:
    """argparse ``type=``: an integer >= 1."""
    return _int_at_least(text, 1)


def _non_negative_int(text: str) -> int:
    """argparse ``type=``: an integer >= 0."""
    return _int_at_least(text, 0)


def _k_value(text: str) -> int:
    """argparse ``type=``: an SSF ``K``, at least 3 so the feature is
    non-empty."""
    return _int_at_least(text, 3)


def _float_value(text: str) -> float:
    """Parse a float for an argparse ``type=``."""
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None


def _scale(text: str) -> float:
    """argparse ``type=``: a catalog dataset scale in (0, 1]."""
    value = _float_value(text)
    if not 0.0 < value <= 1.0:
        raise argparse.ArgumentTypeError(f"must be in (0, 1], got {text}")
    return value


def _fraction(text: str) -> float:
    """argparse ``type=``: a fraction in [0, 1) — ``stream --warmup``, as
    :func:`~repro.streaming.prequential.prequential_evaluate` requires,
    and ``bench --max-regression``, whose gate a negative value flips and
    a value of 1 or more (or NaN) disables."""
    value = _float_value(text)
    if not 0.0 <= value < 1.0:
        raise argparse.ArgumentTypeError(f"must be in [0, 1), got {text}")
    return value


def _event_fraction(text: str) -> float:
    """argparse ``type=``: ``serve --event-fraction`` in (0, 1), as
    :func:`~repro.serve.replay.split_replay_stream` requires."""
    value = _float_value(text)
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"must be in (0, 1), got {text}")
    return value


def _positive_seconds(text: str) -> float:
    """argparse ``type=``: a positive, finite number of seconds, as
    :class:`~repro.robust.policy.RetryPolicy` requires of a deadline."""
    value = _float_value(text)
    if not 0.0 < value < float("inf"):
        raise argparse.ArgumentTypeError(
            f"must be a positive finite number, got {text}"
        )
    return value


def _non_negative_seconds(text: str) -> float:
    """argparse ``type=``: a non-negative, finite number of seconds —
    ``--telemetry-linger``, which ``time.sleep`` rejects when negative
    and a NaN would silently skip."""
    value = _float_value(text)
    if not 0.0 <= value < float("inf"):
        raise argparse.ArgumentTypeError(
            f"must be a non-negative finite number, got {text}"
        )
    return value


def _drift_threshold(text: str) -> float:
    """argparse ``type=``: ``stream --drift-threshold``, a finite number
    (0 or below disables alerting); a NaN or an infinity never compares
    above a drift, so it would switch alerting off silently."""
    value = _float_value(text)
    if not float("-inf") < value < float("inf"):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text}")
    return value


def _port(text: str) -> int:
    """argparse ``type=``: a TCP port in [0, 65535] (0 = ephemeral)."""
    value = _int_at_least(text, 0)
    if value > 65535:
        raise argparse.ArgumentTypeError(f"must be <= 65535, got {value}")
    return value


def _method_name(text: str) -> str:
    """argparse ``type=``: a Table III method name."""
    try:
        return validate_method_name(text)
    except KeyError as exc:
        raise argparse.ArgumentTypeError(str(exc.args[0])) from None


#: output-path flags checked before any work runs: a missing or
#: read-only directory would otherwise only fail after the whole command
_OUTPUT_PATH_FLAGS = (
    "metrics_out",
    "trace_out",
    "heartbeat",
    "continuous_profile",
    "out",
    "output",
    "json_out",
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SSF link prediction over dynamic networks (ICDCS 2019 reproduction)",
    )
    parser.add_argument(
        "--log-level",
        choices=obs.LEVELS,
        default="warning",
        help="diagnostic logging level (stderr; command output stays on stdout)",
    )
    parser.add_argument(
        "--log-json",
        action="store_true",
        help="emit diagnostics as JSON lines instead of human-readable text",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def add_dataset_args(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--dataset", choices=sorted(DATASETS), help="catalog dataset name"
        )
        sub.add_argument("--file", help="timestamped edge-list file instead")
        sub.add_argument(
            "--span",
            type=_positive_int,
            help="normalise file timestamps onto 1..SPAN",
        )
        sub.add_argument(
            "--scale", type=_scale, default=1.0, help="dataset scale (0, 1]"
        )
        sub.add_argument("--seed", type=int, default=0, help="generation seed")

    def add_experiment_args(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--epochs", type=_positive_int, default=120)
        sub.add_argument("--k", type=_k_value, default=10)
        sub.add_argument(
            "--max-positives",
            type=_non_negative_int,
            default=300,
            help="cap on positive pairs (0 = no cap, the faithful protocol)",
        )
        sub.add_argument(
            "--n-jobs",
            type=_positive_int,
            default=1,
            help="worker processes for SSF feature extraction",
        )
        add_metrics_out(sub)

    def add_metrics_out(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--metrics-out",
            metavar="PATH",
            help="write the metrics-registry snapshot to this JSON file",
        )
        sub.add_argument(
            "--trace-out",
            metavar="PATH",
            help="record completed spans (parent and pool workers) and "
            "write them as Chrome Trace Event JSON — open in Perfetto "
            "or chrome://tracing",
        )
        sub.add_argument(
            "--telemetry-port",
            type=_port,
            metavar="PORT",
            help="serve live OpenMetrics exposition on 127.0.0.1:PORT "
            "(/metrics; /healthz returns run phase) for the duration "
            "of the command — 0 binds an ephemeral port",
        )
        sub.add_argument(
            "--heartbeat",
            metavar="PATH",
            help="continuously overwrite PATH (atomically) with a JSON "
            "progress heartbeat: run id, stage, done/total, pairs/sec, ETA",
        )
        sub.add_argument(
            "--telemetry-linger",
            type=_non_negative_seconds,
            default=0.0,
            metavar="SECONDS",
            help="keep the --telemetry-port endpoint serving this long "
            "after the command completes, so a scraper racing a short "
            "run (e.g. CI) still observes the final exposition",
        )
        sub.add_argument(
            "--continuous-profile",
            metavar="PATH",
            help="sample all threads at 101Hz of CPU time (setitimer/"
            "SIGPROF) for the whole command and write collapsed-stack "
            "flamegraph output to PATH (flamegraph.pl / speedscope)",
        )

    sub = commands.add_parser("stats", help="network statistics report")
    add_dataset_args(sub)

    commands.add_parser("table1", help="Table I feature comparison")

    sub = commands.add_parser("table2", help="Table II dataset statistics")
    sub.add_argument("--scale", type=_scale, default=1.0)
    sub.add_argument("--seed", type=int, default=0)

    sub = commands.add_parser("table3", help="Table III link prediction")
    add_dataset_args(sub)
    add_experiment_args(sub)
    sub.add_argument(
        "--methods",
        nargs="+",
        type=_method_name,
        default=None,
        metavar="METHOD",
        help=f"subset of: {', '.join(METHOD_ORDER)} (plus LP/tCN/tRA/tPA)",
    )
    sub.add_argument(
        "--checkpoint-dir",
        metavar="DIR",
        help="persist per-(dataset, method) results there as the run "
        "progresses; re-running into the same directory skips completed "
        "cells (see docs/ROBUSTNESS.md)",
    )
    sub.add_argument(
        "--resume",
        metavar="DIR",
        help="resume a killed run from its checkpoint directory (the "
        "directory must exist; implies --checkpoint-dir DIR)",
    )

    sub = commands.add_parser("ksweep", help="Fig. 7 panel: AUC/F1 vs K")
    add_dataset_args(sub)
    add_experiment_args(sub)
    sub.add_argument("--method", type=_method_name, default="SSFNM")
    sub.add_argument(
        "--ks", nargs="+", type=_k_value, default=[5, 10, 15, 20], metavar="K"
    )

    sub = commands.add_parser("patterns", help="Fig. 6 panel: frequent pattern")
    add_dataset_args(sub)
    sub.add_argument("--samples", type=_positive_int, default=2000)
    sub.add_argument("--k", type=_k_value, default=10)

    commands.add_parser("motivating", help="Fig. 1 walkthrough")

    sub = commands.add_parser("crossval", help="temporal cross-validation")
    add_dataset_args(sub)
    add_experiment_args(sub)
    sub.add_argument("--method", type=_method_name, default="SSFNM")
    sub.add_argument("--folds", type=_positive_int, default=3)

    sub = commands.add_parser(
        "report",
        help="markdown report: dataset walkthrough, or (with --metrics/"
        "--checkpoint/--bench) a run report joining observability artefacts",
    )
    add_dataset_args(sub)
    add_experiment_args(sub)
    sub.add_argument("--output", help="write the report to this file")
    sub.add_argument(
        "--metrics",
        metavar="PATH",
        help="run-report mode: metrics snapshot JSON (from --metrics-out)",
    )
    sub.add_argument(
        "--checkpoint",
        metavar="DIR",
        help="run-report mode: checkpoint run directory to summarise",
    )
    sub.add_argument(
        "--bench",
        metavar="PATH",
        help="run-report mode: latest benchmark result JSON",
    )
    sub.add_argument(
        "--bench-history",
        metavar="PATH",
        help="run-report mode: BENCH_history.jsonl trajectory",
    )
    sub.add_argument(
        "--profile",
        metavar="PATH",
        help="run-report mode: collapsed-stack profile (from "
        "--continuous-profile) to render as a top-frames table",
    )
    sub.add_argument(
        "--json-out",
        metavar="PATH",
        help="run-report mode: also write the report as JSON there",
    )

    sub = commands.add_parser(
        "recommend", help="top-N partner suggestions for one node"
    )
    add_dataset_args(sub)
    sub.add_argument("--user", required=True, help="node to recommend for")
    sub.add_argument("--top", type=_positive_int, default=10)
    sub.add_argument("--k", type=_k_value, default=10)
    sub.add_argument(
        "--model", choices=("linear", "neural"), default="linear"
    )

    sub = commands.add_parser(
        "stream", help="prequential (test-then-train) streaming evaluation"
    )
    add_dataset_args(sub)
    sub.add_argument("--k", type=_k_value, default=10)
    sub.add_argument("--model", choices=("linear", "neural"), default="linear")
    sub.add_argument("--warmup", type=_fraction, default=0.5)
    sub.add_argument("--refit-every", type=_positive_int, default=2)
    sub.add_argument(
        "--drift-threshold",
        type=_drift_threshold,
        default=0.2,
        metavar="DELTA",
        help="emit a structured auc_drift alert when a window's AUC falls "
        "more than DELTA below the running mean (<= 0 disables, "
        "default 0.2)",
    )
    add_metrics_out(sub)

    sub = commands.add_parser(
        "profile",
        help="per-stage extraction timing/ratio profile (observability)",
    )
    add_dataset_args(sub)
    sub.add_argument("--k", type=_k_value, default=10)
    sub.add_argument(
        "--pairs",
        type=_positive_int,
        default=100,
        help="number of target links profiled",
    )
    sub.add_argument(
        "--mode",
        choices=("temporal", "influence", "count", "binary", "distance",
                 "influence_distance"),
        default="temporal",
        help="SSF entry mode to profile",
    )
    add_metrics_out(sub)

    sub = commands.add_parser(
        "bench",
        help="extraction throughput benchmark + history + regression gate",
    )
    sub.add_argument("--nodes", type=_positive_int, default=800)
    sub.add_argument("--pairs", type=_positive_int, default=60)
    sub.add_argument("--k", type=_k_value, default=10)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument(
        "--out", metavar="PATH", help="write the latest result JSON there"
    )
    sub.add_argument(
        "--history",
        metavar="PATH",
        help="append a stamped record (seed, git SHA, machine fingerprint) "
        "to this JSONL trajectory",
    )
    sub.add_argument(
        "--current",
        metavar="PATH",
        help="compare this existing result instead of running the benchmark",
    )
    sub.add_argument(
        "--compare",
        metavar="BASELINE",
        help="diff against this baseline result/record JSON; exit non-zero "
        "when any backend's pairs/sec regressed beyond --max-regression",
    )
    sub.add_argument(
        "--max-regression",
        type=_fraction,
        default=0.30,
        help="tolerated pairs/sec drop as a fraction of baseline, in "
        "[0, 1) (noise threshold, default 0.30)",
    )
    sub.add_argument(
        "--tag",
        metavar="LABEL",
        help="label this run in the result and its history record, so "
        "distinct experiment lines (e.g. serving-layer benches) can be "
        "told apart in the same BENCH_history.jsonl",
    )
    sub.add_argument(
        "--batch",
        action="store_true",
        help="also time the csr batched driver (extract_batch) as a "
        "'batched' backend section",
    )
    sub.add_argument(
        "--batch-pairs",
        type=_positive_int,
        default=None,
        metavar="N",
        help="pair count for the --batch section (default 10x --pairs)",
    )
    add_metrics_out(sub)

    sub = commands.add_parser(
        "serve",
        help="online serving layer: replay a stream through the async "
        "recommender front-end (see docs/SERVING.md)",
    )
    add_dataset_args(sub)
    sub.add_argument(
        "--replay",
        action="store_true",
        help="hold out the network's tail as live edge events and replay "
        "them while serving recommendation requests",
    )
    sub.add_argument(
        "--nodes",
        type=_positive_int,
        default=None,
        metavar="N",
        help="serve over a synthetic N-node network instead of "
        "--dataset/--file",
    )
    sub.add_argument("--queries", type=_positive_int, default=2000)
    sub.add_argument(
        "--concurrency",
        type=_positive_int,
        default=64,
        help="in-flight request window during the replay",
    )
    sub.add_argument(
        "--top", type=_positive_int, default=5, help="suggestions per request"
    )
    sub.add_argument("--k", type=_k_value, default=10)
    sub.add_argument("--model", choices=("linear", "neural"), default="linear")
    sub.add_argument(
        "--hot-users",
        type=_positive_int,
        default=32,
        help="size of the head-heavy query pool",
    )
    sub.add_argument(
        "--event-fraction",
        type=_event_fraction,
        default=0.2,
        help="fraction of distinct timestamps held out as the live stream",
    )
    sub.add_argument(
        "--max-events",
        type=_non_negative_int,
        default=200,
        help="cap on replayed tail events (0 serves without ingesting)",
    )
    sub.add_argument(
        "--events-per-batch",
        type=_positive_int,
        default=8,
        help="edge events per ingest batch",
    )
    sub.add_argument(
        "--timeout",
        type=_positive_seconds,
        default=None,
        metavar="SECONDS",
        help="per-attempt request deadline (default: the robustness "
        "layer's RetryPolicy, REPRO_PARALLEL_CHUNK_TIMEOUT et al.)",
    )
    sub.add_argument(
        "--out", metavar="PATH", help="write the replay result JSON there"
    )
    sub.add_argument(
        "--history",
        metavar="PATH",
        help="append a stamped 'serving'-tagged record to this JSONL "
        "trajectory (same schema as `repro bench --history`)",
    )
    add_metrics_out(sub)

    sub = commands.add_parser(
        "lint", help="determinism/contract static analysis (see docs/STATIC_ANALYSIS.md)"
    )
    add_lint_arguments(sub)

    return parser


_LOG = obs.get_logger("cli")


def _load_network(args: argparse.Namespace) -> tuple[str, DynamicNetwork]:
    if getattr(args, "file", None):
        network = load_dataset_file(args.file, span=args.span)
        _LOG.info(
            "loaded %s: %d nodes, %d links",
            args.file,
            network.number_of_nodes(),
            network.number_of_links(),
        )
        return args.file, network
    name = args.dataset
    network = get_dataset(name).generate(seed=args.seed, scale=args.scale)
    _LOG.info(
        "generated %s (scale=%g, seed=%d): %d nodes, %d links",
        name,
        args.scale,
        args.seed,
        network.number_of_nodes(),
        network.number_of_links(),
    )
    return name, network


def _config(args: argparse.Namespace) -> ExperimentConfig:
    max_positives = args.max_positives if args.max_positives > 0 else None
    return ExperimentConfig(
        k=args.k,
        epochs=args.epochs,
        max_positives=max_positives,
        n_jobs=getattr(args, "n_jobs", 1),
    )


class _UsageError(Exception):
    """Bad input a handler can only detect after loading the network;
    :func:`main` reports it like an argparse error (exit 2), as it does
    a :class:`~repro.sampling.splits.NetworkTooSmallError`."""


def _run_report_mode(args: argparse.Namespace) -> bool:
    """``repro report`` joins observability artefacts instead of walking
    through a dataset when any artefact flag is given."""
    return bool(
        args.metrics
        or args.checkpoint
        or args.bench
        or args.bench_history
        or args.profile
    )


def _needs_network_flag(args: argparse.Namespace) -> bool:
    """Whether the command loads one network but got neither
    ``--dataset`` nor ``--file``."""
    if not hasattr(args, "dataset") or args.dataset or args.file:
        return False
    if args.command == "table3":
        return False  # no dataset: every catalog network
    if args.command == "serve":
        return args.nodes is None
    if args.command == "report":
        return not _run_report_mode(args)
    return True


def _cmd_stats(args: argparse.Namespace) -> str:
    name, network = _load_network(args)
    return network_report(network).format(name)


def _cmd_table1(args: argparse.Namespace) -> str:
    comparison = motivating_comparison()
    return format_table1() + "\n\n" + format_motivating_table(comparison)


def _cmd_table2(args: argparse.Namespace) -> str:
    rows = {
        name: dataset_statistics(
            spec.generate(seed=args.seed, scale=args.scale), spec.span
        )
        for name, spec in DATASETS.items()
    }
    return format_table2(rows)


def _cmd_table3(args: argparse.Namespace) -> str:
    from repro.experiments.runner import table3_manifest
    from repro.robust.checkpoint import RunCheckpoint

    config = _config(args)
    checkpoint_dir = args.resume or args.checkpoint_dir
    checkpoint = None
    if checkpoint_dir:
        checkpoint = RunCheckpoint(checkpoint_dir)
        checkpoint.ensure_manifest(
            table3_manifest(
                [args.dataset or args.file] if (args.dataset or args.file) else None,
                config,
                args.methods,
                args.seed,
                args.scale,
            )
        )
        _LOG.info(
            "checkpointing to %s (%d cells already complete)",
            checkpoint_dir,
            len(checkpoint.completed_cells()),
        )
    if args.dataset or args.file:
        names_networks = [_load_network(args)]
    else:
        names_networks = [
            (name, spec.generate(seed=args.seed, scale=args.scale))
            for name, spec in DATASETS.items()
        ]
    results = {}
    for name, network in names_networks:
        experiment = LinkPredictionExperiment(
            network, config, checkpoint=checkpoint, dataset_name=name
        )
        results[name] = experiment.run_methods(args.methods)
    return format_table3(results, methods=args.methods)


def _cmd_ksweep(args: argparse.Namespace) -> str:
    from repro.viz import line_chart

    name, network = _load_network(args)
    results = k_sweep(
        network, config=_config(args), k_values=args.ks, method=args.method
    )
    table = format_k_sweep(results, dataset=name)
    chart = line_chart(
        {
            "AUC": [(k, results[k].auc) for k in sorted(results)],
            "F1": [(k, results[k].f1) for k in sorted(results)],
        },
        width=48,
        height=10,
    )
    return table + "\n\n" + chart


def _cmd_patterns(args: argparse.Namespace) -> str:
    name, network = _load_network(args)
    _, rendering = mine_frequent_pattern(
        network, n_samples=args.samples, k=args.k, seed=args.seed
    )
    return f"most frequent pattern on {name}:\n{rendering}"


def _cmd_motivating(args: argparse.Namespace) -> str:
    return format_motivating_table(motivating_comparison())


def _cmd_crossval(args: argparse.Namespace) -> str:
    name, network = _load_network(args)
    result = cross_validate_method(
        network,
        args.method,
        config=_config(args),
        n_folds=args.folds,
        seed=args.seed,
    )
    return f"{name}: {result}"


def _cmd_report(args: argparse.Namespace) -> str:
    from repro.experiments.report import generate_report

    if _run_report_mode(args):
        from repro.obs.report import run_report

        report = run_report(
            metrics_path=args.metrics,
            checkpoint_dir=args.checkpoint,
            bench_path=args.bench,
            history_path=args.bench_history,
            profile_path=args.profile,
            json_out=args.json_out,
        )
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(report)
            return f"run report written to {args.output}"
        return report

    name, network = _load_network(args)
    report = generate_report(network, name=name, config=_config(args))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(report + "\n")
        return f"report written to {args.output}"
    return report


def _cmd_recommend(args: argparse.Namespace) -> str:
    from repro.core.feature import SSFConfig
    from repro.serve import ServingRecommender

    name, network = _load_network(args)
    # node labels are strings after file IO; try both forms for catalogs
    user = args.user
    if not network.has_node(user):
        try:
            candidate = int(user)
        except ValueError:
            candidate = None
        if candidate is not None and network.has_node(candidate):
            user = candidate
        else:
            raise _UsageError(f"--user {args.user}: node not in {name}")
    recommender = ServingRecommender.fit(
        network, config=SSFConfig(k=args.k), model=args.model, seed=args.seed
    )
    suggestions = recommender.recommend(user, top_n=args.top)
    lines = [f"top {args.top} suggestions for {user!r} on {name}:"]
    lines.extend(f"  {s.node!r}  score={s.score:.3f}" for s in suggestions)
    return "\n".join(lines)


def _cmd_stream(args: argparse.Namespace) -> str:
    from repro.core.feature import SSFConfig
    from repro.streaming import StreamingSSFPredictor, prequential_evaluate

    name, network = _load_network(args)
    predictor = StreamingSSFPredictor(
        SSFConfig(k=args.k),
        model=args.model,
        refit_every=args.refit_every,
        seed=args.seed,
    )
    drift_threshold = args.drift_threshold if args.drift_threshold > 0 else None
    result = prequential_evaluate(
        network,
        predictor,
        warmup_fraction=args.warmup,
        drift_threshold=drift_threshold,
    )
    lines = [f"prequential streaming on {name}: mean AUC={result.mean_auc:.3f}"]
    lines.extend(
        f"  t={stamp:6.0f}  AUC={auc:.3f}"
        for stamp, auc in zip(result.timestamps, result.aucs)
    )
    for alert in result.alerts:
        lines.append(
            f"  ALERT t={alert['timestamp']:.0f}: window AUC {alert['auc']:.3f} "
            f"fell {alert['drift']:.3f} below running mean "
            f"{alert['mean_auc']:.3f} (threshold {alert['threshold']:g})"
        )
    return "\n".join(lines)


def _cmd_profile(args: argparse.Namespace) -> str:
    from repro.obs.profile import run_extraction_profile

    name, network = _load_network(args)
    return run_extraction_profile(
        network,
        dataset=name,
        k=args.k,
        n_pairs=args.pairs,
        mode=args.mode,
        seed=args.seed,
    )


def _read_json(flag: str, path: str) -> Any:
    """The JSON document at ``path``, named on the command line by
    ``flag``; a file that cannot be read or parsed is a usage error."""
    import json

    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise _UsageError(f"{flag} {path}: cannot read JSON ({exc})") from None


def _cmd_bench(args: argparse.Namespace) -> "str | tuple[str, int]":
    import json

    from repro.obs.bench import compare_results, run_extraction_bench

    # load the baseline FIRST: --out and --compare may name the same
    # file, and the gate must diff against the committed state, not the
    # result this very run is about to write
    baseline = _read_json("--compare", args.compare) if args.compare else None

    parts: list[str] = []
    if args.current:
        current = _read_json("--current", args.current)
        parts.append(f"loaded current result from {args.current}")
    else:
        current = run_extraction_bench(
            n_nodes=args.nodes,
            n_pairs=args.pairs,
            k=args.k,
            seed=args.seed,
            out_path=args.out,
            history_path=args.history,
            tag=args.tag,
            batch=args.batch,
            batch_pairs=args.batch_pairs,
        )
        parts.append(json.dumps(current, indent=1, sort_keys=True))
        if not current["bit_identical"]:
            parts.append("FAIL: backends disagree")
            return "\n\n".join(parts), 1

    if baseline is not None:
        comparison = compare_results(
            current, baseline, max_regression=args.max_regression
        )
        parts.append(comparison.format())
        return "\n\n".join(parts), 0 if comparison.ok else 1
    return "\n\n".join(parts)


def _cmd_serve(args: argparse.Namespace) -> str:
    import json

    from repro.core.feature import SSFConfig
    from repro.obs.bench import append_history
    from repro.robust.policy import RetryPolicy
    from repro.serve import run_replay

    if args.nodes:
        from repro.obs.bench import synthetic_network

        network = synthetic_network(args.nodes, seed=args.seed)
        name = f"synthetic-{args.nodes}"
    else:
        name, network = _load_network(args)
    retry = (
        RetryPolicy(chunk_timeout=args.timeout)
        if args.timeout is not None
        else None
    )
    result = run_replay(
        network,
        queries=args.queries,
        concurrency=args.concurrency,
        top_n=args.top,
        model=args.model,
        config=SSFConfig(k=args.k),
        hot_users=args.hot_users,
        event_fraction=args.event_fraction,
        max_events=args.max_events,
        events_per_batch=args.events_per_batch,
        retry=retry,
        seed=args.seed,
    )
    bench = result.to_bench_result()
    if args.out:
        obs.atomic_write_text(
            args.out, json.dumps(bench, indent=1, sort_keys=True) + "\n"
        )
        _LOG.info("replay result written to %s", args.out)
    if args.history:
        append_history(args.history, bench)
        _LOG.info("history record appended to %s", args.history)
    return "\n\n".join(
        [
            f"serving replay over {name}",
            result.summary(),
            json.dumps(bench, indent=1, sort_keys=True),
        ]
    )


_HANDLERS = {
    "lint": execute_lint,
    "bench": _cmd_bench,
    "serve": _cmd_serve,
    "stats": _cmd_stats,
    "table1": _cmd_table1,
    "table2": _cmd_table2,
    "table3": _cmd_table3,
    "ksweep": _cmd_ksweep,
    "patterns": _cmd_patterns,
    "motivating": _cmd_motivating,
    "crossval": _cmd_crossval,
    "report": _cmd_report,
    "recommend": _cmd_recommend,
    "stream": _cmd_stream,
    "profile": _cmd_profile,
}


def main(argv: "Sequence[str] | None" = None) -> int:
    import json as _json

    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "serve" and not args.replay:
        parser.error(
            "`repro serve` currently requires --replay (the live socket "
            "front-end is the replay harness's production twin)"
        )
    if _needs_network_flag(args):
        parser.error(f"`repro {args.command}` needs --dataset or --file")
    if getattr(args, "resume", None) and not os.path.isdir(args.resume):
        parser.error(
            f"--resume {args.resume}: directory does not exist (use "
            "--checkpoint-dir to start a fresh checkpointed run)"
        )
    for flag in _OUTPUT_PATH_FLAGS:
        path = getattr(args, flag, None)
        if path:
            directory = os.path.dirname(os.path.abspath(path))
            if not (os.path.isdir(directory) and os.access(directory, os.W_OK)):
                parser.error(
                    f"--{flag.replace('_', '-')} {path}: directory {directory} "
                    "does not exist or is not writable"
                )
    obs.configure_logging(level=args.log_level, json_lines=args.log_json)
    metrics_out = getattr(args, "metrics_out", None)
    trace_out = getattr(args, "trace_out", None)
    telemetry_port = getattr(args, "telemetry_port", None)
    publisher = None
    if telemetry_port is not None:
        # bound before any global state changes, so a taken port is a
        # plain usage error
        try:
            publisher = obs.TelemetryPublisher(telemetry_port).start()
        except OSError as exc:
            parser.error(
                f"--telemetry-port {telemetry_port}: cannot bind "
                f"({exc.strerror or exc})"
            )
        _LOG.info("live telemetry at %s/metrics", publisher.url)
    heartbeat_path = getattr(args, "heartbeat", None)
    profile_out = getattr(args, "continuous_profile", None)
    # observability records only when something will consume it: a
    # metrics/trace dump was requested, a live consumer (telemetry
    # endpoint / heartbeat file) is attached, or the command *is* the
    # profiler.
    activate = (
        bool(metrics_out)
        or bool(trace_out)
        or telemetry_port is not None
        or bool(heartbeat_path)
        or args.command == "profile"
    )
    was_enabled = obs.enabled()
    was_recording = obs.recording()
    if activate:
        obs.enable()
    if trace_out:
        obs.drain_span_records()  # stale records must not leak into the file
        obs.record_spans(True)
    obs.set_phase(args.command)
    slo_engine = None
    if args.command == "serve":
        # the serving path's standing objectives: burn-rate alerts on
        # the obs.alert channel, repro_slo_* gauges, latency exemplars
        from repro.obs.slo import DEFAULT_SERVING_OBJECTIVES, configure_slo

        slo_engine = configure_slo(DEFAULT_SERVING_OBJECTIVES)
    profiler = None
    if profile_out:
        profiler = obs.ContinuousProfiler()
        profiler.start()
    if heartbeat_path:
        obs.configure_heartbeat(heartbeat_path)
        obs.heartbeat_tick(args.command, force=True)
    exit_code = 0
    try:
        try:
            result = _HANDLERS[args.command](args)
        except (_UsageError, NetworkTooSmallError) as exc:
            parser.error(str(exc))
        # handlers return the report text, or (text, exit_code) when the
        # command's outcome must be visible to the shell (e.g. lint)
        if isinstance(result, tuple):
            result, exit_code = result
        print(result)
        if metrics_out:
            if slo_engine is not None:
                # gauges land in the snapshot, the full objective status
                # rides the JSON under "slo" for `repro report`
                slo_engine.publish()
                snapshot = _json.loads(obs.get_registry().to_json())
                snapshot["slo"] = slo_engine.status_dict()
                text = _json.dumps(snapshot, indent=1, sort_keys=True)
            else:
                text = obs.get_registry().to_json()
            obs.atomic_write_text(metrics_out, text + "\n")
            _LOG.info("metrics snapshot written to %s", metrics_out)
        if trace_out:
            written = obs.write_trace(trace_out)
            _LOG.info("%d trace events written to %s", written, trace_out)
    finally:
        obs.set_phase(f"{args.command}:done")
        if profiler is not None:
            profiler.stop()
            profiler.write_collapsed(profile_out)
            _LOG.info(
                "continuous profile (%d stacks) written to %s",
                sum(profiler.samples.values()),
                profile_out,
            )
        if heartbeat_path:
            obs.heartbeat_tick(f"{args.command}:done", force=True)
            obs.configure_heartbeat(None)
        if publisher is not None:
            linger = getattr(args, "telemetry_linger", 0.0) or 0.0
            if linger > 0:
                _LOG.info(
                    "telemetry endpoint lingering %.1fs at %s/metrics",
                    linger,
                    publisher.url,
                )
                time.sleep(linger)
            publisher.stop()
        if slo_engine is not None:
            from repro.obs.slo import configure_slo

            configure_slo(None)
        if trace_out:
            obs.record_spans(was_recording)
        if activate and not was_enabled:
            obs.disable()
    return exit_code


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
