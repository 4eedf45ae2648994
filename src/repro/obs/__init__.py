"""repro.obs — structured logging, metrics and span tracing.

The observability layer of the reproduction: every later performance PR
measures itself against the numbers this package exports.

* :mod:`repro.obs.logging` — ``get_logger``/``configure_logging``, a
  silent-by-default logger namespace with optional JSON-lines output.
* :mod:`repro.obs.metrics` — a thread-safe process-local registry of
  counters, gauges and histograms with ``snapshot()``/``to_json()``.
* :mod:`repro.obs.trace` — ``span`` context-manager/decorator tracing
  with a guaranteed no-op fast path when disabled, plus an optional
  bounded buffer of completed-span records (``record_spans``).  Spans
  also carry request identity (``TraceContext``; ``span(..., root=True)``
  / ``span(..., ctx=...)``) with wire hand-off across
  queue/executor/process boundaries.
* :mod:`repro.obs.slo` — declarative SLOs with sliding windows,
  multi-window burn-rate alerts and OpenMetrics exemplars.
* :mod:`repro.obs.contprof` — ``setitimer``-based continuous sampling
  profiler emitting collapsed-stack flamegraph files
  (``--continuous-profile``).
* :mod:`repro.obs.live` — the live telemetry plane: an OpenMetrics
  HTTP endpoint (``--telemetry-port``), atomic JSON heartbeat files
  (``--heartbeat``), resource-sampling gauges and structured alerts.
* :mod:`repro.obs.aggregate` — ships worker-process metrics/spans back
  to the parent at chunk boundaries and merges them into one registry.
* :mod:`repro.obs.export` — Chrome Trace Event JSON export of recorded
  spans (Perfetto / ``chrome://tracing``).
* :mod:`repro.obs.bench` — benchmark history store
  (``BENCH_history.jsonl``) and the pairs/sec regression gate behind
  ``repro bench --compare``.
* :mod:`repro.obs.report` — joins metrics snapshots, checkpoint
  manifests and bench JSON into one Markdown/JSON run report
  (``repro report``).

Quick tour::

    from repro import obs

    log = obs.get_logger("mymodule")
    obs.enable()                      # start recording spans + gated metrics
    with obs.span("my_stage", k=10):
        ...
    print(obs.get_registry().to_json())
    obs.disable()
"""

from repro.obs.logging import (
    JsonLinesFormatter,
    LEVELS,
    configure_logging,
    get_logger,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
)
from repro.obs.trace import (
    current_span,
    disable,
    drain_span_records,
    enable,
    enabled,
    incr,
    observe,
    observe_many,
    record_spans,
    recording,
    set_gauge,
    span,
    span_records,
)
from repro.obs.live import (
    TelemetryPublisher,
    atomic_write_text,
    configure_heartbeat,
    emit_alert,
    heartbeat_tick,
    set_phase,
    tracemalloc_stage,
)
from repro.obs.export import write_trace
from repro.obs.contprof import ContinuousProfiler

__all__ = [
    "ContinuousProfiler",
    "Counter",
    "Gauge",
    "Histogram",
    "JsonLinesFormatter",
    "LEVELS",
    "MetricsRegistry",
    "TelemetryPublisher",
    "atomic_write_text",
    "configure_heartbeat",
    "configure_logging",
    "current_span",
    "disable",
    "drain_span_records",
    "emit_alert",
    "enable",
    "enabled",
    "get_logger",
    "get_registry",
    "heartbeat_tick",
    "incr",
    "observe",
    "observe_many",
    "record_spans",
    "recording",
    "set_gauge",
    "set_phase",
    "span",
    "span_records",
    "tracemalloc_stage",
    "write_trace",
]
