"""Lightweight span tracing for the extraction pipeline.

A :class:`span` marks one timed region — an extraction stage, a batch, a
streaming window.  On exit it feeds its wall time into the default
metrics registry as the histogram ``span.<name>`` (seconds), so p50/p95/p99
per-stage timings fall out of the same export path as every other
metric.  Spans nest: each span knows its slash-joined ``path`` from the
outermost enclosing span and inherits (then may override) its parent's
tags, giving call-tree context without a heavyweight tracing dependency.

The whole module is built around a **no-op fast path**: tracing is
disabled by default and every ``span.__enter__`` starts with a single
module-global flag check.  When disabled, no clock is read, no thread
local is touched and no registry entry is created, so instrumenting the
per-link hot path costs well under a microsecond per span and tier-1 /
benchmark timings are unaffected.  :func:`enable` flips everything on;
the CLI does so for ``repro profile`` and whenever ``--metrics-out`` is
requested.

Hot-path helpers :func:`observe`, :func:`incr` and :func:`set_gauge`
apply the same gate to plain metric writes, so instrumentation points in
inner loops stay free when observability is off.

**Span recording** is a second, independent switch on top of
:func:`enable`: :func:`record_spans` makes every completed span also
append a plain-dict record (name, path, start, duration, pid, tid,
tags) to a bounded process-local buffer.  The buffer feeds the Chrome
Trace export (:mod:`repro.obs.export`, ``--trace-out``) and the worker
→ parent span shipping of :mod:`repro.obs.aggregate`; it is drained
with :func:`drain_span_records`.  Start times come from
``time.perf_counter()``, which is system-wide monotonic on Linux, so
records from forked/spawned worker processes align with the parent's
on one timeline.  When the buffer cap is hit further records are
dropped (counted by :func:`dropped_span_records`) rather than growing
without bound.

**Request identity.**  A :class:`TraceContext` — ``trace_id`` /
``span_id`` / ``parent_id`` — names one node of one request's span
tree.  Each span on the (task-local) span stack carries the context
active in its body, so :func:`current_context` follows ``await``
chains and task switches.  A span becomes a *node* of a trace when it
is given ``ctx=`` (a child of that context), or ``root=True`` (a child
of the active context, else a fresh trace); its record then carries
``trace_id``/``span_id``/``parent_span_id``.  Any other span under an
active context is a *leaf*: its record carries the ``trace_id`` and the
enclosing node as ``parent_span_id``.  ``members=`` lists the other
trace ids a node serves (the batch fan-in case) under ``trace_ids``.

Context does not cross a queue hand-off, ``run_in_executor`` or a
process boundary on its own; carry :func:`current_context` (or its
picklable :meth:`TraceContext.to_wire` form) across and open the far
side's span with ``ctx=``.  Ids are deterministic (pid + a locked
counter — no RNG, per lint R103) and unique across a worker pool.

Usage::

    with span("structure_combination", k=10):
        ...

    @span("palette_wl")
    def order(...):
        ...

    with span("serve.request", root=True) as request:
        ctx = request.ctx        # ship across an explicit boundary
    # elsewhere (another thread/process):
    with span("serve.score", ctx=ctx):
        ...
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import os
import threading
import time
from dataclasses import dataclass
from types import TracebackType
from typing import Any, Callable, ParamSpec, Sequence, TypeVar

from repro.obs.logging import get_logger
from repro.obs.metrics import get_registry

_P = ParamSpec("_P")
_R = TypeVar("_R")

#: module-global observability switch — the single check on the fast path
_ENABLED = False

#: secondary switch: retain completed-span records for trace export
_RECORDING = False

#: cap on retained span records per process (export/shipping keeps up at
#: chunk boundaries; the cap only bounds pathological single-chunk runs)
MAX_SPAN_RECORDS = 200_000

_records: "list[dict[str, Any]]" = []
_records_dropped = 0
_records_lock = threading.Lock()
_drop_warned = False

_IDS = itertools.count(1)
_IDS_LOCK = threading.Lock()

#: the active span stack, a ContextVar so concurrent asyncio tasks on
#: one thread (the serving frontend) each see their own lineage — a
#: thread-local list would interleave enter/exit across tasks and leak
#: whichever span was not on top when it exited
_SPAN_STACK: "contextvars.ContextVar[tuple[span, ...]]" = contextvars.ContextVar(
    "repro_obs_span_stack", default=()
)


def _reinit_locks_after_fork() -> None:
    """Forked children get fresh locks (the parent's could have been
    held by another thread at fork time and would never unlock); the id
    counter itself is safe — child ids embed the child pid."""
    global _records_lock, _IDS_LOCK
    _records_lock = threading.Lock()
    _IDS_LOCK = threading.Lock()


if hasattr(os, "register_at_fork"):  # absent on some platforms (Windows)
    os.register_at_fork(after_in_child=_reinit_locks_after_fork)


def _next_id(prefix: str) -> str:
    """A process-unique identifier; pid-qualified so pool workers never
    collide with the parent (deterministic: no RNG, per lint R103)."""
    with _IDS_LOCK:
        serial = next(_IDS)
    return f"{prefix}{os.getpid():x}-{serial:06x}"


@dataclass(frozen=True)
class TraceContext:
    """One request's position in its trace: ids only, no timing.

    ``trace_id`` names the whole request; ``span_id`` this node in the
    request's span tree; ``parent_id`` the enclosing node (``None`` at
    the root).  Frozen so a context captured at a boundary can never be
    mutated behind the captor's back.
    """

    trace_id: str
    span_id: str
    parent_id: "str | None" = None

    def child(self) -> "TraceContext":
        """A fresh child node under this one (same trace)."""
        return TraceContext(
            trace_id=self.trace_id,
            span_id=_next_id("s"),
            parent_id=self.span_id,
        )

    def to_wire(self) -> "tuple[str, str, str | None]":
        """The picklable tuple form for queue/executor/process hand-off."""
        return (self.trace_id, self.span_id, self.parent_id)

    @classmethod
    def from_wire(
        cls, wire: "tuple[str, str, str | None] | None"
    ) -> "TraceContext | None":
        """Rebuild a context from :meth:`to_wire` output (None-safe)."""
        if wire is None:
            return None
        trace_id, span_id, parent_id = wire
        return cls(trace_id=trace_id, span_id=span_id, parent_id=parent_id)


def new_trace() -> TraceContext:
    """A fresh root context (new trace_id, root span node)."""
    return TraceContext(trace_id=_next_id("t"), span_id=_next_id("s"))


def current_context() -> "TraceContext | None":
    """The request context active in this task/thread, or ``None``."""
    stack = _SPAN_STACK.get()
    return stack[-1].ctx if stack else None


def current_wire() -> "tuple[str, str, str | None] | None":
    """:meth:`TraceContext.to_wire` of the active context (None-safe)."""
    ctx = current_context()
    return ctx.to_wire() if ctx is not None else None


def enabled() -> bool:
    """Whether span tracing / gated metrics are currently recording."""
    return _ENABLED


def enable() -> None:
    """Turn observability on (spans time themselves, gated metrics record)."""
    global _ENABLED
    _ENABLED = True


def disable() -> None:
    """Return to the zero-overhead default."""
    global _ENABLED
    _ENABLED = False


def recording() -> bool:
    """Whether completed spans are being retained as records."""
    return _RECORDING


def record_spans(on: bool = True) -> None:
    """Toggle span-record retention (requires :func:`enable` to matter)."""
    global _RECORDING
    _RECORDING = on


def _note_dropped(n: int) -> None:
    """Account for ``n`` records lost to the cap (caller holds the lock).

    The loss is surfaced three ways: the process-local drop count
    (:func:`dropped_span_records`), the ``obs.spans_dropped`` counter
    (so ``repro report`` flags it), and a one-time structured WARNING —
    once per process, not once per record, because overflow happens on
    the per-span hot path.
    """
    global _records_dropped, _drop_warned
    _records_dropped += n
    get_registry().counter("obs.spans_dropped").inc(n)
    if not _drop_warned:
        _drop_warned = True
        get_logger("obs.trace").warning(
            "span record buffer full (cap %d): dropping further span records; "
            "trace export will be incomplete",
            MAX_SPAN_RECORDS,
            extra={"span_record_cap": MAX_SPAN_RECORDS, "dropped_so_far": n},
        )


def add_span_record(record: "dict[str, Any]") -> None:
    """Append one completed-span record (used by the worker merge path).

    Respects the process cap: overflow increments the dropped count
    instead of growing the buffer.
    """
    with _records_lock:
        if len(_records) >= MAX_SPAN_RECORDS:
            _note_dropped(1)
        else:
            _records.append(record)


def extend_span_records(records: "list[dict[str, Any]]") -> None:
    """Append many records (bulk form of :func:`add_span_record`)."""
    with _records_lock:
        room = MAX_SPAN_RECORDS - len(_records)
        if room >= len(records):
            _records.extend(records)
        else:
            _records.extend(records[:room])
            _note_dropped(len(records) - room)


def drain_span_records() -> "list[dict[str, Any]]":
    """Return and clear the retained span records."""
    with _records_lock:
        out = list(_records)
        _records.clear()
        return out


def span_records() -> "list[dict[str, Any]]":
    """A copy of the retained span records (without clearing)."""
    with _records_lock:
        return list(_records)


def dropped_span_records() -> int:
    """How many records the cap has discarded in this process."""
    return _records_dropped


def current_span() -> "span | None":
    """The innermost active span in this task/thread, or ``None``."""
    stack = _SPAN_STACK.get()
    return stack[-1] if stack else None


class span:
    """Context manager *and* decorator timing one named region.

    ``ctx``/``root``/``members`` make the span a node of a request trace
    (see the module docstring); without them it is a leaf of whatever
    trace is active, or identity-free when none is.

    Attributes (meaningful only while/after an *enabled* run):
        name: the stage name; feeds histogram ``span.<name>``.
        tags: own tags merged over the parent span's tags.
        path: slash-joined names from the outermost span, e.g.
            ``"feature_extract/palette_wl"``.
        duration: wall seconds, set on exit.
        ctx: the request context active in the body — this span's own
            node, or the inherited one for a leaf; ``None`` when
            identity-free.
    """

    __slots__ = (
        "name", "_own_tags", "tags", "path", "duration", "_start", "_active",
        "_token", "_ctx_arg", "_root", "_members", "ctx",
    )

    def __init__(
        self,
        name: str,
        *,
        ctx: "TraceContext | None" = None,
        root: bool = False,
        members: "list[str] | None" = None,
        **tags: Any,
    ) -> None:
        self.name = name
        self._own_tags = tags
        self.tags: "dict[str, Any]" = tags
        self.path = name
        self.duration: "float | None" = None
        self._start = 0.0
        self._active = False
        self._token: "contextvars.Token[tuple[span, ...]] | None" = None
        self._ctx_arg = ctx
        self._root = root
        self._members = members
        self.ctx: "TraceContext | None" = None

    def __enter__(self) -> "span":
        if not _ENABLED:
            return self
        stack = _SPAN_STACK.get()
        parent = stack[-1] if stack else None
        if parent is not None:
            self.path = f"{parent.path}/{self.name}"
            self.tags = {**parent.tags, **self._own_tags}
            active = parent.ctx
        else:
            self.path = self.name
            self.tags = dict(self._own_tags)
            active = None
        if self._ctx_arg is not None:
            self.ctx = self._ctx_arg.child()
        elif self._root:
            self.ctx = active.child() if active is not None else new_trace()
        else:
            self.ctx = active
        self._token = _SPAN_STACK.set(stack + (self,))
        self._active = True
        self._start = time.perf_counter()
        return self

    def __exit__(
        self,
        exc_type: "type[BaseException] | None",
        exc: "BaseException | None",
        tb: "TracebackType | None",
    ) -> None:
        if not self._active:
            return
        self.duration = time.perf_counter() - self._start
        self._active = False
        token, self._token = self._token, None
        if token is not None:
            try:
                _SPAN_STACK.reset(token)
            except ValueError:
                # exited in a different context than it entered (rare:
                # generator-held spans); best-effort unwind instead
                stack = _SPAN_STACK.get()
                if stack and stack[-1] is self:
                    _SPAN_STACK.set(stack[:-1])
        get_registry().histogram(f"span.{self.name}").observe(self.duration)
        if _RECORDING:
            record: "dict[str, Any]" = {
                "name": self.name,
                "path": self.path,
                "ts": self._start,
                "dur": self.duration,
                "pid": os.getpid(),
                "tid": threading.get_ident(),
                "tags": dict(self.tags),
            }
            ctx = self.ctx
            if ctx is not None:
                record["trace_id"] = ctx.trace_id
                if self._ctx_arg is not None or self._root:
                    record["span_id"] = ctx.span_id
                    record["parent_span_id"] = ctx.parent_id
                    if self._members:
                        record["trace_ids"] = list(self._members)
                else:
                    record["parent_span_id"] = ctx.span_id
            add_span_record(record)

    @property
    def trace_id(self) -> "str | None":
        """The trace this span belongs to (``None`` when identity-free)."""
        return self.ctx.trace_id if self.ctx is not None else None

    def __call__(self, func: "Callable[_P, _R]") -> "Callable[_P, _R]":
        """Decorator form: each call runs inside a fresh span."""

        @functools.wraps(func)
        def wrapper(*args: _P.args, **kwargs: _P.kwargs) -> _R:
            with span(
                self.name,
                ctx=self._ctx_arg,
                root=self._root,
                members=self._members,
                **self._own_tags,
            ):
                return func(*args, **kwargs)

        return wrapper

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "active" if self._active else "idle"
        return f"span({self.name!r}, {state}, tags={self.tags})"


# ----------------------------------------------------------------------
# gated hot-path metric helpers
# ----------------------------------------------------------------------
def observe(name: str, value: float) -> None:
    """Record a histogram observation — only when observability is on."""
    if _ENABLED:
        get_registry().histogram(name).observe(value)


def observe_many(name: str, values: "Sequence[float]") -> None:
    """Record a batch of histogram observations — only when observability
    is on.  One registry lookup and one lock acquisition for the whole
    sequence, so per-element instrumentation in hot loops can accumulate
    locally and flush once (state identical to per-value :func:`observe`)."""
    if _ENABLED and values:
        get_registry().histogram(name).observe_many(values)


def incr(name: str, amount: float = 1.0) -> None:
    """Bump a counter — only when observability is on."""
    if _ENABLED:
        get_registry().counter(name).inc(amount)


def set_gauge(name: str, value: float) -> None:
    """Set a gauge — only when observability is on."""
    if _ENABLED:
        get_registry().gauge(name).set(value)
