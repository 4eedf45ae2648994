"""Spans recorded around the program's public calls, from outside the program.

A :class:`Tracer` replaces each listed callable, at the name its caller looks
it up, with a wrapper that records one span per call: its name, start, end,
thread, parent span (the innermost open span on the same thread), the phase
of the run it fell in (set-up, window or check) and a work size (pairs,
queries or events).  Spans stay in memory, one buffer per thread so the event
loop and the executor thread never interleave writes, and are written once,
by :meth:`Tracer.dump`, when the run ends.

Two wrapper sets exist.  ``COUNT_LAYERS`` wraps only the rare calls whose
counts the program does not expose (engine calls, delta merges); it stays on
in untraced runs, where it costs a few hundred spans per run.  ``ALL_LAYERS``
adds every layer of the per-layer table and is installed only for the traced
run.  Both produce their work counts from the same spans, so a traced run and
an untraced run of the same seed must report identical counts.
"""

from __future__ import annotations

import collections
import functools
import threading
import time
from array import array
from pathlib import Path

import numpy as np

PHASES = ("setup", "window", "check")

# (span name, dotted owner, attribute): the owner is the module or class the
# caller looks the attribute up on
COUNT_LAYERS = (
    ("batch.extract", "repro.core.batch.BatchExtractionEngine", "extract_batch"),
    ("batch.extract", "repro.core.batch.BatchExtractionEngine", "extract_multi_batch"),
    ("delta.snapshot", "repro.serve.delta.DeltaCSRSnapshot", "snapshot"),
)
ALL_LAYERS = COUNT_LAYERS + (
    ("runner.pass", "repro.experiments.runner.LinkPredictionExperiment", "feature_matrices"),
    ("csr.freeze", "repro.graph.csr.CSRSnapshot", "from_dynamic"),
    ("palette_wl.order", "repro.core.batch", "palette_wl_order_many"),
    ("palette_wl.distances", "repro.core.batch", "flat_hop_distances"),
    ("model.fit", "repro.models.linear.LinearRegressionModel", "fit"),
    ("model.score", "repro.models.linear.LinearRegressionModel", "decision_scores"),
    ("delta.seed", "repro.serve.delta.DeltaCSRSnapshot", "from_dynamic"),
    ("delta.apply", "repro.serve.delta.DeltaCSRSnapshot", "apply"),
    ("cache.get", "repro.serve.cache.FeatureCache", "get"),
    ("cache.put", "repro.serve.cache.FeatureCache", "put"),
    ("cache.invalidate", "repro.serve.cache.FeatureCache", "invalidate_nodes"),
    ("recommender.batch", "repro.serve.frontend.ServingRecommender", "recommend_many"),
    ("recommender.candidates", "repro.serve.frontend.ServingRecommender", "candidates"),
    ("recommender.ingest", "repro.serve.frontend.ServingRecommender", "ingest"),
    ("frontend.recommend", "repro.serve.frontend.AsyncScoringFrontend", "recommend"),
)


def _resolve(dotted: str) -> object:
    import importlib

    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj: object = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise ModuleNotFoundError(dotted)


class _ThreadSpans:
    """Column store of one thread's spans plus its open-span stack."""

    def __init__(self, thread: int) -> None:
        self.thread = thread
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.phase = array("b")
        self.size = array("q")
        self.child = array("d")  # seconds covered by direct children
        self.stack: list[int] = []

    def open(self, name: int, phase: int, size: int) -> int:
        index = len(self.name)
        self.name.append(name)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.phase.append(phase)
        self.size.append(size)
        self.child.append(0.0)
        self.end.append(0.0)
        self.stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def close(self, index: int, size: "int | None" = None) -> None:
        end = time.perf_counter()
        self.end[index] = end
        self.stack.pop()
        if size is not None:
            self.size[index] = size
        parent = self.parent[index]
        if parent >= 0:
            self.child[parent] += end - self.start[index]


class Tracer:
    """Records spans around ``layers`` while installed (a context manager)."""

    def __init__(self, layers: "tuple[tuple[str, str, str], ...]" = COUNT_LAYERS) -> None:
        self.layers = layers
        self.phase = 0
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._buffers: dict[int, _ThreadSpans] = {}
        self._patches: list[tuple[object, str, object]] = []
        # frontend requests: call start / end / outcome on the loop thread;
        # ``_waiting`` is the FIFO of (request id, call start) a batch pops
        self.req_start = array("d")
        self.req_end = array("d")
        self.req_ok = array("b")
        self.req_phase = array("b")
        self._waiting: "collections.deque[tuple[int, float]]" = collections.deque()
        # per recommend_many span: its thread, its index in that thread's
        # buffer, and the contiguous run of request ids it served
        self.batch_thread: list[int] = []
        self.batch_span = array("i")
        self.batch_first_request = array("q")
        self.batch_requests = array("i")
        self.queue_wait = array("d")
        self.queue_wait_phase = array("b")
        self.timeouts: "collections.Counter[str]" = collections.Counter()

    # ------------------------------------------------------------------
    # phases and install / uninstall
    # ------------------------------------------------------------------
    def set_phase(self, phase: str) -> None:
        self.phase = PHASES.index(phase)

    def __enter__(self) -> "Tracer":
        for span_name, owner_path, attr in self.layers:
            owner = _resolve(owner_path)
            raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._patches.append((owner, attr, raw))
            setattr(owner, attr, self._wrap(span_name, raw))
        return self

    def __exit__(self, *exc_info: object) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _buffer(self) -> _ThreadSpans:
        ident = threading.get_ident()
        buffer = self._buffers.get(ident)
        if buffer is None:
            buffer = self._buffers[ident] = _ThreadSpans(ident)
        return buffer

    def _wrap(self, span_name: str, raw: object) -> object:
        if isinstance(raw, classmethod):
            return classmethod(self._wrap_function(span_name, raw.__func__))
        if span_name == "frontend.recommend":
            return self._wrap_request(raw)
        return self._wrap_function(span_name, raw)

    def _wrap_function(self, span_name: str, fn: "object") -> object:
        tracer = self
        name = self._name_id(span_name)
        size_of = _SIZE_OF.get(span_name)
        size_of_result = _SIZE_OF_RESULT.get(span_name)

        @functools.wraps(fn)  # type: ignore[arg-type]
        def wrapper(*args: object, **kwargs: object) -> object:
            if span_name == "delta.snapshot" and not args[0].pending_events:  # type: ignore[attr-defined]
                return fn(*args, **kwargs)  # type: ignore[operator]
            buffer = tracer._buffer()
            size = size_of(args, kwargs) if size_of is not None else 0
            index = buffer.open(name, tracer.phase, size)
            if span_name == "recommender.batch":
                tracer._serve_waiting(buffer, index, size)
            result = None
            try:
                result = fn(*args, **kwargs)  # type: ignore[operator]
                return result
            finally:
                buffer.close(index, size_of_result(result) if size_of_result else None)

        return wrapper

    def _serve_waiting(self, buffer: _ThreadSpans, index: int, queries: int) -> None:
        """Pop the requests this frontend batch serves, oldest first."""
        started = buffer.start[index]
        served = min(queries, len(self._waiting))
        if not served:
            return
        first = -1
        for _ in range(served):
            request, called = self._waiting.popleft()
            first = request if first < 0 else first
            self.queue_wait.append(started - called)
            self.queue_wait_phase.append(self.phase)
        self.batch_thread.append(buffer.thread)
        self.batch_span.append(index)
        self.batch_first_request.append(first)
        self.batch_requests.append(served)

    def _wrap_request(self, fn: "object") -> object:
        from repro.serve.frontend import ServingTimeout

        tracer = self

        @functools.wraps(fn)  # type: ignore[arg-type]
        async def wrapper(*args: object, **kwargs: object) -> object:
            request = len(tracer.req_start)
            phase = tracer.phase
            started = time.perf_counter()
            tracer.req_start.append(started)
            tracer.req_end.append(0.0)
            tracer.req_ok.append(0)
            tracer.req_phase.append(phase)
            # the frontend enqueues before its first suspension, so this
            # FIFO holds requests in the order its worker batches them
            tracer._waiting.append((request, started))
            try:
                result = await fn(*args, **kwargs)  # type: ignore[operator]
            except ServingTimeout:
                tracer.timeouts[PHASES[phase]] += 1
                raise
            finally:
                tracer.req_end[request] = time.perf_counter()
            tracer.req_ok[request] = 1
            return result

        return wrapper

    # ------------------------------------------------------------------
    # read-out
    # ------------------------------------------------------------------
    def _offsets(self) -> "dict[int, int]":
        """Where each thread's spans start once threads are concatenated."""
        offsets, total = {}, 0
        for thread, buffer in self._buffers.items():
            offsets[thread] = total
            total += len(buffer.name)
        return offsets

    def spans(self) -> "dict[str, np.ndarray]":
        """Every span as columns, threads concatenated; parents re-indexed."""
        cols: dict[str, list[np.ndarray]] = {
            key: [] for key in ("name", "start", "end", "thread", "parent", "phase", "size", "child")
        }
        offsets = self._offsets()
        for thread_index, buffer in enumerate(self._buffers.values()):
            offset = offsets[buffer.thread]
            count = len(buffer.name)
            parent = np.frombuffer(buffer.parent, dtype=np.int32).astype(np.int64)
            cols["name"].append(np.frombuffer(buffer.name, dtype=np.int32))
            cols["start"].append(np.frombuffer(buffer.start, dtype=np.float64))
            cols["end"].append(np.frombuffer(buffer.end, dtype=np.float64))
            cols["thread"].append(np.full(count, thread_index, dtype=np.int32))
            cols["parent"].append(np.where(parent >= 0, parent + offset, -1))
            cols["phase"].append(np.frombuffer(buffer.phase, dtype=np.int8))
            cols["size"].append(np.frombuffer(buffer.size, dtype=np.int64))
            cols["child"].append(np.frombuffer(buffer.child, dtype=np.float64))
        return {
            key: (np.concatenate(parts) if parts else np.zeros(0))
            for key, parts in cols.items()
        }

    def layer_stats(self, phase: str) -> "dict[str, dict[str, float]]":
        """Per span name: calls, summed size, busy and self seconds, size p50."""
        cols = self.spans()
        keep = cols["phase"] == PHASES.index(phase)
        out: dict[str, dict[str, float]] = {}
        for name_id, name in enumerate(self.names):
            mask = keep & (cols["name"] == name_id)
            dur = cols["end"][mask] - cols["start"][mask]
            sizes = cols["size"][mask]
            out[name] = {
                "calls": float(mask.sum()),
                "size": float(sizes.sum()),
                "size_p50": float(np.median(sizes)) if sizes.size else 0.0,
                "busy_s": float(dur.sum()),
                "self_s": float((dur - cols["child"][mask]).sum()),
            }
        return out

    def queue_waits_ms(self, phase: str) -> np.ndarray:
        waits = np.frombuffer(self.queue_wait, dtype=np.float64)
        mask = np.frombuffer(self.queue_wait_phase, dtype=np.int8) == PHASES.index(phase)
        return waits[mask] * 1e3

    def dump(self, path: Path, meta: "dict[str, object]") -> None:
        """Write every span, request and batch once, as one ``.npz`` file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        cols = self.spans()
        offsets = self._offsets()
        np.savez(
            path,
            names=np.array(self.names),
            phases=np.array(PHASES),
            meta=np.array(repr(meta)),
            **{f"span_{key}": value for key, value in cols.items()},
            request_start=np.frombuffer(self.req_start, dtype=np.float64),
            request_end=np.frombuffer(self.req_end, dtype=np.float64),
            request_ok=np.frombuffer(self.req_ok, dtype=np.int8),
            request_phase=np.frombuffer(self.req_phase, dtype=np.int8),
            batch_span=np.array(
                [offsets[t] + i for t, i in zip(self.batch_thread, self.batch_span)],
                dtype=np.int64,
            ),
            batch_first_request=np.frombuffer(self.batch_first_request, dtype=np.int64),
            batch_requests=np.frombuffer(self.batch_requests, dtype=np.int32),
        )


def _len_arg(position: int, keyword: str) -> "object":
    def size(args: tuple, kwargs: dict) -> int:
        return len(args[position] if len(args) > position else kwargs[keyword])

    return size


# work size recorded at call time (from an argument) or at return (result)
_SIZE_OF = {
    "batch.extract": _len_arg(1, "pairs"),
    "recommender.batch": _len_arg(1, "queries"),
    "delta.snapshot": lambda args, kwargs: args[0].pending_events,
}
_SIZE_OF_RESULT = {
    "delta.apply": len,
    "cache.invalidate": len,
    "cache.get": lambda entry: int(entry is not None),
}
