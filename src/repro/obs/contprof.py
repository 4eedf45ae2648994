"""Continuous sampling profiler for the serving path.

A :class:`ContinuousProfiler` arms ``signal.setitimer(ITIMER_PROF)`` at a
fixed rate (default **101 Hz** — prime, so the sampler never phase-locks
with 10 ms/100 Hz periodic work) and, on each ``SIGPROF``, walks
``sys._current_frames()`` to take one collapsed stack per live thread.
``ITIMER_PROF`` counts *CPU* time, not wall time, so an idle replay
frontend costs nothing and the overhead scales with actual work; the
paired benchmark (``benchmarks/bench_obs_overhead.py``) holds the budget
at < 2 % median.

Samples aggregate into **collapsed-stack** form — the ``flamegraph.pl``
/ speedscope input format, one line per unique stack::

    serve;MainThread;frontend.py:recommend_many;batch.py:extract_batch 42

The leading frame is the current serving **phase** (from
:func:`repro.obs.live.current_phase`), then the thread name, then
outermost→innermost ``basename:function`` frames, so a flamegraph reads
stage → thread → code, and :func:`top_frames` can attribute samples by
serving stage for the ``repro report`` table.

Constraints baked in rather than documented away:

* signal handlers can only be installed from the **main thread** — the
  CLI starts the profiler before handing off to asyncio;
* ``setitimer``/``SIGPROF`` are POSIX-only — :func:`supported` gates
  both conditions and the profiler degrades to an explicit error, never
  a silent no-op with an empty output file;
* one profiler per process — the itimer is a process-wide singleton.
"""

from __future__ import annotations

import signal
import sys
import threading
import types
from collections import Counter
from typing import Any, Iterator, Mapping

from repro.obs.live import atomic_write_text, current_phase

__all__ = [
    "ContinuousProfiler",
    "DEFAULT_HZ",
    "parse_collapsed",
    "supported",
    "top_frames",
]

#: default sampling rate; prime to avoid phase-locking periodic work
DEFAULT_HZ = 101

#: frames from these runtime modules are noise at the stack tip
_SKIP_BASENAMES = frozenset({"contprof.py"})

_ACTIVE: "ContinuousProfiler | None" = None


def supported() -> bool:
    """Whether this platform+thread can host the profiler (POSIX
    itimers present AND we are on the main thread, the only thread
    allowed to install signal handlers)."""
    return (
        hasattr(signal, "setitimer")
        and hasattr(signal, "SIGPROF")
        and threading.current_thread() is threading.main_thread()
    )


class ContinuousProfiler:
    """Signal-timer sampling profiler producing collapsed stacks.

    Usage::

        prof = ContinuousProfiler(hz=101)
        prof.start()
        ...serve...
        prof.stop()
        prof.write_collapsed(path)
    """

    def __init__(self, hz: int = DEFAULT_HZ) -> None:
        if hz <= 0:
            raise ValueError(f"sampling rate must be positive, got {hz}")
        self.hz = hz
        self.samples: "Counter[str]" = Counter()
        self.sample_count = 0
        self._running = False
        self._prev_handler: Any = None
        self._thread_names: "dict[int, str]" = {}
        # code object -> "basename:func" (or None when skipped); keyed
        # by the object itself so the entry pins it and the key can
        # never be recycled, keeping the handler allocation-light
        self._frame_text: "dict[types.CodeType, str | None]" = {}

    # ------------------------------------------------------------------
    def _handle(self, signum: int, frame: "types.FrameType | None") -> None:
        """SIGPROF handler: one collapsed stack per live thread.

        Runs in the main thread between bytecodes; keeps to dict/Counter
        lookups — frame strings are cached per code object and thread
        names refresh only when an unknown tid appears — so each tick
        stays in the low-microsecond range.
        """
        self.sample_count += 1
        phase = current_phase() or "idle"
        names = self._thread_names
        frame_text = self._frame_text
        for tid, top in sys._current_frames().items():
            parts: "list[str]" = []
            f: "types.FrameType | None" = top
            while f is not None:
                code = f.f_code
                try:
                    text = frame_text[code]
                except KeyError:
                    basename = code.co_filename.rsplit("/", 1)[-1]
                    text = (
                        None
                        if basename in _SKIP_BASENAMES
                        else f"{basename}:{code.co_name}"
                    )
                    frame_text[code] = text
                if text is not None:
                    parts.append(text)
                f = f.f_back
            if not parts:
                continue
            parts.reverse()
            thread_name = names.get(tid)
            if thread_name is None:
                for thread in threading.enumerate():
                    names[thread.ident or 0] = thread.name
                thread_name = names.get(tid, f"tid-{tid}")
            key = f"{phase};{thread_name};" + ";".join(parts)
            self.samples[key] += 1

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Arm the itimer; raises on unsupported platform/thread or if a
        profiler is already running in this process."""
        global _ACTIVE
        if self._running:
            raise RuntimeError("profiler already running")
        if _ACTIVE is not None:
            raise RuntimeError("another ContinuousProfiler is active in this process")
        if not supported():
            raise RuntimeError(
                "continuous profiling needs POSIX setitimer/SIGPROF and the "
                "main thread (signal handlers cannot be installed elsewhere)"
            )
        interval = 1.0 / self.hz
        self._prev_handler = signal.signal(signal.SIGPROF, self._handle)
        signal.setitimer(signal.ITIMER_PROF, interval, interval)
        self._running = True
        _ACTIVE = self

    def stop(self) -> None:
        """Disarm the itimer and restore the previous handler (idempotent)."""
        global _ACTIVE
        if not self._running:
            return
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        if self._prev_handler is not None:
            signal.signal(signal.SIGPROF, self._prev_handler)
        else:
            signal.signal(signal.SIGPROF, signal.SIG_DFL)
        self._prev_handler = None
        self._running = False
        if _ACTIVE is self:
            _ACTIVE = None

    def __enter__(self) -> "ContinuousProfiler":
        self.start()
        return self

    def __exit__(self, *exc: Any) -> bool:
        self.stop()
        return False

    # ------------------------------------------------------------------
    def collapsed(self) -> str:
        """The collapsed-stack text: ``frame;frame;... count`` lines,
        sorted by stack for deterministic output."""
        lines = [f"{stack} {count}" for stack, count in sorted(self.samples.items())]
        return "\n".join(lines) + ("\n" if lines else "")

    def write_collapsed(self, path: str) -> None:
        """Atomically write :meth:`collapsed` (plus a header comment with
        rate and sample count) to ``path``."""
        header = (
            f"# repro continuous profile: {self.hz}Hz ITIMER_PROF, "
            f"{self.sample_count} ticks, {sum(self.samples.values())} stacks\n"
        )
        atomic_write_text(path, header + self.collapsed())

    def top_frames(self, n: int = 10) -> "list[tuple[str, int]]":
        """The ``n`` hottest stacks as ``(stack, samples)``."""
        return self.samples.most_common(n)


# ----------------------------------------------------------------------
# collapsed-file readers (used by `repro report --profile`)
# ----------------------------------------------------------------------
def parse_collapsed(text: str) -> "Counter[str]":
    """Parse collapsed-stack text back into stack -> sample counts.

    Tolerates header/comment lines (``#``) and blank lines; a line whose
    trailing field is not an integer is skipped rather than fatal, so a
    truncated profile still yields a partial table.
    """
    counts: "Counter[str]" = Counter()
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        stack, _sep, count_text = line.rpartition(" ")
        if not stack:
            continue
        try:
            counts[stack] += int(count_text)
        except ValueError:
            continue
    return counts


def _leaf_frames(counts: "Mapping[str, int]") -> "Iterator[tuple[str, int]]":
    for stack, count in counts.items():
        leaf = stack.rsplit(";", 1)[-1]
        yield leaf, count


def top_frames(text: str, n: int = 10) -> "list[tuple[str, int]]":
    """Top-``n`` *leaf* frames (self-time attribution) from collapsed
    text — the shape the ``repro report`` flamegraph table renders."""
    totals: "Counter[str]" = Counter()
    for leaf, count in _leaf_frames(parse_collapsed(text)):
        totals[leaf] += count
    return totals.most_common(n)
