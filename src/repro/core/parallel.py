"""Multiprocess SSF extraction for large pair batches.

Per-link SSF extraction is embarrassingly parallel: each target link's
subgraph growth, structure combination and ordering touch only the
(read-only) history network.  This module fans a pair list out over a
``multiprocessing`` pool; the history is shipped once per worker
(initializer), not per pair.

Only the csr backend runs in a pool: the dict backend is the in-process
reference, and asking for it with ``workers > 1`` is an error.  What a
worker receives is the frozen :class:`~repro.graph.csr.CSRSnapshot`, a
handful of flat numpy arrays.  Under ``fork`` the child inherits the
parent's pages copy-on-write (workers never write them, so start-up is
O(1) regardless of |E|); without ``fork`` the arrays are exported once
into a single :mod:`multiprocessing.shared_memory` block and each worker
maps it zero-copy.  The per-link influence table for the batch's
``present_time`` is materialised in the parent *before* the pool starts
so children share those pages too.

Fault tolerance (see docs/ROBUSTNESS.md): the batch is dispatched as
*indexed chunks* through ``imap_unordered``, so the parent knows exactly
which chunks have landed.  A chunk lost to a dead worker or stuck past
the :class:`~repro.robust.RetryPolicy` timeout only costs that chunk: the
pool is respawned and the missing chunks — nothing else — are re-run, up
to ``max_retries`` rounds, after which the parent extracts the stragglers
itself, sequentially.  Failed pairs are therefore never dropped, and
because retries are pure re-execution of a deterministic extraction, a
faulty run returns **bit-identical** features to a fault-free one.  When
the ``spawn``-path shared-memory export or attach fails (shm exhaustion,
permissions), the batch degrades to the snapshot pickled per worker, with
a warning, instead of aborting.  Counters: ``robust.retries``,
``robust.fallbacks``, ``robust.shm_degradations``.

Observability (see docs/OBSERVABILITY.md): the parent's observability
switches are forwarded to every worker through the pool initializer, and
each worker drains its process-local registry (as a mergeable delta) and
any recorded spans at every chunk boundary, piggybacked on the chunk
result.  The parent merges the payloads as results land, so one registry
snapshot / one Chrome trace describes the whole run — worker-side stage
timings included, across retried rounds and in-parent fallbacks.  The
counter ``parallel.pairs_extracted`` is bumped on every path (pool
chunk, sequential, parent fallback), so its merged value always equals
the number of pairs extracted.  When observability is disabled the
payload slot ships ``None`` and nothing else changes.

Results are order-preserving and bit-identical to the sequential path —
guaranteed by the differential tests — so callers can enable workers
freely.  For small batches the pool start-up costs more than it saves;
:func:`parallel_extract_batch` therefore falls back to sequential
extraction below :func:`min_pairs_for_pool` (default
:data:`MIN_PAIRS_FOR_POOL`, overridable per call with ``min_pairs=``).
"""

from __future__ import annotations

import multiprocessing as mp
import os
import time
from typing import Any, Callable, Hashable, Sequence

import numpy as np

from repro.core.feature import SSFConfig, SSFExtractor
from repro.graph.csr import CSRSnapshot, SharedSnapshotHandle
from repro.graph.temporal import DynamicNetwork
from repro.obs import (
    enabled as obs_enabled,
    get_logger,
    heartbeat_tick,
    incr,
    observe,
    set_gauge,
    span,
)
from repro.obs.trace import TraceContext, current_context, current_wire
from repro.obs.aggregate import (
    ObsState,
    apply_worker_obs_state,
    collect_worker_payload,
    merge_worker_payload,
    parent_obs_state,
)
from repro.robust import RetryPolicy
from repro.robust import faults

Node = Hashable
Pair = tuple[Node, Node]

#: (chunk index, offset of the chunk's first pair in the batch, pairs,
#: requesting trace context as :meth:`TraceContext.to_wire` output —
#: contextvars do not cross the process boundary, so the wire rides the
#: task payload and the worker's chunk span adopts it as its parent)
ChunkTask = tuple[int, int, list[Pair], "tuple[str, str, str | None] | None"]

_LOG = get_logger("core.parallel")

#: below this many pairs, the pool start-up costs more than it saves
MIN_PAIRS_FOR_POOL = 64

# Per-worker state, installed by _initialize (once per worker).
class _WorkerState:
    """Per-process worker slot, filled by the pool initializer.

    A module-level container whose *attributes* are mutated — the worker
    path never rebinds module globals, so parent and child state can't
    be confused (lint R503).  ``init_error`` holds ``(failure point,
    message)`` when the initializer could not build the extractor;
    surfaced lazily through :class:`_WorkerInitError` so a failed init
    never kills the worker process (a dying initializer would make the
    pool respawn workers forever instead of reporting anything).
    """

    __slots__ = ("extractor", "modes", "init_seconds", "init_error")

    def __init__(self) -> None:
        self.extractor: "SSFExtractor | None" = None
        self.modes: "tuple[str, ...] | None" = None
        self.init_seconds: float = 0.0
        self.init_error: "tuple[str, str] | None" = None


_WORKER = _WorkerState()


class _WorkerInitError(RuntimeError):
    """A pool worker could not initialise; raised at first chunk use.

    ``args[0]`` is the failure point (``"shm_attach"`` or ``"error"``),
    ``args[1]`` the original message — picklable, so it crosses the
    process boundary intact.
    """

    @property
    def point(self) -> str:
        return str(self.args[0])


def min_pairs_for_pool(override: "int | None" = None) -> int:
    """The sequential-fallback threshold actually in effect: the explicit
    ``override`` argument, else the module default
    :data:`MIN_PAIRS_FOR_POOL`.
    """
    if override is not None:
        if override < 0:
            raise ValueError(f"min_pairs_for_pool must be >= 0, got {override}")
        return int(override)
    return MIN_PAIRS_FOR_POOL


def _initialize(
    kind: str,
    payload: "CSRSnapshot | SharedSnapshotHandle",
    config: SSFConfig,
    present_time: float,
    modes: "tuple[str, ...] | None",
    obs_state: "ObsState | None" = None,
) -> None:
    """Install the per-worker extractor.

    ``kind`` says how the snapshot arrived: ``"csr"`` (a snapshot reference
    inherited through fork — zero-copy — or pickled by spawn) or
    ``"csr_shared"`` (a :class:`SharedSnapshotHandle` to attach to).
    ``obs_state`` forwards the parent's observability switches so the
    worker's instrumentation records (and ships) exactly when the
    parent's does.

    Never raises: failures are recorded in ``_WORKER.init_error`` and
    re-raised per chunk, so the parent sees one clean error instead of a
    pool stuck respawning crashed workers.
    """
    if obs_state is not None:
        apply_worker_obs_state(obs_state)
    started = time.perf_counter()
    _WORKER.init_error = None
    with span("parallel.worker_init", kind=kind):
        try:
            if kind == "csr_shared":
                assert isinstance(payload, SharedSnapshotHandle)
                snapshot = CSRSnapshot.from_shared(payload)
            else:
                assert isinstance(payload, CSRSnapshot)
                snapshot = payload
            _WORKER.extractor = SSFExtractor(
                snapshot, config, present_time=present_time, backend="csr"
            )
            _WORKER.modes = modes
        except OSError as exc:
            # shared-memory attach failure (or an injected stand-in):
            # the parent degrades the payload and respawns the pool.
            point = "shm_attach" if kind == "csr_shared" else "error"
            _WORKER.init_error = (point, f"{type(exc).__name__}: {exc}")
            _WORKER.extractor = None
        except Exception as exc:  # pragma: no cover - defensive: unknown init failure
            _WORKER.init_error = ("error", f"{type(exc).__name__}: {exc}")
            _WORKER.extractor = None
    _WORKER.init_seconds = time.perf_counter() - started


def _extract_block(
    extractor: SSFExtractor,
    pairs: "Sequence[Pair]",
    modes: "tuple[str, ...] | None",
) -> "np.ndarray | dict[str, np.ndarray]":
    """One batched-driver call for a whole chunk: its feature matrix, or
    ``{mode: matrix}`` under multi-mode."""
    pair_list = list(pairs)
    if modes is None:
        return extractor.extract_batch(pair_list)
    return extractor.extract_multi_batch(pair_list, modes)


def _extract_chunk(
    task: ChunkTask,
) -> "tuple[int, np.ndarray | dict[str, np.ndarray], dict | None]":
    """Worker entry point: extract one indexed chunk of pairs.

    Returns ``(chunk index, block, observability payload)``: the block is
    the chunk's feature matrix (or ``{mode: matrix}``), and the payload
    is the worker's metrics delta + recorded spans since its previous
    chunk (``None`` when observability is off), merged parent-side by
    :func:`repro.obs.aggregate.merge_worker_payload`.
    """
    index, offset, pairs, wire = task
    if _WORKER.init_error is not None:
        raise _WorkerInitError(*_WORKER.init_error)
    faults.maybe_slow_chunk(index)
    with span(
        "parallel.worker_chunk",
        ctx=TraceContext.from_wire(wire),
        chunk=index,
        pairs=len(pairs),
    ):
        # Crash probes are hoisted ahead of the extraction: a crash loses
        # the whole chunk either way (it is re-dispatched as a unit), so
        # probing every pair position up front preserves the injected
        # fault budgets while the chunk runs as ONE batched-driver call.
        for position in range(len(pairs)):
            faults.maybe_crash_worker(offset + position)
        assert _WORKER.extractor is not None
        block = _extract_block(_WORKER.extractor, pairs, _WORKER.modes)
        incr("parallel.pairs_extracted", len(pairs))
    return index, block, collect_worker_payload()


def _init_probe(_index: int) -> tuple[int, float]:
    """Report ``(pid, init seconds)`` so the parent can observe start-up."""
    return os.getpid(), _WORKER.init_seconds


def parallel_extract_batch(
    network: "DynamicNetwork | CSRSnapshot",
    config: SSFConfig,
    pairs: Sequence[Pair],
    *,
    present_time: "float | None" = None,
    modes: "tuple[str, ...] | None" = None,
    workers: "int | None" = None,
    backend: str = "csr",
    min_pairs: "int | None" = None,
    chunksize: "int | None" = None,
    retry: "RetryPolicy | None" = None,
) -> "np.ndarray | dict[str, np.ndarray]":
    """Extract SSF vectors for many pairs, optionally in parallel.

    Args:
        network: the observed history — a :class:`DynamicNetwork` or a
            prebuilt :class:`CSRSnapshot` (build one per observed window
            and reuse it across batches to amortise the freeze cost).
        config: SSF hyper-parameters.
        pairs: target links.
        present_time: prediction time (defaults like
            :class:`~repro.core.feature.SSFExtractor`).
        modes: when given, extract these entry modes per pair (shared
            subgraph extraction) and return ``{mode: matrix}``; when
            ``None``, return a single feature matrix for the configured
            mode.
        workers: process count; ``None`` or ``<= 1`` runs sequentially,
            as does any batch smaller than the pool threshold.
        backend: ``"csr"`` (the default) or ``"dict"``, the reference,
            which runs in process only: ``backend="dict"`` with
            ``workers > 1`` raises ``ValueError``.  A ``CSRSnapshot``
            input needs ``"csr"``.
        min_pairs: per-call override of the sequential-fallback threshold
            (see :func:`min_pairs_for_pool`).
        chunksize: per-call override of the pool chunk size; defaults to
            ``len(pairs) // (workers * 4)`` so each worker sees a few
            chunks for load balancing.  Must be ``>= 1`` when given.
        retry: fault-tolerance knobs (defaults to
            :meth:`~repro.robust.RetryPolicy.from_env`); see
            docs/ROBUSTNESS.md.
    """
    if backend == "dict" and workers is not None and workers > 1:
        raise ValueError(
            f"backend='dict' runs in process only, got workers={workers}; "
            "use backend='csr' for a pool"
        )
    reference = SSFExtractor(network, config, present_time=present_time, backend=backend)
    resolved_present = reference.present_time
    pair_list = list(pairs)

    threshold = min_pairs_for_pool(min_pairs)
    use_pool = (
        workers is not None and workers > 1 and len(pair_list) >= threshold
    )
    started = time.perf_counter()
    if not use_pool:
        # requested parallelism that fell back to the sequential path is
        # worth counting — it usually means the batch was below the pool
        # threshold, which a sharding PR would want to know.
        if workers is not None and workers > 1:
            incr("parallel.sequential_fallbacks")
        heartbeat_tick("extract", done=0, total=len(pair_list))
        with span("parallel.extract_batch", pairs=len(pair_list), workers=1):
            if modes is None:
                result = reference.extract_batch(pair_list)
            else:
                result = reference.extract_multi_batch(pair_list, modes)
            incr("parallel.pairs_extracted", len(pair_list))
        elapsed = time.perf_counter() - started
        heartbeat_tick(
            "extract",
            done=len(pair_list),
            total=len(pair_list),
            pairs_per_second=len(pair_list) / elapsed if elapsed > 0 else None,
        )
        _record_throughput(pair_list, started, workers=1)
        return result

    assert workers is not None
    policy = retry if retry is not None else RetryPolicy.from_env()
    incr("parallel.pool_runs")
    set_gauge("parallel.workers", workers)
    _LOG.debug(
        "extracting %d pairs with %d worker processes", len(pair_list), workers
    )
    # REPRO_START_METHOD forces the pool start method — mainly so the
    # spawn/shared-memory transport is exercisable on fork platforms
    # (tests/robust does this; ops can use it to diagnose fork issues).
    forced_method = os.environ.get("REPRO_START_METHOD")
    if forced_method:
        context = mp.get_context(forced_method)
        fork_available = forced_method == "fork"
    else:
        fork_available = "fork" in mp.get_all_start_methods()
        context = mp.get_context("fork") if fork_available else mp.get_context()

    # Validate chunking BEFORE any shared-memory export, so a bad
    # argument cannot leak an shm block.  `chunksize is not None` (not
    # truthiness): an explicit 0 must hit the guard, not the default.
    if chunksize is not None:
        if chunksize < 1:
            raise ValueError(f"chunksize must be >= 1, got {chunksize}")
        chunk = chunksize
    else:
        chunk = max(1, len(pair_list) // (workers * 4))
    set_gauge("parallel.chunksize", chunk)

    # capture the dispatching request's trace context once: every chunk
    # of this batch belongs to the same request (serving path) or to no
    # request at all (offline batch), and the wire is what survives
    # pickling into fork/spawn workers
    wire = current_wire()
    tasks: list[ChunkTask] = [
        (index, start, pair_list[start : start + chunk], wire)
        for index, start in enumerate(range(0, len(pair_list), chunk))
    ]

    snapshot = reference.snapshot
    assert snapshot is not None
    handle: "SharedSnapshotHandle | None" = None
    init_args: "tuple[Any, ...]"
    obs_state = parent_obs_state()
    try:
        # Materialise the batch's influence table in the parent so forked
        # children share its pages instead of each recomputing it.
        snapshot.influence_table(resolved_present, config.theta)
        if fork_available:
            init_args = ("csr", snapshot, config, resolved_present, modes, obs_state)
        else:
            try:
                handle = snapshot.to_shared()
                init_args = (
                    "csr_shared", handle, config, resolved_present, modes, obs_state
                )
            except OSError as exc:
                init_args = _degraded_init_args(
                    snapshot, config, resolved_present, modes, obs_state, exc
                )

        with span(
            "parallel.extract_batch",
            pairs=len(pair_list),
            workers=workers,
            backend="csr",
        ):
            #: chunk index → its matrix, or ``{mode: matrix}``
            results: "dict[int, Any]" = {}
            retries_left = policy.max_retries
            degraded = False

            # Heartbeat progress: chunks completed / total, with a
            # running pairs/sec over the whole batch.  Chunk indices are
            # counted once across rounds (retried chunks re-enter
            # ``tasks`` only while missing from ``results``), so the
            # reported ``done`` is monotone.
            n_chunks_total = len(tasks)
            progress = {"chunks": 0, "pairs": 0}

            def _on_chunk(n_pairs: int) -> None:
                progress["chunks"] += 1
                progress["pairs"] += n_pairs
                elapsed = time.perf_counter() - started
                heartbeat_tick(
                    "parallel_extract",
                    done=progress["chunks"],
                    total=n_chunks_total,
                    pairs_per_second=(
                        progress["pairs"] / elapsed if elapsed > 0 else None
                    ),
                )

            heartbeat_tick("parallel_extract", done=0, total=n_chunks_total)
            while tasks:
                received, init_error = _run_pool_round(
                    context, workers, init_args, tasks, policy.chunk_timeout,
                    on_chunk=_on_chunk,
                )
                results.update(received)
                tasks = [task for task in tasks if task[0] not in results]
                if not tasks:
                    break
                if (
                    init_error is not None
                    and init_error.point == "shm_attach"
                    and init_args[0] == "csr_shared"
                    and not degraded
                ):
                    # shm attach failed inside the workers: degrade the
                    # payload once, without spending a retry.
                    init_args = _degraded_init_args(
                        snapshot, config, resolved_present, modes, obs_state,
                        init_error,
                    )
                    degraded = True
                    continue
                if retries_left <= 0:
                    break
                retries_left -= 1
                incr("robust.retries", len(tasks))
                _LOG.warning(
                    "pool round lost %d/%d chunks (%s); respawning pool to "
                    "re-run them (%d of %d retries left)",
                    len(tasks),
                    len(tasks) + len(received),
                    init_error if init_error is not None else "timeout/worker death",
                    retries_left,
                    policy.max_retries,
                )
            if tasks:
                # Bounded retries exhausted: extract the stragglers in the
                # parent.  Slower, but complete and bit-identical — pairs
                # are never silently dropped.
                incr("robust.fallbacks")
                _LOG.warning(
                    "retries exhausted with %d chunks (%d pairs) outstanding; "
                    "extracting them sequentially in the parent",
                    len(tasks),
                    sum(len(task[2]) for task in tasks),
                )
                # runs in the dispatching thread, where the request's
                # context (if any) is still live — fallback spans parent
                # to the ORIGINAL request, not to a dead worker
                for index, _offset, chunk_pairs, _wire in tasks:
                    with span(
                        "parallel.fallback_chunk",
                        ctx=current_context(),
                        chunk=index,
                        pairs=len(chunk_pairs),
                    ):
                        results[index] = _extract_block(
                            reference, chunk_pairs, modes
                        )
                    incr("parallel.pairs_extracted", len(chunk_pairs))
                    _on_chunk(len(chunk_pairs))
            # an empty batch dispatches no chunk: its block is the
            # reference's empty matrix
            blocks = [results[index] for index in sorted(results)] or [
                _extract_block(reference, [], modes)
            ]
    finally:
        if handle is not None:
            handle.unlink()
    _record_throughput(pair_list, started, workers=workers)

    if modes is None:
        return np.concatenate(blocks)
    return {
        mode: np.concatenate([block[mode] for block in blocks])
        for mode in modes
    }


def _degraded_init_args(
    snapshot: CSRSnapshot,
    config: SSFConfig,
    present_time: float,
    modes: "tuple[str, ...] | None",
    obs_state: ObsState,
    cause: Exception,
) -> "tuple[Any, ...]":
    """Worker payload when the shared-memory transport is unavailable:
    the snapshot pickled per worker.  The features stay bit-identical —
    only worker start-up cost changes.
    """
    incr("robust.fallbacks")
    incr("robust.shm_degradations")
    _LOG.warning(
        "shared-memory transport unavailable (%s); shipping the snapshot "
        "pickled per worker instead",
        cause,
    )
    return ("csr", snapshot, config, present_time, modes, obs_state)


def _run_pool_round(
    context: "mp.context.BaseContext",
    workers: int,
    init_args: "tuple[Any, ...]",
    tasks: "list[ChunkTask]",
    chunk_timeout: "float | None",
    on_chunk: "Callable[[int], None] | None" = None,
) -> "tuple[dict[int, Any], _WorkerInitError | None]":
    """Run one pool round over ``tasks``; never raises for chunk loss.

    Returns the chunks that landed and, when worker initialisation
    failed, the first :class:`_WorkerInitError` (so the caller can
    degrade the payload).  Chunks missing from the result — lost to a
    dead worker, stuck past ``chunk_timeout``, or abandoned after an
    error — are simply absent; the caller decides whether to retry them.
    ``on_chunk(n_pairs)`` is invoked as each chunk lands (progress
    heartbeats).
    """
    received: "dict[int, Any]" = {}
    chunk_pairs = {task[0]: len(task[2]) for task in tasks}
    init_error: "_WorkerInitError | None" = None
    pool = context.Pool(
        processes=workers,
        initializer=_initialize,
        initargs=init_args,
    )
    try:
        if obs_enabled():
            # the probe is observability-only: bound the wait so a pool
            # whose workers never come up cannot hang the round forever
            probe_timeout = 30.0 if chunk_timeout is None else min(chunk_timeout, 30.0)
            try:
                probes = dict(
                    pool.map_async(_init_probe, range(workers), chunksize=1).get(
                        probe_timeout
                    )
                )
                for seconds in probes.values():
                    observe("parallel.worker_init_seconds", seconds)
            except mp.TimeoutError:
                _LOG.warning(
                    "worker init probes timed out after %.1fs; skipping "
                    "start-up metrics for this round",
                    probe_timeout,
                )
        iterator = pool.imap_unordered(_extract_chunk, tasks, chunksize=1)
        for _ in range(len(tasks)):
            try:
                index, block, obs_payload = iterator.next(chunk_timeout)
            except mp.TimeoutError:
                _LOG.warning(
                    "no chunk result within %.1fs; declaring the round hung",
                    chunk_timeout if chunk_timeout is not None else float("inf"),
                )
                break
            except _WorkerInitError as exc:
                init_error = exc
                break
            except Exception as exc:
                # A chunk failed inside a worker (or the pool machinery
                # broke).  Conservative recovery: abandon the round and
                # let the caller re-dispatch whatever is missing.
                _LOG.warning(
                    "pool round aborted by %s: %s", type(exc).__name__, exc
                )
                break
            received[index] = block
            merge_worker_payload(obs_payload)
            if on_chunk is not None:
                on_chunk(chunk_pairs[index])
    finally:
        pool.terminate()
        pool.join()
    return received, init_error


def _record_throughput(pair_list: Sequence[Pair], started: float, workers: int) -> None:
    """Batch-level pairs/s, total and per worker (parent-process view)."""
    if not obs_enabled() or not pair_list:
        return
    elapsed = time.perf_counter() - started
    if elapsed <= 0:
        return
    observe("parallel.pairs_per_run", len(pair_list))
    observe("parallel.pairs_per_second", len(pair_list) / elapsed)
    observe(
        "parallel.pairs_per_second_per_worker",
        len(pair_list) / elapsed / max(1, workers),
    )
