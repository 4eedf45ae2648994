"""Graceful degradation of the spawn-path shared-memory transport.

``REPRO_START_METHOD=spawn`` forces the pool onto the spawn start
method, which is the only path that uses ``multiprocessing.shared_memory``
— under fork the snapshot is inherited copy-on-write and shm never runs.
Export and attach failures are injected at their real call sites inside
:class:`~repro.graph.csr.CSRSnapshot`; every degradation must keep the
features bit-identical to the fault-free sequential run.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.parallel import parallel_extract_batch
from repro.graph.csr import CSRSnapshot
from repro.robust import RetryPolicy, inject


@pytest.fixture(autouse=True)
def force_spawn(monkeypatch):
    monkeypatch.setenv("REPRO_START_METHOD", "spawn")


def pooled(case, network=None, **kwargs):
    defaults = dict(
        present_time=case.present,
        workers=2,
        min_pairs=1,
        backend="csr",
        retry=RetryPolicy(max_retries=1, chunk_timeout=60.0),
    )
    defaults.update(kwargs)
    return parallel_extract_batch(
        network if network is not None else case.history,
        case.config,
        case.pairs,
        **defaults,
    )


def test_spawn_shared_memory_bit_identical(extraction_case):
    # The healthy spawn/shm transport itself must match the reference.
    result = pooled(extraction_case)
    assert np.array_equal(result, extraction_case.reference)


def test_shm_export_failure_ships_pickled_snapshot(extraction_case, metrics, monkeypatch):
    # to_shared() fails in the parent before the pool starts: the batch
    # must fall back to the snapshot pickled per worker, not abort.
    import repro.core.parallel as parallel

    kinds = []
    original = parallel._degraded_init_args

    def recording(*args, **kwargs):
        init_args = original(*args, **kwargs)
        kinds.append((init_args[0], type(init_args[1])))
        return init_args

    monkeypatch.setattr(parallel, "_degraded_init_args", recording)
    with inject("shm_export"):
        result = pooled(extraction_case)
    assert kinds == [("csr", CSRSnapshot)]
    assert np.array_equal(result, extraction_case.reference)
    assert metrics.counter("robust.fallbacks") >= 1.0
    assert metrics.counter("robust.shm_degradations") == 1.0


def test_shm_attach_failure_degrades_without_spending_retries(
    extraction_case, tmp_path, metrics
):
    # from_shared() fails inside both workers: the parent must respawn
    # the pool with a degraded payload even with max_retries=0 — a
    # transport downgrade is not a retry.
    with inject("shm_attach", fires=2, state_dir=str(tmp_path)):
        result = pooled(
            extraction_case, retry=RetryPolicy(max_retries=0, chunk_timeout=60.0)
        )
    assert np.array_equal(result, extraction_case.reference)
    assert metrics.counter("robust.fallbacks") >= 1.0


def test_prebuilt_snapshot_degrades_to_pickled_csr(extraction_case, metrics):
    # A caller-provided CSRSnapshot has no dict twin, so the export
    # failure ships the snapshot pickled per worker instead.
    snapshot = CSRSnapshot.from_dynamic(extraction_case.history)
    with inject("shm_export"):
        result = pooled(extraction_case, network=snapshot)
    assert np.array_equal(result, extraction_case.reference)
    assert metrics.counter("robust.fallbacks") >= 1.0


def test_snapshot_pickle_roundtrip(extraction_case):
    # The degraded csr payload crosses the spawn boundary via pickle.
    import pickle

    snapshot = CSRSnapshot.from_dynamic(extraction_case.history)
    clone = pickle.loads(pickle.dumps(snapshot))
    assert list(clone.labels) == list(snapshot.labels)
    assert np.array_equal(clone.indptr, snapshot.indptr)
    assert np.array_equal(clone.indices, snapshot.indices)
    assert np.array_equal(clone.ts_indptr, snapshot.ts_indptr)
    assert np.array_equal(clone.ts, snapshot.ts)
