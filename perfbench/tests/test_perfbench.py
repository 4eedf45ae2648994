"""Tests of the benchmark itself: work-count determinism, checks, tracing.

Run from the repository root::

    python3 -m pytest perfbench/tests -q

The workloads run at a reduced size (a smaller catalog network and a short
window), so the suite takes about a minute.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH_DIR), str(BENCH_DIR.parent / "src")]

import run  # noqa: E402
from repro.recommend import Suggestion  # noqa: E402
from repro.serve import ServingRecommender  # noqa: E402
from tracing import ALL_LAYERS, COUNT_LAYERS  # noqa: E402
from workloads import SSF, TOP_N, WORKLOADS  # noqa: E402

SCALE = 0.3
SECONDS = 1.0


def small_run(name: str, seed: int, layers: tuple = COUNT_LAYERS, checks: bool = True):
    return run.run_workload(name, seed, SECONDS, layers, 1, checks, scale=SCALE)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_work_counts_repeat_for_a_seed_and_change_with_it(name: str) -> None:
    first, first_tracer, _ = small_run(name, 0)
    again, again_tracer, _ = small_run(name, 0)
    other, other_tracer, _ = small_run(name, 1)
    counts = run.work_counts(first, first_tracer)
    assert counts == run.work_counts(again, again_tracer)
    assert counts != run.work_counts(other, other_tracer)


def test_perturbed_row_counts_as_failed() -> None:
    workload, _, _ = small_run("offline-hub", 0, checks=False)
    workload.check()
    assert workload.failed == 0
    row = int(workload.sampled_rows(0)[0])
    train, test = workload.experiments[0].feature_matrices("ssf")
    if row < len(train):
        train[row, 0] += 1.0
    else:
        test[row - len(train), 0] += 1.0
    workload.check()
    assert workload.failed == 1


def test_perturbed_answer_counts_as_failed() -> None:
    workload, _, _ = small_run("serve-ingest", 0, checks=False)
    workload.check()
    assert workload.failed == 0 and not workload.faults
    workload.answers[0] = [Suggestion(node=workload.users[0], score=1.0)]
    workload.check()
    assert workload.failed == 1


@pytest.mark.xfail(
    strict=True,
    reason="FeatureCache keys a pair by the unordered pair_key, but SSF features "
    "depend on the pair's orientation: a row extracted as (a, b) while serving a "
    "is reused as (b, a) for b's request",
)
def test_memo_answers_equal_a_freshly_fitted_core() -> None:
    workload = WORKLOADS["serve-ingest"](0, SECONDS, SCALE)
    workload.setup()
    for user in workload.pool[:16]:
        fresh = ServingRecommender.fit(workload.history, config=SSF, model="linear", seed=0)
        assert workload.core.recommend(user, top_n=TOP_N) == fresh.recommend(user, top_n=TOP_N)


def test_environment_pins_refuse_repro_variables(monkeypatch, capsys) -> None:
    monkeypatch.setenv("REPRO_CHUNK_TIMEOUT", "5")
    assert run.main(["--workload", "serve-ingest", "--seed", "0", "--seconds", "1"]) == 2
    assert "REPRO_CHUNK_TIMEOUT" in capsys.readouterr().err


@pytest.fixture(scope="module")
def traced() -> "dict[str, dict]":
    """Per-layer metrics and work counts of a reduced traced run per workload,
    with the counts of the untraced run before it."""
    out = {}
    for name in WORKLOADS:
        base, base_tracer, _ = small_run(name, 0, checks=False)
        workload, tracer, _ = small_run(name, 0, layers=ALL_LAYERS, checks=False)
        out[name] = {
            "metrics": run.per_layer(workload, tracer, base.window_s),
            "counts": run.work_counts(workload, tracer),
            "base_counts": run.work_counts(base, base_tracer),
        }
    return out


def test_traced_run_reports_every_per_layer_metric(traced) -> None:
    declared = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())["per_layer"]
    for result in traced.values():
        assert set(result["metrics"]) == {metric["name"] for metric in declared}
        for metric in declared:
            assert run.LAYER_UNITS[metric["name"]] == metric["unit"]


def test_traced_counts_equal_untraced_counts(traced) -> None:
    for result in traced.values():
        assert result["counts"] == result["base_counts"]


def test_traced_run_attributes_each_window(traced) -> None:
    offline = traced["offline-hub"]["metrics"]
    covered = (
        offline["batch.self_s"]
        + offline["palette_wl.order_s"]
        + offline["palette_wl.distances_s"]
    )
    assert covered >= 0.9 * offline["trace.window_s"]
    assert offline["cache.puts"] == 0 and offline["frontend.requests"] == 0
    ingest = traced["serve-ingest"]["metrics"]
    assert ingest["batch.calls"] > 0 and ingest["cache.invalidated"] > 0
    assert ingest["delta.merges"] > 0 and ingest["frontend.requests"] > 0
    layers = (
        ingest["batch.busy_s"]
        + ingest["cache.get_s"]
        + ingest["cache.put_s"]
        + ingest["cache.invalidate_s"]
    )
    assert layers >= 0.5 * ingest["trace.window_s"]
