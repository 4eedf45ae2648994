"""Replay harness: stream splitting, measurement, bench-gate shape."""

import json

import pytest

from repro.graph.temporal import DynamicNetwork
from repro.obs.bench import append_history, compare_results, synthetic_network
from repro.sampling import NetworkTooSmallError
from repro.serve.replay import run_replay, split_replay_stream


class TestSplitReplayStream:
    def test_partition_on_stamp_boundary(self):
        network = synthetic_network(60, n_ts=10, seed=0)
        history, tail = split_replay_stream(network, event_fraction=0.3)
        cut = min(ts for _, _, ts in tail)
        assert history.last_timestamp() < cut
        assert history.number_of_links() + len(tail) == network.number_of_links()
        stamps = [ts for _, _, ts in tail]
        assert stamps == sorted(stamps)

    def test_validation(self):
        network = synthetic_network(60, n_ts=10, seed=0)
        with pytest.raises(ValueError, match="event_fraction"):
            split_replay_stream(network, event_fraction=1.5)
        single = DynamicNetwork([("a", "b", 1.0), ("b", "c", 1.0)])
        with pytest.raises(NetworkTooSmallError, match="two distinct timestamps"):
            split_replay_stream(single)


class TestRunReplay:
    @pytest.fixture(scope="class")
    def result(self):
        network = synthetic_network(150, n_ts=20, seed=2)
        return run_replay(
            network,
            queries=60,
            concurrency=8,
            top_n=3,
            max_events=24,
            events_per_batch=6,
            seed=2,
        )

    def test_all_queries_complete(self, result):
        assert result.completed == result.queries == 60
        assert result.timeouts == 0
        assert result.ingested_events == 24

    def test_latency_quantiles_ordered(self, result):
        assert 0.0 < result.p50_ms <= result.p95_ms <= result.p99_ms
        assert result.recommendations_per_second > 0.0

    def test_bench_result_shape_gates(self, result):
        bench = result.to_bench_result()
        assert bench["tag"] == "serving"
        assert bench["pairs"] == 60
        serving = bench["backends"]["serving"]
        assert serving["pairs_per_second"] == pytest.approx(
            result.recommendations_per_second
        )
        # the existing bench gate accepts the serving shape
        comparison = compare_results(bench, bench, max_regression=0.3)
        assert comparison.ok

    def test_history_record_tagged(self, result, tmp_path):
        path = tmp_path / "hist.jsonl"
        append_history(path, result.to_bench_result())
        record = json.loads(path.read_text().strip())
        assert record["schema"] == 2
        assert record["result"]["tag"] == "serving"
        assert "p99_ms" in record["result"]["backends"]["serving"]

    def test_summary_mentions_throughput(self, result):
        text = result.summary()
        assert "rec/s" in text and "p99" in text


def test_more_batches_than_queries_applies_every_batch():
    # the tail in batches of 4 outnumbers the 10 queries: the batches
    # past the stride all queue at the last query, and each is applied
    network = synthetic_network(200, seed=0)
    history, tail = split_replay_stream(network)
    assert len(tail) > 4 * 10
    result = run_replay(
        network, queries=10, concurrency=4, max_events=200, events_per_batch=4
    )
    applied = min(len(tail), 200)
    assert result.ingested_events == applied
    assert result.links == history.number_of_links() + applied
