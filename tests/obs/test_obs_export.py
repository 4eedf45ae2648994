"""Chrome Trace Event export: event shape, normalisation, validation."""

import json
import os

import pytest

from repro import obs
from repro.obs.export import (
    FLOW_CATEGORY,
    trace_events,
    validate_flow_events,
    validate_trace,
    write_trace,
)
from repro.obs.trace import new_trace


@pytest.fixture(autouse=True)
def _clean_obs_state():
    obs.disable()
    obs.record_spans(False)
    obs.drain_span_records()
    obs.get_registry().reset()
    yield
    obs.disable()
    obs.record_spans(False)
    obs.drain_span_records()
    obs.get_registry().reset()


def _record(name, ts, pid=1000, tid=1, dur=0.5, **tags):
    return {
        "name": name,
        "path": name,
        "ts": ts,
        "dur": dur,
        "pid": pid,
        "tid": tid,
        "tags": tags,
    }


class TestTraceEvents:
    def test_complete_events_conform_to_the_schema(self):
        events = trace_events([_record("a", 10.0), _record("b", 11.0)])
        complete = [e for e in events if e["ph"] == "X"]
        assert [e["name"] for e in complete] == ["a", "b"]
        for event in complete:
            assert event["cat"] == "repro"
            assert set(event) >= {"name", "ph", "ts", "dur", "pid", "tid", "args"}

    def test_timestamps_normalised_to_earliest_span_in_microseconds(self):
        events = trace_events([_record("late", 12.0), _record("early", 10.0)])
        complete = {e["name"]: e for e in events if e["ph"] == "X"}
        assert complete["early"]["ts"] == 0.0
        assert complete["late"]["ts"] == pytest.approx(2e6)
        assert complete["early"]["dur"] == pytest.approx(0.5e6)

    def test_process_metadata_labels_parent_and_workers(self):
        records = [
            _record("p", 1.0, pid=os.getpid()),
            _record("w", 2.0, pid=4242),
        ]
        events = trace_events(records, parent_pid=os.getpid())
        meta = {e["pid"]: e["args"]["name"] for e in events if e["ph"] == "M"}
        assert meta[os.getpid()] == "repro parent"
        assert meta[4242] == "repro worker 4242"

    def test_thread_ids_are_small_per_process_aliases(self):
        records = [
            _record("a", 1.0, pid=1, tid=139678001),
            _record("b", 2.0, pid=1, tid=139678002),
            _record("c", 3.0, pid=2, tid=139678001),
        ]
        events = [e for e in trace_events(records) if e["ph"] == "X"]
        tids = {e["name"]: e["tid"] for e in events}
        assert tids == {"a": 1, "b": 2, "c": 1}

    def test_non_scalar_tags_stringified(self):
        events = trace_events([_record("a", 1.0, mode=("x", "y"), k=5)])
        args = [e for e in events if e["ph"] == "X"][0]["args"]
        assert args["k"] == 5
        assert args["mode"] == "('x', 'y')"
        json.dumps(args)  # must be serialisable

    def test_defaults_to_draining_the_process_buffer(self):
        obs.enable()
        obs.record_spans(True)
        with obs.span("stage"):
            pass
        events = trace_events()
        assert any(e["name"] == "stage" for e in events)
        assert obs.span_records() == []


class TestWriteAndValidate:
    def test_written_file_is_valid_and_loads(self, tmp_path):
        path = tmp_path / "trace.json"
        count = write_trace(str(path), [_record("a", 1.0), _record("b", 2.0)])
        payload = json.loads(path.read_text())
        assert count == len(payload["traceEvents"])
        assert payload["displayTimeUnit"] == "ms"
        assert validate_trace(payload) == []

    def test_end_to_end_from_recorded_spans(self, tmp_path):
        obs.enable()
        obs.record_spans(True)
        with obs.span("outer", k=2):
            with obs.span("inner"):
                pass
        path = tmp_path / "trace.json"
        write_trace(str(path))
        payload = json.loads(path.read_text())
        assert validate_trace(payload) == []
        names = {e["name"] for e in payload["traceEvents"] if e["ph"] == "X"}
        assert names == {"outer", "inner"}

    def test_validate_flags_malformed_events(self):
        bad = {
            "traceEvents": [
                {"ph": "X", "pid": 1, "tid": 1, "ts": -5, "dur": 1},  # no name, bad ts
                {"name": "z", "ph": "Z", "pid": 1, "tid": 1},  # unknown phase
                "not-an-object",
            ]
        }
        problems = validate_trace(bad)
        assert any("missing 'name'" in p for p in problems)
        assert any("'ts' must be a number >= 0" in p for p in problems)
        assert any("unexpected phase" in p for p in problems)
        assert any("not an object" in p for p in problems)

    def test_validate_rejects_non_list_payload(self):
        assert validate_trace({"traceEvents": "nope"}) == [
            "traceEvents must be a list"
        ]


def _traced_record(name, ts, ctx, *, pid=1000, tid=1, dur=0.5, members=None):
    record = _record(name, ts, pid=pid, tid=tid, dur=dur)
    record["trace_id"] = ctx.trace_id
    record["span_id"] = ctx.span_id
    record["parent_span_id"] = ctx.parent_id
    if members is not None:
        record["trace_ids"] = list(members)
    return record


class TestFlowEvents:
    def test_single_span_trace_gets_no_arrow(self):
        ctx = new_trace()
        events = trace_events([_traced_record("only", 1.0, ctx)])
        assert [e for e in events if e.get("cat") == FLOW_CATEGORY] == []

    def test_multi_span_trace_emits_start_step_finish(self):
        root = new_trace()
        records = [
            _traced_record("request", 1.0, root),
            _traced_record("batch", 2.0, root.child(), tid=2),
            _traced_record("worker", 3.0, root.child().child(), pid=4242),
        ]
        events = trace_events(records)
        flows = [e for e in events if e.get("cat") == FLOW_CATEGORY]
        phases = [e["ph"] for e in sorted(flows, key=lambda e: e["ts"])]
        assert phases == ["s", "t", "f"]
        assert {e["id"] for e in flows} == {root.trace_id}
        finish = [e for e in flows if e["ph"] == "f"][0]
        assert finish["bp"] == "e"
        assert validate_trace({"traceEvents": events}) == []
        assert validate_flow_events({"traceEvents": events}) == []

    def test_trace_identity_copied_into_args(self):
        ctx = new_trace()
        events = trace_events([_traced_record("request", 1.0, ctx)])
        (complete,) = [e for e in events if e["ph"] == "X"]
        assert complete["args"]["trace_id"] == ctx.trace_id
        assert complete["args"]["span_id"] == ctx.span_id

    def test_batch_membership_joins_fanned_in_traces(self):
        a, b = new_trace(), new_trace()
        records = [
            _traced_record("request_a", 1.0, a),
            _traced_record("request_b", 1.1, b),
            _traced_record(
                "batch", 2.0, a.child(), tid=2, members=[a.trace_id, b.trace_id]
            ),
        ]
        events = trace_events(records)
        flows = [e for e in events if e.get("cat") == FLOW_CATEGORY]
        # both request traces thread through the shared batch span
        assert {e["id"] for e in flows} == {a.trace_id, b.trace_id}
        assert validate_flow_events({"traceEvents": events}) == []

    def test_validate_flow_events_catches_unanchored_arrows(self):
        payload = {
            "traceEvents": [
                {
                    "name": "x", "ph": "X", "pid": 1, "tid": 1,
                    "ts": 0.0, "dur": 10.0, "args": {},
                },
                {
                    "name": "t1", "ph": "s", "cat": FLOW_CATEGORY,
                    "id": "t1", "pid": 1, "tid": 1, "ts": 50.0,
                },
                {
                    "name": "t1", "ph": "f", "bp": "e", "cat": FLOW_CATEGORY,
                    "id": "t1", "pid": 1, "tid": 1, "ts": 60.0,
                },
            ]
        }
        problems = validate_flow_events(payload)
        assert any("anchor" in p or "no enclosing" in p for p in problems)

    def test_validate_flow_events_requires_one_start_one_finish(self):
        payload = {
            "traceEvents": [
                {
                    "name": "x", "ph": "X", "pid": 1, "tid": 1,
                    "ts": 0.0, "dur": 100.0, "args": {},
                },
                {
                    "name": "t1", "ph": "s", "cat": FLOW_CATEGORY,
                    "id": "t1", "pid": 1, "tid": 1, "ts": 1.0,
                },
                {
                    "name": "t1", "ph": "s", "cat": FLOW_CATEGORY,
                    "id": "t1", "pid": 1, "tid": 1, "ts": 2.0,
                },
            ]
        }
        problems = validate_flow_events(payload)
        assert any("start" in p for p in problems)
        assert any("finish" in p for p in problems)

    def test_end_to_end_rspan_chain_exports_valid_flows(self, tmp_path):
        from repro.obs.trace import TraceContext, current_wire, span

        obs.enable()
        obs.record_spans(True)
        with span("serve.request", root=True) as request:
            trace_id = request.trace_id
            wire = current_wire()
            with span("serve.score"):
                pass
        with span("parallel.worker_chunk", ctx=TraceContext.from_wire(wire)):
            pass
        path = tmp_path / "trace.json"
        write_trace(str(path))
        payload = json.loads(path.read_text())
        assert validate_trace(payload) == []
        assert validate_flow_events(payload) == []
        flows = [
            e for e in payload["traceEvents"] if e.get("cat") == FLOW_CATEGORY
        ]
        assert {e["id"] for e in flows} == {trace_id}
