"""Request-scoped trace context: identity model, wire format, span identity."""

import asyncio

import pytest

from repro import obs
from repro.obs.trace import (
    TraceContext,
    current_context,
    current_wire,
    new_trace,
    span,
)


@pytest.fixture(autouse=True)
def _clean_obs_state():
    obs.disable()
    obs.record_spans(False)
    obs.drain_span_records()
    yield
    obs.disable()
    obs.record_spans(False)
    obs.drain_span_records()


class TestTraceContext:
    def test_new_trace_has_distinct_ids(self):
        ctx = new_trace()
        assert ctx.trace_id != ctx.span_id
        assert ctx.parent_id is None

    def test_ids_are_unique_and_deterministic_format(self):
        a, b = new_trace(), new_trace()
        assert a.trace_id != b.trace_id
        assert a.span_id != b.span_id
        # pid-prefixed hex serial: no RNG involved (R103-safe)
        assert "-" in a.trace_id

    def test_child_keeps_trace_id_and_reparents(self):
        parent = new_trace()
        child = parent.child()
        assert child.trace_id == parent.trace_id
        assert child.parent_id == parent.span_id
        assert child.span_id != parent.span_id

    def test_wire_round_trip(self):
        ctx = new_trace().child()
        assert TraceContext.from_wire(ctx.to_wire()) == ctx

    def test_wire_none_safe(self):
        assert TraceContext.from_wire(None) is None

    def test_frozen(self):
        ctx = new_trace()
        with pytest.raises(AttributeError):
            ctx.trace_id = "x"


class TestActivate:
    def test_context_survives_asyncio_task_switches(self):
        obs.enable()

        async def _task(tag):
            with span(f"task.{tag}", root=True) as sp:
                trace_before = sp.trace_id
                await asyncio.sleep(0)  # yield to the other task
                assert current_context().trace_id == trace_before
                return trace_before

        async def _main():
            return await asyncio.gather(_task("a"), _task("b"))

        ids = asyncio.run(_main())
        assert ids[0] != ids[1]


class TestRspan:
    def test_disabled_obs_records_nothing_and_sets_no_context(self):
        with span("quiet", root=True) as sp:
            assert sp.trace_id is None
            assert current_context() is None

    def test_root_span_creates_a_trace_and_records_identity(self):
        obs.enable()
        obs.record_spans(True)
        with span("serve.request", root=True, user="u1") as sp:
            trace_id = sp.trace_id
            assert trace_id is not None
        (record,) = obs.drain_span_records()
        assert record["trace_id"] == trace_id
        assert record["parent_span_id"] is None
        assert record["tags"]["user"] == "u1"

    def test_nested_rspan_children_chain_parent_ids(self):
        obs.enable()
        obs.record_spans(True)
        with span("outer", root=True):
            with span("inner"):
                pass
        records = {r["name"]: r for r in obs.drain_span_records()}
        outer, inner = records["outer"], records["inner"]
        assert inner["trace_id"] == outer["trace_id"]
        assert inner["parent_span_id"] == outer["span_id"]

    def test_plain_span_inherits_identity_via_provider(self):
        obs.enable()
        obs.record_spans(True)
        with span("request", root=True) as sp:
            with obs.span("leaf"):
                pass
            trace_id = sp.trace_id
        records = {r["name"]: r for r in obs.drain_span_records()}
        leaf = records["leaf"]
        assert leaf["trace_id"] == trace_id
        # the plain span is a leaf: it borrows the active span as parent
        assert leaf["parent_span_id"] == records["request"]["span_id"]

    def test_plain_span_outside_any_trace_is_identity_free(self):
        obs.enable()
        obs.record_spans(True)
        with obs.span("free"):
            pass
        (record,) = obs.drain_span_records()
        assert "trace_id" not in record

    def test_explicit_ctx_overrides_current(self):
        obs.enable()
        obs.record_spans(True)
        other = new_trace()
        with span("outer", root=True):
            with span("handoff", ctx=other):
                pass
        records = {r["name"]: r for r in obs.drain_span_records()}
        assert records["handoff"]["trace_id"] == other.trace_id
        assert records["handoff"]["parent_span_id"] == other.span_id

    def test_members_recorded_for_batch_fan_in(self):
        obs.enable()
        obs.record_spans(True)
        a, b = new_trace(), new_trace()
        with span("batch", ctx=a, members=[a.trace_id, b.trace_id]):
            pass
        (record,) = obs.drain_span_records()
        assert record["trace_id"] == a.trace_id
        assert record["trace_ids"] == [a.trace_id, b.trace_id]

    def test_annotate_adds_tags(self):
        obs.enable()
        obs.record_spans(True)
        with span("r", root=True) as sp:
            sp.tags.update(hits=3)
        (record,) = obs.drain_span_records()
        assert record["tags"]["hits"] == 3

    def test_wire_hand_off_reparents_worker_side(self):
        obs.enable()
        obs.record_spans(True)
        with span("request", root=True) as sp:
            wire = current_wire()
            request_trace = sp.trace_id
        # simulate the worker: parent the chunk span on the wire tuple
        with span("worker_chunk", ctx=TraceContext.from_wire(wire)):
            pass
        records = {r["name"]: r for r in obs.drain_span_records()}
        worker = records["worker_chunk"]
        assert worker["trace_id"] == request_trace
        assert worker["parent_span_id"] == records["request"]["span_id"]
