"""Span logs and the cross-process Chrome trace, including determinism."""

import json

import pytest

from repro.dracc import get
from repro.harness.serve import record_trace
from repro.observe import ServeObserver
from repro.observe.core import Clock, SpanLog, chrome_trace, spans_by_frame
from repro.serve import (
    AnalysisServer,
    LoopbackTransport,
    ServeClient,
    ServerConfig,
)

BENCH = 18


class TestSpanLog:
    def test_span_records_begin_end_ordinals(self):
        log = SpanLog("server", Clock())
        with log.span("serve", "handle:EVENT", client=1, seq=0):
            pass
        (span,) = log.spans
        assert span.begin == 1 and span.end == 2
        assert span.args == {"client": 1, "seq": 0}

    def test_none_tags_are_dropped(self):
        log = SpanLog("x", Clock())
        with log.span("serve", "s", a=None, b=2):
            pass
        assert log.spans[0].args == {"b": 2}

    def test_tags_mutable_inside_the_block(self):
        log = SpanLog("x", Clock())
        with log.span("serve", "s") as handle:
            handle.args["responses"] = 3
        assert log.spans[0].args == {"responses": 3}

    def test_nested_spans_share_the_clock(self):
        log = SpanLog("x", Clock())
        with log.span("serve", "outer"):
            with log.span("serve", "inner"):
                pass
        inner, outer = log.spans
        assert (outer.begin, inner.begin, inner.end, outer.end) == (1, 2, 3, 4)

    def test_observer_log_and_span_logs_share_one_clock(self):
        observer = ServeObserver(trace_spans=True, wall_clock=False)
        client = observer.span_log("client")
        with client.span("serve", "frame:EVENT"):
            entry = observer.log.event("e")
        assert (client.spans[0].begin, entry["ordinal"], client.spans[0].end) == (
            1,
            2,
            3,
        )


class TestStitch:
    def test_pids_assigned_by_sorted_process_name(self):
        clock = Clock()
        server, shard = SpanLog("server", clock), SpanLog("shard-0", clock)
        doc = chrome_trace([shard, server])  # deliberately unsorted input
        assert doc["otherData"]["processes"] == ["server", "shard-0"]
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert [(m["pid"], m["args"]["name"]) for m in meta] == [
            (0, "server"),
            (1, "shard-0"),
        ]

    def test_spans_become_complete_events_with_args(self):
        log = SpanLog("server", Clock())
        with log.span("serve", "apply", client=7, seq=3):
            pass
        doc = chrome_trace([log])
        (event,) = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert event["ts"] == 1 and event["dur"] == 1
        assert event["args"] == {"client": 7, "seq": 3}

    def test_spans_by_frame_joins_processes(self):
        clock = Clock()
        client, server = SpanLog("client", clock), SpanLog("server", clock)
        with client.span("serve", "frame:EVENT", client=7, seq=3):
            pass
        with server.span("serve", "handle:EVENT", client=7, seq=3):
            pass
        index = spans_by_frame(chrome_trace([client, server]))
        assert len(index[(7, 3)]) == 2
        assert {e["pid"] for e in index[(7, 3)]} == {0, 1}


def traced_session(kill_at: int | None = None) -> dict:
    """One full served session with spans on; returns the stitched doc."""
    observer = ServeObserver(trace_spans=True, wall_clock=False)
    server = AnalysisServer(ServerConfig(n_shards=2), observer)
    if kill_at is not None:
        server.session(BENCH).supervisor.kill_schedule[kill_at] = "post"
    client = ServeClient(
        LoopbackTransport(server),
        client_id=BENCH,
        spanlog=observer.span_log("client"),
    )
    client.stream(record_trace(get(BENCH)))
    return chrome_trace(observer.span_logs())


class TestCrossProcessTrace:
    def test_client_server_shard_spans_share_frame_keys(self):
        doc = traced_session()
        index = spans_by_frame(doc)
        multi = [k for k, spans in index.items() if len({s["pid"] for s in spans}) >= 3]
        # Most event frames traverse client -> server -> shard.
        assert len(multi) > 10

    def test_replay_spans_link_their_origin_frame(self):
        doc = traced_session(kill_at=5)
        replays = [
            e
            for e in doc["traceEvents"]
            if e["ph"] == "X" and e["name"] == "replay"
        ]
        assert replays, "worker kill produced no journal-replay spans"
        index = spans_by_frame(doc)
        for replay in replays:
            origin = (replay["args"]["client"], replay["args"]["seq"])
            assert replay["args"]["replayed_from"] == f"{origin[0]}:{origin[1]}"
            # The original frame was traced by other processes too.
            assert len(index[origin]) >= 2

    def test_stitched_trace_is_byte_identical_across_runs(self):
        one = json.dumps(traced_session(kill_at=5), indent=2, sort_keys=True)
        two = json.dumps(traced_session(kill_at=5), indent=2, sort_keys=True)
        assert one == two

    def test_trace_shape_differs_when_the_fault_does(self):
        clean = json.dumps(traced_session(), sort_keys=True)
        faulted = json.dumps(traced_session(kill_at=5), sort_keys=True)
        assert clean != faulted  # replay spans are visible in the trace
