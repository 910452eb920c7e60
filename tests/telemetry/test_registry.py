"""The observability core's sinks: metrics, spans, scoping, the trace writer."""

import json

import pytest

from repro.core.detector import Arbalest
from repro.dracc.registry import get as dracc_get
from repro.observe import core
from repro.observe.core import (
    Histogram,
    Observation,
    SpanLog,
    chrome_trace,
    render_self_time_table,
    scope,
    self_times,
)
from repro.openmp.runtime import TargetRuntime


def _run_dracc(number: int) -> None:
    rt = TargetRuntime(n_devices=2)
    Arbalest().attach(rt.machine)
    dracc_get(number).run(rt)


def _observed(*, wall_clock: bool = False) -> Observation:
    with scope(metrics=True, spans=True, wall_clock=wall_clock) as obs:
        pass
    return obs


class TestCounters:
    def test_count_accumulates(self):
        obs = _observed()
        obs.metrics.count("a")
        obs.metrics.count("a", 4)
        obs.metrics.count("b")
        assert obs.metrics.counters == {"a": 5, "b": 1}

    def test_gauge_keeps_last_value(self):
        obs = _observed()
        obs.metrics.gauge("x", 10)
        obs.metrics.gauge("x", 3)
        assert obs.metrics.gauges == {"x": 3}


class TestHistogram:
    def test_power_of_two_buckets(self):
        h = Histogram()
        for v in (1, 2, 3, 4, 5, 1024):
            h.observe(v)
        snap = h.snapshot()
        assert snap["count"] == 6
        assert snap["sum"] == 1039
        assert snap["min"] == 1
        assert snap["max"] == 1024
        # 1 -> bucket 0; 2 -> 1; 3,4 -> 2; 5 -> 3; 1024 -> 10.
        assert snap["buckets"] == {
            "<=2^0": 1,
            "<=2^1": 1,
            "<=2^2": 2,
            "<=2^3": 1,
            "<=2^10": 1,
        }

    def test_bucket_keys_sorted_regardless_of_order(self):
        a, b = Histogram(), Histogram()
        for v in (1, 100, 7):
            a.observe(v)
        for v in (7, 1, 100):
            b.observe(v)
        assert json.dumps(a.snapshot()) == json.dumps(b.snapshot())

    def test_observe_via_registry(self):
        obs = _observed()
        obs.metrics.observe("sizes", 64)
        obs.metrics.observe("sizes", 64)
        assert obs.metrics.histograms["sizes"].count == 2


class TestSpans:
    def test_span_records_interval(self):
        obs = _observed()
        with obs.spans.span("cat", "outer", tid=3, device=1):
            with obs.spans.span("cat", "inner"):
                pass
        spans = obs.spans.spans
        assert len(spans) == 2
        outer = next(s for s in spans if s.name == "outer")
        inner = next(s for s in spans if s.name == "inner")
        assert outer.tid == 3
        assert outer.args == {"device": 1}
        # Ordinals advance at every boundary: proper containment.
        assert outer.begin < inner.begin < inner.end < outer.end

    def test_ordinal_clock_has_no_wall_timestamps(self):
        obs = _observed()
        with obs.spans.span("cat", "s"):
            pass
        span = obs.spans.spans[0]
        assert span.wall_begin == 0.0 and span.wall_end == 0.0
        assert span.duration(wall=False) > 0

    def test_wall_clock_stamps_perf_counter(self):
        obs = _observed(wall_clock=True)
        with obs.spans.span("cat", "s"):
            pass
        span = obs.spans.spans[0]
        assert span.wall_end >= span.wall_begin > 0.0

    def test_metrics_only_observation_has_no_span_sink(self):
        with scope(metrics=True) as obs:
            _run_dracc(1)
        assert obs.spans is None
        assert obs.clock.ordinal == 0  # no span sink, nothing stamped
        assert obs.metrics.counters["runtime.map_entries"] > 0


class TestScope:
    def test_disabled_by_default(self):
        assert core.ACTIVE is None

    def test_scope_activates_and_restores(self):
        with scope(metrics=True) as active:
            assert core.ACTIVE is active
        assert core.ACTIVE is None

    def test_scope_nests(self):
        with scope(metrics=True) as outer:
            with scope(spans=True) as inner:
                assert core.ACTIVE is inner
                # The inner scope keeps the outer clock and metrics sink.
                assert inner.clock is outer.clock
                assert inner.metrics is outer.metrics
                assert inner.spans is not None
            assert core.ACTIVE is outer
        assert outer.spans is None

    def test_scope_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with scope(metrics=True):
                raise RuntimeError("boom")
        assert core.ACTIVE is None

    def test_inner_sink_replaces_outer_sink_of_the_same_kind(self):
        with scope(metrics=True) as outer:
            with scope(metrics=True) as inner:
                inner.metrics.count("x")
        assert inner.metrics is not outer.metrics
        assert outer.metrics.counters == {}


class TestSnapshot:
    def test_snapshot_is_json_serializable_and_sorted(self):
        obs = _observed()
        obs.metrics.count("z")
        obs.metrics.count("a")
        obs.metrics.gauge("g", 1.5)
        obs.metrics.observe("h", 9)
        with obs.spans.span("cat", "s"):
            pass
        snap = obs.snapshot()
        assert json.loads(json.dumps(snap)) == snap
        assert list(snap["counters"]) == ["a", "z"]
        assert snap["clock"] == "ordinal"
        assert snap["spans"] == {"finished": 1, "ordinal_ticks": 2}


class TestChromeTrace:
    def _traced(self) -> SpanLog:
        obs = _observed()
        with obs.spans.span("runtime", "target:k", tid=1, device=0):
            with obs.spans.span("bus", "arbalest.on_data_op", tid=1):
                pass
        return obs.spans

    def test_complete_events_with_required_keys(self):
        trace = chrome_trace([self._traced()])
        assert set(trace) == {"traceEvents", "displayTimeUnit", "otherData"}
        assert trace["otherData"]["clock"] == "ordinal"
        complete = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert len(complete) == 2
        for event in complete:
            for key in ("name", "cat", "ph", "pid", "tid", "ts", "dur"):
                assert key in event
        (meta,) = [e for e in trace["traceEvents"] if e["ph"] == "M"]
        assert meta["args"] == {"name": "main"}

    def test_events_sorted_parents_first(self):
        events = chrome_trace([self._traced()])["traceEvents"]
        names = [e["name"] for e in events if e["ph"] == "X"]
        assert names == ["target:k", "arbalest.on_data_op"]

    def test_round_trips_json(self):
        trace = chrome_trace([self._traced()])
        assert json.loads(json.dumps(trace)) == trace


class TestSelfTimes:
    def test_self_excludes_direct_children(self):
        obs = _observed()
        with obs.spans.span("runtime", "outer"):  # ticks: 1 .. 8
            with obs.spans.span("bus", "child"):  # 2 .. 5
                with obs.spans.span("detector", "grandchild"):  # 3 .. 4
                    pass
            with obs.spans.span("bus", "child"):  # 6 .. 7
                pass
        rows = {(r["cat"], r["name"]): r for r in self_times(obs.spans)}
        outer = rows[("runtime", "outer")]
        child = rows[("bus", "child")]
        grand = rows[("detector", "grandchild")]
        assert outer["total"] == 7  # ordinals 1..8
        # outer's direct children are the two 'child' spans only; the
        # grandchild is charged against its own parent, not outer.
        assert outer["self"] == outer["total"] - child["total"]
        assert child["self"] == child["total"] - grand["total"]
        assert grand["self"] == grand["total"]

    def test_sorted_by_self_descending(self):
        obs = _observed()
        with obs.spans.span("a", "big"):
            with obs.spans.span("b", "small"):
                pass
        rows = self_times(obs.spans)
        assert [r["self"] for r in rows] == sorted(
            (r["self"] for r in rows), reverse=True
        )

    def test_separate_tids_do_not_nest(self):
        obs = _observed()
        with obs.spans.span("a", "t0", tid=0):
            with obs.spans.span("a", "t1", tid=1):
                pass
        rows = {r["name"]: r for r in self_times(obs.spans)}
        # Different logical thread: t1 is not a child of t0.
        assert rows["t0"]["self"] == rows["t0"]["total"]

    def test_render_table(self):
        obs = _observed()
        with obs.spans.span("runtime", "target:k"):
            pass
        table = render_self_time_table(obs.spans)
        assert "layer" in table and "self%" in table
        assert "target:k" in table

    def test_render_table_limit_overflow_row(self):
        obs = _observed()
        for i in range(5):
            with obs.spans.span("cat", f"span{i}"):
                pass
        table = render_self_time_table(obs.spans, limit=2)
        assert "(3 more spans)" in table
