"""The flight recorder: rings, the shared clock, address index, scoping."""

import pytest

from repro.core.detector import Arbalest
from repro.dracc.registry import buggy_benchmarks, get as dracc_get
from repro.forensics import (
    DEFAULT_CAPACITY,
    FlightRecorder,
    RecordedEvent,
    VariableRing,
)
from repro.forensics.recorder import RETIRED_RANGES
from repro.harness.chaos import run_chaos_campaign
from repro.observe import core
from repro.observe.core import scope, variable_at
from repro.openmp import tofrom
from repro.openmp.runtime import TargetRuntime


def _event(ordinal: int, kind: str = "map") -> RecordedEvent:
    return RecordedEvent(ordinal=ordinal, kind=kind, device_id=0, variable="a")


def _run_dracc(number: int) -> Arbalest:
    bench = dracc_get(number)
    rt = TargetRuntime(n_devices=2)
    detector = Arbalest().attach(rt.machine)
    bench.run(rt)
    return detector


class TestVariableRing:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            VariableRing(0)

    def test_under_capacity_keeps_everything(self):
        ring = VariableRing(4)
        for i in range(3):
            ring.append(_event(i))
        assert [e.ordinal for e in ring.events()] == [0, 1, 2]
        assert ring.dropped == 0

    def test_eviction_drops_oldest_first(self):
        ring = VariableRing(4)
        for i in range(10):
            ring.append(_event(i))
        assert len(ring) == 4
        assert [e.ordinal for e in ring.events()] == [6, 7, 8, 9]
        assert ring.dropped == 6

    def test_wraparound_order_is_oldest_first(self):
        ring = VariableRing(3)
        for i in range(5):  # not a multiple of capacity
            ring.append(_event(i))
        assert [e.ordinal for e in ring.events()] == [2, 3, 4]


def _noop_kernel(ctx) -> None:
    pass


class TestClock:
    def test_shares_telemetry_ordinal_when_active(self):
        """Recorder events and spans are stamped from one clock."""
        rec = FlightRecorder()
        with scope(recorder=rec, spans=True) as obs:
            with obs.spans.span("cat", "s"):  # ticks 1 and 2
                pass
            event = rec.record("a", "map", ordinal=obs.clock.tick())
        assert event.ordinal == 3
        assert obs.spans.spans[0].end == 2

    def test_record_stamps_monotonic_ordinals(self):
        rec = FlightRecorder()
        with scope(recorder=rec):
            _run_dracc(22)
        assert rec.rings
        for ring in rec.rings.values():
            ordinals = [e.ordinal for e in ring.events()]
            assert ordinals == sorted(set(ordinals))

    @pytest.mark.parametrize(
        "sink", [{"metrics": True}, {"spans": True}], ids=["metrics", "spans"]
    )
    def test_ordinals_strictly_increase_when_a_sink_opens_midrun(self, sink):
        """Opening a metrics or span sink partway through a recorded run
        must not move the recorder to a second clock: one variable's
        timeline stays strictly increasing."""
        rec = FlightRecorder()
        rt = TargetRuntime(n_devices=2)
        Arbalest().attach(rt.machine)
        with scope(recorder=rec):
            a = rt.array("a", 64)
            a.fill(1.0)
            rt.target(_noop_kernel, maps=[tofrom(a)], name="k1")
            before = len(rec.timeline("a")[0])
            with scope(**sink):
                rt.target(_noop_kernel, maps=[tofrom(a)], name="k2")
                rt.free(a)
        events, dropped = rec.timeline("a")
        ordinals = [e.ordinal for e in events]
        assert dropped == 0
        assert len(events) > before >= 3
        assert ordinals == sorted(set(ordinals)), ordinals


class TestAddressIndex:
    def test_exact_resolution(self):
        rec = FlightRecorder()
        rec.register_range(0, 0x1000, 64, "a")
        assert rec.resolve(0, 0x1000) == "a"
        assert rec.resolve(0, 0x103F) == "a"
        assert rec.resolve(0, 0x1040) == ""
        assert rec.resolve(1, 0x1000) == ""  # wrong device

    def test_most_recent_registration_wins(self):
        rec = FlightRecorder()
        rec.register_range(0, 0x1000, 64, "old")
        rec.register_range(0, 0x1000, 64, "new")
        assert rec.resolve(0, 0x1010) == "new"

    def test_released_range_still_resolves_as_retired(self):
        rec = FlightRecorder()
        rec.register_range(0, 0x1000, 64, "a")
        rec.release_range(0, 0x1000)
        assert rec.resolve(0, 0x1010) == "a"  # use-after-free attribution

    def test_retired_list_is_bounded(self):
        rec = FlightRecorder()
        for i in range(RETIRED_RANGES + 50):
            base = 0x1000 + i * 0x100
            rec.register_range(0, base, 16, f"v{i}")
            rec.release_range(0, base)
        assert len(rec._retired) == RETIRED_RANGES

    def test_resolve_near_attributes_overflow(self):
        rec = FlightRecorder()
        rec.register_range(0, 0x1000, 64, "a")
        # One past the end: a classic off-by-one overflow address.
        assert rec.resolve_near(0, 0x1040) == "a"
        # Far beyond the slack: stays unattributed.
        assert rec.resolve_near(0, 0x1040 + 5000) == ""

    def test_resolve_near_prefers_closest_range(self):
        rec = FlightRecorder()
        rec.register_range(0, 0x1000, 64, "far")
        rec.register_range(0, 0x2000, 64, "near")
        assert rec.resolve_near(0, 0x2041) == "near"


class TestDisabledPath:
    def test_variable_at_disabled_returns_empty(self):
        assert core.ACTIVE is None
        assert variable_at(0, 0x1234) == ""

    def test_scope_restores_previous(self):
        outer, inner = FlightRecorder(), FlightRecorder()
        with scope(recorder=outer):
            with scope(recorder=inner):
                assert core.ACTIVE.recorder is inner
            assert core.ACTIVE.recorder is outer
        assert core.ACTIVE is None


class TestBoundedMemory:
    def test_rings_bounded_on_chatty_benchmark(self):
        # DRACC 22 reports the same site 256 times; a tiny ring must not
        # grow past its capacity and must report what it evicted.
        rec = FlightRecorder(capacity=8)
        with scope(recorder=rec):
            _run_dracc(22)
        assert rec.rings
        assert all(len(ring) <= 8 for ring in rec.rings.values())

    def test_recorder_bounded_under_chaos_campaign(self):
        rec = FlightRecorder(capacity=16)
        with scope(recorder=rec):
            payload = run_chaos_campaign(
                seed=1, schedules=1, benchmarks=buggy_benchmarks()[:4]
            )
        assert payload["crashes"] == []
        assert all(len(ring) <= 16 for ring in rec.rings.values())
        # Rough live footprint stays small even across many faulted runs.
        assert rec.shadow_bytes() < 1_000_000

    def test_default_capacity_is_the_documented_one(self):
        assert FlightRecorder().capacity == DEFAULT_CAPACITY
