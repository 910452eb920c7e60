"""ToolBus: selective dispatch and the native-run fast path."""

import pytest

from repro.events import Access, SyncEvent, ToolBus
from repro.memory import BASE_ADDRESS
from repro.tools import Tool


class AccessOnly(Tool):
    name = "access-only"

    def __init__(self):
        super().__init__()
        self.seen = []

    def on_access(self, access):
        self.seen.append(access)


class SyncOnly(Tool):
    name = "sync-only"

    def __init__(self):
        super().__init__()
        self.seen = []

    def on_sync(self, event):
        self.seen.append(event)


def make_access():
    return Access(device_id=0, thread_id=0, address=BASE_ADDRESS, size=8, is_write=False)


class TestDispatch:
    def test_empty_bus_wants_nothing(self):
        assert not ToolBus().wants_accesses

    def test_only_overriders_receive(self):
        bus = ToolBus()
        a, s = AccessOnly(), SyncOnly()
        bus.attach(a)
        bus.attach(s)
        bus.publish_access(make_access())
        bus.publish_sync(SyncEvent("fork", 0, 1))
        assert len(a.seen) == 1 and len(s.seen) == 1
        # No cross-delivery: the sync tool saw no access and vice versa.
        assert all(isinstance(e, SyncEvent) for e in s.seen)

    def test_publishers_route_each_event_type(self):
        bus = ToolBus()
        a, s = AccessOnly(), SyncOnly()
        bus.attach(a)
        bus.attach(s)
        publish = bus.publishers()
        assert len(publish) == 7
        for event in (make_access(), SyncEvent("fork", 0, 1)):
            publish[type(event)](event)
        assert len(a.seen) == 1 and len(s.seen) == 1

    def test_wants_accesses_tracks_subscribers(self):
        bus = ToolBus()
        s = SyncOnly()
        bus.attach(s)
        assert not bus.wants_accesses  # sync-only tool doesn't observe accesses
        a = AccessOnly()
        bus.attach(a)
        assert bus.wants_accesses
        bus.detach(a)
        assert not bus.wants_accesses

    def test_detach_stops_delivery(self):
        bus = ToolBus()
        a = AccessOnly()
        bus.attach(a)
        bus.publish_access(make_access())
        bus.detach(a)
        bus.publish_access(make_access())
        assert len(a.seen) == 1

    def test_multiple_tools_all_receive(self):
        bus = ToolBus()
        tools = [AccessOnly() for _ in range(3)]
        for t in tools:
            bus.attach(t)
        bus.publish_access(make_access())
        bus.flush_batch()
        assert all(len(t.seen) == 1 for t in tools)


class Immediate(AccessOnly):
    name = "immediate"
    needs_immediate_access = True


class Logging(Tool):
    def __init__(self, name, log):
        super().__init__()
        self.name = name
        self.log = log

    def on_access(self, access):
        self.log.append((self.name, access.address))

    def on_batch(self, batch):
        self.log.append((self.name, "batch"))


class TestDelivery:
    def test_columnar_by_default_parks_until_flush(self):
        bus = ToolBus()
        assert bus.engine == "columnar"
        a = AccessOnly()
        bus.attach(a)
        bus.publish_access(make_access())
        assert a.seen == []
        bus.flush_batch()
        assert len(a.seen) == 1

    def test_immediate_access_tool_stops_batching_while_attached(self):
        bus = ToolBus()
        a, now = AccessOnly(), Immediate()
        bus.attach(a)
        bus.attach(now)
        bus.publish_access(make_access())
        assert len(a.seen) == len(now.seen) == 1
        bus.detach(now)
        bus.publish_access(make_access())
        assert len(a.seen) == 1
        bus.flush_batch()
        assert len(a.seen) == 2

    def test_recording_flush_delivers_in_scalar_order(self):
        from repro.events.columnar import MIN_BATCH
        from repro.forensics import FlightRecorder
        from repro.observe.core import scope

        log = []
        bus = ToolBus()
        bus.attach(Logging("t1", log))
        bus.attach(Logging("t2", log))
        addresses = [BASE_ADDRESS + 8 * i for i in range(MIN_BATCH)]
        with scope(recorder=FlightRecorder()):
            for address in addresses:
                bus.publish_access(Access(0, 0, address, 8, False))
            bus.flush_batch()
        assert log == [(t, a) for a in addresses for t in ("t1", "t2")]

    def test_recorder_sees_allocations_after_pending_accesses(self):
        from repro.events import AllocationEvent
        from repro.forensics import FlightRecorder
        from repro.observe import core

        class Resolving(AccessOnly):
            def on_access(self, access):
                self.seen.append(core.variable_at(0, access.address))

        bus = ToolBus()
        tool = Resolving()
        bus.attach(tool)
        with core.scope(recorder=FlightRecorder()) as observation:
            bus.publish_access(make_access())
            bus.publish_allocation(
                AllocationEvent(0, 0, BASE_ADDRESS, 64, is_free=False, label="a")
            )
            bus.publish_access(make_access())
            bus.flush_batch()
        # The parked access predates the allocation; the later one sees it.
        assert tool.seen == ["", "a"]
        assert observation.recorder.resolve(0, BASE_ADDRESS) == "a"


class Exploding(Tool):
    name = "exploding"

    def on_access(self, access):
        raise RuntimeError("boom")


class TestCrashIsolation:
    def test_detach_never_attached_raises_naming_the_tool(self):
        bus = ToolBus()
        with pytest.raises(ValueError, match="'access-only'"):
            bus.detach(AccessOnly())

    def test_handler_exception_is_contained(self):
        bus = ToolBus()
        bad, good = Exploding(), AccessOnly()
        bus.attach(bad)
        bus.attach(good)
        bus.publish_access(make_access())
        bus.flush_batch()  # must not raise
        # The healthy tool still received the event.
        assert len(good.seen) == 1
        # The failure was recorded against the offender.
        assert len(bus.errors) == 1
        record = bus.errors[0]
        assert record.tool == "exploding"
        assert record.handler == "on_access"
        assert "boom" in record.error
        assert record.to_json()["handler"] == "on_access"

    def test_isolated_failure_files_tool_error_finding(self):
        from repro.tools import FindingKind

        bus = ToolBus()
        bad = Exploding()
        bus.attach(bad)
        bus.publish_access(make_access())
        bus.flush_batch()
        kinds = [f.kind for f in bad.findings]
        assert kinds == [FindingKind.TOOL_ERROR]
        assert "on_access" in bad.findings[0].message

    def test_strict_mode_reraises(self):
        bus = ToolBus()
        bus.strict = True
        bus.attach(Exploding())
        bus.publish_access(make_access())
        with pytest.raises(RuntimeError, match="boom"):
            bus.flush_batch()
        assert not bus.errors


class TestToolLifecycle:
    def test_attach_via_tool_helper(self):
        from repro.openmp import Machine

        machine = Machine(1)
        tool = AccessOnly().attach(machine)
        assert tool in machine.bus.tools
        tool.detach()
        assert tool not in machine.bus.tools

    def test_report_dedups_by_site(self):
        from repro.events import SourceLocation
        from repro.tools import Finding, FindingKind

        t = AccessOnly()
        loc = (SourceLocation("a.c", 3),)
        f = Finding(tool=t.name, kind=FindingKind.UUM, message="x", stack=loc)
        assert t.report(f)
        assert not t.report(f)
        assert len(t.findings) == 1
        # Different line: new site.
        g = Finding(
            tool=t.name, kind=FindingKind.UUM, message="x",
            stack=(SourceLocation("a.c", 4),),
        )
        assert t.report(g)

    def test_reset_clears_findings_and_dedup(self):
        from repro.tools import Finding, FindingKind

        t = AccessOnly()
        f = Finding(tool=t.name, kind=FindingKind.USD, message="m")
        t.report(f)
        t.reset()
        assert not t.findings
        assert t.report(f)  # dedup state gone too
