"""Instrumented arrays: event geometry, data movement, kernel views."""

import numpy as np
import pytest

from repro.events import Access
from repro.memory import NotMappedError
from repro.openmp import TargetRuntime, TraceRecorder, to, tofrom


def runtime():
    rt = TargetRuntime(n_devices=1)
    trace = TraceRecorder().attach(rt.machine)
    return rt, trace


class TestHostArray:
    def test_scalar_roundtrip(self):
        rt, _ = runtime()
        a = rt.array("a", 4, "f8")
        a[2] = 1.5
        assert a[2] == 1.5

    def test_negative_index_wraps(self):
        rt, _ = runtime()
        a = rt.array("a", 4, init=[0, 1, 2, 3])
        assert a[-1] == 3.0

    def test_slice_read_returns_copy(self):
        rt, _ = runtime()
        a = rt.array("a", 8, init=list(range(8)))
        s = a[2:5]
        assert s.tolist() == [2, 3, 4]
        s[:] = 99
        assert a.peek()[2] == 2  # copy, not view

    def test_slice_write_broadcast_and_array(self):
        rt, _ = runtime()
        a = rt.array("a", 6, init=[0.0] * 6)
        a[0:3] = 7.0
        a[3:6] = np.array([1.0, 2.0, 3.0])
        assert a.peek().tolist() == [7, 7, 7, 1, 2, 3]

    def test_stepped_slice(self):
        rt, _ = runtime()
        a = rt.array("a", 8, init=[0.0] * 8)
        a[0:8:2] = 5.0
        assert a.peek().tolist() == [5, 0, 5, 0, 5, 0, 5, 0]
        assert a[1:8:2].tolist() == [0, 0, 0, 0]

    def test_fill(self):
        rt, _ = runtime()
        a = rt.array("a", 5)
        a.fill(2.5)
        assert (a.peek() == 2.5).all()

    def test_event_geometry_scalar(self):
        rt, trace = runtime()
        a = rt.array("a", 4, "f4")
        a[1] = 1.0
        rt.finalize()
        ev = trace.accesses()[-1]
        assert ev.is_write and ev.size == 4 and ev.count == 1
        assert ev.address == a.base + 4

    def test_event_geometry_strided(self):
        rt, trace = runtime()
        a = rt.array("a", 8, init=[0.0] * 8)
        _ = a[1:8:3]
        rt.finalize()
        ev = trace.accesses()[-1]
        assert not ev.is_write
        assert ev.count == 3 and ev.stride == 24 and ev.address == a.base + 8

    def test_no_events_without_tools(self):
        rt = TargetRuntime(n_devices=1)  # nothing attached
        a = rt.array("a", 4)
        a.fill(0.0)  # must simply not crash (fast path)
        assert not rt.machine.bus.wants_accesses

    def test_peek_poke_uninstrumented(self):
        rt, trace = runtime()
        a = rt.array("a", 4)
        n = len(trace.accesses())
        a.poke([1, 2, 3, 4])
        _ = a.peek()
        assert len(trace.accesses()) == n

    def test_dtypes(self):
        rt, _ = runtime()
        for dt, val in (("i4", 7), ("i8", -3), ("f4", 0.5), ("u1", 255)):
            arr = rt.array(f"x{dt}", 3, dt)
            arr[1] = val
            assert arr[1] == val

    def test_duplicate_name_rejected(self):
        rt, _ = runtime()
        rt.array("a", 4)
        from repro.memory import MappingError

        with pytest.raises(MappingError):
            rt.array("a", 4)


class TestKernelArray:
    def test_device_events_carry_device_id(self):
        rt, trace = runtime()
        a = rt.array("a", 4, init=[1.0] * 4)
        rt.target(lambda ctx: ctx["a"].read(0), maps=[to(a)])
        dev_reads = [e for e in trace.accesses() if e.device_id == 1]
        assert len(dev_reads) == 1
        assert not dev_reads[0].is_write

    def test_unmapped_name_raises(self):
        rt, trace = runtime()
        a = rt.array("a", 4, init=[1.0] * 4)
        with pytest.raises(NotMappedError):
            rt.target(lambda ctx: ctx["missing"], maps=[to(a)])

    def test_section_indexing_in_original_coordinates(self):
        rt, trace = runtime()
        a = rt.array("a", 10, init=list(range(10)))
        got = []
        # Map elements [4:8); the kernel still says a[5].
        rt.target(lambda ctx: got.append(ctx["a"][5]), maps=[to(a, 4, 4)])
        assert got == [5.0]

    def test_out_of_section_access_reads_garbage_not_crash(self):
        rt, trace = runtime()
        a = rt.array("a", 10, init=list(range(10)))
        got = []
        rt.target(lambda ctx: got.append(ctx["a"][9]), maps=[to(a, 0, 4)])
        # Value is deterministic garbage (0xCB pattern), NOT a[9].
        assert got[0] != 9.0

    def test_out_of_section_write_does_not_corrupt_host(self):
        rt, trace = runtime()
        a = rt.array("a", 4, init=[1.0] * 4)
        b = rt.array("b", 4, init=[2.0] * 4)

        def k(ctx):
            A = ctx["a"]
            for i in range(8):  # runs off the end of a's CV
                A[i] = 0.0

        rt.target(k, maps=[tofrom(a)])
        assert b.peek().tolist() == [2.0] * 4  # b never mapped, untouched

    def test_mapped_range(self):
        rt, trace = runtime()
        a = rt.array("a", 10, init=[0.0] * 10)
        ranges = []
        rt.target(lambda ctx: ranges.append(ctx["a"].mapped_range), maps=[to(a, 2, 5)])
        assert ranges == [(2, 7)]

    def test_context_names_and_contains(self):
        rt, trace = runtime()
        a = rt.array("a", 4, init=[0.0] * 4)
        b = rt.array("b", 4, init=[0.0] * 4)
        seen = {}

        def k(ctx):
            seen["names"] = ctx.names
            seen["has_a"] = "a" in ctx
            seen["has_c"] = "c" in ctx
            seen["device"] = ctx.device_id

        rt.target(k, maps=[to(a), to(b)])
        assert seen["names"] == ("a", "b")
        assert seen["has_a"] and not seen["has_c"]
        assert seen["device"] == 1

    def test_bulk_kernel_ops(self):
        rt, trace = runtime()
        a = rt.array("a", 100, init=[1.0] * 100)

        def k(ctx):
            A = ctx["a"]
            A[0:100] = np.asarray(A[0:100]) * 3.0

        rt.target(k, maps=[tofrom(a)])
        assert (a.peek() == 3.0).all()
