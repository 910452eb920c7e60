"""Deep edge cases across subsystem boundaries."""

import numpy as np
import pytest

from repro.core import Arbalest, MultiDeviceArbalest
from repro.openmp import Schedule, TargetRuntime, to, tofrom
from repro.tools import FindingKind, MsanTool


class TestUnifiedMultiDevice:
    def test_two_unified_devices_share_host_storage(self):
        rt = TargetRuntime(n_devices=2, unified=True)
        det = Arbalest().attach(rt.machine)
        a = rt.array("a", 8)
        a.fill(1.0)
        rt.target(lambda ctx: ctx["a"].fill(2.0), maps=[to(a)], device=1)
        got = []
        rt.target(lambda ctx: got.append(ctx["a"][0]), maps=[to(a)], device=2)
        rt.finalize()
        assert got == [2.0]  # single storage: device 2 sees device 1's write
        assert not det.mapping_issue_findings()


class TestStridedDeviceAccess:
    def test_strided_kernel_write_tracks_correct_granules(self):
        rt = TargetRuntime(n_devices=1)
        det = Arbalest(race_detection=False).attach(rt.machine)
        a = rt.array("a", 16)
        a.fill(1.0)

        def k(ctx):
            A = ctx["a"]
            A[0:16:2] = 9.0  # strided bulk write on the device

        rt.target(k, maps=[to(a)])
        # Reading an untouched (odd) element on the host: fine.
        _ = a[1]
        assert not det.mapping_issue_findings()
        # Reading a touched (even) element: stale.
        _ = a[0]
        rt.finalize()
        assert {f.kind for f in det.mapping_issue_findings()} == {FindingKind.USD}

    def test_unaligned_dtype_strides(self):
        # 4-byte elements with stride 3 elements: granules interleave.
        rt = TargetRuntime(n_devices=1)
        det = Arbalest(race_detection=False).attach(rt.machine)
        a = rt.array("a", 24, "i4")
        a.fill(1)
        rt.target(lambda ctx: ctx["a"].read(slice(0, 24, 3)), maps=[to(a)])
        rt.finalize()
        assert not det.findings


class TestSubGranuleAccesses:
    def test_byte_sized_elements_dilate_to_granules(self):
        rt = TargetRuntime(n_devices=1)
        det = Arbalest(race_detection=False).attach(rt.machine)
        a = rt.array("a", 32, "u1")
        a.fill(7)
        rt.target(lambda ctx: ctx["a"].write(3, 9), maps=[to(a)])
        # Bytes 0..7 share a granule with the written byte 3: the whole
        # granule is TARGET now, so reading byte 0 on the host reports —
        # the deliberate over-approximation of 8-byte granularity.
        _ = a[0]
        rt.finalize()
        assert det.mapping_issue_findings()

    def test_distinct_granules_of_byte_array_stay_independent(self):
        rt = TargetRuntime(n_devices=1)
        det = Arbalest(race_detection=False).attach(rt.machine)
        a = rt.array("a", 32, "u1")
        a.fill(7)
        rt.target(lambda ctx: ctx["a"].write(3, 9), maps=[to(a)])
        _ = a[16]  # a different granule: clean
        rt.finalize()
        assert not det.mapping_issue_findings()


class TestScheduleDeterminism:
    @pytest.mark.parametrize(
        "schedule", [Schedule.EAGER, Schedule.DEFER_KERNEL_FIRST, Schedule.RANDOM]
    )
    def test_identical_findings_across_reruns(self, schedule):
        def run_once():
            rt = TargetRuntime(n_devices=1, schedule=schedule, seed=11)
            det = Arbalest().attach(rt.machine)
            a = rt.array("a", 8)
            a.fill(1.0)
            with rt.target_data([tofrom(a)]):
                rt.target(lambda ctx: ctx["a"].fill(2.0), nowait=True)
                a.write(0, 5.0)
            _ = a[0]
            rt.finalize()
            return sorted((f.kind.name, *f.dedup_key()[1:]) for f in det.findings)

        assert run_once() == run_once()


class TestMsanPartialPlanes:
    def test_memcpy_across_plane_boundary_clips(self):
        # A transfer whose destination range extends past the tracked
        # plane must not crash the MSan model (clip semantics).
        from repro.events import MemcpyEvent
        from repro.openmp import Machine

        m = Machine(1)
        msan = MsanTool().attach(m)
        buf = m.host.malloc(64)
        m.bus.publish_memcpy(
            MemcpyEvent(
                device_id=0,
                thread_id=0,
                dst_device=0,
                dst_address=buf.base + 32,
                src_device=0,
                src_address=buf.base,
                nbytes=128,  # extends past the 64-byte plane
            )
        )
        assert msan.poisoned_fraction(0, buf.base + 32, 32) == 1.0


class TestDetectorReset:
    def test_reset_preserves_shadow_but_clears_findings(self):
        rt = TargetRuntime(n_devices=1)
        det = Arbalest().attach(rt.machine)
        a = rt.array("a", 8)
        a.fill(1.0)
        rt.target(lambda ctx: ctx["a"].fill(2.0), maps=[to(a)])
        _ = a[0]
        rt.finalize()
        assert det.mapping_issue_findings()
        det.reset()
        assert not det.findings and not det.bug_reports
        # Shadow state survives: reading again re-reports the same issue.
        _ = a[0]
        rt.finalize()
        assert det.mapping_issue_findings()


class TestMultiDeviceDetectorParity:
    def test_multi_detector_matches_single_on_table3_sample(self):
        from repro.dracc import get

        for n in (22, 23, 26, 1, 16):
            rt1 = TargetRuntime(n_devices=2)
            single = Arbalest().attach(rt1.machine)
            get(n).run(rt1)
            rt2 = TargetRuntime(n_devices=2)
            multi = MultiDeviceArbalest().attach(rt2.machine)
            get(n).run(rt2)
            assert bool(single.mapping_issue_findings()) == bool(
                multi.mapping_issue_findings()
            ), n
