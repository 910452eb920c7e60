"""Shard workers: crash/replay convergence and trace-driven attribution."""

import pytest

from repro.events.records import (
    AllocationEvent,
    DataOp,
    DataOpKind,
    SyncEvent,
)
from repro.events.trace_io import event_to_json
from repro.forensics.recorder import FlightRecorder
from repro.observe.core import Clock, Observation
from repro.serve import ShardWorker, WorkerCrash, register_forensic_ranges


def sync_json(seq: int) -> dict:
    return event_to_json(
        SyncEvent(kind="taskwait", source_task=seq, target_task=seq + 1)
    )


class TestCrashConvergence:
    """Pre- and post-journal crashes converge to identical state."""

    def test_pre_journal_crash_loses_the_frame(self):
        worker = ShardWorker(0, tools=("arbalest",))
        with pytest.raises(WorkerCrash):
            worker.deliver(1, 0, sync_json(0), crash_phase="pre")
        assert not worker.alive
        assert len(worker.journal) == 0  # the frame died with the worker
        worker.restart()
        assert worker.deliver(1, 0, sync_json(0))  # redelivery is fresh
        assert len(worker.journal) == 1

    def test_post_journal_crash_keeps_the_frame(self):
        worker = ShardWorker(0, tools=("arbalest",))
        with pytest.raises(WorkerCrash):
            worker.deliver(1, 0, sync_json(0), crash_phase="post")
        assert len(worker.journal) == 1  # journaled before the crash
        worker.restart()
        assert worker.replayed_events == 1
        # Redelivery after a post-journal crash is the idempotent no-op.
        assert not worker.deliver(1, 0, sync_json(0))
        assert len(worker.journal) == 1

    def test_both_interleavings_apply_each_frame_exactly_once(self):
        outcomes = []
        for phase in ("pre", "post"):
            worker = ShardWorker(0, tools=("arbalest",))
            worker.deliver(1, 0, sync_json(0))
            with pytest.raises(WorkerCrash):
                worker.deliver(1, 1, sync_json(1), crash_phase=phase)
            worker.restart()
            worker.deliver(1, 1, sync_json(1))
            worker.deliver(1, 2, sync_json(2))
            outcomes.append(list(worker.journal.replay()))
        assert outcomes[0] == outcomes[1]
        assert [seq for _c, seq, _e in outcomes[0]] == [0, 1, 2]

    def test_delivery_to_dead_worker_raises(self):
        worker = ShardWorker(0)
        worker.crash()
        with pytest.raises(WorkerCrash, match="is down"):
            worker.deliver(1, 0, sync_json(0))

    def test_restart_counts_and_replays(self):
        worker = ShardWorker(0)
        for seq in range(5):
            worker.deliver(1, seq, sync_json(seq))
        worker.crash()
        worker.restart()
        assert worker.restarts == 1
        assert worker.replayed_events == 5

    def test_unknown_tool_rejected(self):
        with pytest.raises(ValueError, match="unknown tool"):
            ShardWorker(0, tools=("gdb",))


class TestForensicRanges:
    """The trace-driven address index mirrors the live runtime's."""

    def host_alloc(self, address=0x1000, label="a"):
        return AllocationEvent(
            device_id=0,
            thread_id=0,
            address=address,
            nbytes=64,
            is_free=False,
            label=label,
        )

    def test_host_allocation_registers_its_label(self):
        recorder = FlightRecorder()
        register_forensic_ranges(recorder, self.host_alloc())
        assert recorder.resolve(0, 0x1000) == "a"
        assert recorder.resolve(0, 0x103F) == "a"

    def test_device_allocation_label_is_ignored(self):
        # Device allocs are labelled "a(CV)" / "a(image)"; registering
        # them verbatim would split fingerprints against the live path.
        recorder = FlightRecorder()
        register_forensic_ranges(
            recorder,
            AllocationEvent(
                device_id=1,
                thread_id=0,
                address=0x9000,
                nbytes=64,
                is_free=False,
                label="a(CV)",
            ),
        )
        assert recorder.resolve(1, 0x9000) == ""

    def test_cv_registers_under_the_ov_name_at_the_alloc_data_op(self):
        recorder = FlightRecorder()
        register_forensic_ranges(recorder, self.host_alloc())
        register_forensic_ranges(
            recorder,
            DataOp(
                kind=DataOpKind.ALLOC,
                device_id=1,
                thread_id=0,
                ov_address=0x1000,
                cv_address=0x9000,
                nbytes=64,
            ),
        )
        assert recorder.resolve(1, 0x9000) == "a"

    def test_alloc_data_op_without_known_ov_registers_nothing(self):
        recorder = FlightRecorder()
        register_forensic_ranges(
            recorder,
            DataOp(
                kind=DataOpKind.ALLOC,
                device_id=1,
                thread_id=0,
                ov_address=0x5000,  # never allocated in this trace
                cv_address=0x9000,
                nbytes=64,
            ),
        )
        assert recorder.resolve(1, 0x9000) == ""

    def test_free_and_delete_retire_but_still_resolve(self):
        recorder = FlightRecorder()
        register_forensic_ranges(recorder, self.host_alloc())
        register_forensic_ranges(
            recorder,
            AllocationEvent(
                device_id=0,
                thread_id=0,
                address=0x1000,
                nbytes=64,
                is_free=True,
            ),
        )
        # Retired, not forgotten: use-after-free can still name it.
        assert recorder.resolve(0, 0x1000) == "a"


class TestSharedRecorder:
    def test_shared_recorder_survives_worker_restart(self):
        recorder = FlightRecorder()
        session = Observation(Clock(), recorder=recorder)
        worker = ShardWorker(0, session=session)
        worker.deliver(1, 0, event_to_json(TestForensicRanges().host_alloc()))
        worker.crash()
        worker.restart()
        assert worker.recorder is recorder
        assert recorder.resolve(0, 0x1000) == "a"

    def test_private_recorder_is_rebuilt_from_the_journal(self):
        worker = ShardWorker(0)
        worker.deliver(1, 0, event_to_json(TestForensicRanges().host_alloc()))
        before = worker.recorder
        worker.crash()
        worker.restart()
        assert worker.recorder is not before
        # Replay re-registered the range into the fresh recorder.
        assert worker.recorder.resolve(0, 0x1000) == "a"


class TestShardObservation:
    """One swap of the core switch per frame: session recorder + clock,
    the observer's profiler, and whatever an enclosing scope holds."""

    @staticmethod
    def _serve(bench: int):
        from repro.dracc import get
        from repro.harness.serve import record_trace
        from repro.serve import AnalysisServer, LoopbackTransport, ServeClient
        from repro.serve import ServerConfig

        server = AnalysisServer(ServerConfig(n_shards=4))
        ServeClient(LoopbackTransport(server), client_id=bench).stream(
            record_trace(get(bench))
        )
        return server

    def test_enclosing_metrics_reach_shard_side_sites(self):
        from repro.observe.core import scope

        with scope(metrics=True) as obs:
            self._serve(22)
        counters = obs.metrics.counters
        assert counters["serve.frames.event"] > 0  # server-side site
        assert counters["bus.events.on_data_op"] > 0  # shard-side sites
        assert counters["detector.accesses.device"] > 0
        assert any(k.startswith("vsm.") for k in counters)

    def test_session_clock_orders_timelines_across_shards(self):
        from repro.observe import core

        server = self._serve(22)
        assert core.ACTIVE is None  # every per-frame swap was undone
        (session,) = server.sessions.values()
        recorder = session.supervisor.session.recorder
        assert recorder.rings
        for ring in recorder.rings.values():
            ordinals = [e.ordinal for e in ring.events()]
            assert ordinals == sorted(set(ordinals))
