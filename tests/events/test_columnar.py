"""Columnar engine: batching, columns, flush ordering, pass splitting."""

import numpy as np
import pytest

from repro.core import Arbalest
from repro.events import (
    Access,
    AccessOrigin,
    DataOp,
    DataOpKind,
    SourceLocation,
    SourceStack,
    SyncEvent,
    ToolBus,
)
from repro.events import bus as bus_module
from repro.events.columnar import (
    BATCH_CAP,
    MIN_BATCH,
    EventBatch,
    first_occurrence_passes,
)
from repro.memory import BASE_ADDRESS
from repro.openmp import TargetRuntime, tofrom
from repro.tools import Tool


def make_access(i=0, *, device_id=1, is_write=False, size=8, count=1):
    return Access(
        device_id=device_id,
        thread_id=0,
        address=BASE_ADDRESS + 8 * i,
        size=size,
        is_write=is_write,
        count=count,
    )


class Recorder(Tool):
    """Records the dispatch shape: which handler saw which events."""

    name = "recorder"

    def __init__(self):
        super().__init__()
        self.calls = []  # ("access", event) | ("batch", [events]) | ...

    def on_access(self, access):
        self.calls.append(("access", access))

    def on_batch(self, batch):
        self.calls.append(("batch", list(batch.accesses)))

    def on_data_op(self, op):
        self.calls.append(("data_op", op))

    def on_sync(self, event):
        self.calls.append(("sync", event))


class TestEngineSelection:
    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            ToolBus(engine="simd")

    def test_scalar_never_batches(self):
        bus = ToolBus(engine="scalar")
        t = Recorder()
        bus.attach(t)
        bus.publish_access(make_access())
        assert t.calls[0][0] == "access"
        assert not bus._batch_pending


class TestBatchAccumulation:
    def test_accesses_park_until_flush(self):
        bus = ToolBus(engine="columnar")
        t = Recorder()
        bus.attach(t)
        for i in range(4):
            bus.publish_access(make_access(i))
        assert t.calls == []  # nothing delivered yet
        bus.flush_batch()
        assert len(t.calls) == 4  # tiny batch: scalar replay in order
        assert [c[0] for c in t.calls] == ["access"] * 4

    def test_large_flush_dispatches_one_batch(self):
        bus = ToolBus(engine="columnar")
        t = Recorder()
        bus.attach(t)
        n = MIN_BATCH
        for i in range(n):
            bus.publish_access(make_access(i))
        bus.flush_batch()
        assert len(t.calls) == 1
        kind, events = t.calls[0]
        assert kind == "batch" and len(events) == n

    def test_batch_cap_triggers_flush(self):
        bus = ToolBus(engine="columnar")
        t = Recorder()
        bus.attach(t)
        for i in range(BATCH_CAP):
            bus.publish_access(make_access(i % 512))
        # The cap-triggered flush already delivered everything.
        assert len(t.calls) == 1
        assert len(t.calls[0][1]) == BATCH_CAP
        assert not bus._batch_pending

    def test_order_preserved_within_batch(self):
        bus = ToolBus(engine="columnar")
        t = Recorder()
        bus.attach(t)
        sent = [make_access(i) for i in range(MIN_BATCH)]
        for a in sent:
            bus.publish_access(a)
        bus.flush_batch()
        assert t.calls[0][1] == sent


class TestFlushOrdering:
    """Every non-access publish drains the pending batch first."""

    def test_data_op_flushes_first(self):
        bus = ToolBus(engine="columnar")
        t = Recorder()
        bus.attach(t)
        bus.publish_access(make_access())
        bus.publish_data_op(
            DataOp(
                kind=DataOpKind.ALLOC,
                device_id=1,
                thread_id=0,
                ov_address=BASE_ADDRESS,
                cv_address=BASE_ADDRESS + (1 << 20),
                nbytes=64,
            )
        )
        assert [c[0] for c in t.calls] == ["access", "data_op"]

    def test_sync_flushes_first(self):
        bus = ToolBus(engine="columnar")
        t = Recorder()
        bus.attach(t)
        bus.publish_access(make_access())
        bus.publish_sync(SyncEvent("fork", 0, 1))
        assert [c[0] for c in t.calls] == ["access", "sync"]

    def test_attach_flushes_pending(self):
        bus = ToolBus(engine="columnar")
        t1 = Recorder()
        bus.attach(t1)
        bus.publish_access(make_access())
        t2 = Recorder()
        bus.attach(t2)  # must not see the predating access
        bus.flush_batch()
        assert len(t1.calls) == 1
        assert t2.calls == []

    def test_detach_flushes_pending(self):
        bus = ToolBus(engine="columnar")
        t = Recorder()
        bus.attach(t)
        bus.publish_access(make_access())
        bus.detach(t)  # the tool observed the access while attached
        assert len(t.calls) == 1


class TestCrashIsolation:
    def test_on_batch_error_is_contained(self):
        class Exploding(Tool):
            name = "exploding"

            def on_access(self, access):
                pass

            def on_batch(self, batch):
                raise RuntimeError("boom")

        bus = ToolBus(engine="columnar")
        bus.attach(Exploding())
        for i in range(MIN_BATCH):
            bus.publish_access(make_access(i))
        bus.flush_batch()  # must not raise
        assert len(bus.errors) == 1
        assert bus.errors[0].handler == "on_batch"


class TestBatchColumns:
    def test_columns_match_records(self):
        accesses = [
            make_access(i, device_id=i % 2, is_write=bool(i % 3))
            for i in range(10)
        ]
        cols = EventBatch(accesses).columns
        assert cols.addresses.tolist() == [a.address for a in accesses]
        assert cols.device_ids.tolist() == [a.device_id for a in accesses]
        assert cols.is_write.tolist() == [a.is_write for a in accesses]
        assert cols.sizes.tolist() == [a.size for a in accesses]

    def test_columns_are_lazy_and_cached(self):
        batch = EventBatch([make_access()])
        assert batch._columns is None
        first = batch.columns
        assert batch.columns is first


def record(bus, i=0, source=None, *, device_id=1):
    """Record one program access the way an array view does."""
    bus.record_access(
        device_id, 0, BASE_ADDRESS + 8 * i, 8, False, 1, 8,
        AccessOrigin.PROGRAM, source or SourceStack(),
    )


@pytest.fixture()
def built(monkeypatch):
    """Counts every Access object built while the test runs."""
    counter = {"n": 0}
    init = Access.__init__

    def counting(self, *args, **kwargs):
        counter["n"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(Access, "__init__", counting)
    return counter


class TestRowsAtTheSource:
    """Recorded accesses stay rows until a handler or finding reads one."""

    def test_vector_lanes_build_no_access_objects(self, built):
        rt = TargetRuntime(n_devices=1, engine="columnar")
        tool = Arbalest().attach(rt.machine)
        sizes = []
        on_batch = tool.on_batch

        def spy(batch):
            sizes.append(len(batch))
            on_batch(batch)

        tool.on_batch = spy
        n = 2 * MIN_BATCH
        a = rt.array("a", n)

        def kernel(ctx):
            view = ctx["a"]
            for i in range(n):
                view[i] = float(i)

        rt.target(kernel, maps=[tofrom(a)], name="k")
        rt.finalize()
        assert sizes == [n]
        assert not tool.findings
        assert built["n"] == 0

    def test_small_flush_builds_no_batch(self, monkeypatch, built):
        def refuse(rows):
            raise AssertionError("EventBatch built for a small flush")

        monkeypatch.setattr(bus_module, "EventBatch", refuse)
        bus = ToolBus(engine="columnar")
        t = Recorder()
        bus.attach(t)
        for i in range(MIN_BATCH - 1):
            record(bus, i)
        bus.flush_batch()
        assert [c[0] for c in t.calls] == ["access"] * (MIN_BATCH - 1)
        assert built["n"] == MIN_BATCH - 1
        assert not bus.errors

    @pytest.mark.parametrize("n", [1, MIN_BATCH])
    def test_stack_pinned_when_recorded(self, n):
        bus = ToolBus(engine="columnar")
        t = Recorder()
        bus.attach(t)
        source = SourceStack()
        with source.at("outer.c", 1):
            with source.at("kernel.c", 7, function="k"):
                for i in range(n):
                    record(bus, i, source)
        bus.flush_batch()  # both frames have been popped by now
        accesses = [a for kind, got in t.calls for a in (got if kind == "batch" else [got])]
        assert len(accesses) == n
        inner = SourceLocation("kernel.c", 7, function="k")
        assert {a.stack[0] for a in accesses} == {inner}

    @pytest.mark.parametrize("n", [1, MIN_BATCH])
    def test_published_object_is_handed_on(self, n):
        bus = ToolBus(engine="columnar")
        seen = []

        class Keeper(Tool):
            name = "keeper"

            def on_access(self, access):
                seen.append(access)

        bus.attach(Keeper())
        sent = [make_access(i) for i in range(n)]
        for a in sent:
            bus.publish_access(a)
        bus.flush_batch()
        assert len(seen) == n
        assert all(got is a for got, a in zip(seen, sent))

    def test_mixed_rows_keep_order(self):
        bus = ToolBus(engine="columnar")
        t = Recorder()
        bus.attach(t)
        obj = make_access(5)
        for i in range(MIN_BATCH):
            if i == 5:
                bus.publish_access(obj)
            else:
                record(bus, i)
        bus.flush_batch()
        (kind, got), = t.calls
        assert kind == "batch"
        assert got[5] is obj
        assert [a.address for a in got] == [BASE_ADDRESS + 8 * i for i in range(MIN_BATCH)]

    def test_lazy_accesses_build_once(self, built):
        batch = EventBatch([(1, 0, BASE_ADDRESS, 8, True, 1, 8, AccessOrigin.PROGRAM, ())])
        assert built["n"] == 0
        first = batch.accesses[0]
        assert batch.accesses[0] is first
        assert built["n"] == 1
        assert batch.columns.is_write.tolist() == [True]


class TestFirstOccurrencePasses:
    def test_unique_keys_one_pass(self):
        passes, rest = first_occurrence_passes(np.array([3, 1, 2]))
        assert len(passes) == 1
        assert passes[0].tolist() == [0, 1, 2]
        assert rest.size == 0

    def test_repeats_split_in_order(self):
        # key 5 occurs at positions 0, 2, 4: one occurrence per pass,
        # in original order.
        passes, rest = first_occurrence_passes(np.array([5, 7, 5, 8, 5]))
        assert [p.tolist() for p in passes] == [[0, 1, 3], [2], [4]]
        assert rest.size == 0

    def test_passes_are_ascending(self):
        keys = np.array([2, 2, 1, 1, 0, 0])
        passes, _rest = first_occurrence_passes(keys)
        for p in passes:
            assert (np.diff(p) > 0).all()

    def test_max_passes_leaves_remainder(self):
        keys = np.zeros(10, dtype=np.int64)
        passes, rest = first_occurrence_passes(keys, max_passes=3)
        assert len(passes) == 3
        assert rest.tolist() == [3, 4, 5, 6, 7, 8, 9]

    def test_empty(self):
        passes, rest = first_occurrence_passes(np.array([], dtype=np.int64))
        assert passes == [] and rest.size == 0

    def test_replaying_passes_preserves_per_key_order(self):
        rng = np.random.default_rng(7)
        keys = rng.integers(0, 5, size=40)
        passes, rest = first_occurrence_passes(keys, max_passes=40)
        order = np.concatenate([*(passes or [np.array([], dtype=np.intp)]), rest])
        seen: dict[int, list[int]] = {}
        for pos in order.tolist():
            seen.setdefault(int(keys[pos]), []).append(pos)
        for key, positions in seen.items():
            assert positions == sorted(positions), key
