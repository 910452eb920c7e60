"""The observability-off path: zero cost, byte-identical wire, no spans.

One zero-allocation proof covers every observability sink: with no
observation active, the instrumented hot paths must not allocate in any
observability source file — the core switch and its metrics/span sinks,
the profiler, the structured log, the serve observer (``repro/observe``)
and the flight recorder and its provenance (``repro/forensics``).
"""

import tracemalloc

import pytest

from repro.core.detector import Arbalest
from repro.dracc import get
from repro.harness.serve import record_trace
from repro.observe import core
from repro.openmp.runtime import TargetRuntime
from repro.serve import (
    AnalysisServer,
    LoopbackTransport,
    ServeClient,
    ServerConfig,
)
from repro.specaccel import WORKLOADS

BENCH = 18

#: Every observability source file.
OBSERVABILITY_FILES = ("*repro/observe/*", "*repro/forensics/*")

#: A served session keeps its flight recorder on by design — served
#: findings are attributed through its address index — so the recorder's
#: own files are exempt for that target only.
SERVED_RECORDER_FILES = ("*repro/forensics/recorder.py", "*repro/forensics/provenance.py")


def _stream_once():
    server = AnalysisServer(ServerConfig(n_shards=2))
    client = ServeClient(LoopbackTransport(server), client_id=BENCH)
    return client.stream(record_trace(get(BENCH)))


def _run_dracc_22(engine: str) -> None:
    rt = TargetRuntime(n_devices=2, engine=engine)
    Arbalest().attach(rt.machine)
    get(22).run(rt)


def _run_spec_twin(engine: str) -> None:
    rt = TargetRuntime(n_devices=1, engine=engine)
    Arbalest().attach(rt.machine)
    WORKLOADS[0].run(rt, "test")
    rt.finalize()


TARGETS = {
    "dracc22-scalar": (lambda: _run_dracc_22("scalar"), ()),
    "dracc22-columnar": (lambda: _run_dracc_22("columnar"), ()),
    "spec-test-scalar": (lambda: _run_spec_twin("scalar"), ()),
    "spec-test-columnar": (lambda: _run_spec_twin("columnar"), ()),
    "served-dracc18": (_stream_once, SERVED_RECORDER_FILES),
}


class TestZeroAllocation:
    @pytest.mark.parametrize("target", sorted(TARGETS))
    def test_allocates_nothing(self, target):
        run, exempt = TARGETS[target]
        assert core.ACTIVE is None
        run()  # warm every code path first
        tracemalloc.start()
        try:
            run()
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        allocs = snapshot.filter_traces(
            [tracemalloc.Filter(True, pattern) for pattern in OBSERVABILITY_FILES]
        )
        if exempt:
            allocs = allocs.filter_traces(
                [tracemalloc.Filter(False, pattern) for pattern in exempt]
            )
        stats = allocs.statistics("filename")
        assert stats == [], [f"{s.traceback}: {s.size}B" for s in stats]


class TestDisabledPath:
    def test_untraced_client_emits_version_1_wire_only(self):
        """Without a span log the client's bytes are the pre-trace wire."""
        from repro.events.wire import WIRE_VERSION

        versions = set()

        class Tap(LoopbackTransport):
            def send(self, data: bytes) -> bytes:
                versions.add(data[2])
                return super().send(data)

        server = AnalysisServer(ServerConfig(n_shards=2))
        client = ServeClient(Tap(server), client_id=BENCH)
        client.stream(record_trace(get(BENCH)))
        assert versions == {WIRE_VERSION}

    def test_observer_free_result_matches_observed_result(self):
        """Observability must never change what the service computes."""
        from repro.observe import ServeObserver

        bare = _stream_once()
        observer = ServeObserver(trace_spans=True, wall_clock=False)
        server = AnalysisServer(ServerConfig(n_shards=2), observer)
        client = ServeClient(LoopbackTransport(server), client_id=BENCH)
        observed = client.stream(record_trace(get(BENCH)))
        assert bare.fingerprints() == observed.fingerprints()
