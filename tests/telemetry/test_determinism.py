"""Determinism and coverage of an observed run.

Under the event-ordinal clock, two runs of the same target produce
byte-identical trace and metrics artifacts, and an enabled run produces
data from every layer.  The zero-cost-when-off guarantee is proven once
for all sinks in ``tests/observe/test_disabled_path.py``.
"""

import json

from repro.core.detector import Arbalest
from repro.dracc.registry import get as dracc_get
from repro.harness import run_profile
from repro.openmp.runtime import TargetRuntime
from repro.observe.core import scope


def _run_dracc(number: int) -> Arbalest:
    bench = dracc_get(number)
    rt = TargetRuntime(n_devices=2)
    detector = Arbalest().attach(rt.machine)
    bench.run(rt)
    return detector


class TestByteIdenticalArtifacts:
    def _profile_twice(self, tmp_path, **kwargs):
        artifacts = []
        for run in ("a", "b"):
            trace = tmp_path / f"trace_{run}.json"
            metrics = tmp_path / f"metrics_{run}.json"
            run_profile(
                output=str(trace), metrics_output=str(metrics), **kwargs
            )
            artifacts.append((trace.read_bytes(), metrics.read_bytes()))
        return artifacts

    def test_dracc_profile_byte_identical(self, tmp_path):
        (trace_a, metrics_a), (trace_b, metrics_b) = self._profile_twice(
            tmp_path, suite="dracc", benchmark=22, clock="ordinal"
        )
        assert trace_a == trace_b
        assert metrics_a == metrics_b

    def test_specaccel_profile_byte_identical(self, tmp_path):
        (trace_a, metrics_a), (trace_b, metrics_b) = self._profile_twice(
            tmp_path,
            suite="specaccel",
            workload="pcg",
            preset="test",
            clock="ordinal",
        )
        assert trace_a == trace_b
        assert metrics_a == metrics_b

    def test_snapshots_identical_across_runs(self):
        snaps = []
        for _ in range(2):
            with scope(metrics=True, spans=True) as obs:
                _run_dracc(22)
            snaps.append(json.dumps(obs.snapshot(), sort_keys=True))
        assert snaps[0] == snaps[1]


class TestInstrumentationCoverage:
    """An enabled run actually produces data from every layer."""

    def test_spans_cover_three_layers(self):
        with scope(spans=True) as obs:
            _run_dracc(22)
        layers = {s.cat for s in obs.spans.spans}
        assert {"runtime", "bus", "detector"} <= layers

    def test_counters_cover_runtime_detector_tools_and_vsm(self):
        with scope(metrics=True) as obs:
            _run_dracc(22)
        names = set(obs.metrics.counters)
        assert any(n.startswith("runtime.map_entries") for n in names)
        assert any(n.startswith("bus.events.") for n in names)
        assert any(n.startswith("detector.accesses.") for n in names)
        assert any(n.startswith("vsm.") and "->" in n for n in names)
        assert "runtime.transfer_bytes" in obs.metrics.histograms

    def test_detector_gauges_present(self):
        with scope(metrics=True) as obs:
            _run_dracc(1)
        assert "detector.live_mappings" in obs.metrics.gauges
        assert "detector.shadow_bytes" in obs.metrics.gauges
