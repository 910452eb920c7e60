"""``repro profile``: run one workload fully observed and export it.

The profile harness is the observability counterpart of the overhead
harness: instead of *one* end-to-end number per (workload, tool) cell it
answers *where the time goes* — how much of a run is the simulated runtime
(directives, transfers), the ToolBus fan-out, and the detector's own
analysis — plus every internal counter the stack maintains (VSM transition
edges, lookup-cache hits, quarantine events, per-tool findings).

Artifacts:

* ``trace.json`` — Chrome Trace Event JSON; open in ``chrome://tracing``
  or https://ui.perfetto.dev;
* an optional metrics snapshot JSON (counters/gauges/histograms);
* a per-phase self-time table on stdout (rendered by the CLI).

With the default event-ordinal clock both artifacts are *byte-identical*
across repeated runs of the same target — they are diffable CI artifacts,
not just local profiles.  ``clock="wall"`` trades that determinism for real
seconds.
"""

from __future__ import annotations

from ..core.detector import Arbalest
from ..dracc.registry import all_benchmarks, get as dracc_get
from ..openmp.runtime import TargetRuntime
from ..observe.core import chrome_trace, scope, self_times
from ..observe.history import write_artifact
from ..specaccel.workloads import WORKLOADS, workload as workload_get

#: Valid ``--suite`` selections for the profile CLI.
PROFILE_SUITES = ("dracc", "specaccel")

#: Valid ``--clock`` selections.
PROFILE_CLOCKS = ("ordinal", "wall")


def run_profile(
    *,
    suite: str = "dracc",
    benchmark: int = 22,
    workload: str = "postencil",
    preset: str = "test",
    clock: str = "ordinal",
    output: str = "trace.json",
    metrics_output: str | None = None,
) -> dict:
    """Run one target observed (metrics + spans); write the trace; return the payload.

    ``suite="dracc"`` profiles DRACC benchmark ``benchmark`` on a
    two-accelerator machine; ``suite="specaccel"`` profiles SPEC ACCEL
    workload ``workload`` at ``preset``.  Both run under an attached
    :class:`~repro.core.detector.Arbalest`, which is the configuration
    whose breakdown the optimisation roadmap needs.
    """
    if suite not in PROFILE_SUITES:
        raise ValueError(
            f"unknown suite {suite!r} (valid choices: {', '.join(PROFILE_SUITES)})"
        )
    if clock not in PROFILE_CLOCKS:
        raise ValueError(
            f"unknown clock {clock!r} (valid choices: {', '.join(PROFILE_CLOCKS)})"
        )

    with scope(metrics=True, spans=True, wall_clock=(clock == "wall")) as obs:
        if suite == "dracc":
            bench = dracc_get(benchmark)  # KeyError -> caller's 1..56 message
            target = bench.name
            rt = TargetRuntime(n_devices=2)
            detector = Arbalest().attach(rt.machine)
            bench.run(rt)
        else:
            w = workload_get(workload)
            target = f"{w.spec_id}.{w.name}"
            rt = TargetRuntime(n_devices=1)
            detector = Arbalest().attach(rt.machine)
            w.run(rt, preset)
            rt.finalize()
        # Final internal-state gauges: surfaced here so the snapshot carries
        # the run's closing statistics, not just mid-run samples.
        metrics = obs.metrics
        hits, misses = detector.mapping_lookup_stats()
        metrics.gauge("detector.lookup_hits", hits)
        metrics.gauge("detector.lookup_misses", misses)
        for key, value in detector.degradation_stats().items():
            metrics.gauge(f"detector.{key}", value)
        metrics.gauge("detector.shadow_bytes", detector.shadow_bytes())

    write_artifact(output, chrome_trace([obs.spans]))
    snapshot = obs.snapshot()
    if metrics_output is not None:
        write_artifact(metrics_output, snapshot)

    return {
        "suite": suite,
        "target": target,
        "clock": clock,
        "output": output,
        "metrics_output": metrics_output,
        "span_count": len(obs.spans),
        "span_layers": sorted({s.cat for s in obs.spans.spans}),
        "self_times": self_times(obs.spans),
        "snapshot": snapshot,
        "findings": len(detector.findings),
        "observation": obs,
    }


def inventory() -> dict:
    """Machine-readable benchmark/workload inventory (``repro list --json``)."""
    return {
        "dracc": [
            {
                "number": b.number,
                "name": b.name,
                "buggy": b.is_buggy,
                "effect": b.expected_effect.name if b.expected_effect else None,
                "description": b.description,
                "tags": list(b.tags),
            }
            for b in all_benchmarks()
        ],
        "specaccel": [
            {
                "name": w.name,
                "spec_id": w.spec_id,
                "description": w.description,
                "presets": ["test", "train", "ref"],
            }
            for w in WORKLOADS
        ],
    }
