"""Differential equivalence: the columnar engine against the scalar oracle.

The scalar engine is the reference semantics; the columnar engine is a
performance transformation that must be observationally identical.  These
tests run real programs (DRACC benchmarks, the SPEC ACCEL twins) under both
engines and require byte-identical finding fingerprints, identical per-site
counts, and identical certificate/quarantine accounting — also under a
flight recorder and under seeded fault schedules.
"""

import pytest

from repro.core.detector import Arbalest
from repro.dracc import all_benchmarks, get
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.forensics import FlightRecorder
from repro.forensics.report import finding_entry
from repro.harness.chaos import _plan_seed, _signature
from repro.harness.precision import TOOL_FACTORIES, TOOL_ORDER
from repro.observe.core import scope
from repro.openmp.runtime import TargetRuntime
from repro.specaccel.postencil import output_checksum, run_postencil
from repro.specaccel.workloads import WORKLOADS


def _fingerprints(tool):
    return sorted(
        (f.fingerprint(), count) for f, count in tool.findings_with_counts()
    )


def _run_dracc(benchmark, engine):
    rt = TargetRuntime(n_devices=2, engine=engine)
    tools = {name: TOOL_FACTORIES[name]().attach(rt.machine) for name in TOOL_ORDER}
    benchmark.run(rt)
    observed = {name: _fingerprints(tool) for name, tool in tools.items()}
    detector = tools["arbalest"]
    observed["cert_stats"] = detector.cert_stats()
    observed["degradation_stats"] = detector.degradation_stats()
    return observed


@pytest.mark.parametrize(
    "dracc_case", all_benchmarks(), ids=lambda b: f"DRACC_{b.number:03d}"
)
def test_dracc_engines_agree(dracc_case):
    """All 56 DRACC benchmarks, all five tools: identical observations."""
    assert _run_dracc(dracc_case, "scalar") == _run_dracc(dracc_case, "columnar")


def _run_workload(workload, preset, engine):
    rt = TargetRuntime(n_devices=1, engine=engine)
    tool = Arbalest().attach(rt.machine)
    checksum = workload.run(rt, preset)
    rt.finalize()
    return {
        "findings": _fingerprints(tool),
        "cert_stats": tool.cert_stats(),
        "degradation_stats": tool.degradation_stats(),
        "checksum": checksum,
    }


@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda w: w.name)
@pytest.mark.parametrize("preset", ["test", "large"])
def test_spec_twins_engines_agree(workload, preset):
    """Bulk-kernel (test) and element-wise (large) twins, both engines."""
    scalar = _run_workload(workload, preset, "scalar")
    columnar = _run_workload(workload, preset, "columnar")
    assert scalar == columnar


@pytest.mark.parametrize("engine", ["scalar", "columnar"])
def test_postencil_bug_detected_under_both_engines(engine):
    """The Fig-7 stale-access bug must survive the engine swap."""
    rt = TargetRuntime(n_devices=1, engine=engine)
    tool = Arbalest().attach(rt.machine)
    result = run_postencil(rt, "test", buggy=True)
    output_checksum(rt, result)
    rt.finalize()
    assert tool.mapping_issue_findings(), "stale access went undetected"


def test_postencil_buggy_findings_identical():
    def run(engine):
        rt = TargetRuntime(n_devices=1, engine=engine)
        tool = Arbalest().attach(rt.machine)
        result = run_postencil(rt, "test", buggy=True)
        output_checksum(rt, result)
        rt.finalize()
        return _fingerprints(tool)

    assert run("scalar") == run("columnar")


def test_large_preset_buggy_postencil_equivalent():
    """Element-wise twin with the v1.2 bug: same verdict from both engines."""

    def run(engine):
        rt = TargetRuntime(n_devices=1, engine=engine)
        tool = Arbalest().attach(rt.machine)
        result = run_postencil(rt, "large", buggy=True)
        output_checksum(rt, result)
        rt.finalize()
        return _fingerprints(tool)

    scalar = run("scalar")
    assert scalar == run("columnar")
    assert scalar, "stale access went undetected on the large preset"


def _recorded_entries(engine):
    rt = TargetRuntime(n_devices=2, engine=engine)
    tools = [TOOL_FACTORIES[name]().attach(rt.machine) for name in ("arbalest", "msan")]
    bench = get(22)
    with scope(recorder=FlightRecorder()):
        bench.run(rt)
    return [
        finding_entry(f, count, benchmark=bench.number, bench_name=bench.name)
        for tool in tools
        for f, count in tool.findings_with_counts()
    ]


def test_recorded_provenance_engines_agree():
    """Two tools under one recorder: the second tool's findings snapshot
    the ring in scalar order, so provenance matches across engines."""
    scalar = _recorded_entries("scalar")
    assert {e["tool"] for e in scalar} == {"arbalest", "msan"}
    assert scalar == _recorded_entries("columnar")


def _run_faulted(benchmark, engine):
    plan = FaultPlan.generate(_plan_seed(0, 0, benchmark.number), n_faults=6)
    rt = TargetRuntime(n_devices=2, faults=FaultInjector(plan), engine=engine)
    detector = Arbalest().attach(rt.machine)
    benchmark.run(rt)
    assert detector.check_invariants() == []
    return _signature(detector), len(detector.quarantine_log)


@pytest.mark.parametrize(
    "dracc_case", all_benchmarks(), ids=lambda b: f"DRACC_{b.number:03d}"
)
def test_dracc_faulted_engines_agree(dracc_case):
    """One seeded chaos schedule per benchmark: same findings, same
    quarantine count, no crash and no invariant violation on either engine."""
    assert _run_faulted(dracc_case, "scalar") == _run_faulted(dracc_case, "columnar")
