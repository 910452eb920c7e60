"""The forensics report harness: DRACC suites under the flight recorder.

``repro report`` runs a DRACC suite with a :class:`FlightRecorder` active
and the requested tools attached, then assembles the deduped findings —
each carrying its provenance timeline and natural-language explanation —
into the ``repro-report/1`` payload that :mod:`repro.forensics.report`
renders as text, JSON-lines, or HTML and that ``repro diff`` compares
across runs.

Every benchmark gets a *fresh* machine and a *fresh* recorder, so one
benchmark's timeline can never bleed into another's and the artifact is a
pure function of (suite, tools, capacity) — byte-identical across runs.
"""

from __future__ import annotations

from typing import Iterable

from ..dracc.registry import DraccBenchmark, suite as dracc_suite
from ..events.bus import ENGINE
from ..forensics import DEFAULT_CAPACITY, FlightRecorder
from ..observe.core import scope
from ..forensics.report import SCHEMA, build_summary, finding_entry
from ..openmp.runtime import TargetRuntime
from ..tools.registry import TOOL_FACTORIES, resolve_tools


def run_report(
    *,
    suite: str = "buggy",
    tools: Iterable[str] = ("arbalest",),
    capacity: int = DEFAULT_CAPACITY,
    benchmarks: Iterable[DraccBenchmark] | None = None,
) -> dict:
    """Run ``suite`` under the recorder and return the report payload.

    Findings are ordered by (benchmark registry order, requested tool
    order, report order within the tool) — fully deterministic.
    """
    tools = resolve_tools(tools)
    benches = tuple(benchmarks) if benchmarks is not None else dracc_suite(suite)
    findings: list[dict] = []
    for bench in benches:
        recorder = FlightRecorder(capacity)
        rt = TargetRuntime(n_devices=2)
        attached = {
            name: TOOL_FACTORIES[name]().attach(rt.machine) for name in tools
        }
        with scope(recorder=recorder):
            bench.run(rt)
        for name in tools:
            for finding, count in attached[name].findings_with_counts():
                findings.append(
                    finding_entry(
                        finding,
                        count,
                        benchmark=bench.number,
                        bench_name=bench.name,
                    )
                )
    header = {
        "record": "header",
        "schema": SCHEMA,
        "suite": suite if benchmarks is None else "custom",
        "tools": list(tools),
        "capacity": capacity,
        "engine": ENGINE,
    }
    return {
        "header": header,
        "findings": findings,
        "summary": build_summary(findings, benchmarks=len(benches)),
    }
