"""Table III: precision comparison of five tools on the DRACC suite.

Runs every DRACC benchmark on a fresh machine per (benchmark, toolset),
collects each tool's *mapping-issue* findings (races and allocator errors
do not count toward Table III, matching how the paper scores "correctly
reports the data mapping issue"), and renders the table in the paper's
row grouping.

The paper's expected matrix is encoded in :data:`EXPECTED_DETECTIONS` so
the regeneration can diff itself against the publication.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from ..dracc.registry import (
    TABLE3_BO,
    TABLE3_USD,
    TABLE3_UUM,
    DraccBenchmark,
    all_benchmarks,
)
from ..openmp.runtime import TargetRuntime
from ..tools.base import Tool
from ..tools.registry import TOOL_FACTORIES, TOOL_ORDER, resolve_tools
from .tables import render_table

#: Which tools the paper reports as detecting each Table III row.
EXPECTED_DETECTIONS: dict[str, frozenset[str]] = {
    "UUM": frozenset({"arbalest", "msan"}),
    "BO": frozenset({"arbalest", "valgrind", "asan"}),
    "USD": frozenset({"arbalest"}),
}


@dataclass
class BenchmarkResult:
    benchmark: DraccBenchmark
    #: tool name -> did it report a data mapping issue on this benchmark?
    detected: dict[str, bool]
    #: tool name -> every finding (incl. races), for false-positive checks.
    all_findings: dict[str, int]
    #: tool name -> the tool instance as it ended the run.
    tools: dict[str, Tool] = field(default_factory=dict)


@dataclass
class PrecisionResult:
    results: list[BenchmarkResult] = field(default_factory=list)

    def by_number(self) -> Mapping[int, BenchmarkResult]:
        return {r.benchmark.number: r for r in self.results}

    def score(self, tool: str) -> tuple[int, int]:
        """(detected, total) over the buggy benchmarks, Table III style."""
        buggy = [r for r in self.results if r.benchmark.is_buggy]
        return sum(r.detected[tool] for r in buggy), len(buggy)

    def false_positives(self, tool: str) -> list[int]:
        """Clean benchmarks on which the tool reported anything at all."""
        return [
            r.benchmark.number
            for r in self.results
            if not r.benchmark.is_buggy and r.all_findings[tool] > 0
        ]

    def matches_paper(self) -> bool:
        """Whether the regenerated table equals the published Table III."""
        rows = {
            "UUM": TABLE3_UUM,
            "BO": TABLE3_BO,
            "USD": TABLE3_USD,
        }
        for effect, numbers in rows.items():
            for n in numbers:
                r = self.by_number()[n]
                for tool in TOOL_ORDER:
                    if r.detected[tool] != (tool in EXPECTED_DETECTIONS[effect]):
                        return False
        return all(not self.false_positives(t) for t in TOOL_ORDER)

    def render(self) -> str:
        rows = []
        for effect, numbers in (
            ("UUM", TABLE3_UUM),
            ("BO", TABLE3_BO),
            ("USD", TABLE3_USD),
        ):
            marks = []
            for tool in TOOL_ORDER:
                hit = all(self.by_number()[n].detected[tool] for n in numbers)
                any_hit = any(self.by_number()[n].detected[tool] for n in numbers)
                marks.append("Y" if hit else ("~" if any_hit else "-"))
            rows.append(
                [", ".join(str(n) for n in numbers), effect, *marks]
            )
        overall = [
            f"{self.score(t)[0]}/{self.score(t)[1]}" for t in TOOL_ORDER
        ]
        rows.append(["Overall", "", *overall])
        table = render_table(
            ["Benchmark ID", "Effect", *[t.capitalize() for t in TOOL_ORDER]],
            rows,
            title="Table III: Effectiveness Comparison on DRACC Benchmarks",
        )
        fps = {t: self.false_positives(t) for t in TOOL_ORDER}
        fp_line = (
            "False positives on the 40 clean benchmarks: none"
            if not any(fps.values())
            else f"False positives: {fps}"
        )
        return table + "\n" + fp_line


def run_benchmark_under_tools(
    benchmark: DraccBenchmark, tool_names: Iterable[str] = TOOL_ORDER
) -> BenchmarkResult:
    """Run one benchmark with the named tools attached to a fresh machine."""
    rt = TargetRuntime(n_devices=2)
    tools = {
        name: TOOL_FACTORIES[name]().attach(rt.machine)
        for name in resolve_tools(tool_names)
    }
    benchmark.run(rt)
    return BenchmarkResult(
        benchmark=benchmark,
        detected={
            name: bool(tool.mapping_issue_findings()) for name, tool in tools.items()
        },
        all_findings={name: len(tool.findings) for name, tool in tools.items()},
        tools=tools,
    )


def run_precision_comparison(
    benchmarks: Iterable[DraccBenchmark] | None = None,
) -> PrecisionResult:
    """The whole Table III experiment."""
    result = PrecisionResult()
    for benchmark in benchmarks if benchmarks is not None else all_benchmarks():
        result.results.append(run_benchmark_under_tools(benchmark))
    return result
