"""Precision harness internals (the full experiment lives in
tests/integration/test_table3.py; these cover the plumbing)."""

import pytest

from repro.dracc import get
from repro.harness import (
    EXPECTED_DETECTIONS,
    TOOL_FACTORIES,
    TOOL_ORDER,
    run_benchmark_under_tools,
    run_precision_comparison,
)


class TestToolRegistry:
    def test_five_tools_in_paper_order(self):
        assert TOOL_ORDER == ("arbalest", "valgrind", "archer", "asan", "msan")
        for name in TOOL_ORDER:
            tool = TOOL_FACTORIES[name]()
            assert tool.name == name

    def test_expected_matrix_covers_all_rows(self):
        assert set(EXPECTED_DETECTIONS) == {"UUM", "BO", "USD"}
        # ARBALEST detects every row; Archer none.
        for tools in EXPECTED_DETECTIONS.values():
            assert "arbalest" in tools
            assert "archer" not in tools


class TestSingleBenchmarkRunner:
    def test_subset_of_tools(self):
        result = run_benchmark_under_tools(get(22), ["arbalest", "msan"])
        assert set(result.detected) == {"arbalest", "msan"}
        assert result.detected["arbalest"] and result.detected["msan"]

    def test_fresh_machine_per_run(self):
        # Two runs of the same benchmark are independent (no shadow reuse).
        r1 = run_benchmark_under_tools(get(22), ["arbalest"])
        r2 = run_benchmark_under_tools(get(22), ["arbalest"])
        assert r1.detected == r2.detected

    def test_unknown_tool_gets_the_one_message(self):
        from repro.harness.serve import baseline_fingerprints

        with pytest.raises(ValueError, match=r"unknown tool\(s\) gdb \(valid"):
            run_benchmark_under_tools(get(1), ["arbalest", "gdb"])
        with pytest.raises(ValueError, match=r"unknown tool\(s\) gdb \(valid"):
            baseline_fingerprints([], ["gdb"])

    def test_all_findings_counts_races_too(self):
        # all_findings counts everything, detected only mapping issues.
        result = run_benchmark_under_tools(get(1), ["archer"])
        assert result.all_findings["archer"] == 0
        assert not result.detected["archer"]


class TestSubsetComparison:
    def test_partial_suite(self):
        subset = [get(n) for n in (22, 23, 26, 1)]
        result = run_precision_comparison(subset)
        assert len(result.results) == 4
        detected, total = result.score("arbalest")
        assert (detected, total) == (3, 3)
        assert result.false_positives("arbalest") == []

    def test_render_marks_partial_detection_with_tilde(self):
        # Valgrind detects BO benchmarks but not UUM ones; on a mixed subset
        # the BO row still shows Y because rows group by effect.
        subset = [get(n) for n in (23, 25)]
        result = run_precision_comparison(subset)
        # by_number only contains the subset:
        assert set(result.by_number()) == {23, 25}
