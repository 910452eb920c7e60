"""Figure 8: execution-time overhead on the SPEC ACCEL workloads.

Each (workload, configuration) cell is one pytest-benchmark entry, grouped
per workload — the relative "Mean" column within a group *is* Fig. 8's bar
cluster for that benchmark.  A final summary test prints the slowdown
table computed the same way the paper reports it (factor over native).
"""

import pytest

from repro.harness import CONFIGS, build_cell, run_overhead_comparison
from repro.specaccel import WORKLOADS

PRESET = "train"


@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda w: w.name)
def test_workload_under_config(benchmark, workload, config):
    benchmark.group = f"fig8-{workload.name}"
    benchmark.extra_info["workload"] = workload.name
    benchmark.extra_info["config"] = config

    def run_once():
        return build_cell(workload, config).run(workload, PRESET)

    checksum = benchmark(run_once)
    assert checksum is not None


def test_fig8_summary_table(benchmark, capsys):
    """One timed pass computing the full slowdown matrix, then print it."""
    benchmark.group = "fig8-summary"
    result = benchmark.pedantic(
        run_overhead_comparison,
        kwargs=dict(preset=PRESET, repetitions=1),
        rounds=1,
        iterations=1,
    )
    assert result.checksums_consistent()
    # The paper's headline shape: native is fastest, the DBI tool slowest,
    # and ARBALEST within the compile-time-instrumentation family.
    for w in WORKLOADS:
        slow = {c: result.slowdown(w.name, c) for c in CONFIGS}
        assert slow["native"] == pytest.approx(1.0)
        assert slow["valgrind"] == max(slow.values()), (w.name, slow)
        assert slow["arbalest"] >= 1.0
    with capsys.disabled():
        print()
        print(result.render_time_table())
        print()
        for w in WORKLOADS:
            print(f"-- {w.name} ({w.spec_id}) --")
            print(result.render_chart(w.name))
            print()
