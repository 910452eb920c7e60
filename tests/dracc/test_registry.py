"""DRACC registry: completeness, Table III contract, metadata."""

import pytest

from repro.dracc import (
    EXPECTED_EFFECT,
    SUITES,
    TABLE3_BO,
    TABLE3_BUGGY,
    TABLE3_USD,
    TABLE3_UUM,
    Effect,
    all_benchmarks,
    buggy_benchmarks,
    clean_benchmarks,
    get,
    suite,
)


class TestCompleteness:
    def test_exactly_56_benchmarks(self):
        assert len(all_benchmarks()) == 56

    def test_numbers_are_1_to_56(self):
        assert [b.number for b in all_benchmarks()] == list(range(1, 57))

    def test_16_buggy_40_clean(self):
        assert len(buggy_benchmarks()) == 16
        assert len(clean_benchmarks()) == 40

    def test_buggy_ids_match_table3(self):
        assert tuple(b.number for b in buggy_benchmarks()) == TABLE3_BUGGY

    def test_effects_match_table3_rows(self):
        for n in TABLE3_UUM:
            assert get(n).expected_effect is Effect.UUM
        for n in TABLE3_BO:
            assert get(n).expected_effect is Effect.BO
        for n in TABLE3_USD:
            assert get(n).expected_effect is Effect.USD

    def test_clean_benchmarks_have_no_effect(self):
        for b in clean_benchmarks():
            assert b.expected_effect is None
            assert not b.is_buggy

    def test_names_follow_dracc_convention(self):
        assert get(22).name == "DRACC_OMP_022"
        assert get(5).name == "DRACC_OMP_005"

    def test_suite_selector(self):
        assert SUITES == ("buggy", "clean", "all")
        assert suite("buggy") == buggy_benchmarks()
        assert suite("clean") == clean_benchmarks()
        assert suite("all") == all_benchmarks()
        with pytest.raises(ValueError, match="valid choices: buggy, clean, all"):
            suite("nope")

    def test_descriptions_nonempty(self):
        for b in all_benchmarks():
            assert len(b.description) > 20, b.name


class TestExecution:
    def test_every_benchmark_runs_without_tools(self):
        from repro.openmp import TargetRuntime

        for b in all_benchmarks():
            rt = TargetRuntime(n_devices=2)
            b.run(rt)  # must not raise
            assert rt.machine.tasks.quiescent, b.name

    def test_every_benchmark_releases_device_memory(self):
        # After finalize, present tables may only hold declare-target pins.
        from repro.openmp import TargetRuntime

        for b in all_benchmarks():
            rt = TargetRuntime(n_devices=2)
            b.run(rt)
            for d in rt.machine.accelerator_ids:
                for entry in rt.machine.device(d).present.entries():
                    assert entry.ref_count > 1_000_000, (
                        f"{b.name} leaked mapping {entry.name} on device {d}"
                    )
