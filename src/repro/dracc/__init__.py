"""DRACC benchmark suite, re-created on the simulated runtime (§VI.C)."""

from .registry import (
    EXPECTED_EFFECT,
    SUITES,
    TABLE3_BO,
    TABLE3_BUGGY,
    TABLE3_USD,
    TABLE3_UUM,
    DraccBenchmark,
    Effect,
    all_benchmarks,
    buggy_benchmarks,
    clean_benchmarks,
    get,
    suite,
)

__all__ = [
    "DraccBenchmark",
    "Effect",
    "all_benchmarks",
    "buggy_benchmarks",
    "clean_benchmarks",
    "get",
    "suite",
    "SUITES",
    "EXPECTED_EFFECT",
    "TABLE3_UUM",
    "TABLE3_BO",
    "TABLE3_USD",
    "TABLE3_BUGGY",
]
