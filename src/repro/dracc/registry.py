"""DRACC benchmark registry.

DRACC (DataRaceOnAccelerator, Schmitz et al. 2019) is the micro-benchmark
suite the paper's precision evaluation runs on: 56 OpenMP target-offloading
programs, 16 of which contain a known data mapping issue whose manifested
memory error Table III classifies as UUM, BO, or USD.  The upstream suite
is C code compiled with Clang; this module re-creates each benchmark as a
program over the simulated runtime, keeping the Table III contract exact:

* buggy ids and effects: UUM = {22, 24, 49, 50, 51}, BO = {23, 25, 28, 29,
  30, 31}, USD = {26, 27, 32, 33, 34};
* the remaining 40 benchmarks are free of data mapping issues (and of
  races), and no tool may report anything on them.

Benchmarks register themselves via the :func:`dracc_benchmark` decorator;
`repro.dracc.suite_*` modules hold the program bodies.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable

from ..openmp.runtime import TargetRuntime


class Effect(enum.Enum):
    """The memory error a benchmark's data mapping issue manifests as."""

    UUM = "use of uninitialized memory"
    BO = "buffer overflow"
    USD = "use of stale data"


#: Table III, column by column.
TABLE3_UUM = (22, 24, 49, 50, 51)
TABLE3_BO = (23, 25, 28, 29, 30, 31)
TABLE3_USD = (26, 27, 32, 33, 34)
TABLE3_BUGGY = tuple(sorted(TABLE3_UUM + TABLE3_BO + TABLE3_USD))

EXPECTED_EFFECT: dict[int, Effect] = {
    **{n: Effect.UUM for n in TABLE3_UUM},
    **{n: Effect.BO for n in TABLE3_BO},
    **{n: Effect.USD for n in TABLE3_USD},
}


@dataclass(frozen=True)
class DraccBenchmark:
    """One benchmark: a program over a fresh runtime, plus metadata."""

    number: int
    name: str
    description: str
    expected_effect: Effect | None
    program: Callable[[TargetRuntime], None]
    #: Free-form construct tags ("nowait", "enter-data", ...), for filtering.
    tags: tuple[str, ...] = ()

    @property
    def is_buggy(self) -> bool:
        return self.expected_effect is not None

    def run(self, rt: TargetRuntime) -> None:
        """Execute the benchmark body, then the implicit final sync."""
        self.program(rt)
        rt.finalize()

    def __repr__(self) -> str:
        effect = self.expected_effect.name if self.expected_effect else "clean"
        return f"<DRACC_OMP_{self.number:03d} {effect}>"


_REGISTRY: dict[int, DraccBenchmark] = {}


def dracc_benchmark(
    number: int, description: str, *, tags: tuple[str, ...] = ()
) -> Callable:
    """Register a benchmark body under its DRACC number.

    The expected effect comes from the Table III constants, never from the
    call site — the registry cannot drift from the paper's table.
    """

    def decorate(fn: Callable[[TargetRuntime], None]):
        if number in _REGISTRY:
            raise ValueError(f"DRACC_OMP_{number:03d} registered twice")
        if not 1 <= number <= 56:
            raise ValueError(f"DRACC numbers span 1..56, got {number}")
        _REGISTRY[number] = DraccBenchmark(
            number=number,
            name=f"DRACC_OMP_{number:03d}",
            description=description,
            expected_effect=EXPECTED_EFFECT.get(number),
            program=fn,
            tags=tags,
        )
        return fn

    return decorate


def _ensure_loaded() -> None:
    from . import suite_clean_a, suite_clean_b, suite_buggy  # noqa: F401


def get(number: int) -> DraccBenchmark:
    """The benchmark registered as ``DRACC_OMP_<number>``."""
    _ensure_loaded()
    return _REGISTRY[number]


def all_benchmarks() -> tuple[DraccBenchmark, ...]:
    """All 56 benchmarks, ordered by number."""
    _ensure_loaded()
    return tuple(_REGISTRY[n] for n in sorted(_REGISTRY))


def buggy_benchmarks() -> tuple[DraccBenchmark, ...]:
    """The 16 Table-III benchmarks with a known data mapping issue."""
    return tuple(b for b in all_benchmarks() if b.is_buggy)


def clean_benchmarks() -> tuple[DraccBenchmark, ...]:
    """The 40 issue-free benchmarks (no tool may report on them)."""
    return tuple(b for b in all_benchmarks() if not b.is_buggy)


#: Valid ``--suite`` selections for every DRACC-driven command.
SUITES = ("buggy", "clean", "all")


def suite(name: str) -> tuple[DraccBenchmark, ...]:
    """The benchmarks of suite ``name`` (one of :data:`SUITES`)."""
    if name == "buggy":
        return buggy_benchmarks()
    if name == "clean":
        return clean_benchmarks()
    if name == "all":
        return all_benchmarks()
    raise ValueError(
        f"unknown suite {name!r} (valid choices: {', '.join(SUITES)})"
    )
