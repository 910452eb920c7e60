"""Summary statistics for benchmark samples (no numpy, no scipy)."""

from __future__ import annotations

import math
import statistics

#: Candidate tail percentiles, highest first.  The reported tail is the
#: highest of these with at least :data:`TAIL_MIN_ABOVE` samples above it.
TAIL_LADDER = (99.99, 99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: How many samples must lie above a percentile for it to count as a tail.
TAIL_MIN_ABOVE = 10


def median(values) -> float:
    return statistics.median(values)


def _rank(percentile: float, n: int) -> int:
    """1-based nearest rank of ``percentile`` among ``n`` sorted samples."""
    return max(1, math.ceil(percentile * n / 100.0 - 1e-9))


def samples_above(percentile: float, n: int) -> int:
    """Samples above the nearest-rank ``percentile`` of ``n`` samples."""
    return n - _rank(percentile, n)


def tail_percentile(n: int) -> tuple[float, bool]:
    """The highest ladder percentile with ten samples above it.

    Returns ``(percentile, rule_met)``.  With too few samples for any
    ladder step (fewer than twenty), the median is returned and
    ``rule_met`` is ``False``: there is no tail to speak of.
    """
    for p in TAIL_LADDER:
        if samples_above(p, n) >= TAIL_MIN_ABOVE:
            return p, True
    return 50.0, False


def percentile(values, p: float) -> float:
    """Nearest-rank percentile of ``values``."""
    ordered = sorted(values)
    return ordered[_rank(p, len(ordered)) - 1]


def tail(values) -> dict:
    """The tail summary: value, the percentile used and the sample count.

    Without enough samples for any tail the value is the median.
    """
    p, met = tail_percentile(len(values))
    return {
        "value": percentile(values, p) if met else median(values),
        "percentile": p,
        "samples": len(values),
        "rule_met": met,
    }


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


class Tally:
    """Attempted and failed operations, with the reasons for failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, problems: list[str]) -> bool:
        """Count one operation; it fails if any problem was found."""
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.extend(problems[:3])
        return not problems

    @property
    def fail_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
