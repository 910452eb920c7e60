"""The flight recorder: a bounded per-variable timeline of mapping events.

ARBALEST's findings say *what* broke; the flight recorder keeps enough
history to say *how it got there*.  While a :class:`FlightRecorder` is
active, the runtime and the detector append one :class:`RecordedEvent` per
semantic event touching a mapped variable — map/unmap, ``target update``
transfers, kernel launches over the variable, and every access that moved
the variable's VSM state (steady-state accesses that do not change the
state are deliberately *not* recorded; they carry no causal information
and recording them would wreck the hot path).

Each variable gets its own bounded ring buffer (:class:`VariableRing`):
memory stays bounded no matter how long the run is, and eviction is
per-variable so a chatty array cannot push a quiet one's history out.
Alongside the rings sits an address-to-variable index, fed by the tool
bus from the allocation and data-op events it publishes
(:meth:`FlightRecorder.observe`).

Timestamps are **event ordinals** from the clock of the
:class:`~repro.observe.core.Observation` the recorder is a sink of: sites
pass ``ordinal=obs.clock.tick()``, so provenance interleaves with spans and
never goes backwards when another sink opens mid-run, and two runs of a
deterministic program produce byte-identical timelines.  With
observability off the recorder does not exist; sites reach it through the
core's single ``ACTIVE`` switch.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from ..events.records import AllocationEvent, DataOp, DataOpKind
from ..events.source import SourceLocation, UNKNOWN_LOCATION

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..tools.findings import Finding

#: Default per-variable ring capacity.  Sixty-four events comfortably hold
#: every semantic event of the DRACC benchmarks and the interesting suffix
#: of the SPEC workloads' histories.
DEFAULT_CAPACITY = 64

#: How many retired (unmapped/freed) address ranges to remember, so that
#: use-after-free findings can still name the variable that used to live
#: at the faulting address.
RETIRED_RANGES = 256


@dataclass(slots=True, kw_only=True, eq=False)
class RecordedEvent:
    """One event on one variable's timeline."""

    ordinal: int
    kind: str
    device_id: int
    variable: str
    state_before: str = ""
    state_after: str = ""
    location: SourceLocation = UNKNOWN_LOCATION
    detail: str = ""

    def to_json(self) -> dict:
        """Stable JSON form (insertion order is the schema order)."""
        payload: dict = {
            "ordinal": self.ordinal,
            "kind": self.kind,
            "device": self.device_id,
        }
        if self.state_before or self.state_after:
            payload["before"] = self.state_before
            payload["after"] = self.state_after
        if self.location is not UNKNOWN_LOCATION:
            payload["at"] = str(self.location)
        if self.detail:
            payload["detail"] = self.detail
        return payload

    def render(self) -> str:
        parts = [f"@{self.ordinal}", self.kind, f"dev{self.device_id}"]
        if self.state_before or self.state_after:
            parts.append(f"{self.state_before or '?'}->{self.state_after or '?'}")
        if self.location is not UNKNOWN_LOCATION:
            parts.append(f"at {self.location}")
        if self.detail:
            parts.append(f"({self.detail})")
        return " ".join(parts)


class VariableRing(deque):
    """A bounded ring of :class:`RecordedEvent`; oldest events are evicted."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"ring capacity must be positive, got {capacity}")
        super().__init__(maxlen=capacity)
        #: How many events eviction has discarded (reported in provenance
        #: so a truncated timeline is never mistaken for a complete one).
        self.dropped = 0

    def append(self, event: RecordedEvent) -> None:
        if len(self) == self.maxlen:
            self.dropped += 1
        super().append(event)

    def events(self) -> tuple[RecordedEvent, ...]:
        """The retained events, oldest first."""
        return tuple(self)


class FlightRecorder:
    """Per-variable ring buffers plus an address-to-variable index.

    The address index exists for the baseline tools: ASan/MSan/Valgrind
    findings carry a faulting address but no variable name, and the
    recorder is the one component that watched every labelled range get
    mapped in.  The tool bus feeds it: every allocation and data op it
    publishes while the recorder is active passes through :meth:`observe`
    first, so a live run, a trace replay and a serve shard derive the
    index from the same events.  ``resolve`` answers "whose storage is
    this address?" for both live and recently retired ranges.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"recorder capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.rings: dict[str, VariableRing] = {}
        #: Total events recorded (rings may have evicted some of them).
        self.records = 0
        self._ranges: list[tuple[int, int, int, str]] = []
        self._retired: list[tuple[int, int, int, str]] = []

    # -- recording ---------------------------------------------------------

    def record(
        self,
        variable: str,
        kind: str,
        *,
        ordinal: int,
        device_id: int = 0,
        location: SourceLocation = UNKNOWN_LOCATION,
        state_before: str = "",
        state_after: str = "",
        detail: str = "",
    ) -> RecordedEvent:
        """Append one event to ``variable``'s ring (created on first use).

        ``ordinal`` is the observation clock's next tick.
        """
        ring = self.rings.get(variable)
        if ring is None:
            ring = self.rings[variable] = VariableRing(self.capacity)
        event = RecordedEvent(
            ordinal=ordinal,
            kind=kind,
            device_id=device_id,
            variable=variable,
            state_before=state_before,
            state_after=state_after,
            location=location,
            detail=detail,
        )
        ring.append(event)
        self.records += 1
        return event

    def timeline(self, variable: str) -> tuple[tuple[RecordedEvent, ...], int]:
        """``variable``'s retained events (oldest first) and eviction count."""
        ring = self.rings.get(variable)
        if ring is None:
            return (), 0
        return ring.events(), ring.dropped

    # -- address index -----------------------------------------------------

    def observe(self, event: AllocationEvent | DataOp) -> None:
        """Update the address index from one allocation or data-op event.

        * a host (device 0) allocation carries the array name as its label
          — register it verbatim;
        * a device CV is named after its OV, **not** after its allocation
          label (device allocs are labelled ``name(CV)`` / ``name(image)``),
          so CV ranges register at the ``ALLOC`` data op by resolving the
          OV address against the already-registered host range;
        * frees and ``DELETE`` data ops retire ranges, keeping allocator
          reuse from mis-attributing and letting use-after-unmap findings
          still name the departed variable.
        """
        if type(event) is AllocationEvent:
            if event.is_free:
                self.release_range(event.device_id, event.address)
            elif event.device_id == 0 and event.label:
                self.register_range(0, event.address, event.nbytes, event.label)
        elif event.kind is DataOpKind.ALLOC:
            name = self.resolve(0, event.ov_address)
            if name:
                self.register_range(
                    event.device_id, event.cv_address, event.nbytes, name
                )
        elif event.kind is DataOpKind.DELETE:
            self.release_range(event.device_id, event.cv_address)

    def register_range(
        self, device_id: int, base: int, nbytes: int, variable: str
    ) -> None:
        """Remember that ``variable``'s storage occupies this range."""
        if variable and nbytes > 0:
            self._ranges.append((device_id, base, base + nbytes, variable))

    def release_range(self, device_id: int, base: int) -> None:
        """Retire the range starting at ``base`` (unmap/free)."""
        for i in range(len(self._ranges) - 1, -1, -1):
            dev, lo, hi, var = self._ranges[i]
            if dev == device_id and lo == base:
                del self._ranges[i]
                self._retired.append((dev, lo, hi, var))
                if len(self._retired) > RETIRED_RANGES:
                    del self._retired[0]
                return

    def resolve(self, device_id: int, address: int) -> str:
        """The variable whose storage covers ``address``, or ``""``.

        Live ranges win over retired ones; within each class the most
        recently registered range wins (matching allocator reuse).
        """
        for ranges in (self._ranges, self._retired):
            for dev, lo, hi, var in reversed(ranges):
                if dev == device_id and lo <= address < hi:
                    return var
        return ""

    def resolve_near(self, device_id: int, address: int, slack: int = 4096) -> str:
        """Like :meth:`resolve`, with a nearest-range fallback.

        Buffer overflows fault *outside* every registered range by
        definition; the intended variable is the one whose range ends (or
        begins) closest to the faulting address.  ``slack`` bounds the gap
        so a wild access far from everything stays unattributed.
        """
        exact = self.resolve(device_id, address)
        if exact:
            return exact
        best = ""
        best_gap = slack + 1
        for ranges in (self._ranges, self._retired):
            for dev, lo, hi, var in reversed(ranges):
                if dev != device_id:
                    continue
                gap = address - hi if address >= hi else lo - address
                if 0 <= gap < best_gap:
                    best, best_gap = var, gap
        return best

    # -- finding enrichment ------------------------------------------------

    def resolve_variable(self, finding: "Finding") -> "Finding":
        """Fill in ``finding.variable`` from the address index if empty."""
        if finding.variable or not finding.address:
            return finding
        variable = self.resolve_near(finding.device_id, finding.address)
        return replace(finding, variable=variable) if variable else finding

    def attach_provenance(self, finding: "Finding", ordinal: int) -> "Finding":
        """Snapshot this recorder into ``finding.provenance`` at ``ordinal``."""
        from .provenance import build_provenance

        return build_provenance(self, finding, ordinal)

    # -- accounting --------------------------------------------------------

    def shadow_bytes(self) -> int:
        """Rough live footprint, for memory-bound assertions."""
        per_event = 120  # a RecordedEvent with slots, rounded up
        retained = sum(len(ring) for ring in self.rings.values())
        return retained * per_event + (len(self._ranges) + len(self._retired)) * 48

