"""Provenance: turning a flight-recorder timeline into an explanation.

When a tool files a :class:`~repro.tools.findings.Finding` while a
:class:`~repro.forensics.recorder.FlightRecorder` is active, the recorder
snapshot for the finding's variable becomes a :class:`Provenance`: the
ordered events (state-before/state-after, device, source location), how
many older events the ring evicted, and a one-paragraph natural-language
explanation naming the offending access, the missing or incorrect data
movement that caused it, and the repair the programmer should apply.

The repair phrasing is shared with :class:`repro.core.repair.RepairEngine`
— the ``suggest_*`` functions below are the single source of those
sentences, so a provenance explanation and a live repair action describe
the same fix with the same words.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from ..events.source import UNKNOWN_LOCATION
from ..tools.findings import Finding, FindingKind
from .recorder import FlightRecorder, RecordedEvent

if TYPE_CHECKING:  # pragma: no cover - typing only
    pass


# -- shared repair phrasing (also used by repro.core.repair) ----------------


def suggest_update(direction: str, variable: str) -> str:
    """The missing ``target update`` directive for a use of stale data."""
    return (
        f"#pragma omp target update {direction}({variable}) "
        "is missing before this read"
    )


def suggest_initialize(variable: str, side: str) -> str:
    """UUM is not repairable by data movement — say so, with the fix."""
    return (
        f"'{variable or '?'}' is read on the {side} before any "
        "initialization reaches it; no transfer can repair this — "
        "initialize the data or fix the map-type (e.g. map(to:) "
        "instead of map(alloc:/from:))"
    )


def suggest_ordering() -> str:
    """The depend/taskwait fix for unordered conflicting accesses."""
    return (
        "unordered accesses to the same storage: add a depend "
        "clause between the conflicting tasks, or a taskwait "
        "before the host-side access"
    )


def suggest_exit_from(variable: str) -> str:
    """The map-type fix when an unmap discards the only valid copy."""
    return (
        f"the unmap of '{variable or '?'}' discards the only "
        "valid copy; if the host reads it later, its map-type "
        "must include 'from' (tofrom, or target exit data "
        "map(from: ...))"
    )


def suggest_section(variable: str) -> str:
    """The array-section fix for a mapping-bounds overflow (§IV.D)."""
    name = variable or "?"
    return (
        f"the map clause for '{name}' does not cover this element; "
        f"extend the mapped array section (map({name}[start:count]) "
        "must include every accessed index)"
    )


def suggest_lifetime(variable: str) -> str:
    """The lifetime fix for a use of released storage."""
    return (
        f"the storage of '{variable or '?'}' was released before this "
        "use; keep the mapping alive across the access, or move the "
        "access before the target exit data / free"
    )


def suggest_single_release(variable: str) -> str:
    """The fix for releasing the same mapping twice."""
    return (
        f"'{variable or '?'}' is released more than once; each map/alloc "
        "must be released exactly once — drop the duplicate delete/free"
    )


# -- the provenance record ---------------------------------------------------


@dataclass(frozen=True)
class Provenance:
    """A finding's reconstructed history."""

    variable: str
    #: Ordered timeline, oldest first; the final event is always the
    #: synthetic ``finding`` event marking the offending access itself.
    events: tuple[RecordedEvent, ...]
    #: Events the ring evicted before the snapshot (0 = complete history).
    dropped: int
    #: One paragraph: offending access, bad/missing data movement, repair.
    explanation: str

    def to_json(self) -> dict:
        return {
            "variable": self.variable,
            "dropped": self.dropped,
            "explanation": self.explanation,
            "events": [e.to_json() for e in self.events],
        }

    def render(self) -> str:
        lines = [f"provenance of `{self.variable or '?'}`:"]
        if self.dropped:
            lines.append(f"  ... {self.dropped} older event(s) evicted ...")
        lines.extend(f"  {e.render()}" for e in self.events)
        lines.append(f"  why: {self.explanation}")
        return "\n".join(lines)


def build_provenance(
    recorder: FlightRecorder, finding: Finding, ordinal: int
) -> Finding:
    """Attach a :class:`Provenance` snapshot to ``finding``, stamped ``ordinal``.

    The timeline is never empty: even when the ring holds nothing for the
    variable (a baseline tool's finding on an unlabelled range, say) the
    synthetic terminal event still names the offending access.
    """
    variable = finding.variable
    if variable:
        events, dropped = recorder.timeline(variable)
    else:
        events, dropped = (), 0
    terminal = RecordedEvent(
        ordinal=ordinal,
        kind="finding",
        device_id=finding.device_id,
        variable=variable or "?",
        location=finding.location if finding.has_stack else UNKNOWN_LOCATION,
        detail=f"{finding.kind.value}: {finding.message}",
    )
    timeline = events + (terminal,)
    provenance = Provenance(
        variable=variable,
        events=timeline,
        dropped=dropped,
        explanation=explain(finding, timeline),
    )
    return replace(finding, provenance=provenance)


# -- the explanation ---------------------------------------------------------


def _last(
    timeline: tuple[RecordedEvent, ...], kinds: tuple[str, ...]
) -> RecordedEvent | None:
    for event in reversed(timeline):
        if event.kind in kinds:
            return event
    return None


def _where(event: RecordedEvent) -> str:
    if event.location is not UNKNOWN_LOCATION:
        return f" at {event.location}"
    return ""


def explain(finding: Finding, timeline: tuple[RecordedEvent, ...]) -> str:
    """One paragraph: the access, the data-movement defect, the repair."""
    var = finding.variable or "?"
    side = "device" if finding.device_id else "host"
    if finding.has_stack:
        loc = finding.location
        read_at = f" at {loc.file}:{loc.line}"
    else:
        read_at = ""
    kind = finding.kind

    if kind is FindingKind.USD:
        if finding.device_id == 0:
            writer = _last(timeline, ("device-write", "kernel-launch"))
            if writer is not None:
                inside = (
                    f" inside `{writer.detail}`"
                    if writer.kind == "kernel-launch" and writer.detail
                    else ""
                )
                opener = (
                    f"`{var}` was last written on device {writer.device_id} "
                    f"at ordinal {writer.ordinal}{inside}{_where(writer)}"
                )
            else:
                opener = f"the only valid copy of `{var}` lives on the accelerator"
            return (
                f"{opener} but was never mapped back before the host "
                f"read{read_at}; suggest: {suggest_update('from', var)}"
            )
        writer = _last(timeline, ("host-write",))
        if writer is not None:
            opener = (
                f"`{var}` was last written on the host at ordinal "
                f"{writer.ordinal}{_where(writer)}"
            )
        else:
            opener = f"the only valid copy of `{var}` lives on the host"
        return (
            f"{opener} but was never transferred to device "
            f"{finding.device_id} before the device read{read_at}; "
            f"suggest: {suggest_update('to', var)}"
        )

    if kind is FindingKind.UUM:
        mapped = _last(timeline, ("map",))
        because = (
            f" (the mapping at ordinal {mapped.ordinal}{_where(mapped)} "
            "allocated the device copy without copying data in)"
            if mapped is not None and finding.device_id
            else ""
        )
        return (
            f"the {side} read of `{var}`{read_at} observed memory that no "
            f"initialization ever reached{because}; "
            f"suggest: {suggest_initialize(var, side)}"
        )

    if kind is FindingKind.BO:
        mapped = _last(timeline, ("map",))
        section = (
            f" mapped at ordinal {mapped.ordinal}{_where(mapped)}"
            if mapped is not None
            else ""
        )
        return (
            f"the {side} access{read_at} runs outside the mapped section "
            f"of `{var}`{section}; only the mapped bytes exist on the "
            f"device, so the excess access corrupts a neighbour; "
            f"suggest: {suggest_section(var)}"
        )

    if kind is FindingKind.RACE:
        subject = f"`{var}`" if finding.variable else "the same storage"
        return (
            f"two unordered accesses touch {subject}{read_at} with no "
            f"happens-before edge between them; "
            f"suggest: {suggest_ordering()}"
        )

    if kind is FindingKind.UAF:
        released = _last(timeline, ("unmap", "free"))
        opener = (
            f"the storage of `{var}` was released at ordinal "
            f"{released.ordinal}{_where(released)}"
            if released is not None
            else f"the storage of `{var}` was already released"
        )
        return (
            f"{opener} yet the {side} access{read_at} uses it again; "
            f"suggest: {suggest_lifetime(var)}"
        )

    if kind is FindingKind.BAD_FREE:
        return (
            f"the release{read_at} has no live mapping/allocation to act "
            f"on — `{var}` was already released or never mapped; "
            f"suggest: {suggest_single_release(var)}"
        )

    if kind is FindingKind.WILD:
        return (
            f"the {side} access{read_at} touches memory outside every "
            f"live allocation; if it was meant to hit `{var}`, the "
            f"mapped section is too small; suggest: {suggest_section(var)}"
        )

    # TOOL_ERROR and any future kinds: restate the failure honestly.
    return (
        f"{finding.message}; the run continued but this tool's analysis "
        "state may be degraded from this point on"
    )
