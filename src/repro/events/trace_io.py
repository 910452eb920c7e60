"""Event trace serialization: record a run, re-analyze it offline.

ARBALEST is an *on-the-fly* detector (§IV) — but the same event stream that
drives it online can be captured and replayed, which is how one debugs the
tools themselves, compares detectors on byte-identical traces, or ships a
failing run to another machine.  This module gives the event layer a stable
JSON-lines format:

* :class:`TraceWriter` — a :class:`~repro.tools.base.Tool` that appends one
  JSON object per event to a file-like sink;
* :func:`read_trace` / :func:`replay` — parse a trace and push it through
  any set of tools via a fresh :class:`~repro.events.bus.ToolBus`.

Determinism of the simulation makes replayed analysis bit-identical to the
online run: the round-trip property is tested, not assumed.

Traces arrive from the real world — a run killed mid-write truncates its
last record, a bad disk or transport corrupts lines.  Parsing is therefore
*lenient by default*: malformed records are skipped and tallied, a single
structured :class:`TraceWarning` summarizes the damage (records read,
records skipped, first error), and :func:`load_trace` returns the partial
load with its full error list.  Pass ``strict=True`` to get the old
fail-fast behaviour as a :class:`TraceDecodeError`.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from typing import IO, Iterable, Iterator

from ..tools.base import Tool
from .bus import ToolBus
from .records import (
    Access,
    AccessOrigin,
    AllocationEvent,
    DataOp,
    DataOpKind,
    FlushEvent,
    KernelEvent,
    KernelPhase,
    MemcpyEvent,
    SyncEvent,
)
from .source import SourceLocation, UNKNOWN_LOCATION

#: Format version, embedded in every record for forward compatibility.
FORMAT_VERSION = 1


def _stack_to_json(stack: tuple[SourceLocation, ...]) -> list[list]:
    return [[f.file, f.line, f.column, f.function] for f in stack]


def _stack_from_json(data: list[list]) -> tuple[SourceLocation, ...]:
    if not data:
        return (UNKNOWN_LOCATION,)
    return tuple(SourceLocation(f, l, c, fn) for f, l, c, fn in data)


def event_to_json(event: object) -> dict:
    """One event -> one JSON-serializable dict (with a ``t`` type tag)."""
    if isinstance(event, Access):
        return {
            "t": "access",
            "v": FORMAT_VERSION,
            "dev": event.device_id,
            "tid": event.thread_id,
            "addr": event.address,
            "size": event.size,
            "w": event.is_write,
            "count": event.count,
            "stride": event.stride,
            "origin": event.origin.value,
            "stack": _stack_to_json(event.stack),
        }
    if isinstance(event, DataOp):
        return {
            "t": "data_op",
            "v": FORMAT_VERSION,
            "kind": event.kind.value,
            "dev": event.device_id,
            "tid": event.thread_id,
            "ov": event.ov_address,
            "cv": event.cv_address,
            "n": event.nbytes,
            "stack": _stack_to_json(event.stack),
        }
    if isinstance(event, MemcpyEvent):
        return {
            "t": "memcpy",
            "v": FORMAT_VERSION,
            "dev": event.device_id,
            "tid": event.thread_id,
            "dst_dev": event.dst_device,
            "dst": event.dst_address,
            "src_dev": event.src_device,
            "src": event.src_address,
            "n": event.nbytes,
            "stack": _stack_to_json(event.stack),
        }
    if isinstance(event, KernelEvent):
        return {
            "t": "kernel",
            "v": FORMAT_VERSION,
            "phase": event.phase.value,
            "task": event.task_id,
            "dev": event.device_id,
            "tid": event.thread_id,
            "nowait": event.nowait,
            "name": event.name,
            "stack": _stack_to_json(event.stack),
        }
    if isinstance(event, AllocationEvent):
        return {
            "t": "alloc",
            "v": FORMAT_VERSION,
            "dev": event.device_id,
            "tid": event.thread_id,
            "addr": event.address,
            "n": event.nbytes,
            "free": event.is_free,
            "storage": event.storage,
            "label": event.label,
            "stack": _stack_to_json(event.stack),
        }
    if isinstance(event, SyncEvent):
        return {
            "t": "sync",
            "v": FORMAT_VERSION,
            "kind": event.kind,
            "src": event.source_task,
            "dst": event.target_task,
            "tid": event.thread_id,
        }
    if isinstance(event, FlushEvent):
        return {
            "t": "flush",
            "v": FORMAT_VERSION,
            "dev": event.device_id,
            "tid": event.thread_id,
            "addr": event.address,
            "n": event.nbytes,
        }
    raise TypeError(f"not a traceable event: {event!r}")


def _require_int(data: dict, tag: str, key: str, *, minimum: int) -> int:
    """Fetch a declared numeric field, rejecting non-ints and underflows.

    A record that survived JSON parsing can still be semantically mangled —
    a truncated transport write, a buggy client.  Accepting a negative or
    zero size here would fabricate an access nobody made (historically a
    short record was silently zero-filled into a bogus event); rejecting it
    turns the damage into one skipped, *tallied* record instead.
    """
    value = data[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(
            f"{tag} record field {key!r} must be an integer, got {value!r}"
        )
    if value < minimum:
        raise ValueError(
            f"{tag} record declares {key}={value} (minimum {minimum}): "
            "rejected rather than zero-padded into a bogus event"
        )
    return value


def event_from_json(data: dict) -> object:
    """Inverse of :func:`event_to_json`.

    Declared sizes are validated: an access with a non-positive ``size`` or
    ``count``, a negative ``stride``, or any negative byte count / address
    raises :class:`ValueError` (surfaced by the loaders as a malformed
    record) instead of materializing as a fictitious event.
    """
    tag = data["t"]
    if tag == "access":
        _require_int(data, tag, "addr", minimum=0)
        _require_int(data, tag, "size", minimum=1)
        _require_int(data, tag, "count", minimum=1)
        _require_int(data, tag, "stride", minimum=0)
        return Access(
            device_id=data["dev"],
            thread_id=data["tid"],
            address=data["addr"],
            size=data["size"],
            is_write=data["w"],
            count=data["count"],
            stride=data["stride"],
            origin=AccessOrigin(data["origin"]),
            stack_ref=_stack_from_json(data["stack"]),
        )
    if tag == "data_op":
        _require_int(data, tag, "ov", minimum=0)
        _require_int(data, tag, "cv", minimum=0)
        _require_int(data, tag, "n", minimum=0)
        return DataOp(
            kind=DataOpKind(data["kind"]),
            device_id=data["dev"],
            thread_id=data["tid"],
            ov_address=data["ov"],
            cv_address=data["cv"],
            nbytes=data["n"],
            stack=_stack_from_json(data["stack"]),
        )
    if tag == "memcpy":
        _require_int(data, tag, "dst", minimum=0)
        _require_int(data, tag, "src", minimum=0)
        _require_int(data, tag, "n", minimum=0)
        return MemcpyEvent(
            device_id=data["dev"],
            thread_id=data["tid"],
            dst_device=data["dst_dev"],
            dst_address=data["dst"],
            src_device=data["src_dev"],
            src_address=data["src"],
            nbytes=data["n"],
            stack=_stack_from_json(data["stack"]),
        )
    if tag == "kernel":
        return KernelEvent(
            phase=KernelPhase(data["phase"]),
            task_id=data["task"],
            device_id=data["dev"],
            thread_id=data["tid"],
            nowait=data["nowait"],
            name=data["name"],
            stack=_stack_from_json(data["stack"]),
        )
    if tag == "alloc":
        _require_int(data, tag, "addr", minimum=0)
        _require_int(data, tag, "n", minimum=0)
        return AllocationEvent(
            device_id=data["dev"],
            thread_id=data["tid"],
            address=data["addr"],
            nbytes=data["n"],
            is_free=data["free"],
            storage=data["storage"],
            label=data["label"],
            stack=_stack_from_json(data["stack"]),
        )
    if tag == "sync":
        return SyncEvent(
            kind=data["kind"],
            source_task=data["src"],
            target_task=data["dst"],
            thread_id=data["tid"],
        )
    if tag == "flush":
        return FlushEvent(
            device_id=data["dev"],
            thread_id=data["tid"],
            address=data["addr"],
            nbytes=data["n"],
        )
    raise ValueError(f"unknown event tag {tag!r}")


class TraceWriter(Tool):
    """A tool that streams every event to a JSON-lines sink."""

    name = "trace-writer"

    def __init__(self, sink: IO[str]):
        super().__init__()
        self.sink = sink
        self.count = 0

    def _emit(self, event: object) -> None:
        self.sink.write(json.dumps(event_to_json(event)) + "\n")
        self.count += 1

    # Every handler funnels into _emit.
    def on_access(self, access):
        self._emit(access)

    def on_data_op(self, op):
        self._emit(op)

    def on_memcpy(self, event):
        self._emit(event)

    def on_kernel(self, event):
        self._emit(event)

    def on_allocation(self, event):
        self._emit(event)

    def on_sync(self, event):
        self._emit(event)

    def on_flush(self, event):
        self._emit(event)


def _format_lines(lines: tuple[int, ...], limit: int = 8) -> str:
    shown = ", ".join(str(n) for n in lines[:limit])
    if len(lines) > limit:
        shown += f", ... ({len(lines) - limit} more)"
    return shown


class TraceWarning(UserWarning):
    """A trace loaded partially: some records were malformed or truncated.

    Carries the damage *structurally*, not just as prose: ``errors`` is the
    ``(line_number, reason)`` list of every skipped record and
    ``line_numbers`` the lines alone, so callers (the serve ingest path,
    CI assertions) can point at the exact offending lines without parsing
    the warning text.
    """

    def __init__(self, message: str, errors: Iterable[tuple[int, str]] = ()):
        super().__init__(message)
        self.errors: tuple[tuple[int, str], ...] = tuple(errors)

    @property
    def line_numbers(self) -> tuple[int, ...]:
        """The 1-based line numbers of every skipped record."""
        return tuple(line for line, _ in self.errors)


class TraceDecodeError(ValueError):
    """A trace record could not be decoded (strict mode only)."""

    def __init__(self, line_number: int, reason: str):
        self.line_number = line_number
        self.reason = reason
        super().__init__(f"trace line {line_number}: {reason}")


@dataclass
class PartialTrace:
    """The outcome of a lenient trace load."""

    events: list = field(default_factory=list)
    records_read: int = 0
    records_skipped: int = 0
    #: ``(line_number, reason)`` for every skipped record, in file order.
    errors: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.records_skipped == 0

    def summary(self) -> str:
        if self.ok:
            return f"trace loaded cleanly: {self.records_read} records"
        first_line, first_reason = self.errors[0]
        lines = tuple(line for line, _ in self.errors)
        return (
            f"partial trace load: read {self.records_read} records, "
            f"skipped {self.records_skipped} malformed/truncated at "
            f"line(s) {_format_lines(lines)} "
            f"(first: line {first_line}: {first_reason})"
        )


def _decode_line(line_number: int, line: str):
    """One line -> one event, normalizing every decode failure."""
    try:
        return event_from_json(json.loads(line))
    except json.JSONDecodeError as exc:
        raise TraceDecodeError(line_number, f"truncated or corrupt JSON: {exc.msg}")
    except (KeyError, ValueError, TypeError) as exc:
        raise TraceDecodeError(
            line_number, f"malformed record: {type(exc).__name__}: {exc}"
        )


def load_trace(source: IO[str], *, strict: bool = False) -> PartialTrace:
    """Load a JSON-lines trace, tolerating truncated/corrupted records.

    Malformed lines are skipped and tallied; when any were skipped a single
    :class:`TraceWarning` carrying the partial-load summary is issued.  With
    ``strict=True`` the first bad record raises :class:`TraceDecodeError`.
    """
    result = PartialTrace()
    for line_number, line in enumerate(source, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            result.events.append(_decode_line(line_number, line))
            result.records_read += 1
        except TraceDecodeError as exc:
            if strict:
                raise
            result.records_skipped += 1
            result.errors.append((exc.line_number, exc.reason))
    if not result.ok:
        warnings.warn(
            TraceWarning(result.summary(), errors=result.errors), stacklevel=2
        )
    return result


def read_trace(source: IO[str], *, strict: bool = False) -> Iterator[object]:
    """Parse a JSON-lines trace back into event records.

    Lenient by default: malformed or truncated records are skipped, and one
    summary :class:`TraceWarning` is issued at the end of the stream when
    anything was skipped.  ``strict=True`` raises :class:`TraceDecodeError`
    on the first bad record instead.
    """
    read = 0
    errors: list[tuple[int, str]] = []
    for line_number, line in enumerate(source, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            event = _decode_line(line_number, line)
        except TraceDecodeError as exc:
            if strict:
                raise
            errors.append((exc.line_number, exc.reason))
            continue
        read += 1
        yield event
    if errors:
        first_line, first_reason = errors[0]
        lines = tuple(line for line, _ in errors)
        warnings.warn(
            TraceWarning(
                f"partial trace load: read {read} records, skipped "
                f"{len(errors)} malformed/truncated at line(s) "
                f"{_format_lines(lines)} "
                f"(first: line {first_line}: {first_reason})",
                errors=errors,
            ),
            stacklevel=2,
        )


def replay(events: Iterable[object], tools: Iterable[Tool]) -> ToolBus:
    """Push recorded events through tools on a fresh bus; returns the bus."""
    bus = ToolBus()
    for tool in tools:
        bus.attach(tool)
    dispatch = bus.publishers()
    for event in events:
        dispatch[type(event)](event)
    bus.flush_batch()
    return bus
