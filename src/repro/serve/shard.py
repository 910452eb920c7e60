"""One shard worker: a full detector stack over a slice of address space.

A :class:`ShardWorker` owns a fresh :class:`~repro.events.bus.ToolBus`
(columnar, like every product path; ``engine="scalar"`` pins the
reference) with its own tool instances.  It consumes journaled event
frames, applies them to the bus, and exposes its tools' findings.  Every
dispatch runs under the worker's flight recorder, so the bus derives
variable attribution from the applied events exactly as it does in a
live run — served findings fingerprint identically to in-process ones —
and, as in any recorded run, hands accesses to the tools one at a time
in scalar order.

Crash semantics are explicit, because the chaos campaign injects them at
every possible point: :exc:`WorkerCrash` models the worker process dying
mid-delivery.  ``crash_phase="pre"`` dies before the frame reaches the
journal (the frame is lost with the worker and must be redelivered);
``crash_phase="post"`` dies after journal+apply but before the ACK (the
supervisor redelivers, and the journal's ``(client, seq)`` dedup makes the
redelivery a no-op).  Both interleavings must — and do — converge to the
same detector state after :meth:`restart` replays the journal.
"""

from __future__ import annotations

from typing import Iterable

from ..events.bus import ToolBus
from ..events.trace_io import event_from_json
from ..forensics.recorder import FlightRecorder
from ..observe import core as _obs
from ..tools.base import Tool
from ..tools.findings import Finding
from ..tools.registry import TOOL_FACTORIES, resolve_tools
from .journal import ShardJournal

__all__ = [
    "ShardWorker",
    "WorkerCrash",
]


class WorkerCrash(RuntimeError):
    """A shard worker died mid-delivery (injected or real)."""


class ShardWorker:
    """One shard of detector state, restartable from its journal."""

    def __init__(
        self,
        shard_id: int,
        *,
        engine: str = "columnar",
        tools: Iterable[str] = ("arbalest",),
        journal: ShardJournal | None = None,
        session: _obs.Observation | None = None,
        observer=None,
    ):
        self.shard_id = shard_id
        self.engine = engine
        #: Optional :class:`~repro.observe.observer.ServeObserver`; when
        #: present, applies and replays are counted/spanned through it.
        self._observer = observer
        #: The per-shard span log, resolved once — ``SpanLog`` identity is
        #: stable across restarts, so ``deliver`` never re-asks for it.
        self._spanlog = (
            observer.span_log(f"shard-{shard_id}") if observer is not None else None
        )
        #: The observer's continuous profiler, resolved once.  Activated
        #: around each apply so ToolBus sampling attributes dispatch cost
        #: to this shard's phase and the frame being applied.
        self._profiler = (
            getattr(observer, "profiler", None) if observer is not None else None
        )
        self._prof_phase = f"shard-{shard_id}"
        #: A session-level observation (flight recorder + clock) shared
        #: with sibling shards (the supervisor passes one), or ``None`` for
        #: a private per-worker one.  Sharing matters for attribution: an
        #: overrun access can fault inside a range whose events route to a
        #: *different* shard, and only a shared address index can still
        #: name it; sharing the clock keeps one variable's timeline in
        #: order across shards.
        self._session = session
        #: The observation active while this worker dispatches, and the
        #: enclosing one it was built under (rebuilt when that changes).
        self._active: _obs.Observation | None = None
        self._outer: _obs.Observation | None = None
        self.tool_names = resolve_tools(tools)
        self.journal = journal if journal is not None else ShardJournal(shard_id)
        self.alive = False
        self.restarts = 0
        self.replayed_events = 0
        self.replay_errors = 0
        self.applied = 0
        self._boot()

    # -- lifecycle ---------------------------------------------------------

    def _boot(self) -> None:
        """Build a fresh bus + tool stack (initial boot and every restart)."""
        self.bus = ToolBus(engine=self.engine)
        # Variable attribution must match the in-process golden path.  A
        # shared (supervisor-owned) recorder survives worker crashes —
        # journal replay's re-registrations are idempotent in effect
        # (same ranges, same names, most-recent-wins resolution); a
        # private recorder is rebuilt from the journal like everything
        # else.
        session = self._session
        if session is None:
            session = _obs.Observation(_obs.Clock(), recorder=FlightRecorder())
        self.recorder = session.recorder
        #: Recorder + clock, plus the observer's profiler: this worker's
        #: own sinks, nested under any enclosing observation per dispatch.
        self._local = _obs.Observation(
            session.clock, recorder=session.recorder, profiler=self._profiler
        )
        self._active = None
        self.tools: dict[str, Tool] = {}
        for name in self.tool_names:
            tool = TOOL_FACTORIES[name]()
            self.bus.attach(tool)
            self.tools[name] = tool
        self._dispatch = self.bus.publishers()
        self.alive = True

    def crash(self) -> None:
        """Model the worker process dying; detector state is gone."""
        self.alive = False

    def restart(self) -> None:
        """Supervisor-driven restart: fresh stack, replay the journal.

        The journal holds exactly the acknowledged (and possibly some
        journaled-but-unacked) frames in append order; replaying them
        rebuilds the detector state those acknowledgements promised.
        """
        self.restarts += 1
        replayed = 0
        self._boot()
        observer = self._observer
        spanlog = self._spanlog
        obs = _obs.ACTIVE
        for client, seq, event_json in self.journal.replay():
            try:
                if spanlog is not None:
                    # The replay span links back to the original apply via
                    # ``replayed_from`` — the stitched trace shows the
                    # re-execution as a distinct span tied to the frame
                    # identity it re-ran.
                    with spanlog.span(
                        "serve",
                        "replay",
                        client=client,
                        seq=seq,
                        shard=self.shard_id,
                        restart=self.restarts,
                        replayed_from=f"{client}:{seq}",
                    ):
                        self._apply(event_json, (client, seq))
                else:
                    self._apply(event_json, (client, seq))
            except (KeyError, ValueError, TypeError) as exc:
                # A journal entry that no longer decodes (bit rot in a
                # mirror, a version skew) must not take the whole shard
                # down with it — count it, log it, skip it.  Silently
                # swallowing it is the bug class this PR audits out.
                self.replay_errors += 1
                if observer is not None:
                    observer.count_replay_error()
                    observer.log.event(
                        "journal.replay_error",
                        client=client,
                        seq=seq,
                        shard=self.shard_id,
                        detail=f"{type(exc).__name__}: {exc}",
                    )
                if obs is not None and obs.metrics is not None:
                    obs.metrics.count("serve.journal_replay_errors")
                continue
            replayed += 1
        self.replayed_events += replayed
        if obs is not None and obs.metrics is not None:
            obs.metrics.count("serve.worker_restarts")
            obs.metrics.count("serve.replayed_events", replayed)

    # -- delivery ----------------------------------------------------------

    def _observed(self, fn, *args) -> None:
        """Run ``fn(*args)`` with this worker's observation active.

        A manual swap of the core's one switch, not ``scope()``: this runs
        once per event frame, and a generator frame per event would be the
        kind of tax the profiler's governor exists to prevent.  The
        observation is rebuilt only when the enclosing one changes, so an
        enclosing scope's metrics still reach shard-side sites.
        """
        outer = _obs.ACTIVE
        active = self._active
        if active is None or outer is not self._outer:
            active = self._active = self._local.under(outer)
            self._outer = outer
        profiler = self._profiler
        if profiler is not None:
            profiler.set_context(phase=self._prof_phase)
        _obs.ACTIVE = active
        try:
            fn(*args)
        finally:
            _obs.ACTIVE = outer

    def _apply(self, event_json: dict, frame: tuple | None = None) -> None:
        event = event_from_json(event_json)
        profiler = self._profiler
        if profiler is None or frame is None:
            self._observed(self._dispatch[type(event)], event)
        else:
            profiler.set_frame(frame[0], frame[1])
            try:
                self._observed(self._dispatch[type(event)], event)
            finally:
                profiler.clear_frame()
        self.applied += 1

    def deliver(
        self,
        client: int,
        seq: int,
        event_json: dict,
        *,
        crash_phase: str | None = None,
    ) -> bool:
        """Journal + apply one frame; returns ``False`` for a duplicate.

        ``crash_phase`` is the chaos hook: ``"pre"`` crashes before the
        journal sees the frame, ``"post"`` after journal+apply but before
        the acknowledgement — the two interleavings a real worker death
        can produce.
        """
        if not self.alive:
            raise WorkerCrash(f"shard {self.shard_id} is down")
        if crash_phase == "pre":
            self.crash()
            raise WorkerCrash(
                f"shard {self.shard_id} killed before journaling seq {seq}"
            )
        if not self.journal.record(client, seq, event_json):
            return False  # idempotent re-delivery
        spanlog = self._spanlog
        if spanlog is not None:
            with spanlog.span(
                "serve", "apply", client=client, seq=seq, shard=self.shard_id
            ):
                self._apply(event_json, (client, seq))
        else:
            self._apply(event_json, (client, seq))
        if crash_phase == "post":
            self.crash()
            raise WorkerCrash(
                f"shard {self.shard_id} killed after journaling seq {seq}, "
                "before acknowledging it"
            )
        self.journal.mark_acked(client, seq)
        return True

    def drain(self) -> None:
        """Flush any parked columnar batch (graceful-drain path)."""
        self._observed(self.bus.flush_batch)

    # -- results -----------------------------------------------------------

    def findings(self) -> list[tuple[str, Finding, int]]:
        """Every tool finding with its per-site count, in tool order."""
        self.drain()
        out: list[tuple[str, Finding, int]] = []
        for name in self.tool_names:
            for finding, count in self.tools[name].findings_with_counts():
                out.append((name, finding, count))
        return out

    def stats(self) -> dict:
        return {
            "shard": self.shard_id,
            "alive": self.alive,
            "restarts": self.restarts,
            "replayed_events": self.replayed_events,
            "replay_errors": self.replay_errors,
            "applied": self.applied,
            "journal": self.journal.stats(),
        }
