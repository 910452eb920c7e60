"""The tool bus: dispatches runtime events to attached analysis tools.

The bus is the simulation's analogue of the sanitizer callback table.  It
pre-computes, per event kind, the tuple of tools that actually override the
corresponding handler, so that

* a *native* run (no tools) pays one attribute check per bulk access and
  nothing else — this is the baseline the Fig-8 overhead benchmark divides
  by; and
* an instrumented run pays only for the handlers a tool really implements
  (the paper's OMPT-less tools never see semantic data ops).

Program accesses enter through one producer call, :meth:`ToolBus.record_access`.
A scalar bus turns it into an :class:`Access` (with a lazy stack provider)
and dispatches it at once; a columnar bus appends a plain row with the
stack pinned, and builds ``Access`` objects only when a flush needs them —
every row for a flush below :data:`~repro.events.columnar.MIN_BATCH`
(handed straight to the scalar handlers, no batch built), and only the rows
a tool indexes for a larger :class:`~repro.events.columnar.EventBatch`.
:meth:`ToolBus.publish_access` takes an already-built ``Access`` (trace
replays, serve shards); on a columnar bus it joins the same pending list
and reaches the tools as that same object.

Two robustness roles ride on top of dispatch:

* **Crash isolation** — an exception escaping a tool handler is contained
  to that tool: the bus records it, files a ``TOOL_ERROR`` finding against
  the offending tool, and keeps delivering to the others.  One buggy
  analysis must never unwind a whole campaign.  Set :attr:`ToolBus.strict`
  to re-raise instead (debugging the tools themselves).
* **Chaos injection** — when a :class:`~repro.faults.injector.FaultInjector`
  is wired in via :attr:`ToolBus.chaos`, the OMPT data-op callback stream
  may be perturbed (dropped/duplicated/reordered events) before delivery.
  Only the tools' *view* changes; the simulated program is untouched.

When an observation is active (:data:`repro.observe.core.ACTIVE`) the bus
additionally observes its fan-out: every non-access publish wraps each
tool handler in a ``bus``-category span, access publishes are counted (one
span per access would dwarf the trace) and fed to the sampling profiler,
and isolated handler failures bump per-(tool, handler) error counters.
With observability off each publish pays one attribute check and nothing
else.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from ..observe import core as _obs

from .columnar import BATCH_CAP, MIN_BATCH, EventBatch, Row, materialize
from .records import (
    Access,
    AccessOrigin,
    AllocationEvent,
    DataOp,
    FlushEvent,
    KernelEvent,
    KernelPhase,
    MemcpyEvent,
    SyncEvent,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..faults.injector import FaultInjector
    from ..tools.base import Tool


@dataclass(frozen=True)
class ToolErrorRecord:
    """One isolated tool-handler failure."""

    tool: str
    handler: str
    error: str

    def to_json(self) -> dict:
        return {"tool": self.tool, "handler": self.handler, "error": self.error}


class ToolBus:
    """Fan-out of runtime events to attached tools.

    ``engine`` selects the access dispatch strategy: ``"scalar"`` (the
    default, and the differential-testing oracle) delivers each access to
    each tool's ``on_access`` immediately; ``"columnar"`` parks accesses in
    a pending batch and flushes them through ``on_batch`` — before any
    non-access publish, at :data:`~repro.events.columnar.BATCH_CAP`, and on
    attach/detach — so tools see exactly the same event order, just blocked.
    """

    def __init__(self, engine: str = "scalar") -> None:
        if engine not in ("scalar", "columnar"):
            raise ValueError(
                f"unknown engine {engine!r}: expected 'scalar' or 'columnar'"
            )
        self.engine = engine
        self._columnar = engine == "columnar"
        self._batch_pending: list[Row] = []
        self._tools: list["Tool"] = []
        self._access: tuple["Tool", ...] = ()
        self._data_op: tuple["Tool", ...] = ()
        self._kernel: tuple["Tool", ...] = ()
        self._allocation: tuple["Tool", ...] = ()
        self._sync: tuple["Tool", ...] = ()
        self._flush: tuple["Tool", ...] = ()
        self._memcpy: tuple["Tool", ...] = ()
        #: Optional fault injector perturbing the data-op callback stream.
        self.chaos: "FaultInjector | None" = None
        #: Re-raise tool-handler exceptions instead of isolating them.
        self.strict = False
        #: Isolated handler failures, in occurrence order.
        self.errors: list[ToolErrorRecord] = []

    # -- subscription ----------------------------------------------------

    def attach(self, tool: "Tool") -> None:
        if self._batch_pending:
            self.flush_batch()  # pending events predate the newcomer
        self._tools.append(tool)
        self._rebuild()

    def detach(self, tool: "Tool") -> None:
        if self._batch_pending:
            self.flush_batch()  # deliver what the tool already observed
        try:
            self._tools.remove(tool)
        except ValueError:
            name = getattr(tool, "name", None) or type(tool).__name__
            raise ValueError(
                f"cannot detach tool {name!r}: it is not attached to this bus"
            ) from None
        self._rebuild()

    def _rebuild(self) -> None:
        from ..tools.base import Tool  # local import to avoid a cycle

        def overriding(name: str) -> tuple["Tool", ...]:
            base = getattr(Tool, name)
            return tuple(
                t for t in self._tools if getattr(type(t), name, base) is not base
            )

        self._access = overriding("on_access")
        self._data_op = overriding("on_data_op")
        self._kernel = overriding("on_kernel")
        self._allocation = overriding("on_allocation")
        self._sync = overriding("on_sync")
        self._flush = overriding("on_flush")
        self._memcpy = overriding("on_memcpy")

    def publishers(self) -> dict[type, Callable[[object], None]]:
        """Event type -> this bus's publish method, for replaying a trace.

        A replay loop pays one dict lookup and one bound-method call per
        event: ``bus.publishers()[type(event)](event)``.
        """
        return {
            Access: self.publish_access,
            DataOp: self.publish_data_op,
            MemcpyEvent: self.publish_memcpy,
            KernelEvent: self.publish_kernel,
            AllocationEvent: self.publish_allocation,
            SyncEvent: self.publish_sync,
            FlushEvent: self.publish_flush,
        }

    @property
    def tools(self) -> tuple["Tool", ...]:
        return tuple(self._tools)

    @property
    def wants_accesses(self) -> bool:
        """Whether any attached tool observes memory accesses.

        Instrumented array views consult this before even *constructing* an
        :class:`Access` record, so native runs skip the event layer entirely.
        """
        return bool(self._access)

    # -- crash isolation ---------------------------------------------------

    def _tool_error(self, tool: "Tool", handler: str, exc: BaseException) -> None:
        """Contain one handler failure: record it, file a TOOL_ERROR finding."""
        if self.strict:
            raise exc
        tool_name = getattr(tool, "name", type(tool).__name__)
        obs = _obs.ACTIVE
        if obs is not None and obs.metrics is not None:
            obs.metrics.count(f"bus.tool_errors.{tool_name}.{handler}")
        self.errors.append(
            ToolErrorRecord(
                tool=tool_name,
                handler=handler,
                error=f"{type(exc).__name__}: {exc}",
            )
        )
        from ..tools.findings import Finding, FindingKind  # cold path

        try:
            tool.report(
                Finding(
                    tool=getattr(tool, "name", type(tool).__name__),
                    kind=FindingKind.TOOL_ERROR,
                    message=(
                        f"{handler} raised {type(exc).__name__}: {exc} "
                        "(handler isolated; analysis state may be degraded)"
                    ),
                    variable=handler,
                )
            )
        except Exception:  # the tool is too broken even to report on
            pass

    # -- dispatch -----------------------------------------------------------

    def _fan_out(self, tools: tuple["Tool", ...], handler: str, event, obs) -> None:
        """Deliver one non-access event to ``tools``, isolating failures.

        With a span sink, each handler call is one ``bus`` span (``obs`` is
        the caller's one load of :data:`repro.observe.core.ACTIVE`).
        """
        spans = None
        if obs is not None:
            if obs.metrics is not None:
                obs.metrics.count(f"bus.events.{handler}")
            spans = obs.spans
        if spans is None:
            for tool in tools:
                try:
                    getattr(tool, handler)(event)
                except Exception as exc:
                    self._tool_error(tool, handler, exc)
            return
        tid = getattr(event, "thread_id", 0)
        for tool in tools:
            name = getattr(tool, "name", type(tool).__name__)
            with spans.span("bus", f"{name}.{handler}", tid=tid):
                try:
                    getattr(tool, handler)(event)
                except Exception as exc:
                    self._tool_error(tool, handler, exc)

    def record_access(
        self,
        device_id: int,
        thread_id: int,
        address: int,
        size: int,
        is_write: bool,
        count: int,
        stride: int,
        origin: AccessOrigin,
        source,
    ) -> None:
        """A program access, from its producer (``source`` is a SourceStack).

        The scalar engine publishes an :class:`Access` whose stack is
        captured lazily; the columnar engine parks a row whose stack is
        pinned now — the batch is dispatched after the producing frame has
        moved on.
        """
        if self._columnar:
            pending = self._batch_pending
            pending.append(
                (
                    device_id,
                    thread_id,
                    address,
                    size,
                    is_write,
                    count,
                    stride,
                    origin,
                    source.snapshot(),
                )
            )
            if len(pending) >= BATCH_CAP:
                self.flush_batch()
            return
        self.publish_access(
            Access(
                device_id, thread_id, address, size, is_write, count, stride,
                origin, source,
            )
        )

    def publish_access(self, access: Access) -> None:
        """An already-built access (trace replays, serve shards)."""
        if self._columnar:
            # Pin the call stack now: the lazy provider only stays valid
            # while the producing frame is live, and batch dispatch happens
            # long after that frame has moved on.
            access.stack
            pending = self._batch_pending
            pending.append(access)
            if len(pending) >= BATCH_CAP:
                self.flush_batch()
            return
        obs = _obs.ACTIVE
        if obs is not None:
            if obs.profiler is not None:
                obs.profiler.access_event(access, self._access)
            # Counters, not spans: accesses are the hot path, and a span
            # per access would bury every other event in the trace.
            metrics = obs.metrics
            if metrics is not None:
                metrics.count("bus.events.on_access")
                metrics.count("bus.access_fanout", len(self._access))
        for tool in self._access:
            try:
                tool.on_access(access)
            except Exception as exc:
                self._tool_error(tool, "on_access", exc)

    def flush_batch(self) -> None:
        """Deliver the pending access batch through ``on_batch``.

        A no-op when nothing is pending (scalar buses never accumulate), so
        callers can invoke it unconditionally at ordering barriers.
        """
        pending = self._batch_pending
        if not pending:
            return
        self._batch_pending = []
        if len(pending) < MIN_BATCH:
            # Bulk-kernel traffic: a few large accesses per window.  The
            # vectorized setup cost dwarfs per-event dispatch here, so hand
            # the run to the scalar handlers (semantically identical)
            # without building a batch.
            batch = None
            accesses = materialize(pending)
        else:
            batch = EventBatch(pending)
            accesses = batch.accesses
        obs = _obs.ACTIVE
        if obs is not None:
            if obs.profiler is not None:
                # Same sampling countdown as the scalar path: each access
                # advances it by its element count, so sample positions
                # match across engines.
                counts = (
                    [a.count for a in accesses]
                    if batch is None
                    else batch.columns.counts.tolist()
                )
                obs.profiler.batch_events(counts, accesses, self._access)
            metrics = obs.metrics
            if metrics is not None:
                metrics.count("bus.batches")
                metrics.count("bus.events.on_access", len(pending))
                metrics.count("bus.access_fanout", len(pending) * len(self._access))
        if batch is None:
            for tool in self._access:
                on_access = tool.on_access
                for access in accesses:
                    try:
                        on_access(access)
                    except Exception as exc:
                        self._tool_error(tool, "on_access", exc)
            return
        for tool in self._access:
            try:
                tool.on_batch(batch)
            except Exception as exc:
                self._tool_error(tool, "on_batch", exc)

    def publish_data_op(self, op: DataOp) -> None:
        if self._batch_pending:
            self.flush_batch()
        if self.chaos is not None:
            for event in self.chaos.perturb_data_op(op):
                self._fan_out(self._data_op, "on_data_op", event, _obs.ACTIVE)
        else:
            self._fan_out(self._data_op, "on_data_op", op, _obs.ACTIVE)

    def flush_chaos(self) -> None:
        """Deliver any chaos-held (reordered) data op at end of run."""
        if self._batch_pending:
            self.flush_batch()
        if self.chaos is None:
            return
        for event in self.chaos.drain():
            self._fan_out(self._data_op, "on_data_op", event, _obs.ACTIVE)

    def publish_kernel(self, event: KernelEvent) -> None:
        if self._batch_pending:
            self.flush_batch()
        obs = _obs.ACTIVE
        if obs is not None and obs.profiler is not None:
            obs.profiler.kernel_event(
                event.name if event.phase is KernelPhase.BEGIN else "host"
            )
        self._fan_out(self._kernel, "on_kernel", event, obs)

    def publish_allocation(self, event: AllocationEvent) -> None:
        if self._batch_pending:
            self.flush_batch()
        self._fan_out(self._allocation, "on_allocation", event, _obs.ACTIVE)

    def publish_sync(self, event: SyncEvent) -> None:
        if self._batch_pending:
            self.flush_batch()
        self._fan_out(self._sync, "on_sync", event, _obs.ACTIVE)

    def publish_flush(self, event: FlushEvent) -> None:
        if self._batch_pending:
            self.flush_batch()
        self._fan_out(self._flush, "on_flush", event, _obs.ACTIVE)

    def publish_memcpy(self, event: MemcpyEvent) -> None:
        if self._batch_pending:
            self.flush_batch()
        self._fan_out(self._memcpy, "on_memcpy", event, _obs.ACTIVE)
