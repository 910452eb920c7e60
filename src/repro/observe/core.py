"""The observability core: one switch, one clock, one span model, one writer.

Every instrumentation site in the stack (runtime, bus, detector, shadow,
tools, serve, staticlint) loads the module attribute :data:`ACTIVE` once
per call.  It is ``None`` by default: the disabled path is one attribute
load and one ``is None`` check, and no observability object exists.  A
measured run opens a :func:`scope`::

    with scope(metrics=True, spans=True) as obs:
        ...  # everything in here is observed
    obs.snapshot()

An :class:`Observation` bundles optional sinks; those that stamp time
share its one :class:`Clock`.  A site tests the sink it feeds
(``obs.metrics``, ``obs.spans``, ``obs.recorder``, ``obs.profiler``), so
each sink costs only when present:

* **metrics** — counters, gauges and power-of-two histograms
  (:class:`Metrics`);
* **spans** — one process's begin/end intervals (:class:`SpanLog`),
  exported as Chrome Trace Event JSON by :func:`chrome_trace`;
* **recorder** — the forensics
  :class:`~repro.forensics.recorder.FlightRecorder`;
* **profiler** — the sampling :class:`~repro.observe.prof.Profiler`.  Its
  element countdown is a sampling stride, not a timestamp, so it never
  reads the clock.

:func:`scope` is re-entrant and nests: an inner scope keeps the enclosing
scope's clock and every sink it does not replace.  A recorder opened inside
a metrics scope still counts; a metrics or span sink opened partway through
a recorded run stamps from the clock the recorder already uses, so
provenance ordinals never go backwards.

The clock counts *events* — span boundaries, recorder events, provenance
snapshots — so two runs of a deterministic program produce byte-identical
artifacts.  ``wall_clock=True`` additionally stamps ``time.perf_counter()``
at span boundaries, trading determinism for real self-time profiles.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import IO, Iterable, Iterator

#: The active observation, or ``None`` (observability off).  Sites read it
#: through the module (``_obs.ACTIVE``), never as a from-import, which would
#: freeze the value at import time.  Only :func:`scope` and the serve shard
#: workers' per-frame swap write it.
ACTIVE: "Observation | None" = None


class Clock:
    """The event-ordinal clock shared by every sink of one observed run."""

    __slots__ = ("ordinal", "wall")

    def __init__(self, wall: bool = False) -> None:
        self.ordinal = 0
        #: Also stamp wall time at span boundaries.
        self.wall = wall

    def tick(self) -> int:
        self.ordinal += 1
        return self.ordinal


class Histogram:
    """A power-of-two bucketed distribution of non-negative integers.

    Bucket ``k`` counts observations ``v`` with ``2**(k-1) < v <= 2**k``
    (bucket 0 counts ``v <= 1``).  Fixed bucket boundaries keep snapshots
    byte-identical across runs regardless of observation order.
    """

    __slots__ = ("count", "total", "min", "max", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0
        self.min: int | None = None
        self.max: int | None = None
        self.buckets: dict[int, int] = {}

    def observe(self, value: int) -> None:
        value = int(value)
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        k = max(value - 1, 0).bit_length()
        self.buckets[k] = self.buckets.get(k, 0) + 1

    def merge(self, other: "Histogram") -> None:
        """Fold ``other`` into this histogram.

        Buckets are fixed power-of-two edges, so merging is exact — it
        lets a hot path observe into a small window histogram and fold
        into the cumulative series in bulk, off the per-event path.
        """
        if not other.count:
            return
        self.count += other.count
        self.total += other.total
        if self.min is None or other.min < self.min:
            self.min = other.min
        if self.max is None or other.max > self.max:
            self.max = other.max
        buckets = self.buckets
        for k, n in other.buckets.items():
            buckets[k] = buckets.get(k, 0) + n

    def snapshot(self) -> dict:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "buckets": {
                f"<=2^{k}": self.buckets[k] for k in sorted(self.buckets)
            },
        }


class Metrics:
    """Counters (monotone integers), gauges (last value), histograms."""

    __slots__ = ("counters", "gauges", "histograms")

    def __init__(self) -> None:
        self.counters: dict[str, int] = defaultdict(int)
        self.gauges: dict[str, float] = {}
        self.histograms: dict[str, Histogram] = defaultdict(Histogram)

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] += n

    def gauge(self, name: str, value) -> None:
        self.gauges[name] = value

    def observe(self, name: str, value: int) -> None:
        self.histograms[name].observe(value)


class Span:
    """One span: a context manager while open, the record once closed.

    Entering stamps :attr:`begin` (the serve client propagates it as the
    span id in the wire trace context); exiting stamps :attr:`end`, drops
    ``None``-valued :attr:`args` (mutable inside the block) and appends
    the span to its log.
    """

    __slots__ = (
        "_log", "cat", "name", "tid", "args", "begin", "end", "wall_begin", "wall_end",
    )

    def __init__(self, log: "SpanLog", cat: str, name: str, tid: int, args: dict):
        self._log = log
        self.cat = cat
        self.name = name
        self.tid = tid
        self.args = args
        self.wall_begin = self.wall_end = 0.0

    def __enter__(self) -> "Span":
        clock = self._log.clock
        self.begin = clock.tick()
        if clock.wall:
            self.wall_begin = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        clock = self._log.clock
        self.end = clock.tick()
        if clock.wall:
            self.wall_end = time.perf_counter()
        self.args = {k: v for k, v in self.args.items() if v is not None}
        self._log.spans.append(self)
        return False

    def duration(self, *, wall: bool) -> float:
        if wall:
            return self.wall_end - self.wall_begin
        return self.end - self.begin


class SpanLog:
    """One logical process's spans (``main``, ``client``, ``shard-0`` ...)."""

    def __init__(self, process: str, clock: Clock) -> None:
        self.process = process
        self.clock = clock
        self.spans: list[Span] = []

    def span(self, cat: str, name: str, *, tid: int = 0, **args) -> Span:
        """Open a span: ``with log.span("serve", "apply", seq=3): ...``."""
        return Span(self, cat, name, tid, args)

    def __len__(self) -> int:
        return len(self.spans)


class Observation:
    """The sinks of one observed run, on one clock."""

    __slots__ = ("clock", "metrics", "spans", "recorder", "profiler")

    def __init__(
        self,
        clock: Clock,
        *,
        metrics: Metrics | None = None,
        spans: SpanLog | None = None,
        recorder=None,
        profiler=None,
    ) -> None:
        self.clock = clock
        self.metrics = metrics
        self.spans = spans
        self.recorder = recorder
        self.profiler = profiler

    def under(self, outer: "Observation | None") -> "Observation":
        """This observation nested in ``outer``.

        The result runs on ``outer``'s clock and holds this observation's
        sinks, falling back to ``outer``'s for every sink this one lacks.
        """
        if outer is None:
            return self

        def pick(mine, theirs):
            return mine if mine is not None else theirs

        return Observation(
            outer.clock,
            metrics=pick(self.metrics, outer.metrics),
            spans=pick(self.spans, outer.spans),
            recorder=pick(self.recorder, outer.recorder),
            profiler=pick(self.profiler, outer.profiler),
        )

    # -- export ------------------------------------------------------------

    def snapshot(self) -> dict:
        """The metrics as a stable, JSON-serializable dict (sorted keys)."""
        metrics = self.metrics if self.metrics is not None else Metrics()
        return {
            "clock": "wall" if self.clock.wall else "ordinal",
            "counters": {k: metrics.counters[k] for k in sorted(metrics.counters)},
            "gauges": {k: metrics.gauges[k] for k in sorted(metrics.gauges)},
            "histograms": {
                k: metrics.histograms[k].snapshot()
                for k in sorted(metrics.histograms)
            },
            "spans": {
                "finished": len(self.spans) if self.spans is not None else 0,
                "ordinal_ticks": self.clock.ordinal,
            },
        }


@contextmanager
def scope(
    *,
    metrics: bool = False,
    spans: bool = False,
    wall_clock: bool = False,
    recorder=None,
    profiler=None,
) -> Iterator[Observation]:
    """Observe the dynamic extent of the block; yields the :class:`Observation`.

    ``metrics``/``spans`` open fresh sinks; ``recorder``/``profiler``
    install the given ones.  Inside an enclosing scope the new observation
    shares its clock (``wall_clock`` is then the enclosing clock's) and
    inherits every sink not given here.  The previous observation is
    restored on exit.
    """
    global ACTIVE
    outer = ACTIVE
    clock = outer.clock if outer is not None else Clock(wall_clock)
    obs = Observation(
        clock,
        metrics=Metrics() if metrics else None,
        spans=SpanLog("main", clock) if spans else None,
        recorder=recorder,
        profiler=profiler,
    ).under(outer)
    ACTIVE = obs
    try:
        yield obs
    finally:
        ACTIVE = outer


def variable_at(device_id: int, address: int) -> str:
    """The active recorder's name for ``address``, or ``""``.

    Tool finding sites pass the result straight to ``Finding(variable=...)``.
    """
    obs = ACTIVE
    if obs is None or obs.recorder is None:
        return ""
    return obs.recorder.resolve(device_id, address)


# -- export -------------------------------------------------------------------


def chrome_trace(logs: Iterable[SpanLog]) -> dict:
    """Span logs as one Chrome Trace Event document, one ``pid`` per log.

    Pids follow sorted process name, so the document is byte-identical
    whenever each log is.  Every span becomes one complete (``X``) event,
    its args sorted; timestamps are microseconds under the wall clock and
    raw ordinals otherwise (Perfetto reads those as one microsecond per
    event).  Load the file in ``chrome://tracing`` or ui.perfetto.dev.
    """
    ordered = sorted(logs, key=lambda log: log.process)
    wall = any(log.clock.wall for log in ordered)
    events: list[dict] = []
    for pid, log in enumerate(ordered):
        name = {"name": log.process}
        events.append(
            {"name": "process_name", "ph": "M", "pid": pid, "tid": 0, "args": name}
        )
        rows = []
        for span in log.spans:
            if wall:
                ts = round(span.wall_begin * 1e6, 3)
                dur = round((span.wall_end - span.wall_begin) * 1e6, 3)
            else:
                ts = span.begin
                dur = span.end - span.begin
            event = {
                "name": span.name,
                "cat": span.cat,
                "ph": "X",
                "pid": pid,
                "tid": span.tid,
                "ts": ts,
                "dur": dur,
            }
            if span.args:
                event["args"] = {k: span.args[k] for k in sorted(span.args)}
            rows.append(event)
        rows.sort(key=lambda e: (e["tid"], e["ts"], -e["dur"]))
        events.extend(rows)
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "clock": "wall" if wall else "ordinal",
            "producer": "repro.observe",
            "processes": [log.process for log in ordered],
        },
    }


def write_trace(document: dict, sink: IO[str]) -> None:
    """Write a :func:`chrome_trace` document (sorted keys — byte-stable)."""
    json.dump(document, sink, indent=2, sort_keys=True)
    sink.write("\n")


def spans_by_frame(document: dict) -> dict[tuple[int, int], list[dict]]:
    """Index a trace document's spans by their ``(client, seq)`` args.

    The cross-process story holds exactly when one frame's key maps to
    spans from more than one ``pid``.
    """
    index: dict[tuple[int, int], list[dict]] = {}
    for event in document["traceEvents"]:
        if event.get("ph") != "X":
            continue
        args = event.get("args", {})
        if "client" in args and "seq" in args:
            index.setdefault((args["client"], args["seq"]), []).append(event)
    return index


def self_times(log: SpanLog) -> list[dict]:
    """Per-(category, name) total/self durations, sorted by self descending.

    Self time is a span's duration minus its direct children's — the
    number that attributes cost to a layer.  Parenthood is containment in
    ordinal order on the same logical thread (ordinals advance at every
    boundary, so nesting is proper); durations use the log's clock.
    """
    wall = log.clock.wall
    nodes = sorted(log.spans, key=lambda s: (s.tid, s.begin))
    child: dict[int, float] = {}
    stack: list[Span] = []
    for span in nodes:
        while stack and (stack[-1].tid != span.tid or stack[-1].end < span.begin):
            stack.pop()
        if stack:
            # The whole subtree is inside its direct parent; charging the
            # full duration here (and only here) makes self = total -
            # direct children, with grandchildren charged one level down.
            parent = id(stack[-1])
            child[parent] = child.get(parent, 0.0) + span.duration(wall=wall)
        stack.append(span)

    rows: dict[tuple[str, str], dict] = {}
    for span in nodes:
        row = rows.setdefault(
            (span.cat, span.name),
            {"cat": span.cat, "name": span.name, "count": 0, "total": 0.0, "self": 0.0},
        )
        dur = span.duration(wall=wall)
        row["count"] += 1
        row["total"] += dur
        row["self"] += dur - child.get(id(span), 0.0)
    out = sorted(rows.values(), key=lambda r: (-r["self"], r["cat"], r["name"]))
    for row in out:
        row["total"] = round(row["total"], 9)
        row["self"] = round(row["self"], 9)
    return out


def render_self_time_table(log: SpanLog, *, limit: int = 25) -> str:
    """The self-time breakdown as an aligned text table."""
    rows = self_times(log)
    wall = log.clock.wall
    unit = "s" if wall else "ticks"
    fmt = "{:.6f}" if wall else "{:.0f}"
    grand_self = sum(r["self"] for r in rows) or 1.0
    lines = [
        f"{'layer':<10} {'span':<32} {'count':>8} "
        f"{'total(' + unit + ')':>14} {'self(' + unit + ')':>14} {'self%':>7}"
    ]
    for r in rows[:limit]:
        lines.append(
            f"{r['cat']:<10} {r['name'][:32]:<32} {r['count']:>8} "
            f"{fmt.format(r['total']):>14} {fmt.format(r['self']):>14} "
            f"{100.0 * r['self'] / grand_self:>6.1f}%"
        )
    if len(rows) > limit:
        rest = sum(r["self"] for r in rows[limit:])
        lines.append(
            f"{'...':<10} {f'({len(rows) - limit} more spans)':<32} {'':>8} "
            f"{'':>14} {fmt.format(rest):>14} {100.0 * rest / grand_self:>6.1f}%"
        )
    return "\n".join(lines)
