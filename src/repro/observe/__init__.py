"""``repro.observe`` — observability for runs and for the live serve stack.

* :mod:`~repro.observe.core` — the one switch (``ACTIVE``/``scope``), the
  one ordinal clock, the metrics and span sinks, and the one Chrome-trace
  writer.  Every instrumented hot path checks ``core.ACTIVE`` once; the
  flight recorder (:mod:`repro.forensics.recorder`) and the sampling
  profiler are sinks of the same :class:`Observation`;
* :mod:`~repro.observe.prof` — the deterministic sampling profiler;
* :mod:`~repro.observe.log` — structured JSONL event logging;
* :mod:`~repro.observe.slo` — declarative SLO specs and the burn/clear
  watchdog behind ``/healthz``;
* :mod:`~repro.observe.observer` — the per-server bundle wiring the log,
  span logs, profiler and watchdog into the serve hot path;
* :mod:`~repro.observe.health` — the ``/healthz`` and ``/readyz``
  documents.

Operator tooling is imported from its own module, never from here, so the
instrumented hot path does not pay for it: :mod:`~repro.observe.metrics`
(Prometheus exposition), :mod:`~repro.observe.top` (``repro top``),
:mod:`~repro.observe.flame` (flamegraphs), :mod:`~repro.observe.history`
and :mod:`~repro.observe.sentinel` (the bench ledger and its regression
gate).
"""

from .core import (
    Histogram,
    Observation,
    SpanLog,
    chrome_trace,
    scope,
    spans_by_frame,
)
from .health import healthz, readyz
from .log import ObserveLog
from .observer import ServeObserver, histogram_quantile
from .prof import Governor, Profiler
from .slo import CHAOS_SLOS, DEFAULT_SLOS, SLOSpec, SLOWatchdog

__all__ = [
    "CHAOS_SLOS",
    "DEFAULT_SLOS",
    "Governor",
    "Histogram",
    "ObserveLog",
    "Observation",
    "Profiler",
    "SLOSpec",
    "SLOWatchdog",
    "ServeObserver",
    "SpanLog",
    "chrome_trace",
    "healthz",
    "histogram_quantile",
    "readyz",
    "scope",
    "spans_by_frame",
]
