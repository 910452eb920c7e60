"""The serve-stack observer: one object owning the live observability state.

An :class:`AnalysisServer` optionally carries one ``ServeObserver``.  When
it does, the serve hot path reports into it — frame counts, redeliveries,
wall-clock stage latencies (the *operational edge*, the one place this
codebase deliberately spends real time), and, when span tracing is on,
per-process span logs for the server and every shard worker.  When it
does not (the default), every instrumentation site is a single
``is not None`` check and the serve path allocates nothing on behalf of
observability.

The structured log and every span log of one observer (``client``,
``server``, ``shard-N``) are stamped from one
:class:`~repro.observe.core.Clock`, the log's, so the stitched trace and
the log read as one ordered timeline of the session.

The observer also owns the :class:`~repro.observe.slo.SLOWatchdog` and
its evaluation cadence: every ``cadence`` handled frames (and once more,
forced, at FIN/drain) the current window is sampled and judged.  Windows
are frame-counted, not wall-timed, so the deterministic SLOs (redelivery
rate, queue occupancy) evaluate identically run to run.
"""

from __future__ import annotations

from typing import IO

from .core import Histogram, Metrics, SpanLog
from .log import ObserveLog
from .prof import DEFAULT_STRIDE, Governor, Profiler
from .slo import DEFAULT_SLOS, SLOSpec, SLOWatchdog

__all__ = ["ServeObserver", "histogram_quantile"]


def histogram_quantile(hist: Histogram, q: float) -> float:
    """Approximate quantile from power-of-two buckets (upper bound).

    Returns the upper edge (``2**k``) of the first bucket whose cumulative
    count reaches the quantile — a conservative (over-)estimate, stable
    across runs because bucket edges are fixed.
    """
    if hist.count == 0:
        return 0.0
    target = q * hist.count
    cumulative = 0
    for k in sorted(hist.buckets):
        cumulative += hist.buckets[k]
        if cumulative >= target:
            return float(1 << k)
    return float(hist.max or 0)  # pragma: no cover - defensive


class ServeObserver:
    """Live observability state for one analysis server."""

    def __init__(
        self,
        *,
        log_sink: IO[str] | None = None,
        slos: tuple[SLOSpec, ...] = DEFAULT_SLOS,
        cadence: int = 256,
        trace_spans: bool = False,
        wall_clock: bool = True,
        profile: "bool | Profiler" = True,
    ):
        if cadence < 1:
            raise ValueError(f"watchdog cadence must be positive, got {cadence}")
        self.log = ObserveLog(log_sink)
        #: The continuous profiler sampling the shard dispatch hot path.
        #: ``wall_clock=True`` (production) arms the tax governor; the
        #: deterministic mode keeps a fixed stride so samples replay
        #: byte-identically.
        if isinstance(profile, Profiler):
            self.profiler: Profiler | None = profile
        elif profile:
            self.profiler = Profiler(
                stride=DEFAULT_STRIDE,
                governor=Governor() if wall_clock else None,
                benchmark="serve",
                track_kernel_phase=False,
            )
        else:
            self.profiler = None
        self.watchdog = SLOWatchdog(tuple(slos), log=self.log)
        self.cadence = cadence
        self.trace_spans = trace_spans
        #: ``True`` stamps real microseconds into the latency histograms
        #: (and arms the latency SLO); ``False`` keeps the observer fully
        #: deterministic for stitched-trace and chaos determinism tests.
        self.wall_clock = wall_clock
        self._span_logs: dict[str, SpanLog] = {}
        self.server_spans = self.span_log("server")

        # Cumulative series.
        self.frames = 0
        self.redeliveries = 0
        self.decode_errors = 0
        self.replay_errors = 0
        self.frame_latency = Histogram()
        #: Wall-clock stage latencies (``decode``, ``dispatch``, ...).
        self.stages = Metrics()

        # Current watchdog window.  The hot path appends raw latencies to
        # a plain list; :meth:`evaluate` folds the closed window into a
        # histogram once (exact — fixed bucket edges) for both the window
        # p99 and the cumulative series.  Per handled frame that is one
        # ``list.append``, not two histogram updates.
        self._window_frames = 0
        self._window_redeliveries = 0
        self._window_latencies: list[float] = []
        self._countdown = cadence

    # -- span logs ---------------------------------------------------------

    def span_log(self, process: str) -> SpanLog | None:
        """One simulated process's span log on this observer's clock
        (``client``, ``server``, ``shard-N``), or ``None`` if tracing is off."""
        if not self.trace_spans:
            return None
        log = self._span_logs.get(process)
        if log is None:
            log = self._span_logs[process] = SpanLog(process, self.log.clock)
        return log

    def span_logs(self) -> list[SpanLog]:
        """Every span log this observer owns, by process name."""
        return [self._span_logs[k] for k in sorted(self._span_logs)]

    # -- hot-path reporting ------------------------------------------------

    def count_redelivery(self, n: int = 1) -> None:
        """A frame needed redelivery (duplicate, shed, or crash-redriven)."""
        self.redeliveries += n
        self._window_redeliveries += n

    def count_decode_error(self) -> None:
        self.decode_errors += 1

    def count_replay_error(self) -> None:
        self.replay_errors += 1

    def observe_stage(self, stage: str, latency_us: float) -> None:
        """One wall-clock stage latency (``decode``, ``dispatch``, ...)."""
        self.stages.observe(stage, int(latency_us))

    def frame_handled(self, server, latency_us: float | None = None) -> None:
        """One inbound frame fully handled; drives the watchdog cadence.

        The countdown keeps the cadence phase-locked to the cumulative
        frame count (a forced FIN evaluation does not reset it), matching
        an evaluation on every ``cadence``-th frame exactly.
        """
        self.frames += 1
        self._window_frames += 1
        if latency_us is not None:
            self._window_latencies.append(latency_us)
        self._countdown -= 1
        if self._countdown == 0:
            self._countdown = self.cadence
            self.evaluate(server)

    # -- watchdog ----------------------------------------------------------

    def window_histogram(self) -> Histogram:
        """The raw window latencies folded into one histogram."""
        hist = Histogram()
        observe = hist.observe
        for value in self._window_latencies:
            observe(value)
        return hist

    def window_sample(self, server, latency: Histogram) -> dict:
        """The current window, with its latency histogram, as an SLO sample."""
        frames = self._window_frames
        sample: dict = {
            "frames": frames,
            "redelivery_rate": (
                self._window_redeliveries / frames if frames else 0.0
            ),
            "queue_occupancy": self._queue_occupancy(server),
        }
        if self.wall_clock and latency.count:
            sample["p99_frame_latency_us"] = histogram_quantile(latency, 0.99)
        return sample

    @staticmethod
    def _queue_occupancy(server) -> float:
        cap = server.config.queue_cap or 1
        depths = [len(s.reorder) for s in server.sessions.values()]
        return max(depths, default=0) / cap

    def evaluate(self, server) -> dict:
        """Close the current window, judge it, and start the next one.

        Folding the window latency into the cumulative series here (not
        per frame) means a mid-window ``/metrics`` scrape can lag the
        live frame count by at most ``cadence`` frames — the price of a
        single-histogram-update hot path.
        """
        window = self.window_histogram()
        verdict = self.watchdog.evaluate(self.window_sample(server, window))
        self.frame_latency.merge(window)
        self._window_frames = 0
        self._window_redeliveries = 0
        self._window_latencies.clear()
        return verdict

    # -- export ------------------------------------------------------------

    def latency_summary(self) -> dict:
        """Cumulative latency series with approximate quantiles."""

        def summarize(hist: Histogram) -> dict:
            data = hist.snapshot()
            data["p50_us"] = histogram_quantile(hist, 0.50)
            data["p99_us"] = histogram_quantile(hist, 0.99)
            return data

        return {
            "frame": summarize(self.frame_latency),
            "stages": {
                stage: summarize(self.stages.histograms[stage])
                for stage in sorted(self.stages.histograms)
            },
        }

    def stats(self) -> dict:
        data = {
            "frames": self.frames,
            "redeliveries": self.redeliveries,
            "decode_errors": self.decode_errors,
            "replay_errors": self.replay_errors,
            "cadence": self.cadence,
            "wall_clock": self.wall_clock,
            "trace_spans": self.trace_spans,
            "watchdog": self.watchdog.stats(),
            "log": self.log.stats(),
        }
        if self.profiler is not None:
            data["profile"] = self.profiler.stats()
        return data
