"""The four benchmark workloads.

Every workload runs on the ``columnar`` event engine (the engine of
``repro serve`` and of the tracked ``BENCH_fig8.json``).  A workload

* builds its inputs in :meth:`setup` — recorded traces, reference
  checksums, baseline fingerprints, static twins and event counts — and
  warms up;
* runs *rounds*: each round times the workload's cells (a twin, a pass
  or a program, under ARBALEST or with no tool attached) in an order
  drawn from the seed, and checks every output;
* runs one ARBALEST pass at a time under a tracer (:meth:`traced_pass`);
* reports its end-to-end metrics from the samples of all rounds.

The seed fixes only the order in which cells, sessions and programs run;
the programs and therefore every checksum, fingerprint, verdict and
shadow byte count are the same for every seed (see :meth:`outputs`).
"""

from __future__ import annotations

import gc
import hashlib
import random
import time
from contextlib import contextmanager

from . import stats

#: The event engine every workload runs on.
ENGINE = "columnar"


def checksum_digest(value) -> str:
    """A stable digest of a workload checksum (float, tuple or array)."""
    import numpy as np

    h = hashlib.sha256()

    def feed(v) -> None:
        if isinstance(v, np.ndarray):
            h.update(f"nd{v.shape}{v.dtype}".encode())
            h.update(np.ascontiguousarray(v).tobytes())
        elif isinstance(v, (tuple, list)):
            h.update(f"seq{len(v)}".encode())
            for item in v:
                feed(item)
        elif isinstance(v, float):
            h.update(v.hex().encode())
        else:
            h.update(repr(v).encode())

    feed(value)
    return h.hexdigest()[:16]


@contextmanager
def gc_paused():
    """Collect, then keep the collector off for one timed cell.

    Collector pauses are the largest jitter at millisecond scale; the
    tracked Fig-8 harness times its cells the same way.
    """
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _like_arbalest(tool_class):
    """Route the non-access kinds ARBALEST handles to ``_event``.

    The bus only calls a tool for the kinds its class overrides, so the
    tool is handed exactly the events ARBALEST would be.
    """
    from repro.core.detector import Arbalest
    from repro.tools.base import Tool

    for handler in ("on_data_op", "on_memcpy", "on_kernel", "on_allocation",
                    "on_sync", "on_flush"):
        if getattr(Arbalest, handler) is not getattr(Tool, handler):
            setattr(tool_class, handler, tool_class._event)
    return tool_class


def _event_counter():
    """A passive tool counting what ARBALEST would be handed."""
    from repro.tools.base import Tool

    class EventCounter(Tool):
        name = "event-counter"

        def __init__(self) -> None:
            super().__init__()
            self.events = 0
            self.elements = 0

        def on_access(self, access) -> None:
            self.events += 1
            self.elements += access.count

        def on_batch(self, batch) -> None:
            self.events += len(batch.accesses)
            self.elements += sum(a.count for a in batch.accesses)

        def _event(self, event) -> None:
            self.events += 1

    return _like_arbalest(EventCounter)()


def null_tool():
    """A tool handed what ARBALEST would be handed, doing nothing with it."""
    from repro.tools.base import Tool

    class NullTool(Tool):
        name = "null"

        def on_access(self, access) -> None:
            pass

        def on_batch(self, batch) -> None:
            pass

        def _event(self, event) -> None:
            pass

    return _like_arbalest(NullTool)()


class Workload:
    """Shared bookkeeping: samples, failures and the measuring loop."""

    name = ""
    #: How many times :meth:`setup` runs; ``setup_s`` is their median.
    setup_repeats = 5

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.tally = stats.Tally()
        self.arbalest_passes: list[float] = []
        self.native_passes: list[float] = []
        #: Per-frame latencies in microseconds (see each workload).
        self.frames_us: list[float] = []

    def setup(self) -> None:
        raise NotImplementedError

    def round(self) -> None:
        raise NotImplementedError

    def traced_pass(self) -> float:
        raise NotImplementedError

    def outputs(self) -> dict:
        """Every checked output, for the seed-independence digest."""
        raise NotImplementedError

    def trace_extras(self) -> dict:
        """Per-pass counts the per-layer metrics need beyond the spans."""
        return {}

    def measure(self, seconds: float) -> int:
        """Run whole rounds until ``seconds`` have passed; returns rounds."""
        rounds = 0
        start = time.perf_counter()
        while rounds == 0 or time.perf_counter() - start < seconds:
            self.round()
            rounds += 1
        return rounds

    def check(self, operation) -> bool:
        """Run one operation; a raised error or a problem counts as failed."""
        try:
            problems = operation()
        except Exception as exc:  # a failed operation, never a crash
            problems = [f"{type(exc).__name__}: {exc}"]
        return self.tally.record(problems)

    def common_metrics(self) -> dict:
        metrics = {
            "pass_s": (stats.median(self.arbalest_passes), "s", len(self.arbalest_passes)),
            "native_s": (stats.median(self.native_passes), "s", len(self.native_passes)),
        }
        return metrics


# -- SPEC ACCEL twins ----------------------------------------------------------


class SpecWorkload(Workload):
    """The five SPEC ACCEL twins under ARBALEST and natively, interleaved.

    A round times every (twin, native|arbalest) cell once, in an order
    drawn from the seed.  A pass is the five ARBALEST cells of a round;
    a *frame* is one ARBALEST cell.  With ``aa_check`` the round adds a
    second, separately placed plain-ARBALEST polbm cell, and the ratio of
    the two polbm medians is the benchmark's same-code noise check.
    """

    def __init__(self, seed: int, *, name: str, preset: str, aa_check: bool,
                 warm_events: int, setup_repeats: int) -> None:
        super().__init__(seed)
        self.name = name
        self.setup_repeats = setup_repeats
        self.preset = preset
        self.aa_check = aa_check
        #: Twins with fewer events than this are warmed up in both modes.
        self.warm_events = warm_events
        self.cells: dict[tuple[str, str], list[float]] = {}

    def setup(self) -> None:
        from repro.openmp.runtime import TargetRuntime
        from repro.specaccel.workloads import WORKLOADS

        self.twins = WORKLOADS
        self.reference: dict[str, str] = {}
        self.events: dict[str, int] = {}
        self.elements: dict[str, int] = {}
        self.shadow: dict[str, int] = {}
        for twin in self.twins:
            rt = TargetRuntime(n_devices=1, engine=ENGINE)
            counter = _event_counter().attach(rt.machine)
            self.reference[twin.name] = checksum_digest(twin.run(rt, self.preset))
            rt.finalize()
            self.events[twin.name] = counter.events
            self.elements[twin.name] = counter.elements
        for twin in self.twins:
            if self.events[twin.name] < self.warm_events:
                self._cell(twin, "native")
                self._cell(twin, "arbalest")

    def _cell(self, twin, mode: str):
        from repro.core.detector import Arbalest
        from repro.openmp.runtime import TargetRuntime

        rt = TargetRuntime(n_devices=1, engine=ENGINE)
        tool = Arbalest().attach(rt.machine) if mode != "native" else None
        with gc_paused():
            start = time.perf_counter()
            checksum = twin.run(rt, self.preset)
            rt.finalize()
            elapsed = time.perf_counter() - start
        return elapsed, checksum, tool

    def _checked_cell(self, twin, mode: str, problems: list[str]) -> float:
        elapsed, checksum, tool = self._cell(twin, mode)
        if checksum_digest(checksum) != self.reference[twin.name]:
            problems.append(f"{twin.name}/{mode}: checksum differs from native")
        if tool is not None:
            issues = tool.mapping_issue_findings()
            if issues:
                problems.append(f"{twin.name}/{mode}: {len(issues)} mapping issues")
            shadow = self.shadow.setdefault(twin.name, tool.shadow_bytes())
            if tool.shadow_bytes() != shadow:
                problems.append(f"{twin.name}/{mode}: shadow bytes changed")
        return elapsed

    def round(self) -> None:
        order = [(twin, mode) for twin in self.twins for mode in ("native", "arbalest")]
        if self.aa_check:
            order.append((next(t for t in self.twins if t.name == "polbm"), "arbalest-aa"))
        self.rng.shuffle(order)
        sums = {"native": 0.0, "arbalest": 0.0}

        def run_round() -> list[str]:
            problems: list[str] = []
            for twin, mode in order:
                elapsed = self._checked_cell(twin, mode, problems)
                self.cells.setdefault((twin.name, mode), []).append(elapsed)
                if mode in sums:
                    sums[mode] += elapsed
                if mode == "arbalest":
                    self.frames_us.append(elapsed * 1e6)
            return problems

        # A round that fails a check is still timed: the failure shows in
        # ``failed``, and the run always has samples to report.
        self.check(run_round)
        self.arbalest_passes.append(sums["arbalest"])
        self.native_passes.append(sums["native"])

    def traced_pass(self) -> float:
        order = list(self.twins)
        self.rng.shuffle(order)
        problems: list[str] = []
        wall = sum(self._checked_cell(twin, "arbalest", problems) for twin in order)
        self.tally.record(problems)
        return wall

    def _median_cell(self, twin: str, mode: str) -> float:
        return stats.median(self.cells[(twin, mode)])

    def metrics(self) -> tuple[dict, dict]:
        metrics = self.common_metrics()
        pass_s = metrics["pass_s"][0]
        ratios = [
            self._median_cell(t.name, "arbalest") / self._median_cell(t.name, "native")
            for t in self.twins
        ]
        events = sum(self.events.values())
        elements = sum(self.elements.values())
        metrics["slowdown"] = (stats.geomean(ratios), "x", len(self.arbalest_passes))
        metrics["events_per_s"] = (events / pass_s, "1/s", len(self.arbalest_passes))
        metrics["elements_per_s"] = (elements / pass_s, "1/s", len(self.arbalest_passes))
        metrics["shadow_bytes"] = (sum(self.shadow.values()), "bytes", len(self.arbalest_passes))
        details = {
            "preset": self.preset,
            "events_per_pass": events,
            "elements_per_pass": elements,
            "slowdown_by_twin": {
                t.name: round(r, 4) for t, r in zip(self.twins, ratios)
            },
        }
        if self.aa_check:
            details["polbm_aa_ratio"] = self._median_cell(
                "polbm", "arbalest"
            ) / self._median_cell("polbm", "arbalest-aa")
        return metrics, details

    def outputs(self) -> dict:
        return {
            "checksums": self.reference,
            "shadow_bytes": dict(sorted(self.shadow.items())),
        }


# -- DRACC programs, one cell per program and mode ----------------------------


class PairedWorkload(Workload):
    """The 56 DRACC programs, each timed under ARBALEST and natively.

    A round walks the programs in an order drawn from the seed and runs
    each program's two cells back to back, in a seeded order, so both
    sides of every ratio see the same machine.  A pass is one side of a
    round: its cells summed.  Subclasses time one cell in :meth:`cell`.
    """

    #: Whether cells record frame latencies (off for warm-up and tracing).
    measuring = False

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        #: Per round, the ARBALEST pass divided by the native pass.
        self.round_ratios: list[float] = []

    def setup(self) -> None:
        from repro.dracc.registry import all_benchmarks

        self.benches = all_benchmarks()
        self.prepare()
        # One ARBALEST pass warms every path the native cells share.
        self.traced_pass()

    def prepare(self) -> None:
        raise NotImplementedError

    def begin_round(self) -> None:
        """Hook: build per-round state (servers) before the first cell."""

    def end_round(self) -> list[str]:
        """Hook: per-round checks after the last cell."""
        return []

    def cell(self, bench, mode: str) -> tuple[float, list[str]]:
        """Run one cell; returns (timed seconds, problems found)."""
        raise NotImplementedError

    def _timed(self, bench, mode: str) -> float:
        elapsed = 0.0

        def operation() -> list[str]:
            nonlocal elapsed
            elapsed, problems = self.cell(bench, mode)
            return problems

        self.check(operation)
        return elapsed

    def _pass(self, modes: tuple[str, ...]) -> dict[str, float]:
        order = list(self.benches)
        self.rng.shuffle(order)
        sums = dict.fromkeys(modes, 0.0)
        self.begin_round()
        with gc_paused():
            for bench in order:
                paired = list(modes)
                self.rng.shuffle(paired)
                for mode in paired:
                    sums[mode] += self._timed(bench, mode)
        problems = self.end_round()
        if problems:
            self.tally.record(problems)
        return sums

    def round(self) -> None:
        self.measuring = True
        try:
            sums = self._pass(("arbalest", "native"))
        finally:
            self.measuring = False
        self.arbalest_passes.append(sums["arbalest"])
        self.native_passes.append(sums["native"])
        self.round_ratios.append(sums["arbalest"] / max(sums["native"], 1e-9))

    def traced_pass(self) -> float:
        return self._pass(("arbalest",))["arbalest"]

    def metrics(self) -> tuple[dict, dict]:
        metrics = self.common_metrics()
        pass_s = metrics["pass_s"][0]
        n = len(self.arbalest_passes)
        metrics["slowdown"] = (stats.median(self.round_ratios), "x", n)
        metrics["events_per_s"] = (self.events / pass_s, "1/s", n)
        metrics["elements_per_s"] = (self.elements / pass_s, "1/s", n)
        metrics["shadow_bytes"] = (self.shadow_total(), "bytes", n)
        details = {
            "events_per_pass": self.events,
            "elements_per_pass": self.elements,
            "programs_per_pass": len(self.benches),
        }
        return metrics, details


class _TimedTransport:
    """Loopback transport that records each frame's round trip.

    It also counts the bytes the client sends; the server's responses
    come back as the return value and are not counted.
    """

    def __init__(self, inner, owner: "ServeWorkload") -> None:
        self.inner = inner
        self.owner = owner
        self.sent_bytes = 0

    def send(self, data: bytes) -> bytes:
        self.sent_bytes += len(data)
        if not self.owner.measuring:
            return self.inner.send(data)
        start = time.perf_counter()
        out = self.inner.send(data)
        self.owner.frames_us.append((time.perf_counter() - start) * 1e6)
        return out


class ServeWorkload(PairedWorkload):
    """All 56 DRACC traces streamed through the analysis server.

    Closed loop with one client connection per server, sessions one
    after another (the loopback pipe is synchronous).  Server settings
    match ``run_serve_bench``: 4 shards, ARBALEST, live observer on.
    The native cell streams the same session to a second server with no
    tool.  A *frame* is one wire frame's round trip under ARBALEST.
    """

    name = "serve-stream"
    setup_repeats = 3

    def prepare(self) -> None:
        from repro.events.records import Access
        from repro.harness.serve import baseline_fingerprints, record_trace

        self.traces = {b.number: record_trace(b) for b in self.benches}
        self.baselines = {
            n: baseline_fingerprints(events) for n, events in self.traces.items()
        }
        self.events = sum(len(t) for t in self.traces.values())
        self.elements = sum(
            e.count for t in self.traces.values() for e in t if type(e) is Access
        )
        self.shadow: int | None = None
        self.frames_per_pass = self.bytes_per_pass = 0
        self.redeliveries = self.frames_shed = self.rounds_served = 0

    def begin_round(self) -> None:
        from repro.observe import DEFAULT_SLOS, ServeObserver
        from repro.serve import AnalysisServer, LoopbackTransport, ServerConfig

        self.transports = {}
        self.servers = {}
        for mode, tools in (("arbalest", ("arbalest",)), ("native", ())):
            observer = ServeObserver(slos=DEFAULT_SLOS, trace_spans=False, wall_clock=True)
            config = ServerConfig(n_shards=4, engine=ENGINE, tools=tools, queue_cap=256)
            server = self.servers[mode] = AnalysisServer(config, observer)
            self.transports[mode] = _TimedTransport(LoopbackTransport(server), self)
        self.frames_per_pass = 0

    def cell(self, bench, mode: str) -> tuple[float, list[str]]:
        from repro.serve import ServeClient

        number = bench.number
        measuring, self.measuring = self.measuring, self.measuring and mode == "arbalest"
        try:
            start = time.perf_counter()
            client = ServeClient(self.transports[mode], client_id=number)
            result = client.stream(self.traces[number])
            elapsed = time.perf_counter() - start
        finally:
            self.measuring = measuring
        problems = []
        expected = self.baselines[number] if mode == "arbalest" else ()
        if result.fingerprints() != expected:
            problems.append(f"{mode} session {number}: fingerprints differ")
        if result.result.get("shed_frames", 0) or result.result.get("degraded"):
            problems.append(f"{mode} session {number}: frames shed")
        if result.retransmits or result.nacks_seen:
            problems.append(f"{mode} session {number}: frames refused")
        if mode == "arbalest":
            self.frames_per_pass += result.frames_sent
        return elapsed, problems

    def end_round(self) -> list[str]:
        server = self.servers["arbalest"]
        shadow = sum(
            tool.shadow_bytes()
            for session in server.sessions.values()
            for worker in session.supervisor.workers
            for tool in worker.tools.values()
        )
        self.bytes_per_pass = self.transports["arbalest"].sent_bytes
        self.redeliveries += server.observer.redeliveries
        self.frames_shed += sum(s.shed_frames for s in server.sessions.values())
        self.rounds_served += 1
        if self.shadow is None:
            self.shadow = shadow
        if shadow != self.shadow:
            return ["serve pass: shadow bytes changed"]
        return []

    def shadow_total(self) -> int:
        return self.shadow

    def metrics(self) -> tuple[dict, dict]:
        metrics, details = super().metrics()
        details["frames_per_pass"] = self.frames_per_pass
        details["loop"] = "closed, one client connection per server, sessions in sequence"
        return metrics, details

    def outputs(self) -> dict:
        return {
            "fingerprints": {
                str(n): [list(f) for f in fp] for n, fp in sorted(self.baselines.items())
            },
            "shadow_bytes": self.shadow,
        }

    def trace_extras(self) -> dict:
        return {
            "streamed_events": self.events,
            "streamed_frames": self.frames_per_pass,
            "streamed_bytes": self.bytes_per_pass,
            "redeliveries": self.redeliveries / self.rounds_served,
            "frames_shed": self.frames_shed / self.rounds_served,
        }


class DraccAuditWorkload(PairedWorkload):
    """Lint each DRACC twin, then run the program under certified ARBALEST.

    The native cell runs the same program on a fresh runtime with no tool
    and no lint.  A *frame* is one program's audit, lint plus run.
    """

    name = "dracc-audit"

    def prepare(self) -> None:
        from repro.ompsan.programs import BUGGY_PROGRAMS, CLEAN_PROGRAMS
        from repro.openmp.runtime import TargetRuntime

        self.twins = {
            b.number: (BUGGY_PROGRAMS.get(b.number) or CLEAN_PROGRAMS[b.number])()
            for b in self.benches
        }
        self.events = self.elements = 0
        for bench in self.benches:
            rt = TargetRuntime(n_devices=2, engine=ENGINE)
            counter = _event_counter().attach(rt.machine)
            bench.run(rt)
            self.events += counter.events
            self.elements += counter.elements
        self.verdicts: dict[int, bool] = {}
        self.certified: dict[int, list[str]] = {}
        self.shadow: dict[int, int] = {}

    def cell(self, bench, mode: str) -> tuple[float, list[str]]:
        from repro.core.detector import Arbalest
        from repro.openmp.runtime import TargetRuntime
        from repro.staticlint import lint

        if mode == "native":
            start = time.perf_counter()
            bench.run(TargetRuntime(n_devices=2, engine=ENGINE))
            return time.perf_counter() - start, []
        start = time.perf_counter()
        certificate = lint(self.twins[bench.number]).certificate
        rt = TargetRuntime(n_devices=2, engine=ENGINE)
        tool = Arbalest(certificate=certificate).attach(rt.machine)
        bench.run(rt)
        elapsed = time.perf_counter() - start
        if self.measuring:
            self.frames_us.append(elapsed * 1e6)
        detected = bool(tool.mapping_issue_findings())
        problems = []
        if detected != bench.is_buggy:
            problems.append(f"{bench.name}: verdict differs from Table III")
        for finding in tool.findings:
            if finding.variable and finding.variable in certificate:
                problems.append(f"{bench.name}: finding on certified {finding.variable}")
        observed = (detected, sorted(certificate.variables), tool.shadow_bytes())
        known = (
            self.verdicts.setdefault(bench.number, observed[0]),
            self.certified.setdefault(bench.number, observed[1]),
            self.shadow.setdefault(bench.number, observed[2]),
        )
        if observed != known:
            problems.append(f"{bench.name}: outputs changed between passes")
        return elapsed, problems

    def end_round(self) -> list[str]:
        detected = sum(self.verdicts.values())
        if (detected, len(self.verdicts) - detected) != (16, 40):
            return [f"audit pass: {detected} of 56 detected, Table III has 16"]
        return []

    def shadow_total(self) -> int:
        return sum(self.shadow.values())

    def metrics(self) -> tuple[dict, dict]:
        metrics, details = super().metrics()
        detected = sum(self.verdicts.values())
        details["detected"] = detected
        details["silent"] = len(self.verdicts) - detected
        return metrics, details

    def outputs(self) -> dict:
        return {
            "verdicts": {str(n): v for n, v in sorted(self.verdicts.items())},
            "certified": {str(n): v for n, v in sorted(self.certified.items())},
            "shadow_bytes": {str(n): v for n, v in sorted(self.shadow.items())},
        }


def make(name: str, seed: int) -> Workload:
    """The workload called ``name``, seeded with ``seed``."""
    if name == "spec-bulk":
        return SpecWorkload(seed, name=name, preset="train", aa_check=True,
                            warm_events=10**9, setup_repeats=7)
    if name == "spec-points":
        return SpecWorkload(seed, name=name, preset="large", aa_check=False,
                            warm_events=50_000, setup_repeats=1)
    if name == "serve-stream":
        return ServeWorkload(seed)
    if name == "dracc-audit":
        return DraccAuditWorkload(seed)
    raise KeyError(name)


WORKLOAD_NAMES = ("spec-bulk", "spec-points", "serve-stream", "dracc-audit")
