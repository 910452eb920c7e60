"""Chaos campaigns: seeded fault schedules swept over the DRACC suites.

A campaign answers the robustness question the happy-path harnesses cannot:
does the whole stack — simulated runtime, tool bus, ARBALEST — *degrade
gracefully* under adverse runtime behaviour, or does it fall over?  For
every (schedule, benchmark) pair a fresh machine is built with a
deterministic :class:`~repro.faults.injector.FaultInjector`, the benchmark
runs to completion, and the campaign asserts the three recovery guarantees:

1. **Zero crashes.**  No uncaught exception escapes any faulted run, ever.
2. **Transparent faults are transparent.**  Device-alloc OOM, transfer
   failures, latency spikes, and spurious resets are fully recovered below
   the event layer (retry-with-backoff, rollback/replay, checkpoint/
   restore), so runs that received *only* those faults must produce
   byte-identical findings to the un-faulted baseline — ARBALEST's
   precision and recall on the un-faulted event subset is unchanged.
3. **Bounded precision loss.**  Runs whose OMPT callback stream *was*
   perturbed (dropped/duplicated/reordered events) may diverge — the
   detector's view of the mapping lifecycle is wrong by construction — but
   divergence is quarantined (never a crash, invariants hold) and its
   frequency is reported and bounded.

The campaign result is a JSON payload (tracked as ``BENCH_chaos.json``)
containing the full schedule log of every injected fault, so a failure is
reproducible from the seed alone.
"""

from __future__ import annotations

import random
from typing import Iterable

from ..core.detector import Arbalest
from ..dracc.registry import DraccBenchmark, suite as dracc_suite
from ..events.bus import ENGINE
from ..faults.injector import FaultInjector
from ..faults.plan import FaultPlan
from ..observe.history import write_artifact
from ..openmp.runtime import TargetRuntime

#: Upper bound asserted on the fraction of event-faulted runs whose
#: findings diverge from baseline ("bounded precision loss").
MAX_EVENT_FAULT_DIVERGENCE = 0.5


def _plan_seed(campaign_seed: int, schedule: int, bench_number: int) -> int:
    """Stable per-(schedule, benchmark) seed derivation."""
    return random.Random(
        f"{campaign_seed}/{schedule}/{bench_number}"
    ).getrandbits(32)


def _signature(detector: Arbalest) -> tuple[str, ...]:
    """Canonical, order-insensitive form of a run's findings."""
    return tuple(
        sorted(
            f"{f.kind.value}@{f.location.file}:{f.location.line}:{f.variable}"
            for f in detector.findings
        )
    )


def _run_one(
    bench: DraccBenchmark, injector: FaultInjector | None
) -> tuple[Arbalest, BaseException | None]:
    """One benchmark under ARBALEST, optionally faulted; never raises."""
    rt = TargetRuntime(n_devices=2, faults=injector)
    detector = Arbalest().attach(rt.machine)
    try:
        bench.run(rt)
        return detector, None
    except BaseException as exc:  # a crash is a campaign failure, not ours
        return detector, exc


def run_chaos_campaign(
    *,
    seed: int = 0,
    schedules: int = 3,
    faults_per_schedule: int = 6,
    suite: str = "all",
    benchmarks: Iterable[DraccBenchmark] | None = None,
) -> dict:
    """Sweep ``schedules`` sampled fault schedules over the DRACC suite.

    Returns the JSON-ready campaign payload (see module docstring).  Fully
    deterministic in ``seed`` and the parameters: two invocations produce
    identical payloads, including every schedule log entry.
    """
    benches = tuple(benchmarks) if benchmarks is not None else dracc_suite(suite)

    # Un-faulted baseline, once per benchmark.
    baseline: dict[int, tuple[tuple[str, ...], bool]] = {}
    for bench in benches:
        detector, error = _run_one(bench, None)
        if error is not None:  # pragma: no cover - the seed suite is healthy
            raise error
        baseline[bench.number] = (
            _signature(detector),
            bool(detector.mapping_issue_findings()),
        )

    crashes: list[dict] = []
    invariant_violations: list[dict] = []
    transparent_divergences: list[dict] = []
    schedule_log: list[dict] = []
    warnings: list[str] = []
    injected_counts: dict[str, int] = {}
    detection_mismatches: list[dict] = []
    quarantined_events = 0
    backoff_ticks = 0
    latency_ticks = 0
    transparent_runs = 0
    event_faulted_runs = 0
    event_faulted_diverged = 0

    for schedule in range(schedules):
        for bench in benches:
            plan = FaultPlan.generate(
                _plan_seed(seed, schedule, bench.number),
                n_faults=faults_per_schedule,
            )
            injector = FaultInjector(plan)
            detector, error = _run_one(bench, injector)
            run_id = {"schedule": schedule, "benchmark": bench.number}
            for record in injector.log:
                schedule_log.append({**run_id, **record.to_json()})
                injected_counts[record.kind.value] = (
                    injected_counts.get(record.kind.value, 0) + 1
                )
            quarantined_events += len(detector.quarantine_log)
            backoff_ticks += injector.stats.get("backoff_ticks", 0)
            latency_ticks += injector.stats.get("latency_ticks", 0)
            if error is not None:
                crashes.append(
                    {**run_id, "error": f"{type(error).__name__}: {error}"}
                )
                continue
            problems = detector.check_invariants()
            if problems:
                invariant_violations.append({**run_id, "problems": problems})
            signature = _signature(detector)
            base_signature, base_detected = baseline[bench.number]
            diverged = signature != base_signature
            if injector.event_faults_triggered:
                event_faulted_runs += 1
                if diverged:
                    event_faulted_diverged += 1
                    warnings.append(
                        f"schedule {schedule} / DRACC {bench.number}: findings "
                        "diverged under callback-stream faults "
                        f"({len(signature)} vs {len(base_signature)} findings)"
                    )
            else:
                transparent_runs += 1
                if diverged:
                    transparent_divergences.append(
                        {
                            **run_id,
                            "baseline": list(base_signature),
                            "chaos": list(signature),
                        }
                    )
                detected = bool(detector.mapping_issue_findings())
                if detected != base_detected:
                    detection_mismatches.append(
                        {**run_id, "baseline": base_detected, "chaos": detected}
                    )

    divergence_rate = (
        event_faulted_diverged / event_faulted_runs if event_faulted_runs else 0.0
    )
    payload = {
        "seed": seed,
        "schedules": schedules,
        "faults_per_schedule": faults_per_schedule,
        "engine": ENGINE,
        "suite": suite if benchmarks is None else "custom",
        "benchmarks": len(benches),
        "runs": schedules * len(benches),
        "crashes": crashes,
        "invariant_violations": invariant_violations,
        "injected_faults": dict(sorted(injected_counts.items())),
        "injected_total": sum(injected_counts.values()),
        "schedule_log": schedule_log,
        "quarantined_events": quarantined_events,
        "backoff_ticks": backoff_ticks,
        "latency_ticks": latency_ticks,
        "transparent_runs": transparent_runs,
        "transparent_divergences": transparent_divergences,
        "event_faulted_runs": event_faulted_runs,
        "event_faulted_diverged": event_faulted_diverged,
        "event_fault_divergence_rate": round(divergence_rate, 4),
        "detection_mismatches": detection_mismatches,
        "unfaulted_detection_unchanged": not detection_mismatches,
        "bounded_precision_loss": divergence_rate <= MAX_EVENT_FAULT_DIVERGENCE,
        "warnings": warnings,
    }
    payload["ok"] = (
        not crashes
        and not invariant_violations
        and not transparent_divergences
        and payload["unfaulted_detection_unchanged"]
        and payload["bounded_precision_loss"]
    )
    return payload


def run_chaos(
    *,
    seed: int = 0,
    schedules: int = 3,
    faults_per_schedule: int = 6,
    suite: str = "all",
    output: str = "BENCH_chaos.json",
    telemetry: bool = False,
    report: str | None = None,
) -> dict:
    """Run a campaign and write the tracked ``BENCH_chaos.json`` report.

    ``telemetry=True`` runs the campaign inside a metrics-only observation
    scope (no span sink) and embeds the metric snapshot under a
    ``"telemetry"`` key — recovery counters (retries, rollbacks, quarantine
    reasons) become visible per campaign instead of per debugger session.

    ``report=PATH`` additionally writes a forensics report (JSONL, see
    :mod:`repro.forensics.report`) of the campaign's *un-faulted* suite —
    the findings baseline the recovery guarantees are judged against, with
    full provenance timelines.
    """
    if telemetry:
        from ..observe.core import scope

        with scope(metrics=True) as observation:
            payload = run_chaos_campaign(
                seed=seed,
                schedules=schedules,
                faults_per_schedule=faults_per_schedule,
                suite=suite,
            )
        payload["telemetry"] = observation.snapshot()
    else:
        payload = run_chaos_campaign(
            seed=seed,
            schedules=schedules,
            faults_per_schedule=faults_per_schedule,
            suite=suite,
        )
    write_artifact(output, payload)
    if report is not None:
        from ..forensics.report import write_report
        from .report import run_report

        write_report(run_report(suite=suite), report)
    return payload
