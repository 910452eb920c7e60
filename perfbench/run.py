"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload spec-bulk --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` measures the same workload untraced, then again with the
public entry points of every layer wrapped, and reports the per-layer
metrics, the unattributed root time, the tracing overhead and the
scalar-versus-columnar bus replay; it also writes the recorded spans to
``perfbench/out/``.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, ROOT)

#: The program's modules the benchmark imports, from the checkout's ``src``.
PROGRAM_MODULES = (
    "repro.core.detector",
    "repro.dracc.registry",
    "repro.harness.serve",
    "repro.openmp.runtime",
    "repro.serve",
    "repro.specaccel",
    "repro.staticlint",
)

_IMPORT_PROBE = """\
import importlib, sys, time
start = time.perf_counter()
sys.path.insert(0, {src!r})
for name in {modules!r}:
    importlib.import_module(name)
print(time.perf_counter() - start)
"""


def _import_program() -> float:
    """Import the program under test; returns the seconds it took."""
    start = time.perf_counter()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    for name in PROGRAM_MODULES:
        importlib.import_module(name)
    return time.perf_counter() - start


def fresh_import_s() -> float:
    """Seconds a fresh interpreter takes to import the program."""
    code = _IMPORT_PROBE.format(src=os.path.join(ROOT, "src"), modules=PROGRAM_MODULES)
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        timeout=120,
    )
    return float(done.stdout)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def declared(section: str) -> list[str]:
    """The metric names ``BENCHMARK.json`` declares in ``section``."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as source:
        return [metric["name"] for metric in json.load(source)[section]]


def _metric_table(metrics: dict, gated: list[str]) -> list[str]:
    lines = []
    for name, entry in metrics.items():
        extra = ""
        if "percentile" in entry:
            extra = f" (p{entry['percentile']:g}"
            extra += "" if entry.get("rule_met", True) else ", too few samples for a tail"
            extra += ")"
        samples = f"  n={entry['samples']}" if "samples" in entry else ""
        mark = "*" if name in gated else " "
        lines.append(
            f" {mark}{name:<40} {entry['value']:>16.6g} {entry['unit']}{extra}{samples}"
        )
    return lines


def end_to_end(workload, setup_s: float, setup_runs: int) -> dict:
    from perfbench import stats

    raw, details = workload.metrics()
    metrics: dict[str, dict] = {
        "setup_s": {"value": setup_s, "unit": "s", "samples": setup_runs},
    }
    for name, (value, unit, samples) in raw.items():
        metrics[name] = {"value": value, "unit": unit, "samples": samples}
    metrics["pass_s_tail"] = {"unit": "s", **stats.tail(workload.arbalest_passes)}
    frames = workload.frames_us
    metrics["frame_p50_us"] = {
        "value": stats.median(frames), "unit": "us", "samples": len(frames)
    }
    metrics["frame_tail_us"] = {"unit": "us", **stats.tail(frames)}
    return metrics, details


def per_layer(workload, seconds: float, seed: int) -> tuple[dict, dict]:
    from perfbench import layers, stats
    from perfbench.spans import Tracer

    untraced = stats.median(workload.arbalest_passes)
    tracer = Tracer(workload.name)
    walls: list[float] = []
    with tracer:
        layers.install(tracer)
        start = time.perf_counter()
        while not walls or time.perf_counter() - start < seconds / 2:
            walls.append(workload.traced_pass())
            tracer.recording = False
    metrics = layers.layer_metrics(
        tracer,
        passes=len(walls),
        pass_wall_ns=int(sum(walls) * 1e9),
        **workload.trace_extras(),
    )
    metrics["trace.overhead"] = stats.median(walls) / untraced
    metrics.update(engine_split())

    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    spans_path = os.path.join(out_dir, f"spans-{workload.name}-{seed}.json")
    tracer.write(spans_path)
    details = {
        "traced_passes": len(walls),
        "untraced_pass_s": untraced,
        "spans_file": os.path.relpath(spans_path, ROOT),
        "spans_recorded": len(tracer.records),
        "spans_dropped": tracer.dropped,
        "predictions": layers.predictions(),
    }
    return metrics, details


def recorded_traces() -> dict[str, list[list]]:
    """The spec-points and DRACC event streams, each recorded once."""
    import io

    from repro.dracc.registry import all_benchmarks
    from repro.events.trace_io import TraceWriter, read_trace
    from repro.harness.serve import record_trace
    from repro.openmp.runtime import TargetRuntime
    from repro.specaccel.workloads import WORKLOADS

    def spec(twin) -> list:
        rt = TargetRuntime(n_devices=1)
        sink = io.StringIO()
        TraceWriter(sink).attach(rt.machine)
        twin.run(rt, "large")
        rt.finalize()
        sink.seek(0)
        return list(read_trace(sink))

    return {
        "spec": [spec(twin) for twin in WORKLOADS],
        "dracc": [record_trace(bench) for bench in all_benchmarks()],
    }


def replay_ns(traces: list[list], engine: str, make_tool) -> int:
    """Wall ns to replay ``traces`` through a fresh ``ToolBus`` each, untraced."""
    from repro.events.bus import ToolBus
    from repro.events.records import (
        Access, AllocationEvent, DataOp, FlushEvent, KernelEvent, MemcpyEvent, SyncEvent,
    )

    from perfbench.workloads import gc_paused

    with gc_paused():
        start = time.perf_counter_ns()
        for events in traces:
            bus = ToolBus(engine=engine)
            bus.attach(make_tool())
            publish = {
                Access: bus.publish_access,
                DataOp: bus.publish_data_op,
                MemcpyEvent: bus.publish_memcpy,
                KernelEvent: bus.publish_kernel,
                AllocationEvent: bus.publish_allocation,
                SyncEvent: bus.publish_sync,
                FlushEvent: bus.publish_flush,
            }
            for event in events:
                publish[type(event)](event)
            bus.flush_batch()
        return time.perf_counter_ns() - start


def engine_split() -> dict[str, float]:
    """Per engine, the bus's and ARBALEST's ns per replayed event.

    Each recorded trace set is replayed untraced, through a bus built
    here, once with a tool that ignores every event and once with
    ARBALEST, ``layers.SPLIT_REPEATS`` times each, interleaved.  The bus
    share is the median null replay; the detector share is the median
    ARBALEST replay minus that.
    """
    from repro.core.detector import Arbalest

    from perfbench import layers, stats
    from perfbench.workloads import null_tool

    traces = recorded_traces()
    out: dict[str, float] = {}
    for label in layers.SPLIT_TRACES:
        events = sum(len(t) for t in traces[label])
        for engine in layers.SPLIT_ENGINES:
            null, arbalest = [], []
            for _ in range(layers.SPLIT_REPEATS):
                null.append(replay_ns(traces[label], engine, null_tool))
                arbalest.append(replay_ns(traces[label], engine, Arbalest))
            bus_ns = stats.median(null)
            out[f"engine.{engine}.{label}.bus_ns_per_event"] = bus_ns / events
            out[f"engine.{engine}.{label}.detector_ns_per_event"] = (
                stats.median(arbalest) - bus_ns
            ) / events
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        imports = [_import_program()]
    except ImportError as exc:
        print(f"perfbench: cannot import the program under test: {exc}", file=sys.stderr)
        return 2

    from perfbench import stats, workloads

    if args.workload not in workloads.WORKLOAD_NAMES:
        print(
            f"perfbench: unknown workload {args.workload!r} "
            f"(choose from {', '.join(workloads.WORKLOAD_NAMES)})",
            file=sys.stderr,
        )
        return 2
    workload = workloads.make(args.workload, args.seed)
    # Set-up time: the median import plus the median set-up.  Imports
    # after the first are timed in fresh interpreters, one after each
    # set-up, so both medians sample the same stretch of time.  A traced
    # run does not report it and sets up once.
    setups = []
    for _ in range(1 if args.trace else workload.setup_repeats):
        begin = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - begin)
        if not args.trace:
            imports.append(fresh_import_s())
    setup_s = stats.median(imports) + stats.median(setups)

    # A traced run measures untraced for half the time (the base of
    # ``trace.overhead``) and traced for the other half.
    rounds = workload.measure(args.seconds / 2 if args.trace else args.seconds)
    if args.trace:
        metrics, details = per_layer(workload, args.seconds, args.seed)
        from perfbench.layers import unit_of

        table = {
            name: {"value": value, "unit": unit_of(name)}
            for name, value in metrics.items()
        }
    else:
        table, details = end_to_end(workload, setup_s, len(setups))

    gated = declared("per_layer" if args.trace else "end_to_end")
    correct = workload.tally.failed == 0
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"engine={workloads.ENGINE} rounds={rounds} (* = declared in BENCHMARK.json)")
    print("\n".join(_metric_table(table, gated)))
    print(f"  {'fail_rate':<40} {workload.tally.fail_rate:>16.6g} "
          f"({workload.tally.failed} of {workload.tally.attempted} operations)")
    for reason in workload.tally.reasons:
        print(f"  FAILED: {reason}")
    record = {
        "meta": {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "engine": workloads.ENGINE,
            "rounds": rounds,
            "setup_runs_s": setups,
            "import_runs_s": imports,
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "details": details,
        "outputs_digest": _digest(workload.outputs()),
        "metrics": table,
    }
    print(json.dumps(record, sort_keys=True, default=str))
    print(json.dumps({
        "correct": correct,
        "attempted": workload.tally.attempted,
        "failed": workload.tally.failed,
        "metrics": {
            name: {"value": table[name]["value"], "unit": table[name]["unit"]}
            for name in gated
        },
    }))
    return 0


def _digest(outputs: dict) -> str:
    import hashlib

    text = json.dumps(outputs, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


if __name__ == "__main__":
    sys.exit(main())
