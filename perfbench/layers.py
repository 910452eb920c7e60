"""The program's layers, their entry points, and the per-layer metrics.

Each :class:`Layer` names the public entry points a traced run wraps and
writes down, before any measurement, which end-to-end metrics the layer
should move and on which workloads it should carry most and little of
the work.  :func:`layer_metrics` turns a :class:`~perfbench.spans.Tracer`
into the per-layer figures; every figure is per traced pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .spans import Tracer


@dataclass(frozen=True)
class Entry:
    """One wrapped entry point, ``"package.module:Qual.name"``."""

    path: str
    probe: Callable | None = None
    after: Callable | None = None
    keep_instances: bool = False

    @property
    def short(self) -> str:
        return self.path.partition(":")[2]


@dataclass(frozen=True)
class Layer:
    name: str
    entries: tuple[Entry, ...]
    #: End-to-end metrics this layer should move.
    moves: tuple[str, ...]
    #: Workloads where the layer should carry most of the work...
    most: tuple[str, ...]
    #: ...and where it should carry little.
    little: tuple[str, ...]


# -- probes: count the work handed to an entry point -----------------------


def _pending_batch(stats, args, kwargs) -> None:
    n = len(args[0]._batch_pending)
    if n:
        stats.add("batches", 1)
        stats.add("batched", n)


def _detector_batch(stats, args, result) -> None:
    batch = args[1]
    stats.add("events", len(batch.accesses))
    # The detector has usually built the batch columns by now; summing
    # them is far cheaper than walking the accesses.
    columns = batch._columns
    if columns is not None:
        stats.add("elements", int(columns.counts.sum()))
    else:
        stats.add("elements", sum(a.count for a in batch.accesses))


def _detector_access(stats, args, kwargs) -> None:
    stats.add("events", 1)
    stats.add("elements", args[1].count)


def _detector_event(stats, args, kwargs) -> None:
    stats.add("events", 1)


def _granules(block, idx) -> int:
    if type(idx) is slice:
        return len(range(*idx.indices(block.n_granules)))
    return int(getattr(idx, "size", 1))


def _shadow_indexed(stats, args, kwargs) -> None:
    stats.add("elements", _granules(args[0], args[1]))


def _shadow_one(stats, args, kwargs) -> None:
    stats.add("elements", 1)


def _linted(stats, args, result) -> None:
    stats.add("fixpoint_iterations", result.stats.fixpoint_iterations)


def _methods(prefix: str, names: str, **options) -> tuple[Entry, ...]:
    return tuple(Entry(f"{prefix}.{name}", **options) for name in names.split())


_DETECTOR = "repro.core.detector:Arbalest"
_REGISTRY = "repro.core.registry"

LAYERS: tuple[Layer, ...] = (
    Layer(
        "openmp.runtime",
        _methods(
            "repro.openmp.runtime:TargetRuntime",
            "target target_update target_enter_data target_exit_data "
            "target_data array finalize",
        ),
        moves=("native_s", "pass_s"),
        most=("spec-bulk", "dracc-audit"),
        little=("serve-stream",),
    ),
    Layer(
        "events.bus",
        _methods(
            "repro.events.bus:ToolBus",
            "publish_access publish_data_op publish_memcpy publish_kernel "
            "publish_allocation publish_sync publish_flush",
        )
        + (Entry("repro.events.bus:ToolBus.flush_batch", probe=_pending_batch),),
        moves=("pass_s", "events_per_s"),
        most=("spec-points",),
        little=("spec-bulk",),
    ),
    Layer(
        "events.wire",
        (
            Entry("repro.events.wire:encode_frame"),
            Entry("repro.events.wire:FrameDecoder.feed"),
        ),
        moves=("events_per_s", "frame_p50_us"),
        most=("serve-stream",),
        little=("spec-bulk", "spec-points"),
    ),
    Layer(
        "events.trace_io",
        (
            Entry("repro.events.trace_io:event_to_json"),
            Entry("repro.events.trace_io:event_from_json"),
        ),
        moves=("events_per_s",),
        most=("serve-stream",),
        little=("spec-bulk", "spec-points"),
    ),
    Layer(
        "core.detector",
        (
            Entry(f"{_DETECTOR}.on_batch", after=_detector_batch),
            Entry(f"{_DETECTOR}.on_access", probe=_detector_access),
        )
        + _methods(
            _DETECTOR,
            "on_data_op on_memcpy on_kernel on_allocation on_sync",
            probe=_detector_event,
        ),
        moves=("pass_s", "slowdown"),
        most=("spec-points",),
        little=("dracc-audit",),
    ),
    Layer(
        "core.shadow",
        (
            Entry("repro.core.shadow:ShadowBlock.apply", probe=_shadow_indexed),
            Entry("repro.core.shadow:ShadowBlock.apply_scalar", probe=_shadow_one),
            Entry("repro.core.shadow:ShadowBlock.apply_ops", probe=_shadow_indexed),
            Entry(
                "repro.core.shadow:ShadowBlock.record_access", probe=_shadow_indexed
            ),
        ),
        moves=("elements_per_s", "shadow_bytes"),
        most=("spec-bulk",),
        little=("serve-stream",),
    ),
    Layer(
        "core.registry",
        _methods(
            f"{_REGISTRY}:MappingRegistry",
            "find find_exact find_by_ov add drop",
            keep_instances=True,
        )
        + _methods(f"{_REGISTRY}:ShadowRegistry", "create find drop"),
        moves=("pass_s",),
        most=("dracc-audit", "spec-points"),
        little=("spec-bulk",),
    ),
    Layer(
        "tools.archer",
        _methods(
            "repro.tools.archer:RaceEngine",
            "check_access check_strided check_range check_batch handle_sync",
        ),
        moves=("pass_s", "slowdown"),
        most=("spec-points",),
        little=("spec-bulk",),
    ),
    Layer(
        "serve",
        (
            Entry("repro.serve.server:AnalysisServer.handle_frame"),
            Entry("repro.serve.supervisor:Supervisor.dispatch"),
            Entry("repro.serve.router:AddressRouter.route"),
            Entry("repro.serve.journal:ShardJournal.record"),
            Entry("repro.serve.shard:ShardWorker.deliver"),
        ),
        moves=("events_per_s", "frame_tail_us"),
        most=("serve-stream",),
        little=("spec-bulk", "spec-points"),
    ),
    Layer(
        "observe",
        _methods(
            "repro.observe.observer:ServeObserver",
            "frame_handled observe_stage evaluate",
        ),
        moves=("frame_p50_us",),
        most=("serve-stream",),
        little=("spec-bulk", "spec-points"),
    ),
    Layer(
        "staticlint",
        (Entry("repro.staticlint.analyzer:lint", after=_linted),),
        moves=("pass_s",),
        most=("dracc-audit",),
        little=("spec-bulk", "spec-points", "serve-stream"),
    ),
    Layer(
        "dracc",
        (Entry("repro.dracc.registry:DraccBenchmark.run"),),
        moves=("pass_s",),
        most=("dracc-audit",),
        little=("spec-bulk", "spec-points"),
    ),
)

#: The serve stages reported one by one, keyed by metric stage name.
SERVE_STAGES = {
    "handle_frame": "AnalysisServer.handle_frame",
    "dispatch": "Supervisor.dispatch",
    "route": "AddressRouter.route",
    "record": "ShardJournal.record",
    "deliver": "ShardWorker.deliver",
}

#: Engines compared by the bus-level replay in every traced run.
SPLIT_ENGINES = ("scalar", "columnar")
#: Recorded trace sets replayed by that comparison.
SPLIT_TRACES = ("spec", "dracc")
#: Replays per (trace set, engine, tool) in that comparison.
SPLIT_REPEATS = 2


def entry_name(layer: Layer, entry: Entry) -> str:
    return f"{layer.name}:{entry.short}"


def install(tracer: Tracer, layers=LAYERS) -> None:
    """Wrap every entry point of ``layers`` in ``tracer``."""
    for layer in layers:
        for entry in layer.entries:
            tracer.wrap_path(
                entry.path,
                entry_name(layer, entry),
                probe=entry.probe,
                after=entry.after,
                keep_instances=entry.keep_instances,
            )


_BY_NAME = {layer.name: layer for layer in LAYERS}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def _layer_stats(tracer: Tracer, layer: Layer | str):
    if isinstance(layer, str):
        layer = _BY_NAME[layer]
    return [tracer.stats[entry_name(layer, e)] for e in layer.entries]


def _item(stats, key: str) -> int:
    return sum(s.items.get(key, 0) for s in stats)


def layer_metrics(
    tracer: Tracer,
    *,
    passes: int,
    pass_wall_ns: int,
    streamed_events: int = 0,
    streamed_frames: int = 0,
    streamed_bytes: int = 0,
    redeliveries: float = 0,
    frames_shed: float = 0,
) -> dict[str, float]:
    """Per-layer figures from one traced run of ``passes`` passes.

    ``pass_wall_ns`` is the wall time of those passes.  The serve
    workload adds, per pass, the events the client streamed and the
    frames and bytes it sent for them (server responses not counted),
    the redelivered frames and the shed frames.
    """
    from repro.events.columnar import BATCH_CAP

    out: dict[str, float] = {}
    for layer in LAYERS:
        stats = _layer_stats(tracer, layer)
        calls = sum(s.calls for s in stats)
        self_ns = sum(s.self_ns for s in stats)
        out[f"{layer.name}.calls"] = calls / passes
        out[f"{layer.name}.self_s"] = self_ns / 1e9 / passes
        out[f"{layer.name}.ns_per_call"] = _ratio(self_ns, calls)

    out["events.bus.ns_per_event"], out["core.detector.ns_per_event"] = (
        per_event_costs(tracer)
    )
    bus = _layer_stats(tracer, "events.bus")
    out["events.bus.batch_fill"] = _ratio(
        _ratio(_item(bus, "batched"), _item(bus, "batches")), BATCH_CAP
    )

    # Wire time per client frame covers the whole round trip: the
    # client's encode, the server's decode and the response's both ways.
    wire = _layer_stats(tracer, "events.wire")
    out["events.wire.ns_per_frame"] = _ratio(
        sum(s.self_ns for s in wire), streamed_frames * passes
    )
    out["events.wire.bytes_per_event"] = _ratio(streamed_bytes, streamed_events)

    trace_io = _layer_stats(tracer, "events.trace_io")
    out["events.trace_io.ns_per_event"] = _ratio(
        sum(s.self_ns for s in trace_io), sum(s.calls for s in trace_io)
    )

    detector = _layer_stats(tracer, "core.detector")
    out["core.detector.ns_per_element"] = _ratio(
        sum(s.self_ns for s in detector), _item(detector, "elements")
    )

    shadow = _layer_stats(tracer, "core.shadow")
    out["core.shadow.elements"] = _item(shadow, "elements") / passes

    registries: dict[int, object] = {}
    registry_layer = _BY_NAME["core.registry"]
    for entry in registry_layer.entries:
        registries.update(tracer.instances.get(entry_name(registry_layer, entry), {}))
    hits = misses = 0
    for registry in registries.values():
        h, m = registry.lookup_stats
        hits, misses = hits + h, misses + m
    out["core.registry.hit_ratio"] = _ratio(hits, hits + misses)

    serve = {s.name.partition(":")[2]: s for s in _layer_stats(tracer, "serve")}
    for stage, qualname in SERVE_STAGES.items():
        out[f"serve.{stage}.self_s"] = serve[qualname].self_ns / 1e9 / passes
    out["serve.redeliveries"] = redeliveries
    out["serve.frames_shed"] = frames_shed

    observe_self = sum(s.self_ns for s in _layer_stats(tracer, "observe"))
    serve_wall = pass_wall_ns if serve["AnalysisServer.handle_frame"].calls else 0
    out["observe.tax"] = _ratio(observe_self, serve_wall)

    lint = _layer_stats(tracer, "staticlint")
    out["staticlint.fixpoint_iterations"] = _item(lint, "fixpoint_iterations") / passes

    out["root.self_s"] = (pass_wall_ns - tracer.top_ns) / 1e9 / passes
    return out


def per_event_costs(tracer: Tracer) -> tuple[float, float]:
    """``(bus ns/event, detector ns/event)``: self time per event handed in."""
    bus = _layer_stats(tracer, "events.bus")
    detector = _layer_stats(tracer, "core.detector")
    published = sum(s.calls for s in bus if "publish_" in s.name)
    return (
        _ratio(sum(s.self_ns for s in bus), published),
        _ratio(sum(s.self_ns for s in detector), _item(detector, "events")),
    )


def unit_of(metric: str) -> str:
    """The unit of a per-layer metric, from its name."""
    last = metric.rsplit(".", 1)[-1]
    if last == "self_s":
        return "s"
    if last.startswith("ns_per_"):
        return "ns/" + last[len("ns_per_"):]
    if last.endswith("_ns_per_event"):
        return "ns/event"
    if last == "bytes_per_event":
        return "bytes/event"
    if last in ("batch_fill", "hit_ratio", "tax", "overhead"):
        return "ratio"
    return "count"


def predictions() -> list[dict]:
    """The layer -> metric -> workload predictions, as plain records."""
    return [
        {
            "layer": layer.name,
            "entry_points": [e.short for e in layer.entries],
            "should_move": list(layer.moves),
            "most_work_in": list(layer.most),
            "little_work_in": list(layer.little),
        }
        for layer in LAYERS
    ]
