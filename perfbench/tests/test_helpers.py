"""Tests for the benchmark's own helpers.

Run from the repository root::

    python3 -m pytest -q perfbench/tests
"""

import json
import os

import pytest

from perfbench import layers, stats, workloads
from perfbench.spans import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


class FakeClock:
    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now

    def advance(self, ns: int) -> None:
        self.now += ns


class Block:
    def __init__(self, clock: FakeClock) -> None:
        self.clock = clock

    def apply(self, n: int) -> None:
        self.clock.advance(n)


class Detector:
    def __init__(self, clock: FakeClock, block: Block) -> None:
        self.clock = clock
        self.block = block

    def on_batch(self, sizes) -> None:
        self.clock.advance(5)
        for n in sizes:
            self.block.apply(n)
        self.clock.advance(7)


class TestSelfTime:
    def test_nested_spans_subtract_child_time(self):
        clock = FakeClock()
        tracer = Tracer("unit", clock=clock)
        with tracer:
            tracer.wrap(Detector, "on_batch", "core.detector:on_batch")
            tracer.wrap(Block, "apply", "core.shadow:apply")
            Detector(clock, Block(clock)).on_batch([100, 30])
        detector = tracer.stats["core.detector:on_batch"]
        shadow = tracer.stats["core.shadow:apply"]
        assert (detector.calls, detector.self_ns) == (1, 12)
        assert (shadow.calls, shadow.self_ns) == (2, 130)
        assert tracer.top_ns == 142
        spans = tracer.span_json()
        assert [s["name"] for s in spans] == [
            "core.detector:on_batch", "core.shadow:apply", "core.shadow:apply",
        ]
        assert [s["parent"] for s in spans] == [None, 0, 0]
        assert spans[1]["end"] - spans[1]["start"] == 100
        assert all(s["workload"] == "unit" for s in spans)

    def test_probe_time_falls_in_the_callers_self_time(self):
        clock = FakeClock()
        tracer = Tracer("unit", clock=clock)

        def probe(entry, args, kwargs):
            entry.add("elements", args[1])
            clock.advance(1000)

        with tracer:
            tracer.wrap(Detector, "on_batch", "outer")
            tracer.wrap(Block, "apply", "inner", probe=probe)
            Detector(clock, Block(clock)).on_batch([3, 4])
        assert tracer.stats["inner"].items == {"elements": 7}
        assert tracer.stats["inner"].self_ns == 7
        assert tracer.stats["outer"].self_ns == 12 + 2000

    def test_restore_puts_originals_back(self):
        original = Block.apply
        tracer = Tracer("unit")
        tracer.wrap(Block, "apply", "inner")
        assert Block.apply is not original
        tracer.restore()
        assert Block.apply is original

    def test_detector_on_batch_around_shadow_apply(self):
        """Real code: ShadowBlock calls inside Arbalest.on_batch are children."""
        from repro.core.detector import Arbalest
        from repro.openmp.runtime import TargetRuntime
        from repro.specaccel.workloads import workload

        tracer = Tracer("pomriq")
        wanted = [l for l in layers.LAYERS if l.name in ("core.detector", "core.shadow")]
        with tracer:
            layers.install(tracer, wanted)
            rt = TargetRuntime(n_devices=1, engine="columnar")
            Arbalest().attach(rt.machine)
            workload("pomriq").run(rt, "large")
            rt.finalize()
        spans = tracer.records
        assert tracer.dropped == 0
        names = [s[0] for s in spans]
        batch = [i for i, n in enumerate(names) if n == "core.detector:Arbalest.on_batch"]
        assert batch, "the large preset must reach the columnar batch path"
        nested = [s for s in spans if s[3] in batch]
        assert nested and all(s[0].startswith("core.shadow:") for s in nested)
        # Self time from the stored spans equals the online totals.
        child_ns = [0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for entry, totals in tracer.stats.items():
            expected = sum(
                (end - start) - child_ns[i]
                for i, (name, start, end, _) in enumerate(spans)
                if name == entry
            )
            assert totals.self_ns == expected, entry


class TickingClock:
    """Advances by ``step`` ns on every read, so each span lasts ``step``."""

    def __init__(self, step: int) -> None:
        self.now = 0
        self.step = step

    def __call__(self) -> int:
        self.now += self.step
        return self.now - self.step


class TestWireMetrics:
    def test_wire_figures_are_per_client_frame_and_per_pass(self):
        from repro.events import wire

        tracer = Tracer("wire", clock=TickingClock(10))
        frames = [
            wire.Frame(wire.FrameKind.EVENT, client_id=1, seq=n, payload=b"x" * n)
            for n in (5, 6, 7)
        ]
        with tracer:
            layers.install(tracer)
            sent = [
                len(wire.encode_frame(frame)) for _ in range(2) for frame in frames
            ]
        assert tracer.stats["events.wire:encode_frame"].calls == 6
        metrics = layers.layer_metrics(
            tracer,
            passes=2,
            pass_wall_ns=1000,
            streamed_events=3,
            streamed_frames=3,
            streamed_bytes=sum(sent) // 2,
        )
        assert metrics["events.wire.ns_per_frame"] == 10
        assert metrics["events.wire.bytes_per_event"] == sum(sent[:3]) / 3

    def test_transport_counts_client_bytes_only(self):
        class Echo:
            def send(self, data: bytes) -> bytes:
                return b"ack" * 100

        owner = workloads.make("serve-stream", 1)
        transport = workloads._TimedTransport(Echo(), owner)
        transport.send(b"abcd")
        owner.measuring = True
        transport.send(b"efghij")
        assert transport.sent_bytes == 10
        assert len(owner.frames_us) == 1


class TestEngineSplit:
    def test_null_replay_reaches_the_tool_like_arbalest(self):
        from repro.core.detector import Arbalest
        from repro.dracc.registry import all_benchmarks
        from repro.events.bus import ToolBus
        from repro.harness.serve import record_trace

        from perfbench.run import replay_ns

        events = record_trace(all_benchmarks()[0])
        for engine in layers.SPLIT_ENGINES:
            assert replay_ns([events], engine, workloads.null_tool) > 0
        # The bus calls the null tool for exactly the kinds it calls ARBALEST for.
        kinds = ("_access", "_data_op", "_memcpy", "_kernel", "_allocation", "_sync",
                 "_flush")
        subscribed = []
        for tool in (Arbalest(), workloads.null_tool()):
            bus = ToolBus()
            bus.attach(tool)
            subscribed.append([bool(getattr(bus, kind)) for kind in kinds])
        assert subscribed[0] == subscribed[1]


class TestTailRule:
    @pytest.mark.parametrize(
        "n, expected",
        [
            (100_000, (99.99, True)),
            (10_000, (99.9, True)),
            (1000, (99.0, True)),
            (999, (95.0, True)),
            (200, (95.0, True)),
            (199, (90.0, True)),
            (20, (50.0, True)),
            (19, (50.0, False)),
            (2, (50.0, False)),
        ],
    )
    def test_highest_percentile_with_ten_samples_above(self, n, expected):
        assert stats.tail_percentile(n) == expected
        p, met = expected
        if met:
            assert stats.samples_above(p, n) >= 10

    def test_tail_value_and_sample_count(self):
        summary = stats.tail(list(range(1, 1001)))
        assert summary == {
            "value": 990, "percentile": 99.0, "samples": 1000, "rule_met": True,
        }
        assert sum(v > summary["value"] for v in range(1, 1001)) == 10

    def test_too_few_samples_report_the_median(self):
        assert stats.tail([3.0, 1.0, 2.0, 10.0])["value"] == 2.5


@pytest.fixture(scope="module")
def spec_bulk():
    workload = workloads.make("spec-bulk", 1)
    workload.setup()
    return workload


class TestCorrectness:
    def test_clean_round_has_no_failures(self, spec_bulk):
        before = spec_bulk.tally.failed
        spec_bulk.round()
        assert spec_bulk.tally.failed == before

    def test_corrupted_checksum_counts_as_failed(self):
        workload = workloads.make("spec-bulk", 1)
        workload.setup()
        workload.reference["pep"] = "corrupted"
        workload.round()
        assert (workload.tally.attempted, workload.tally.failed) == (1, 1)
        assert workload.tally.fail_rate == 1.0
        assert "pep/" in workload.tally.reasons[0]
        assert len(workload.arbalest_passes) == 1  # still timed, so still reported

    def test_raised_error_is_a_failure_not_a_crash(self):
        tally_owner = workloads.make("dracc-audit", 1)
        assert not tally_owner.check(lambda: 1 / 0)
        assert tally_owner.tally.failed == 1


class TestSeedIndependence:
    @pytest.mark.parametrize("name", ["spec-bulk", "serve-stream", "dracc-audit"])
    def test_outputs_do_not_depend_on_the_seed(self, name):
        runs = []
        for seed in (1, 2):
            workload = workloads.make(name, seed)
            workload.setup()
            workload.round()
            assert workload.tally.failed == 0
            runs.append(workload)
        assert runs[0].outputs() == runs[1].outputs()
        assert runs[0].rng.random() != runs[1].rng.random()


class TestDeclaredMetrics:
    def declared(self, section):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as source:
            return {m["name"]: m["unit"] for m in json.load(source)[section]}

    def test_end_to_end_metrics_match_the_declaration(self, spec_bulk):
        from perfbench.run import end_to_end

        spec_bulk.round()
        metrics, _ = end_to_end(spec_bulk, 1.0, 1)
        units = {n: m["unit"] for n, m in metrics.items()}
        declared = self.declared("end_to_end")
        assert {n: units[n] for n in declared} == declared
        assert all(m["value"] > 0 for m in metrics.values())

    def test_per_layer_metrics_match_the_declaration(self):
        tracer = Tracer("names")
        with tracer:
            layers.install(tracer)
        names = set(layers.layer_metrics(tracer, passes=1, pass_wall_ns=1))
        names.add("trace.overhead")
        names.update(
            f"engine.{e}.{t}.{k}"
            for e in layers.SPLIT_ENGINES
            for t in layers.SPLIT_TRACES
            for k in ("bus_ns_per_event", "detector_ns_per_event")
        )
        assert {n: layers.unit_of(n) for n in names} == self.declared("per_layer")
