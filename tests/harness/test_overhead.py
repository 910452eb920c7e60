"""Overhead harness (Fig 8/9): measurement plumbing and expected shapes."""

import json

import pytest

from repro.harness import (
    CONFIGS,
    bench_payload,
    measure_one,
    run_bench,
    run_overhead_comparison,
)
from repro.specaccel import WORKLOADS, workload


@pytest.fixture(scope="module")
def overhead():
    # Small preset, one repetition: structural checks, not timing claims.
    return run_overhead_comparison(preset="test", repetitions=1)


class TestMeasurement:
    def test_native_has_no_shadow(self, overhead):
        for w in WORKLOADS:
            m = overhead.get(w.name, "native")
            assert m.shadow_bytes == 0
            assert m.app_bytes > 0
            assert m.seconds > 0

    def test_tools_allocate_shadow(self, overhead):
        for w in WORKLOADS:
            for tool in ("arbalest", "archer", "valgrind", "msan"):
                assert overhead.get(w.name, tool).shadow_bytes > 0, (w.name, tool)

    def test_all_cells_present(self, overhead):
        for w in WORKLOADS:
            for c in CONFIGS:
                overhead.get(w.name, c)  # KeyError would fail the test

    def test_checksums_identical_across_tools(self, overhead):
        # Attaching a tool must never change program results.
        assert overhead.checksums_consistent()

    def test_get_names_missing_cell_and_lists_available(self, overhead):
        with pytest.raises(KeyError) as exc_info:
            overhead.get("nonesuch", "arbalest")
        message = str(exc_info.value)
        assert "nonesuch" in message
        assert "arbalest" in message
        assert "pcg" in message  # the available workloads are listed
        assert "native" in message  # ... and the available configs


class TestSpaceShape:
    """Fig 9's qualitative shape (robust, unlike wall-clock timing)."""

    def test_arbalest_shadow_close_to_archer(self, overhead):
        # Same 8-byte-granule engine family; ARBALEST adds its VSM words.
        for w in WORKLOADS:
            arb = overhead.get(w.name, "arbalest").shadow_bytes
            arc = overhead.get(w.name, "archer").shadow_bytes
            assert arc <= arb <= 3 * arc, (w.name, arb, arc)

    def test_asan_is_lightest_tool(self, overhead):
        # 1 shadow byte per 8 application bytes: far below the others.
        for w in WORKLOADS:
            asan = overhead.get(w.name, "asan").shadow_bytes
            for other in ("arbalest", "archer", "msan", "valgrind"):
                assert asan < overhead.get(w.name, other).shadow_bytes

    def test_shadow_scales_with_app_bytes(self, overhead):
        for w in WORKLOADS:
            m = overhead.get(w.name, "msan")
            # MSan shadows every application byte at least once.
            assert m.shadow_bytes >= m.app_bytes * 0.5


class TestRendering:
    def test_time_table_renders(self, overhead):
        text = overhead.render_time_table()
        assert "Fig 8" in text
        for w in WORKLOADS:
            assert w.name in text

    def test_space_table_renders(self, overhead):
        text = overhead.render_space_table()
        assert "Fig 9" in text

    def test_chart_renders(self, overhead):
        chart = overhead.render_chart("pcg")
        assert "native" in chart and "#" in chart


class TestMeasureOne:
    def test_repetitions_take_fastest(self):
        m1 = measure_one(workload("pomriq"), "native", "test", repetitions=1)
        m3 = measure_one(workload("pomriq"), "native", "test", repetitions=3)
        assert m3.seconds > 0
        assert m1.checksum == m3.checksum


class TestBenchPayload:
    def test_payload_structure(self, overhead):
        payload = bench_payload(overhead, repetitions=1)
        assert payload["preset"] == "test"
        assert payload["configs"] == list(CONFIGS)
        assert payload["checksums_consistent"] is True
        assert set(payload["workloads"]) == {w.name for w in WORKLOADS}
        for row in payload["workloads"].values():
            for c in CONFIGS:
                cell = row[c]
                assert cell["seconds"] > 0
                assert cell["slowdown"] > 0
                assert cell["app_bytes"] > 0
        assert payload["summary"]["arbalest_slowdown_geomean"] > 0
        assert payload["summary"]["arbalest_slowdown_max"] >= (
            payload["summary"]["arbalest_slowdown_geomean"]
        )

    def test_payload_is_json_serializable(self, overhead):
        payload = bench_payload(overhead, repetitions=1)
        round_tripped = json.loads(json.dumps(payload))
        assert round_tripped == payload

    def test_native_slowdown_is_one(self, overhead):
        payload = bench_payload(overhead, repetitions=1)
        for row in payload["workloads"].values():
            assert row["native"]["slowdown"] == 1.0


class TestRunBench:
    def test_writes_tracked_json(self, tmp_path):
        out = tmp_path / "BENCH_fig8.json"
        result, payload = run_bench(preset="test", repetitions=1, output=str(out))
        assert result.preset == "test"
        assert out.exists()
        on_disk = json.loads(out.read_text())
        assert on_disk == payload
        assert on_disk["preset"] == "test"
        assert on_disk["engine"] == on_disk["meta"]["engine"] == "columnar"

    def test_failed_write_keeps_previous_artifact(self, tmp_path, monkeypatch):
        import repro.harness.overhead as overhead_mod

        out = tmp_path / "BENCH_fig8.json"
        out.write_text('{"previous": true}\n')
        monkeypatch.setattr(
            overhead_mod,
            "run_overhead_comparison",
            lambda preset, repetitions: overhead_mod.OverheadResult(preset=preset),
        )
        # A value json cannot encode makes the dump fail part-way through.
        monkeypatch.setattr(
            overhead_mod,
            "bench_payload",
            lambda result, repetitions: {"summary": {}, "workloads": object()},
        )
        with pytest.raises(TypeError):
            run_bench(preset="test", repetitions=1, output=str(out))
        assert out.read_text() == '{"previous": true}\n'
        assert [p.name for p in tmp_path.iterdir()] == ["BENCH_fig8.json"]
