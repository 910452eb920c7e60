"""The bench-history ledger: classify, append, validate."""

import json

import pytest

from repro.observe.history import (
    HISTORY_SCHEMA,
    append_history,
    artifact_kind,
    env_fingerprint,
    history_entry,
    load_history,
    run_meta,
)


def _bench_payload(geomean=1.8, pcg=2.0):
    return {
        "engine": "columnar",
        "preset": "test",
        "repetitions": 1,
        "summary": {"arbalest_slowdown_geomean": geomean, "configs": "nope"},
        "workloads": {
            "pcg": {
                "arbalest": {"slowdown": pcg, "seconds": 0.1},
                "native": {"slowdown": 1.0},
            }
        },
        "meta": run_meta(engine="columnar", preset="test", reps=1),
    }


def _serve_payload():
    return {
        "artifact": "serve-bench/1",
        "suite": "buggy",
        "engine": "columnar",
        "events": 1000,
        "frames": 10,
        "stream_seconds": 0.5,
        "delivery_ok": True,
        "summary": {"events_per_sec": 2000.0, "p99_frame_latency_us": 120.0},
    }


class TestClassification:
    def test_kinds(self):
        assert artifact_kind(_bench_payload()) == "bench"
        assert artifact_kind(_serve_payload()) == "serve-bench"
        assert artifact_kind({"artifact": "synth-bench/1"}) == "synth-bench"
        with pytest.raises(ValueError):
            artifact_kind({"something": "else"})

    def test_entry_distils_numeric_metrics_only(self):
        entry = history_entry(_bench_payload())
        assert entry["schema"] == HISTORY_SCHEMA
        assert entry["kind"] == "bench"
        summary = entry["metrics"]["summary"]
        assert summary["arbalest_slowdown_geomean"] == 1.8
        assert "configs" not in summary  # non-numeric dropped
        assert entry["metrics"]["workloads"]["pcg"]["arbalest"] == 2.0

    def test_meta_defaults_to_payload_meta_then_engine(self):
        entry = history_entry(_bench_payload())
        assert entry["meta"]["engine"] == "columnar"
        assert entry["meta"]["preset"] == "test"
        bare = {"workloads": {}, "summary": {}, "engine": "scalar"}
        assert history_entry(bare)["meta"]["engine"] == "scalar"

    def test_env_fingerprint_names_the_toolchain(self):
        fp = env_fingerprint()
        assert set(fp) == {"python", "numpy", "platform", "machine"}


class TestLedger:
    def test_append_assigns_monotonic_ordinals(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        e1 = append_history(path, _bench_payload())
        e2 = append_history(path, _serve_payload())
        assert (e1["ordinal"], e2["ordinal"]) == (1, 2)
        entries = load_history(path)
        assert [e["kind"] for e in entries] == ["bench", "serve-bench"]

    def test_load_filters_by_kind_and_validates(self, tmp_path):
        path = str(tmp_path / "ledger.jsonl")
        append_history(path, _bench_payload())
        append_history(path, _serve_payload())
        assert len(load_history(path, kind="bench")) == 1
        with pytest.raises(ValueError):
            load_history(path, kind="nonsense")

    def test_load_rejects_corrupt_lines(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json\n")
        with pytest.raises(ValueError, match="not valid JSON"):
            load_history(str(path))
        path.write_text(json.dumps({"schema": "other/9"}) + "\n")
        with pytest.raises(ValueError, match="schema"):
            load_history(str(path))
