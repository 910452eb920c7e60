"""Cross-run diffing: classification, artifact sniffing, timed refusals."""

import json

import pytest

from repro.forensics.diff import (
    diff_artifacts,
    diff_reports,
    load_artifact,
    render_diff,
)
from repro.forensics.report import SCHEMA, to_jsonl, write_report


def _finding(fp: str, *, bench: int = 22, count: int = 1) -> dict:
    return {
        "record": "finding",
        "benchmark": bench,
        "bench_name": f"DRACC_OMP_{bench:03d}",
        "tool": "arbalest",
        "kind": "use-of-uninitialized-memory",
        "variable": "b",
        "fingerprint": fp,
        "location": "DRACC_OMP_022.c:16",
        "message": "m",
        "count": count,
        "dropped": 0,
        "explanation": "",
        "events": [],
    }


def _report(*findings: dict) -> dict:
    return {
        "header": {
            "record": "header",
            "schema": SCHEMA,
            "suite": "buggy",
            "tools": ["arbalest"],
            "capacity": 64,
        },
        "findings": list(findings),
        "summary": {"record": "summary"},
    }


def _bench(geomean: float) -> dict:
    return {
        "workloads": {
            "pcg": {"arbalest": {"slowdown": geomean, "seconds": 1.0}}
        },
        "summary": {
            "arbalest_slowdown_geomean": geomean,
            "arbalest_slowdown_max": geomean,
            "preset": "train",  # non-numeric values are skipped
        },
    }


class TestReportDiff:
    def test_identical_reports_are_clean(self):
        r = _report(_finding("aaa"))
        d = diff_reports(r, r)
        assert (d["new"], d["fixed"], d["changed"]) == ([], [], [])
        assert not d["regression"]

    def test_new_finding_is_a_regression(self):
        d = diff_reports(_report(), _report(_finding("aaa")))
        assert [f["fingerprint"] for f in d["new"]] == ["aaa"]
        assert d["regression"]

    def test_fixed_finding_is_not_a_regression(self):
        d = diff_reports(_report(_finding("aaa")), _report())
        assert [f["fingerprint"] for f in d["fixed"]] == ["aaa"]
        assert not d["regression"]

    def test_count_drift_is_changed_not_regression(self):
        d = diff_reports(
            _report(_finding("aaa", count=1)),
            _report(_finding("aaa", count=7)),
        )
        assert d["changed"][0]["new"]["count"] == 7
        assert not d["regression"]

    def test_same_fingerprint_on_other_benchmark_is_new(self):
        d = diff_reports(
            _report(_finding("aaa", bench=22)),
            _report(_finding("aaa", bench=22), _finding("aaa", bench=24)),
        )
        assert [f["benchmark"] for f in d["new"]] == [24]


def _write_pair(tmp_path, old: dict, new: dict) -> tuple[str, str]:
    old_path, new_path = tmp_path / "old.json", tmp_path / "new.json"
    old_path.write_text(json.dumps(old))
    new_path.write_text(json.dumps(new))
    return str(old_path), str(new_path)


class TestBenchDiff:
    def test_bench_pair_is_refused_naming_the_sentinel(self, tmp_path):
        old, new = _write_pair(tmp_path, _bench(2.0), _bench(2.2))
        with pytest.raises(ValueError, match="repro sentinel") as exc_info:
            diff_artifacts(old, new)
        assert "\n" not in str(exc_info.value)


class TestArtifacts:
    def test_sniffs_report_and_bench(self, tmp_path):
        report_path = str(tmp_path / "r.jsonl")
        write_report(_report(_finding("aaa")), report_path)
        bench_path = str(tmp_path / "b.json")
        with open(bench_path, "w") as fh:
            json.dump(_bench(2.0), fh, indent=2)
        assert load_artifact(report_path)[0] == "report"
        assert load_artifact(bench_path)[0] == "bench"

    def test_type_mismatch_raises(self, tmp_path):
        report_path = str(tmp_path / "r.jsonl")
        write_report(_report(), report_path)
        bench_path = str(tmp_path / "b.json")
        with open(bench_path, "w") as fh:
            json.dump(_bench(2.0), fh)
        with pytest.raises(ValueError, match="cannot diff"):
            diff_artifacts(report_path, bench_path)

    def test_unrecognized_json_raises(self, tmp_path):
        path = str(tmp_path / "x.json")
        with open(path, "w") as fh:
            json.dump({"neither": True}, fh)
        with pytest.raises(ValueError, match="neither a bench artifact"):
            load_artifact(path)


class TestRendering:
    def test_render_marks_each_class(self):
        text = render_diff(
            diff_reports(
                _report(_finding("old"), _finding("both", count=1)),
                _report(_finding("fresh"), _finding("both", count=3)),
            )
        )
        assert "NEW" in text and "FIXED" in text and "CHANGED" in text
        assert text.rstrip().endswith("regression")

    def test_jsonl_of_synthetic_report_parses(self):
        # The fixtures here stay honest against the real format.
        from repro.forensics.report import parse_jsonl

        parsed = parse_jsonl(to_jsonl(_report(_finding("aaa"))))
        assert parsed["findings"][0]["fingerprint"] == "aaa"


def _serve_bench(events_per_sec: float) -> dict:
    return {
        "artifact": "serve-bench/1",
        "suite": "buggy",
        "engine": "columnar",
        "delivery_ok": True,
        "summary": {"events_per_sec": events_per_sec},
    }


class TestServeBenchDiff:
    def test_serve_bench_pair_is_refused_naming_the_sentinel(self, tmp_path):
        old, new = _write_pair(
            tmp_path, _serve_bench(10000.0), _serve_bench(9000.0)
        )
        assert load_artifact(old)[0] == "serve-bench"
        with pytest.raises(ValueError, match="repro sentinel"):
            diff_artifacts(old, new)

    def test_serve_bench_never_diffs_against_report(self, tmp_path):
        bench_path = tmp_path / "bench.json"
        report_path = tmp_path / "report.jsonl"
        bench_path.write_text(json.dumps(_serve_bench(10000.0)))
        write_report(_report(_finding("aaa")), str(report_path))
        with pytest.raises(ValueError, match="cannot diff"):
            diff_artifacts(str(bench_path), str(report_path))
