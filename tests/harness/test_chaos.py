"""The chaos campaign: recovery guarantees and seeded reproducibility."""

import json

import pytest

from repro.dracc import SUITES, get
from repro.harness.chaos import run_chaos, run_chaos_campaign

# A small cross-section: one benchmark per effect class plus a clean one,
# enough schedules to trigger every fault kind without running all 56.
SUBSET = [get(n) for n in (1, 22, 23, 26)]


@pytest.fixture(scope="module")
def payload():
    return run_chaos_campaign(seed=0, schedules=3, benchmarks=SUBSET)


class TestRecoveryGuarantees:
    def test_zero_crashes(self, payload):
        assert payload["crashes"] == []

    def test_invariants_hold_everywhere(self, payload):
        assert payload["invariant_violations"] == []

    def test_transparent_runs_match_baseline(self, payload):
        assert payload["transparent_divergences"] == []
        assert payload["unfaulted_detection_unchanged"]

    def test_divergence_is_bounded(self, payload):
        assert payload["bounded_precision_loss"]

    def test_ok(self, payload):
        assert payload["ok"]


class TestScheduleLog:
    def test_every_injected_fault_is_logged(self, payload):
        assert payload["injected_total"] == len(payload["schedule_log"])
        assert payload["injected_total"] > 0
        by_kind = {}
        for entry in payload["schedule_log"]:
            by_kind[entry["kind"]] = by_kind.get(entry["kind"], 0) + 1
        assert by_kind == payload["injected_faults"]

    def test_log_entries_name_their_run(self, payload):
        numbers = {b.number for b in SUBSET}
        for entry in payload["schedule_log"]:
            assert entry["benchmark"] in numbers
            assert 0 <= entry["schedule"] < payload["schedules"]


class TestReproducibility:
    def test_same_seed_identical_payload(self, payload):
        again = run_chaos_campaign(seed=0, schedules=3, benchmarks=SUBSET)
        assert json.dumps(payload, sort_keys=True) == json.dumps(
            again, sort_keys=True
        )

    def test_different_seed_different_schedule(self, payload):
        other = run_chaos_campaign(seed=1, schedules=3, benchmarks=SUBSET)
        assert other["schedule_log"] != payload["schedule_log"]


class TestOutput:
    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError, match="buggy, clean, all"):
            run_chaos_campaign(suite="bogus")
        assert SUITES == ("buggy", "clean", "all")

    def test_run_chaos_writes_report(self, tmp_path):
        out = tmp_path / "chaos.json"
        payload = run_chaos(
            seed=0, schedules=1, suite="buggy", output=str(out)
        )
        on_disk = json.loads(out.read_text())
        assert on_disk == json.loads(json.dumps(payload))
        assert on_disk["ok"]
