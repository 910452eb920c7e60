"""Online repair (§III.C): values rescued, detection unchanged, diagnostics."""

from repro.core import Arbalest
from repro.core.repair import RepairingArbalest
from repro.dracc import buggy_benchmarks, clean_benchmarks, get
from repro.openmp import TargetRuntime, alloc, to, tofrom


def run_with(tool_cls, program):
    rt = TargetRuntime(n_devices=2)
    tool = tool_cls().attach(rt.machine)
    out = program(rt)
    rt.finalize()
    return tool, out


class TestStaleRepair:
    def usd_program(self, rt):
        a = rt.array("a", 8)
        a.fill(1.0)
        rt.target(lambda ctx: ctx["a"].fill(2.0), maps=[to(a)])
        return a[0]

    def test_value_rescued(self):
        tool, value = run_with(RepairingArbalest, self.usd_program)
        assert value == 2.0  # the kernel's result, not the stale 1.0
        assert tool.transfers_performed()

    def test_unrepaired_run_observes_stale(self):
        tool, value = run_with(Arbalest, self.usd_program)
        assert value == 1.0

    def test_bug_still_reported(self):
        # Repair is mitigation, not absolution: the finding set matches the
        # plain detector's.
        repairer, _ = run_with(RepairingArbalest, self.usd_program)
        plain, _ = run_with(Arbalest, self.usd_program)
        assert {f.kind for f in repairer.mapping_issue_findings()} == {
            f.kind for f in plain.mapping_issue_findings()
        }

    def test_device_side_stale_repaired_in_region(self):
        def program(rt):
            b = rt.array("b", 4)
            b.fill(1.0)
            got = []
            with rt.target_data([tofrom(b)]):
                b.fill(9.0)  # missing target update to(b)
                rt.target(lambda ctx: got.append(ctx["b"][0]))
            return got[0]

        tool, seen = run_with(RepairingArbalest, program)
        assert seen == 9.0
        assert any("update to" in r.suggestion for r in tool.transfers_performed())

    def test_suggestion_names_the_directive(self):
        tool, _ = run_with(RepairingArbalest, self.usd_program)
        text = tool.render_repairs()
        assert "from" in text
        assert "repaired at runtime" in text


class TestUnrepairable:
    def test_uum_gets_diagnostic_not_transfer(self):
        def program(rt):
            b = rt.array("b", 8)
            b.fill(2.0)
            r = rt.array("r", 8)
            r.fill(0.0)

            def k(ctx):
                B, R = ctx["b"], ctx["r"]
                for i in range(8):
                    R[i] = B[i]

            rt.target(k, maps=[alloc(b), tofrom(r)])

        tool, _ = run_with(RepairingArbalest, program)
        assert tool.diagnostics()
        assert not tool.transfers_performed()
        assert "map(to:)" in tool.diagnostics()[0].suggestion

    def test_race_gets_depend_suggestion(self):
        def program(rt):
            a = rt.array("a", 1)
            a.fill(0.0)
            with rt.target_data([tofrom(a)]):
                rt.target(lambda ctx: ctx["a"].write(0, 3.0), nowait=True)
                a.write(0, a.read(0) + 1)

        tool, _ = run_with(RepairingArbalest, program)
        suggestions = [r.suggestion for r in tool.diagnostics()]
        assert any("depend" in s for s in suggestions)


class TestNoCollateralDamage:
    def test_clean_benchmarks_unaffected(self):
        # The repairer must not change results or report anything on the
        # clean DRACC set (pre-emptive rescues may occur, but silently).
        for b in clean_benchmarks()[:12]:
            rt = TargetRuntime(n_devices=2)
            tool = RepairingArbalest().attach(rt.machine)
            b.run(rt)
            assert not tool.mapping_issue_findings(), b.name

    def test_buggy_detection_parity_with_plain_detector(self):
        # Same detections as plain ARBALEST on every buggy DRACC benchmark.
        for b in buggy_benchmarks():
            rt1 = TargetRuntime(n_devices=2)
            plain = Arbalest().attach(rt1.machine)
            b.run(rt1)
            rt2 = TargetRuntime(n_devices=2)
            repairer = RepairingArbalest().attach(rt2.machine)
            b.run(rt2)
            assert bool(plain.mapping_issue_findings()) == bool(
                repairer.mapping_issue_findings()
            ), b.name

    def test_dracc_026_result_repaired(self):
        # The repaired run of the to-instead-of-tofrom benchmark computes
        # the intended sum (a+b = 1+2 = 3 per element).
        rt = TargetRuntime(n_devices=2)
        tool = RepairingArbalest().attach(rt.machine)
        get(26).run(rt)
        c = rt._arrays["c"]
        assert (c.peek() == 3.0).all()
        assert tool.transfers_performed()
