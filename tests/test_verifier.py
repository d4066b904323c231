import io
import json
import math

import pytest

from triwave.flux import derivative_bounds, make_flux
from triwave.history import PairHistory
from triwave.simulator import run
from triwave.verifier import (
    CheckResult,
    _kernel_integral,
    check_interaction_decrease,
    check_log2_kernel,
    check_main_theorem,
    check_qtrans,
    check_small_n_lemmas,
    check_transversal_speed,
    check_wavefront_decrease,
    run_verifier,
    summarize,
    write_report,
)
from triwave.wavefield import EventKind, StepFunction

EPS = 0.05


def make_traj(spec, bounds, w_jumps, v_jumps):
    history = PairHistory(spec=spec, eps=EPS, bounds=bounds)
    traj = run(
        StepFunction.from_jumps(w_jumps),
        StepFunction.from_jumps(v_jumps),
        spec,
        EPS,
        bounds=bounds,
        history=history,
        validate_each_event=True,
    )
    return traj, history


class TestCheckResultSemantics:
    def test_pass_rule_is_relative(self):
        r = check_log2_kernel()[0]
        assert r.passed == (r.slack >= -1e-9 * max(1.0, abs(r.rhs)))


class TestLog2Kernel:
    def test_degenerate_split_vanishes(self):
        # xi -> a: the integration domain shrinks to a sliver
        assert _kernel_integral(0.0, 1e-6, 1.0) < 2e-5

    def test_random_cases_all_pass(self):
        assert all(r.passed for r in check_log2_kernel())

    def test_closed_form_matches_quadrature(self):
        from scipy import integrate

        results = check_log2_kernel()
        assert len(results) == 50
        for r in results:
            a, xi, b = r.context["a"], r.context["xi"], r.context["b"]
            inner = lambda w: math.log(b - w) - math.log(xi - w)
            value, _ = integrate.quad(inner, a, xi, points=[xi - 1e-12], limit=200)
            assert r.lhs == pytest.approx(value, rel=1e-7)
            assert r.rhs == math.log(2) * (b - a) + 1e-6

    @pytest.mark.parametrize("a,b", [(-1.0, 3.0), (-2.0, -1.8), (0.3, 1.0), (-0.7, 2.2)])
    def test_closed_form_midpoint_is_the_equality_case(self, a, b):
        value = _kernel_integral(a, 0.5 * (a + b), b)
        assert value == pytest.approx(math.log(2) * (b - a), rel=1e-12)


class TestZeroCouplingFlux:
    def test_crossings_change_nothing(self):
        spec = make_flux("custom_poly", {"coeffs": [[2, 0, 0.5]]})
        bounds = derivative_bounds(spec)
        assert bounds.norm_d2_wv == 0.0 and bounds.norm_d3_wwv == 0.0
        traj, history = make_traj(
            spec, bounds, [(0.0, 2), (9.5, 0)], [(5.0, 2), (9.0, 0)]
        )
        crossings = [ev for ev in traj.events if ev.kind == EventKind.TRANSVERSAL]
        assert crossings
        for ev in crossings:
            r = check_transversal_speed(traj, ev)
            assert r.lhs == 0.0 and r.rhs == 0.0 and r.passed
        results = run_verifier(traj, level="full", history=history)
        assert all(r.passed for r in results)


class TestInteractionChecks:
    def test_two_never_met_shocks(self, spec, bounds):
        traj, history = make_traj(spec, bounds, [(0.0, 4), (1.0, 2), (2.0, 0)], [])
        ev = next(e for e in traj.events if e.kind.is_interaction)
        results = check_interaction_decrease(traj, ev)
        assert all(r.passed for r in results)
        dec = results[0]
        # all four pairs were never-met: the drop is exactly the default weight
        assert dec.rhs == pytest.approx(2 * bounds.norm_d2_ww * 4 * EPS**2)
        assert dec.lhs <= dec.rhs
        wf = check_wavefront_decrease(traj, ev)
        assert wf.passed
        assert wf.context["n_never"] == 4
        assert wf.context["sum_pi"] == 0.0

    def test_qtrans_single_drop(self, spec, bounds):
        traj, _ = make_traj(spec, bounds, [(0.0, 1), (1.0, 0)], [(3.0, 2), (8.0, 0)])
        results = check_qtrans(traj)
        assert all(r.passed for r in results)
        drops = [r for r in results if r.name == "q_trans_drop"]
        assert len(drops) == 4
        for r, ev in zip(drops, traj.events):
            assert r.context["expected"] == pytest.approx(
                ev.v_strength * ev.n_participants() * EPS
            )


class TestGlobalChecks:
    def test_no_events_trivially_pass(self, spec, bounds):
        traj, history = make_traj(spec, bounds, [(0.0, 1), (1.0, 0)], [])
        r = check_main_theorem(traj)
        assert r.lhs == 0.0 and r.passed
        assert all(c.passed for c in run_verifier(traj, "full", history))

    def test_scalar_only_reduced_bound(self, spec, bounds):
        traj, _ = make_traj(spec, bounds, [(0.0, 3), (1.0, 2), (5.0, 0)], [])
        r = check_main_theorem(traj)
        assert r.rhs == pytest.approx(3 * bounds.norm_d2_ww * traj.tv_w0**2)
        assert r.passed


class TestSmallNLemmas:
    def test_lemma_suite_on_transversal_scenario(self, spec, bounds):
        traj, history = make_traj(
            spec, bounds, [(0.0, 2), (9.5, 0)], [(5.0, 2), (7.0, 4), (9.0, 0)]
        )
        results = check_small_n_lemmas(traj, history)
        assert results and all(r.passed for r in results)
        names = {r.name for r in results}
        assert "class_gap_lemma" in names
        assert "replay_q_quadratic" in names
        # the gap lemma was exercised with a genuinely positive budget
        gaps = [r for r in results if r.name == "class_gap_lemma"]
        assert any(r.rhs > 1e-6 for r in gaps)

    def test_size_guard(self, spec, bounds):
        traj, history = make_traj(spec, bounds, [(0.0, 13), (9.5, 0)], [])
        with pytest.raises(ValueError):
            check_small_n_lemmas(traj, history)


class TestReport:
    def test_write_report_and_summary(self, spec, bounds):
        traj, history = make_traj(spec, bounds, [(0.0, 2), (9.5, 0)], [(5.0, 2), (9.0, 0)])
        results = run_verifier(traj, "full", history)
        out = io.StringIO()
        assert write_report(results, summarize(results), out) is True
        # one line of JSON that parses back to every check, floats exact
        assert out.getvalue().count("\n") == 1
        data = json.loads(out.getvalue())
        assert data == {
            "passed": True,
            "summary": summarize(results),
            "checks": [r.as_dict() for r in results],
        }
        assert set(data["summary"]) == {r.name for r in results}
        for agg in data["summary"].values():
            assert agg["min_slack"] >= -1e-9

    def test_failed_check_reported(self):
        bad = CheckResult(name="x", scope="global", lhs=2.0, rhs=1.0,
                          slack=-1.0, passed=False, context={})
        out = io.StringIO()
        assert write_report([bad], summarize([bad]), out) is False
        data = json.loads(out.getvalue())
        assert data["passed"] is False
        assert data["summary"]["x"]["passed"] is False


def test_summarize_min_slack():
    rs = [
        CheckResult("a", "e1", 0.0, 1.0, 1.0, True, {}),
        CheckResult("a", "e2", 0.5, 1.0, 0.5, True, {}),
        CheckResult("b", "e1", 0.0, 0.0, 0.0, True, {}),
    ]
    summary = summarize(rs)
    assert summary["a"]["min_slack"] == 0.5
    assert summary["a"]["worst"] == "e2"
    assert summary["a"]["count"] == 2
    assert summary["b"]["passed"] is True
    assert summary["b"]["worst"] == "e1"


def test_summarize_worst_is_the_first_minimum():
    rs = [
        CheckResult("a", "event:3", 0.0, 1.0, 0.25, True, {}),
        CheckResult("a", "event:7", 0.0, 1.0, 0.25, True, {}),
        CheckResult("a", "global", 0.0, 1.0, 0.75, True, {}),
        CheckResult("c", "global", 0.0, math.inf, math.inf, True, {}),
    ]
    summary = summarize(rs)
    assert summary["a"]["worst"] == "event:3"
    assert summary["c"]["min_slack"] is None
    assert summary["c"]["worst"] is None

