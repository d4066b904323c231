"""Runtime verification of every quantitative claim along a trajectory.

Each check compares one measured quantity (lhs) against one bound (rhs) and
records the slack; a check passes when slack >= -1e-9 * max(1, |rhs|).
Exact identities are phrased with lhs = |actual - expected| and rhs = 0.

Per-event checks:
  transversal_speed       speed-change sum <= ||d2f/dwdv|| |v_h| |W(t,x)|
  cancellation_bound      speed-change sum <= ||d2f/dw2|| TV(w0) C
  interaction_decrease    speed-change sum <= 2 [Q(t-) - Q(t)]  (Q = quadratic)
  transversal_increase    Q(t) - Q(t-) <= 6 log2 ||d3f|| |v_h| |W(t,x)| TV(w0)
  wavefront_decrease      chord-speed gap * |L||R| <= pi/never-pair budget
  q_trans_drop            Q_trans drops by exactly |v_h| |W(t,x)| at crossings
  q_trans_monotone        Q_trans never increases
  q_quadratic_cancel      Q never increases at cancellations (and interactions)

Global checks:
  main_theorem            total speed-change sum <= closed-form constant
  q_quadratic_initial     Q(0) <= ||d2f/dw2|| TV(w0)^2, and Q >= 0 throughout
  q_trans_initial         Q_trans(0) <= TV(v0) TV(w0)
  aggregate_transversal   summed transversal lhs <= ||d2f/dwdv|| TV(w0) TV(v0)
  aggregate_cancellation  summed cancellation lhs <= ||d2f/dw2|| TV(w0)^2
  log2_kernel             the double integral of 1/(w'-w) obeys the log 2 bound
  small-N lemma suite     per-pair partitions/pi tables (replayed) obey the
                          class-gap and restriction lemmas
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .history import PairHistory
from .replay import Replay
from .simulator import Trajectory
from .wavefield import BlockFluxes, Event, EventKind, position

__all__ = [
    "CheckResult",
    "CHECK_LEVELS",
    "REL_TOL",
    "check_transversal_speed",
    "check_cancellation",
    "check_interaction_decrease",
    "check_transversal_increase",
    "check_wavefront_decrease",
    "check_qtrans",
    "check_main_theorem",
    "check_log2_kernel",
    "check_small_n_lemmas",
    "run_verifier",
    "summarize",
    "write_report",
]

CHECK_LEVELS = ("fast", "full", "small_n")
REL_TOL = 1e-9
LOG2 = math.log(2.0)
LOG2_CASES = 50     # random (a, xi, b) draws of the log-2 kernel check
LEMMA_TOL = 1e-9    # absolute slack on pi in the class-gap lemma


@dataclass(frozen=True)
class CheckResult:
    name: str
    scope: str
    lhs: float
    rhs: float
    slack: float
    passed: bool
    context: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "scope": self.scope,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "slack": self.slack,
            "passed": self.passed,
            "context": self.context,
        }


def _check(name: str, scope: str, lhs: float, rhs: float, **context) -> CheckResult:
    slack = rhs - lhs
    return CheckResult(
        name=name,
        scope=scope,
        lhs=lhs,
        rhs=rhs,
        slack=slack,
        passed=slack >= -REL_TOL * max(1.0, abs(rhs)),
        context=context,
    )


def _equality(name: str, scope: str, actual: float, expected: float, **context) -> CheckResult:
    return _check(name, scope, abs(actual - expected), 0.0,
                  actual=actual, expected=expected, **context)


# ---------------------------------------------------------------------------
# per-event checks


def check_transversal_speed(traj: Trajectory, event: Event) -> CheckResult:
    if event.kind != EventKind.TRANSVERSAL:
        raise ValueError("not a transversal event")
    n = event.n_participants() * traj.eps
    rhs = traj.bounds.norm_d2_wv * event.v_strength * n
    return _check("transversal_speed", f"event:{event.index}",
                  event.sum_abs_dsigma, rhs, v_strength=event.v_strength)


def check_cancellation(traj: Trajectory, event: Event) -> CheckResult:
    if event.kind != EventKind.CANCELLATION:
        raise ValueError("not a cancellation event")
    rhs = traj.bounds.norm_d2_ww * traj.tv_w0 * event.cancellation
    return _check("cancellation_bound", f"event:{event.index}",
                  event.sum_abs_dsigma, rhs, cancellation=event.cancellation)


def check_interaction_decrease(traj: Trajectory, event: Event) -> list[CheckResult]:
    if not event.kind.is_interaction:
        raise ValueError("not an interaction event")
    before = traj.snapshots[event.index - 1].q_quadratic
    after = traj.snapshots[event.index].q_quadratic
    return [
        _check("interaction_decrease", f"event:{event.index}",
               event.sum_abs_dsigma, 2.0 * (before - after),
               q_before=before, q_after=after),
        _check("q_quadratic_monotone_interaction", f"event:{event.index}",
               after, before),
    ]


def check_transversal_increase(traj: Trajectory, event: Event) -> CheckResult:
    if event.kind != EventKind.TRANSVERSAL:
        raise ValueError("not a transversal event")
    before = traj.snapshots[event.index - 1].q_quadratic
    after = traj.snapshots[event.index].q_quadratic
    n = event.n_participants() * traj.eps
    rhs = 6.0 * LOG2 * traj.bounds.norm_d3_wwv * event.v_strength * n * traj.tv_w0
    return _check("transversal_increase", f"event:{event.index}",
                  after - before, rhs, q_before=before, q_after=after)


def check_wavefront_decrease(traj: Trajectory, event: Event) -> CheckResult:
    if not event.kind.is_interaction:
        raise ValueError("not an interaction event")
    detail = traj.interaction_details[event.index]
    return _check("wavefront_decrease", f"event:{event.index}",
                  detail["lhs"], detail["rhs"],
                  n_never=detail["n_never"], sum_pi=detail["sum_pi_met"])


def check_qtrans(traj: Trajectory) -> list[CheckResult]:
    out = [
        _check("q_trans_initial", "global",
               traj.snapshots[0].q_trans, traj.tv_v0 * traj.tv_w0)
    ]
    for event in traj.events:
        before = traj.snapshots[event.index - 1].q_trans
        after = traj.snapshots[event.index].q_trans
        out.append(_check("q_trans_monotone", f"event:{event.index}", after, before))
        if event.kind == EventKind.TRANSVERSAL:
            expected = event.v_strength * event.n_participants() * traj.eps
            out.append(_equality("q_trans_drop", f"event:{event.index}",
                                 before - after, expected))
        elif event.kind.is_interaction:
            out.append(_equality("q_trans_constant", f"event:{event.index}",
                                 after, before))
    return out


# ---------------------------------------------------------------------------
# global checks


def check_main_theorem(traj: Trajectory) -> CheckResult:
    lhs = sum(ev.sum_abs_dsigma for ev in traj.events)
    b = traj.bounds
    rhs = (3.0 * b.norm_d2_ww + 12.0 * LOG2 * b.norm_d3_wwv * traj.tv_v0) * traj.tv_w0**2
    rhs += b.norm_d2_wv * traj.tv_w0 * traj.tv_v0
    return _check("main_theorem", "global", lhs, rhs,
                  n_events=len(traj.events), tv_w0=traj.tv_w0, tv_v0=traj.tv_v0)


def check_q_quadratic_global(traj: Trajectory) -> list[CheckResult]:
    q0 = traj.snapshots[0].q_quadratic
    out = [
        _check("q_quadratic_initial", "global", q0,
               traj.bounds.norm_d2_ww * traj.tv_w0**2),
        _check("q_quadratic_nonnegative", "global",
               0.0, min(s.q_quadratic for s in traj.snapshots)),
    ]
    for event in traj.events:
        if event.kind == EventKind.CANCELLATION:
            before = traj.snapshots[event.index - 1].q_quadratic
            after = traj.snapshots[event.index].q_quadratic
            out.append(_check("q_quadratic_cancel_decrease",
                              f"event:{event.index}", after, before))
    return out


def check_aggregates(traj: Trajectory) -> list[CheckResult]:
    b = traj.bounds
    trans = sum(ev.sum_abs_dsigma for ev in traj.events
                if ev.kind == EventKind.TRANSVERSAL)
    canc = sum(ev.sum_abs_dsigma for ev in traj.events
               if ev.kind == EventKind.CANCELLATION)
    return [
        _check("aggregate_transversal", "global", trans,
               b.norm_d2_wv * traj.tv_w0 * traj.tv_v0),
        _check("aggregate_cancellation", "global", canc,
               b.norm_d2_ww * traj.tv_w0**2),
    ]


def _kernel_integral(a: float, xi: float, b: float) -> float:
    """The integral of 1/(w'-w) over w in [a, xi], w' in [xi, b].

    The inner integral over w' is log(b-w) - log(xi-w); integrating it over
    w with F(u) = u log u - u, an antiderivative of log u, gives the closed
    form F(b-a) - F(b-xi) - F(xi-a).
    """
    def F(u: float) -> float:
        return u * math.log(u) - u

    return F(b - a) - F(b - xi) - F(xi - a)


def check_log2_kernel() -> list[CheckResult]:
    """Verify the kernel bound behind the weight estimates: the integral of
    1/(w'-w) over [a, xi] x [xi, b] never exceeds log2 (b-a)."""
    rng = np.random.default_rng(0)
    out = []
    for k in range(LOG2_CASES):
        a = float(rng.uniform(-2.0, 1.0))
        b = float(a + rng.uniform(0.2, 3.0))
        xi = float(rng.uniform(a + 1e-3, b - 1e-3))
        out.append(_check("log2_kernel", f"case:{k}", _kernel_integral(a, xi, b),
                          LOG2 * (b - a) + 1e-6, a=a, xi=xi, b=b))
    return out


# ---------------------------------------------------------------------------
# lemma-level suite (small runs)


def check_small_n_lemmas(traj: Trajectory, history: PairHistory) -> list[CheckResult]:
    """Replay the run per pair and verify the partition/pi lemmas at every event.

    Checks, for every time and every divided pair: partition classes are
    joined in the real solution; the chord-speed gap between classes is
    bounded by pi; pi maps of nested pairs with the same interval agree; the
    partition of an outer pair restricts to inner intervals.  Also cross-checks
    the replayed quadratic functional and the production pi values against
    the incremental history.
    """
    steps = Replay(traj).run()
    out: list[CheckResult] = []
    joined_violations = 0
    restrict_violations = 0

    for step in steps:
        scope = f"event:{step.index}"
        state = step.state
        # compare replayed Q against the production snapshot
        out.append(_equality("replay_q_quadratic", scope,
                             step.q_quadratic, traj.snapshots[step.index].q_quadratic))
        fluxes = BlockFluxes(state, traj.spec)
        divided = {k: p for k, p in step.pairs.items() if p.status == "divided"}
        worst_gap: CheckResult | None = None
        worst_agree: CheckResult | None = None
        for (s, s2), pair in divided.items():
            # every class must be joined in the real solution
            for cls in pair.classes:
                if len({position(state.wave(p), state.time) for p in cls}) > 1 or \
                   len({state.wave(p).speed for p in cls}) > 1:
                    joined_violations += 1
            # class-gap lemma: sigma_rh gap between classes bounded by pi
            sigmas = [fluxes.rh_speed(cls) for cls in pair.classes]
            for i in range(len(pair.classes)):
                for j in range(i + 1, len(pair.classes)):
                    gap = sigmas[i] - sigmas[j]
                    for p in pair.classes[i]:
                        for p2 in pair.classes[j]:
                            cand = _check("class_gap_lemma", scope, gap,
                                          pair.pi[(p, p2)] + LEMMA_TOL,
                                          pair=(s, s2), p=p, p2=p2)
                            if worst_gap is None or cand.slack < worst_gap.slack:
                                worst_gap = cand
        # restriction and outer-pair agreement between nested divided pairs
        keys = sorted(divided)
        for (p, p2) in keys:
            for (s, s2) in keys:
                if (p, p2) == (s, s2) or not (p <= s < s2 <= p2):
                    continue
                outer, inner = divided[(p, p2)], divided[(s, s2)]
                inner_set = set(inner.interval)
                for cls in outer.classes:
                    members = set(cls)
                    if members & inner_set and not members <= inner_set:
                        restrict_violations += 1
                if p in inner_set and p2 in inner_set:
                    if outer.interval != inner.interval or outer.classes != inner.classes:
                        restrict_violations += 1
                    else:
                        for key, val in inner.pi.items():
                            cand = _equality("outer_pair_pi_agreement", scope,
                                             outer.pi[key], val,
                                             inner=(s, s2), outer=(p, p2))
                            if worst_agree is None or cand.slack < worst_agree.slack:
                                worst_agree = cand
        if worst_gap is not None:
            out.append(worst_gap)
        if worst_agree is not None:
            out.append(worst_agree)
    out.append(_check("partition_classes_joined", "global", float(joined_violations), 0.0))
    out.append(_check("partition_restriction", "global", float(restrict_violations), 0.0))
    final = steps[-1]
    worst: CheckResult | None = None
    for key, pair in history.pairs.items():
        if pair.record is None:
            continue
        rep = final.pairs.get(key)
        if rep is None or rep.status != "divided":
            worst = _check("replay_pi_match", "global", 1.0, 0.0, pair=key)
            break
        cand = _equality("replay_pi_match", "global", history.K * pair.P, rep.pi[key],
                         pair=key)
        if worst is None or cand.slack < worst.slack:
            worst = cand
    if worst is not None:
        out.append(worst)
    return out


# ---------------------------------------------------------------------------
# orchestration


def run_verifier(traj: Trajectory, level: str, history: PairHistory) -> list[CheckResult]:
    """All checks appropriate for the level: fast, full or small_n."""
    if level not in CHECK_LEVELS:
        raise ValueError(f"unknown check level {level!r}")
    out: list[CheckResult] = []
    for event in traj.events:
        if event.kind == EventKind.TRANSVERSAL:
            out.append(check_transversal_speed(traj, event))
            out.append(check_transversal_increase(traj, event))
        elif event.kind == EventKind.CANCELLATION:
            out.append(check_cancellation(traj, event))
        else:
            out.extend(check_interaction_decrease(traj, event))
            out.append(check_wavefront_decrease(traj, event))
    out.extend(check_qtrans(traj))
    out.append(check_main_theorem(traj))
    out.extend(check_q_quadratic_global(traj))
    out.extend(check_aggregates(traj))
    if level in ("full", "small_n"):
        out.extend(check_log2_kernel())
    if level == "small_n":
        out.extend(check_small_n_lemmas(traj, history))
    return out


def summarize(results: list[CheckResult]) -> dict:
    """Per check name: count, min slack, the scope of the first check that
    set it (``worst``), and whether all passed."""
    summary: dict[str, dict] = {}
    for r in results:
        agg = summary.setdefault(
            r.name, {"count": 0, "min_slack": math.inf, "worst": None, "passed": True})
        agg["count"] += 1
        if r.slack < agg["min_slack"]:
            agg["min_slack"] = r.slack
            agg["worst"] = r.scope
        agg["passed"] = agg["passed"] and r.passed
    for agg in summary.values():
        if agg["min_slack"] is math.inf:
            agg["min_slack"] = None
    return summary


def write_report(results: list[CheckResult], summary: dict, fh) -> bool:
    """Serialize all checks plus their per-name min-slack ``summary`` (from
    ``summarize(results)``) to the text stream ``fh`` as one line of JSON;
    True if all passed."""
    passed = all(r.passed for r in results)
    payload = {
        "passed": passed,
        "summary": summary,
        "checks": [r.as_dict() for r in results],
    }
    fh.write(json.dumps(payload) + "\n")
    return passed
