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

Small-N lemma suite (``check_small_n_lemmas``), against a per-pair replay:
  replay_q_quadratic        replayed Q equals the production Q, per event
  class_gap_lemma           sigma_rh gap between two classes of a divided pair
                            <= pi + LEMMA_TOL; one entry per event, that
                            event's worst candidate
  outer_pair_pi_agreement   nested pairs with the same classes share pi; one
                            entry per event, that event's worst candidate
  partition_classes_joined  count of classes not joined in the solution is 0
  partition_restriction     count of outer partitions that do not restrict
                            to the waves of a nested inner pair is 0
  replay_pi_match           final K * P equals the replayed pi: worst pair
"""

from __future__ import annotations

import functools
import json
import math
from bisect import bisect_left
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
    n = len(event.post_speeds) * traj.eps
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
    n = len(event.post_speeds) * traj.eps
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
            expected = event.v_strength * len(event.post_speeds) * traj.eps
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


@functools.cache
def _log2_cases() -> tuple[tuple[float, float, float], ...]:
    """The ``LOG2_CASES`` seeded ``(a, xi, b)`` draws of the log-2 kernel
    check, drawn from ``default_rng(0)`` on first use and kept for the
    process: every run checks the same cases."""
    rng = np.random.default_rng(0)
    out = []
    for _ in range(LOG2_CASES):
        a = float(rng.uniform(-2.0, 1.0))
        b = float(a + rng.uniform(0.2, 3.0))
        xi = float(rng.uniform(a + 1e-3, b - 1e-3))
        out.append((a, xi, b))
    return tuple(out)


def check_log2_kernel() -> list[CheckResult]:
    """Verify the kernel bound behind the weight estimates: the integral of
    1/(w'-w) over [a, xi] x [xi, b] never exceeds log2 (b-a)."""
    return [_check("log2_kernel", f"case:{k}", _kernel_integral(a, xi, b),
                   LOG2 * (b - a) + 1e-6, a=a, xi=xi, b=b)
            for k, (a, xi, b) in enumerate(_log2_cases())]


# ---------------------------------------------------------------------------
# lemma-level suite (small runs)


def check_small_n_lemmas(traj: Trajectory, history: PairHistory) -> list[CheckResult]:
    """Replay the run per pair and verify the partition/pi lemmas at every event.

    Emits six checks:

    - ``replay_q_quadratic``, per step: the replayed quadratic functional
      equals the production snapshot;
    - ``class_gap_lemma``, per step with a divided pair: for every divided
      pair, classes i < j and members p of i, p2 of j, the chord-speed gap
      sigma_i - sigma_j is at most pi(p, p2) + ``LEMMA_TOL``;
    - ``outer_pair_pi_agreement``, per step with a nested pair of the same
      classes: the outer pair's pi map agrees with the inner pair's on
      every entry of the inner one;
    - ``partition_classes_joined``, global: the number of (pair, class) at
      some step whose members are not joined in the real solution (two
      positions or two speeds) is 0;
    - ``partition_restriction``, global: the number of nested divided pairs
      whose outer partition does not restrict to the inner pair's waves, or
      whose outer pair lies in those waves with other classes, is 0;
    - ``replay_pi_match``, global: every divided pair of the final history
      is divided in the final replayed step with the same pi, ``K * P``.

    Each per-step ``class_gap_lemma`` and ``outer_pair_pi_agreement`` entry
    and the ``replay_pi_match`` entry is the worst candidate: the first one
    of least slack in iteration order.  The scan keeps only the running
    least slack and its arguments and builds one ``CheckResult`` from them.
    The block fluxes come from the replay's own ``FluxTable``, never from
    the one the run's history filled.
    """
    replay = Replay(traj)
    steps = replay.run()
    out: list[CheckResult] = []
    joined_violations = 0
    restrict_violations = 0

    for step in steps:
        scope = f"event:{step.index}"
        state = step.state
        # compare replayed Q against the production snapshot
        out.append(_equality("replay_q_quadratic", scope,
                             step.q_quadratic, traj.snapshots[step.index].q_quadratic))
        fluxes = BlockFluxes(state, replay.table)
        divided = {k: p for k, p in step.pairs.items() if p.status == "divided"}
        # whether a class is joined, and its chord speed, whichever pair holds it
        class_of: dict[tuple[int, ...], tuple[bool, float]] = {}
        gap_at = None      # (gap, pi + LEMMA_TOL, pair, p, p2) of the least slack
        gap_slack = 0.0
        for key, pair in divided.items():
            classes = pair.classes
            sigmas = []
            for cls in classes:
                tag = tuple(cls)
                seen = class_of.get(tag)
                if seen is None:
                    joined = (len({position(state.wave(p), state.time) for p in cls}) == 1
                              and len({state.wave(p).speed for p in cls}) == 1)
                    seen = class_of[tag] = (joined, fluxes.rh_speed(cls))
                if not seen[0]:
                    joined_violations += 1
                sigmas.append(seen[1])
            # class-gap lemma: sigma_rh gap between classes bounded by pi
            pi = pair.pi
            for i, ci in enumerate(classes):
                for j in range(i + 1, len(classes)):
                    gap = sigmas[i] - sigmas[j]
                    for p in ci:
                        for p2 in classes[j]:
                            rhs = pi[(p, p2)] + LEMMA_TOL
                            slack = rhs - gap
                            if gap_at is None or slack < gap_slack:
                                gap_slack = slack
                                gap_at = (gap, rhs, key, p, p2)
        # restriction and outer-pair agreement between nested divided pairs:
        # the inner pairs (s, s2) of (p, p2) have p <= s < p2 and s2 <= p2
        agree_at = None    # (actual, expected, inner, outer) of the least slack
        agree_slack = 0.0
        keys = sorted(divided)
        for outer_key in keys:
            p, p2 = outer_key
            outer = divided[outer_key]
            outer_sets = [set(cls) for cls in outer.classes]
            for inner_key in keys[bisect_left(keys, (p,)):bisect_left(keys, (p2,))]:
                if inner_key == outer_key or inner_key[1] > p2:
                    continue
                inner = divided[inner_key]
                inner_set = {s for cls in inner.classes for s in cls}
                for members in outer_sets:
                    if members & inner_set and not members <= inner_set:
                        restrict_violations += 1
                if p in inner_set and p2 in inner_set:
                    if outer.classes != inner.classes:
                        restrict_violations += 1
                    else:
                        for pp, val in inner.pi.items():
                            actual = outer.pi[pp]
                            slack = 0.0 - abs(actual - val)
                            if agree_at is None or slack < agree_slack:
                                agree_slack = slack
                                agree_at = (actual, val, inner_key, outer_key)
        if gap_at is not None:
            gap, rhs, key, p, p2 = gap_at
            out.append(_check("class_gap_lemma", scope, gap, rhs, pair=key, p=p, p2=p2))
        if agree_at is not None:
            actual, val, inner_key, outer_key = agree_at
            out.append(_equality("outer_pair_pi_agreement", scope, actual, val,
                                 inner=inner_key, outer=outer_key))
    out.append(_check("partition_classes_joined", "global", float(joined_violations), 0.0))
    out.append(_check("partition_restriction", "global", float(restrict_violations), 0.0))
    final = steps[-1]
    match_at = None        # (actual, expected, pair) of the least slack
    match_slack = 0.0
    for key in history.pairs:
        rep = final.pairs.get(key)
        if rep is None or rep.status != "divided":
            out.append(_check("replay_pi_match", "global", 1.0, 0.0, pair=key))
            return out
        actual, expected = history.K * history.budget(*key), rep.pi[key]
        slack = 0.0 - abs(actual - expected)
        if match_at is None or slack < match_slack:
            match_slack = slack
            match_at = (actual, expected, key)
    if match_at is not None:
        actual, expected, key = match_at
        out.append(_equality("replay_pi_match", "global", actual, expected, pair=key))
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
