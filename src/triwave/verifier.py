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

Small-N lemma suite (``check_small_n_lemmas``), against a replay of every
pair's history with full pi tables:
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

The suite checks the replay after each event as the replay moves across it,
and reads the final pairs once the replay ends: nothing is copied.  The log-2
kernel block is the same in every run: its checks are made, and their report
text encoded, once per process, and ``write_report`` splices that text where
the block sits among the results.
"""

from __future__ import annotations

import functools
import json
import math
from bisect import bisect_left
from dataclasses import dataclass, field

from .history import PairHistory
from .replay import Replay
from .simulator import Trajectory
from .wavefield import Event, EventKind, position

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


# the (a, xi, b) cases of the log-2 kernel check, the same in every run: 50
# draws from numpy's default_rng(0), each a uniform on [-2, 1), then b = a +
# uniform on [0.2, 3), then xi uniform on [a + 1e-3, b - 1e-3)
_LOG2_CASES = (
    (-0.08911493803563708, -0.04905066564887104, 0.8662878605031998),
    (-1.9504170934144127, 0.3097959615458754, 0.52673957634635),
    (-0.1800926726984604, 1.0389482484808417, 2.0624976980567356),
    (0.8052172713633046, 0.8130152966679716, 3.2896072229035944),
    (0.5722128297627078, 0.786301122396559, 0.866252440618008),
    (-1.473033138192323, -0.05616566133417922, 1.1438678443873593),
    (-1.1008643283878456, -1.0607400168162637, 0.28265989096559796),
    (-1.627150170501308, -0.2827476025026603, 0.4505981906408567),
    (-0.15384466555623844, 1.1159026956279372, 1.120452486377035),
    (0.9425060163286902, 2.3208649536439605, 3.0620235728746352),
    (0.06534019171282024, 0.24020669000942332, 1.3543201788543107),
    (0.1644650205822451, 0.6832562608889644, 1.8354571235142774),
    (-0.5424939235046327, 1.969743656402526, 2.148072012672568),
    (-0.9266144098727893, -0.3468019863633244, 0.8736691161705412),
    (-0.21709990940090962, 0.2319715306246452, 0.9290515220190634),
    (0.6708230560143771, 1.1915868485641083, 1.5068643179078403),
    (-1.7479539692528454, 0.24393533383328503, 0.7834496441766685),
    (-1.2818916710211434, -1.1255601151080041, 1.3722641752488274),
    (-0.9916488183630188, -0.7119866959293799, -0.3708663110574695),
    (0.38897281086188285, 0.43386829029086377, 1.2347709960443756),
    (-0.7863444805354154, -0.7169315200266795, -0.030507955909500506),
    (-0.2590028420394481, 0.4370745034910385, 0.777346329853535),
    (-1.40145366809536, -0.3650316411913628, 1.4364630413228339),
    (-1.6835141612893114, 0.1342478040201498, 0.2779886630218742),
    (-0.6788685358526481, 0.7572590516871726, 2.193984846481416),
    (-0.7243141254527734, 1.2017972506650492, 1.2122835401902843),
    (0.8468310248132962, 1.9739118583397839, 2.3349574148787653),
    (-0.507731913537143, 0.8134462499545544, 1.1743421350138141),
    (-0.7560324519329877, 0.8482775689274614, 1.5005215490754544),
    (0.7961790598401346, 1.1761294089213132, 1.3179904330266692),
    (0.7822717858736796, 0.8260405639092222, 3.6924651176626897),
    (0.5909202707367274, 3.411235551798516, 3.538266382922491),
    (-1.5537079633025064, 1.0471147757602588, 1.3696527154017675),
    (0.4671214826292114, 0.826432667408928, 2.0110876692911415),
    (0.4056417361549238, 1.1475176621700918, 3.1915261835486386),
    (-0.38319677713343925, 0.956334192760638, 1.0565111439952488),
    (-1.878467866434696, -0.49659189854434405, 0.3711494814036742),
    (-1.914903904659437, -1.8785331516036294, 0.29891145925543583),
    (0.27385300706928417, 1.7927532660802772, 1.9095774322031025),
    (-1.8017525098277758, -1.6304470091827512, 0.7539358730868975),
    (-0.9670700635876246, 0.3891570357715791, 0.43776638586630856),
    (-0.31330447331462885, -0.08928108278063257, 0.6115163875639813),
    (0.6643549619775397, 0.7687894743312955, 1.496789361546048),
    (-1.1350077289772673, -0.11495518425817908, 0.7061368524983844),
    (0.42913232773833343, 0.9398685614596295, 2.1984649933556537),
    (-0.7613109719573219, 0.7988999185941063, 1.7294277467612271),
    (0.8772329280923268, 1.5592339700740228, 2.1115652791490334),
    (-0.21822739516049516, 0.15710735114528124, 2.356987988009673),
    (-0.7804689897556201, -0.6612122624491786, 1.9674161028988113),
    (0.4681188405445056, 1.5985445525979114, 1.8311941451839344),
)


@functools.cache
def _log2_block() -> tuple[CheckResult, ...]:
    """The log-2 kernel checks: they read only ``_LOG2_CASES``, so one
    process makes them once."""
    return tuple(_check("log2_kernel", f"case:{k}", _kernel_integral(a, xi, b),
                        LOG2 * (b - a) + 1e-6, a=a, xi=xi, b=b)
                 for k, (a, xi, b) in enumerate(_LOG2_CASES))


@functools.cache
def _log2_text() -> str:
    """The report text of ``_log2_block``: its entries of the ``checks``
    list, without the brackets."""
    return json.dumps([r.as_dict() for r in _log2_block()])[1:-1]


def check_log2_kernel() -> list[CheckResult]:
    """Verify the kernel bound behind the weight estimates: the integral of
    1/(w'-w) over [a, xi] x [xi, b] never exceeds log2 (b-a).  The checks are
    the same objects in every call."""
    return list(_log2_block())


# ---------------------------------------------------------------------------
# lemma-level suite (small runs)


def check_small_n_lemmas(traj: Trajectory, history: PairHistory) -> list[CheckResult]:
    """Replay every pair's history and verify the partition/pi lemmas at every
    event.

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
    - ``replay_pi_match``, global: the final history and the final replay
      divide the same pairs, each with the same pi, ``K * P``.

    Each per-step ``class_gap_lemma`` and ``outer_pair_pi_agreement`` entry
    and the ``replay_pi_match`` entry is the worst candidate: the first one
    of least slack in iteration order, divided pairs in key order.  The scan
    keeps only the running least slack and its arguments and builds one
    ``CheckResult`` from them.  The chord speeds come from the block fluxes
    the replay built from its own ``FluxTable``, never from the one the
    run's history filled.

    After each event the scan reads the replay's own ``pairs``, ``state``
    and ``q_quadratic()``, and sorts the divided keys once; after the last,
    ``replay_pi_match`` reads the final ``pairs``.  Nothing is copied.

    Pairs that share a history share one ``ReplayPair``.  The scan reads
    each distinct object once per step: it weighs the class-gap candidates
    and counts the classes not joined at the first pair that holds it, and
    adds that count again for every other pair that holds it.  A nested
    pair whose outer pair holds the same object restricts and agrees
    trivially, slack 0, so the scan skips its entries and records it only
    as a step's first agreement candidate.  Each check reads the same as a
    scan of every candidate of every pair.
    """
    out: list[CheckResult] = []
    joined_violations = 0
    restrict_violations = 0

    replay = Replay(traj)
    for index, fluxes in replay.run():
        scope = f"event:{index}"
        state = replay.state
        # compare replayed Q against the production snapshot
        out.append(_equality("replay_q_quadratic", scope,
                             replay.q_quadratic(), traj.snapshots[index].q_quadratic))
        divided = replay.pairs
        keys = sorted(divided)
        # whether a class is joined, and its chord speed, whichever pair holds it
        class_of: dict[tuple[int, ...], tuple[bool, float]] = {}
        # per distinct ReplayPair, by id: its count of classes not joined and
        # the set of its waves
        read_of: dict[int, tuple[int, set[int]]] = {}
        gap_at = None      # (gap, pi + LEMMA_TOL, pair, p, p2) of the least slack
        gap_slack = 0.0
        for key in keys:
            pair = divided[key]
            read = read_of.get(id(pair))
            if read is not None:
                # a shared history: its candidates were all weighed at the
                # first pair that holds it, and none is less than the least
                joined_violations += read[0]
                continue
            classes = pair.classes
            sigmas = []
            unjoined = 0
            for cls in classes:
                tag = tuple(cls)
                seen = class_of.get(tag)
                if seen is None:
                    joined = (len({position(state.wave(p), state.time) for p in cls}) == 1
                              and len({state.wave(p).speed for p in cls}) == 1)
                    seen = class_of[tag] = (joined, fluxes.rh_speed(cls))
                if not seen[0]:
                    unjoined += 1
                sigmas.append(seen[1])
            read_of[id(pair)] = (unjoined, {s for cls in classes for s in cls})
            joined_violations += unjoined
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
        for outer_key in keys:
            p, p2 = outer_key
            outer = divided[outer_key]
            outer_sets = None
            for inner_key in keys[bisect_left(keys, (p,)):bisect_left(keys, (p2,))]:
                if inner_key == outer_key or inner_key[1] > p2:
                    continue
                inner = divided[inner_key]
                inner_set = read_of[id(inner)][1]
                if inner is outer:
                    # one history: its classes restrict to themselves, and
                    # every entry agrees with slack 0, so only the first such
                    # candidate of a step can be the least
                    if agree_at is None and p in inner_set and p2 in inner_set and inner.pi:
                        val = next(iter(inner.pi.values()))
                        agree_at = (val, val, inner_key, outer_key)
                    continue
                if outer_sets is None:
                    outer_sets = [set(cls) for cls in outer.classes]
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
    # the replay holds its final pairs
    match_at = None        # (actual, expected, pair) of the least slack
    match_slack = 0.0
    pairs = history.pairs
    # a pair divided on one side only, the least key first
    unmatched = sorted(pairs.keys() ^ replay.pairs.keys())
    if unmatched:
        out.append(_check("replay_pi_match", "global", 1.0, 0.0, pair=unmatched[0]))
        return out
    for key in pairs:
        actual, expected = history.K * history.budget(*key), replay.pairs[key].pi[key]
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
    True if all passed.

    The text is ``json.dumps`` of the whole payload.  Where ``results`` hold
    the log-2 block, the same objects in a row, its text is spliced in from
    ``_log2_text`` instead of encoded again; elsewhere the block's part is
    empty."""
    passed = all(r.passed for r in results)
    block = _log2_block()
    at = next((k for k, r in enumerate(results) if r is block[0]), len(results))
    end = at + len(block)
    if len(results) < end or any(r is not b for r, b in zip(results[at:end], block)):
        at = end = len(results)
    spliced = _log2_text() if end > at else ""
    # the payload with an empty check list, up to its opening bracket
    head = json.dumps({"passed": passed, "summary": summary, "checks": []})[:-2]
    parts = [json.dumps([r.as_dict() for r in rs])[1:-1]
             for rs in (results[:at], results[end:])]
    checks = ", ".join(p for p in (parts[0], spliced, parts[1]) if p)
    fh.write(head + checks + "]}\n")
    return passed
