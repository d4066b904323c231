import io
import json
import math

from dataclasses import replace

import numpy as np
import pytest

from doubles import PerPairReplay, recorded_steps
from test_acceptance import SMALL_N_CUBIC, SMALL_N_SEEDS, small_n_config
from triwave import simulator
from triwave.flux import FluxTable, derivative_bounds, flux_constants, flux_table, make_flux
from triwave.history import PairHistory
from triwave.replay import Replay
from triwave.scenario import ScenarioConfig, build_initial_data, run_scenario
from triwave.simulator import run
from triwave.verifier import (
    _LOG2_CASES,
    LEMMA_TOL,
    CheckResult,
    _check,
    _equality,
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
from triwave.wavefield import BlockFluxes, EventKind, FieldState, StepFunction, position

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

    def test_cases_are_the_default_rng_0_draws(self):
        rng = np.random.default_rng(0)
        draws = []
        for _ in range(50):
            a = float(rng.uniform(-2.0, 1.0))
            b = float(a + rng.uniform(0.2, 3.0))
            xi = float(rng.uniform(a + 1e-3, b - 1e-3))
            draws.append((a, xi, b))
        assert _LOG2_CASES == tuple(draws)

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

    def test_made_once_per_process(self):
        # the same objects in every call, in a new list each time
        first, again = check_log2_kernel(), check_log2_kernel()
        assert first is not again
        assert all(x is y for x, y in zip(first, again, strict=True))
        assert [r.context for r in first] == [
            {"a": a, "xi": xi, "b": b} for a, xi, b in _LOG2_CASES]

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
                ev.v_strength * len(ev.post_speeds) * EPS
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


def per_candidate_lemmas(traj, history):
    """The small-N lemma suite as one ``CheckResult`` per candidate, keeping
    the first of least slack per step, on the per-pair replay: the oracle of
    ``check_small_n_lemmas``."""
    steps = recorded_steps(PerPairReplay(traj))
    table = FluxTable(traj.spec, traj.eps)
    out = []
    joined_violations = 0
    restrict_violations = 0

    for step in steps:
        scope = f"event:{step.index}"
        state = step.state
        out.append(_equality("replay_q_quadratic", scope,
                             step.q_quadratic, traj.snapshots[step.index].q_quadratic))
        fluxes = BlockFluxes(state, table)
        divided = step.pairs
        worst_gap = None
        worst_agree = None
        for (s, s2), pair in divided.items():
            for cls in pair.classes:
                if len({position(state.wave(p), state.time) for p in cls}) > 1 or \
                   len({state.wave(p).speed for p in cls}) > 1:
                    joined_violations += 1
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
        keys = sorted(divided)
        for (p, p2) in keys:
            for (s, s2) in keys:
                if (p, p2) == (s, s2) or not (p <= s < s2 <= p2):
                    continue
                outer, inner = divided[(p, p2)], divided[(s, s2)]
                inner_set = set().union(*inner.classes)
                for cls in outer.classes:
                    members = set(cls)
                    if members & inner_set and not members <= inner_set:
                        restrict_violations += 1
                if p in inner_set and p2 in inner_set:
                    if outer.classes != inner.classes:
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
    worst = None
    for key in sorted(final.pairs.keys() ^ history.pairs.keys())[:1]:
        worst = _check("replay_pi_match", "global", 1.0, 0.0, pair=key)
    for key in history.pairs if worst is None else ():
        cand = _equality("replay_pi_match", "global", history.K * history.budget(*key),
                         final.pairs[key].pi[key], pair=key)
        if worst is None or cand.slack < worst.slack:
            worst = cand
    if worst is not None:
        out.append(worst)
    return out


# f = w^3 + 0.4 w^2 v: f'' changes sign at w = 0, so the jump from -1 to 3
# ticks opens into a shock of two waves beside a fan, and the divided pairs
# it leaves hold a class of two waves and nest with equal classes.
CUBIC = {"name": "custom_poly", "params": {"coeffs": [[3, 0, 1.0], [2, 1, 0.4]]}}
CUBIC_W = [(1.0, -1), (3.0, 3), (6.0, 0)]
CUBIC_V = [(4.0, 2), (8.0, 0)]


# The same flux: a crossing at event 1 divides waves 3 and 4 from wave 5,
# and at event 4 {3, 4} catches {5} and all three join again.
REJOIN = ScenarioConfig(flux=CUBIC, eps=0.05, w0={"jumps": [[1, -2], [3, 1], [6, 0]]},
                        v0={"jumps": [[4.5, 4], [5.5, 0]]}, check_level="small_n")


@pytest.fixture(scope="module")
def cubic_run():
    spec = make_flux(CUBIC["name"], CUBIC["params"])
    return make_traj(spec, derivative_bounds(spec), CUBIC_W, CUBIC_V)


def small_n_run(seed, flux=None):
    """The run and history of criterion 7's datum ``seed`` on ``flux``."""
    cfg = small_n_config(seed, flux)
    spec, bounds = flux_constants(cfg.flux)
    w0, v0 = build_initial_data(cfg, spec)
    history = PairHistory(spec=spec, eps=cfg.eps, bounds=bounds)
    traj = run(w0, v0, spec, cfg.eps, bounds=bounds, history=history,
               validate_each_event=True)
    return traj, history


def corrupt_replay(monkeypatch, at, corrupt):
    """Hand ``check_small_n_lemmas`` the replay after event ``at`` (an event
    index) after ``corrupt(replay)``, with its ``q_quadratic`` read before
    the edit, so that only the lemma check the edit aims at can fail.
    ``corrupt`` returns a function that undoes its edit, and that runs
    before the replay advances: no later event sees the edit.  The last
    event is never undone, because the suite reads the final pairs after
    the stream, so its corruption need return none."""
    real = Replay.run

    def run_corrupted(self):
        for index, fluxes in real(self):
            if index != at:
                yield index, fluxes
                continue
            q = self.q_quadratic()
            undo = corrupt(self)
            self.q_quadratic = lambda: q
            yield index, fluxes
            del self.q_quadratic
            if undo is not None and index < len(self.traj.events):
                undo()

    monkeypatch.setattr(Replay, "run", run_corrupted)


def replace_one(replay, key, **changes):
    """Give pair ``key`` of ``replay`` a changed copy of its ``ReplayPair``;
    return the pairs that still hold the object it shared, and a function
    that gives ``key`` the object back."""
    pair = replay.pairs[key]
    replay.pairs[key] = replace(pair, **changes)

    def undo():
        replay.pairs[key] = pair

    return [k for k, p in replay.pairs.items() if p is pair], undo


def only_failure(results, name):
    """The one failed check; it must be of check ``name``."""
    failed = [r for r in results if not r.passed]
    assert [r.name for r in failed] == [name]
    return failed[0]


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

    def test_divided_pair_that_joins_again(self):
        res = run_scenario(REJOIN)
        assert res.passed
        steps = recorded_steps(Replay(res.trajectory))
        assert (3, 5) in steps[3].pairs and (3, 5) not in steps[3].joined
        assert (3, 5) in steps[4].joined and (3, 5) not in steps[4].pairs
        # the replay's own Q checks that the history let the pair go
        (at_join,) = [r for r in res.checks
                      if r.name == "replay_q_quadratic" and r.scope == "event:4"]
        assert at_join.passed

    def test_the_replayed_steps_are_not_copied(self, monkeypatch):
        # the suite reads the replay after each event as it is drawn: the
        # replay's initial copy of the trajectory's state is the one copy
        traj, history = small_n_run(SMALL_N_SEEDS[0], SMALL_N_CUBIC)
        copies = []
        real = FieldState.copy
        monkeypatch.setattr(FieldState, "copy", lambda state: copies.append(state) or real(state))
        results = check_small_n_lemmas(traj, history)
        assert len(traj.events) > 1 and all(r.passed for r in results)
        assert len(copies) <= 1

    def test_every_check_on_the_cubic_datum(self, cubic_run):
        results = check_small_n_lemmas(*cubic_run)
        assert all(r.passed for r in results)
        assert {r.name for r in results} == {
            "replay_q_quadratic", "class_gap_lemma", "outer_pair_pi_agreement",
            "partition_classes_joined", "partition_restriction", "replay_pi_match"}


class TestSmallNLemmasMatchOracle:
    """One ``CheckResult`` per emitted check gives the same checks, context
    included, as one per candidate."""

    def test_transversal_datum(self, spec, bounds):
        traj, history = make_traj(
            spec, bounds, [(0.0, 2), (9.5, 0)], [(5.0, 2), (7.0, 4), (9.0, 0)]
        )
        assert check_small_n_lemmas(traj, history) == per_candidate_lemmas(traj, history)

    def test_cubic_datum(self, cubic_run):
        assert check_small_n_lemmas(*cubic_run) == per_candidate_lemmas(*cubic_run)

    @pytest.mark.parametrize("seed", range(10))
    def test_acceptance_small_n_seeds(self, seed):
        traj, history = small_n_run(seed)
        assert check_small_n_lemmas(traj, history) == per_candidate_lemmas(traj, history)

    @pytest.mark.parametrize("seed", SMALL_N_SEEDS)
    def test_acceptance_small_n_cubic_seeds(self, seed):
        # classes of two waves and nested pairs with equal classes: the
        # pairs that share one history are where the two scans could differ
        traj, history = small_n_run(seed, SMALL_N_CUBIC)
        assert check_small_n_lemmas(traj, history) == per_candidate_lemmas(traj, history)


def replays_agree(traj):
    """Assert that after every event the shared replay and the per-pair one
    give the same Q and divide the same pairs, each with the same classes
    and pi, and that the shared replay's divided and joined pairs are those
    of the per-pair statuses: a pair never met or with a dead wave is in
    neither.  Return the distinct divided objects of each, summed over the
    events."""
    shared, per_pair = Replay(traj), PerPairReplay(traj)
    objects = [0, 0]
    for (index, _), (other, _) in zip(shared.run(), per_pair.run(), strict=True):
        assert index == other
        assert shared.q_quadratic() == per_pair.q_quadratic(), index
        assert set(shared.pairs) == per_pair.with_status("divided"), index
        assert shared.joined == per_pair.with_status("joined"), index
        for key, pair in shared.pairs.items():
            twin = per_pair.pairs[key]
            assert (pair.classes, pair.pi) == (twin.classes, twin.pi), (index, key)
        objects[0] += len({id(p) for p in shared.pairs.values()})
        objects[1] += len({id(p) for p in per_pair.pairs.values()})
    return objects


class TestReplayMatchesPerPair:
    """The replay that carries each shared history once rebuilds the same
    histories as the one that rebuilds every pair on its own."""

    @pytest.mark.parametrize("flux", [None, SMALL_N_CUBIC], ids=["quadratic", "cubic"])
    def test_criterion_7_data(self, flux):
        shared = per_pair = 0
        for seed in SMALL_N_SEEDS:
            a, b = replays_agree(small_n_run(seed, flux)[0])
            assert a <= b, seed
            shared, per_pair = shared + a, per_pair + b
        assert shared < per_pair

    def test_rejoin_datum(self):
        replays_agree(run_scenario(REJOIN).trajectory)

    def test_cubic_datum(self, cubic_run):
        shared, per_pair = replays_agree(cubic_run[0])
        assert shared < per_pair

    def test_run_yields_each_event_of_the_live_replay(self, cubic_run):
        # run yields each index and the block fluxes of the replay's own
        # state; recorded_steps copies the replay after each event
        traj = cubic_run[0]
        replay = Replay(traj)
        drawn = [(index, fluxes.state is replay.state) for index, fluxes in replay.run()]
        recorded = recorded_steps(Replay(traj))
        assert drawn == [(s.index, True) for s in recorded]
        assert [s.index for s in recorded] == list(range(len(traj.events) + 1))
        assert (recorded[-1].pairs, recorded[-1].joined) == (replay.pairs, replay.joined)
        assert recorded[0].pairs != recorded[-1].pairs

    @pytest.mark.parametrize("replay_class", [Replay, PerPairReplay])
    def test_a_divided_pair_that_meets_again_divided_raises(self, replay_class):
        # REJOIN's event 4 joins (3, 5) and (4, 5) again; a faster wave 5
        # would leave them divided at their second meeting
        traj = run_scenario(REJOIN).trajectory
        events = list(traj.events)
        event = events[3]
        assert event.index == 4 and {3, 4, 5} <= event.post_speeds.keys()
        speeds = {**event.post_speeds, 5: event.post_speeds[5] + 0.001}
        events[3] = replace(event, post_speeds=speeds)
        replay = replay_class(replace(traj, events=events))
        with pytest.raises(ValueError, match=r"pair \(3, 5\) met again while divided \(event 4\)"):
            list(replay.run())

    def test_the_replay_reads_its_own_table(self, monkeypatch):
        # the simulator hands its table to assign_initial_speeds first
        tables = []
        real = simulator.assign_initial_speeds
        monkeypatch.setattr(simulator, "assign_initial_speeds",
                            lambda state, table: tables.append(table) or real(state, table))
        traj, history = small_n_run(SMALL_N_SEEDS[0], SMALL_N_CUBIC)
        assert tables == [history.table]
        assert history.table is flux_table(traj.spec, traj.eps)
        replay = Replay(traj)
        assert replay.table is not history.table
        assert Replay(traj).table is not replay.table


class TestSmallNLemmasFail:
    """Each lemma check fails on a replay with one corrupted step, and names
    what was corrupted.  At step 1, a crossing, the pairs of waves 2 to 5
    that the jump at x = 3 divided share one history, with the classes
    [2, 3], [4], [5], and so one ``ReplayPair``; from step 3 on, (2, 3) is
    divided with classes of its own, [2] and [3].  A corruption replaces one
    pair's entry with ``dataclasses.replace``, which leaves the object it
    shared to the other pairs as it was."""

    STEP = 1

    def test_pi_below_class_gap(self, cubic_run, monkeypatch):
        # (2, 3) alone with its classes: no other pair reads its pi
        at, key = 3, (2, 3)

        def corrupt(replay):
            assert replay.pairs[key].classes == [[2], [3]]
            sharers, undo = replace_one(replay, key, pi={key: -10.0})
            assert sharers == []
            return undo

        corrupt_replay(monkeypatch, at, corrupt)
        r = only_failure(check_small_n_lemmas(*cubic_run), "class_gap_lemma")
        assert r.scope == f"event:{at}"
        assert r.context == {"pair": key, "p": 2, "p2": 3}
        assert r.rhs == -10.0 + LEMMA_TOL

    def test_perturbed_outer_pi(self, cubic_run, monkeypatch):
        outer_key, entry = (2, 5), (3, 4)

        def corrupt(replay):
            outer = replay.pairs[outer_key]
            bumped = {**outer.pi, entry: outer.pi[entry] + 1.0}
            sharers, undo = replace_one(replay, outer_key, pi=bumped)
            assert sharers == [(2, 4), (3, 4), (3, 5), (4, 5)]
            return undo

        corrupt_replay(monkeypatch, self.STEP, corrupt)
        r = only_failure(check_small_n_lemmas(*cubic_run), "outer_pair_pi_agreement")
        assert r.scope == f"event:{self.STEP}"
        assert r.context["outer"] == outer_key
        s, s2 = r.context["inner"]
        assert 2 <= s < s2 <= 5 and (s, s2) != outer_key
        assert r.lhs == pytest.approx(1.0)

    def test_class_split_across_two_positions(self, cubic_run, monkeypatch):
        moved = 3
        held = []

        def corrupt(replay):
            wave = replay.state.wave(moved)
            x_a = wave.x_a
            wave.x_a += 1.0
            held.extend(c for pair in replay.pairs.values() for c in pair.classes
                        if moved in c and len(c) > 1)

            def undo():
                wave.x_a = x_a

            return undo

        corrupt_replay(monkeypatch, self.STEP, corrupt)
        r = only_failure(check_small_n_lemmas(*cubic_run), "partition_classes_joined")
        # one violation per divided pair that holds the class of the moved wave
        assert held and r.lhs == float(len(held))

    def test_nested_pair_with_other_classes(self, cubic_run, monkeypatch):
        inner_key = (3, 4)

        def corrupt(replay):
            inner = replay.pairs[inner_key]
            assert inner.classes == [[2, 3], [4], [5]]
            assert sorted(replay.pairs) == [
                (2, 4), (2, 5), (3, 4), (3, 5), (4, 5)]
            sharers, undo = replace_one(replay, inner_key, classes=[[3], [4], [5]])
            assert sharers == [(2, 4), (2, 5), (3, 5), (4, 5)]
            return undo

        corrupt_replay(monkeypatch, self.STEP, corrupt)
        r = only_failure(check_small_n_lemmas(*cubic_run), "partition_restriction")
        # the outer pairs (2, 4), (2, 5) and (3, 5) each hold the class [2, 3],
        # which the new classes cut; (3, 5) also has both ends in them but
        # other classes
        assert r.lhs == 4.0

    def test_final_pair_dropped(self, cubic_run, monkeypatch):
        traj, history = cubic_run
        key = next(iter(history.pairs))

        def corrupt(replay):
            # the final replay without the pair
            replay.pairs.pop(key)

        corrupt_replay(monkeypatch, len(traj.events), corrupt)
        r = only_failure(check_small_n_lemmas(traj, history), "replay_pi_match")
        assert r.context == {"pair": key}

    def test_final_pair_hidden_by_the_history(self, cubic_run, monkeypatch):
        # the history loses a divided pair that the replay still divides
        traj, history = cubic_run
        key = next(iter(history.pairs))
        pairs = type(history).pairs.fget
        monkeypatch.setattr(type(history), "pairs",
                            property(lambda h: {k: r for k, r in pairs(h).items() if k != key}))
        assert key not in history.pairs
        r = only_failure(check_small_n_lemmas(traj, history), "replay_pi_match")
        assert r.context == {"pair": key} and (r.lhs, r.rhs) == (1.0, 0.0)

    def test_final_pi_perturbed(self, cubic_run, monkeypatch):
        traj, history = cubic_run
        key = next(iter(history.pairs))

        def corrupt(replay):
            rep = replay.pairs[key]
            replace_one(replay, key, pi={**rep.pi, key: rep.pi[key] + 1.0})

        corrupt_replay(monkeypatch, len(traj.events), corrupt)
        r = only_failure(check_small_n_lemmas(traj, history), "replay_pi_match")
        assert r.context["pair"] == key
        assert r.lhs == pytest.approx(1.0)


class TestReport:
    @pytest.fixture(scope="class")
    def fast_checks(self, spec, bounds):
        traj, history = make_traj(spec, bounds, [(0.0, 2), (9.5, 0)], [(5.0, 2), (9.0, 0)])
        return run_verifier(traj, "fast", history)

    @pytest.mark.parametrize("where", [
        "first", "middle", "last", "absent", "twice", "part", "alone", "equal_copies",
        "empty"])
    def test_spliced_text_is_one_json_dumps(self, fast_checks, where):
        block = check_log2_kernel()
        k = len(fast_checks) // 2
        bad = CheckResult("x", "global", 2.0, 1.0, -1.0, False, {"nan": math.nan})
        results = {
            "first": block + fast_checks,
            "middle": fast_checks[:k] + block + [bad] + fast_checks[k:],
            "last": fast_checks + block,
            "absent": fast_checks,
            "twice": block + fast_checks + block,
            "part": fast_checks + block[:-1],
            "alone": block,
            # equal entries that are not the cached objects
            "equal_copies": fast_checks + [replace(r) for r in block],
            "empty": [],
        }[where]
        if where == "equal_copies":
            assert results[-len(block):] == block
            assert all(x is not y for x, y in zip(results[-len(block):], block))
        summary = summarize(results)
        out = io.StringIO()
        passed = write_report(results, summary, out)
        assert passed is all(r.passed for r in results)
        assert out.getvalue() == json.dumps(
            {"passed": passed, "summary": summary,
             "checks": [r.as_dict() for r in results]}) + "\n"

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

