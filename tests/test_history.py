import copy
import importlib.util
import math
import random
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from doubles import (PairWalkHistory, alive_ids, envelope_split, group_fronts, pair_weight,
                     per_part_validate, recorded_steps)
from golden.regen import golden_cases
from test_acceptance import NON_CONVEX_SEEDS, NON_CONVEX_WIDE, ensemble_config
from test_verifier import REJOIN
from triwave import scenario
from triwave.flux import FluxTable, derivative_bounds, make_flux
from triwave.history import PairHistory, PartitionRecord, m_value
from triwave.replay import Replay
from triwave.scenario import ScenarioConfig, build_initial_data, run_scenario
from triwave.simulator import next_collision, resolve, run
from triwave.wavefield import (
    BlockFluxes,
    Event,
    EventKind,
    StepFunction,
    apply_event,
    assign_initial_speeds,
    initial_enumeration,
    position,
)

EPS = 0.05


class TestMValue:
    # partitions are given as explicit member lists; the crossing range is
    # the id interval of the waves sitting at the event point

    def test_no_class_inside_is_zero(self):
        classes = [[1, 2], [3], [4, 5]]
        assert m_value(classes, 6, 9, 1, 4, EPS) == 0.0

    def test_all_classes_inside_gives_full_span(self):
        classes = [[1], [2]]
        assert m_value(classes, 1, 2, 1, 2, EPS) == pytest.approx(2 * EPS)
        classes = [[1, 2], [3], [4, 5]]
        assert m_value(classes, 1, 5, 1, 5, EPS) == pytest.approx(5 * EPS)

    def test_mixed_containment_counts_contained_classes_only(self):
        classes = [[1, 2], [3], [4, 5], [6]]
        # the crossing covers ids 3..5: of the classes between the one holding
        # 2 and the one holding 6, only [3] and [4, 5] are inside
        assert m_value(classes, 3, 5, 2, 6, EPS) == pytest.approx(3 * EPS)
        # between 4 and 6 only [4, 5] lies inside
        assert m_value(classes, 3, 5, 4, 6, EPS) == pytest.approx(2 * EPS)

    def test_endpoints_must_be_covered(self):
        with pytest.raises(ValueError):
            m_value([[1], [2]], 1, 2, 1, 7, EPS)


# a partition of an id interval: per class, its run length and the ids after
# it that are dead (absent from every class)
layouts = st.lists(st.tuples(st.integers(1, 4), st.integers(0, 2)), min_size=2, max_size=8)


@given(layouts, st.integers(1, 30), st.integers(0, 30))
@settings(max_examples=300, deadline=None)
def test_prefix_increment_equals_m_value(spec, bounds, layout, lo, width):
    # the budgets of one crossing over the ids lo..hi, on a record of the
    # drawn classes (some of them straddle lo or hi), read from the
    # production potentials and grown by the double's per-pair walk, against
    # m_value
    classes, next_id = [], 1
    for size, gap in layout:
        classes.append(tuple(range(next_id, next_id + size)))
        next_id += size + gap
    hi = lo + width
    ticks = 3
    state = initial_enumeration(StepFunction.from_jumps([(0.0, next_id - 1), (1.0, 0)]),
                                StepFunction.from_jumps([(2.0, ticks), (3.0, 0)]), EPS)
    alive = sorted(s for cls in classes for s in cls)
    for w in state.waves:
        if w.id not in alive:
            w.x_a = None
    crossing = tuple(s for s in range(lo, hi + 1) if s in alive)
    assume(crossing)
    for w in state.waves:
        w.speed = float(w.id)      # each wave on a front of its own
        w.w_hat = 1
    for rank, s in enumerate(alive):
        state.wave(s).w_hat = rank + 1     # consecutive right states at the meeting
    history = PairWalkHistory(spec=spec, eps=EPS, bounds=bounds)
    # the classes meet at one point at speeds 0, 1, ...: one record
    history.initialize(state, [[(cls, float(k)) for k, cls in enumerate(classes)]])
    rec, = history.records
    assert rec.classes == classes
    history.walk(Event(
        index=1, time=0.0, x=0.0, kind=EventKind.TRANSVERSAL, colliding=crossing,
        fronts=(), sum_abs_dsigma=0.0, v_front_id=1), state)
    history._grow(rec, crossing[0], crossing[-1], ticks)
    for p, p2 in history.pairs:
        m = m_value(classes, lo, hi, p, p2, EPS)
        assert history.budget(p, p2) == history.P[(p, p2)] == ticks * round(m / EPS), (p, p2)
    S = {}
    for key, P in history.P.items():
        if P:
            S[history.d(*key)] = S.get(history.d(*key), 0) + P
    assert history.S == S
    assert history.T == sum(total * (history.L // d) for d, total in S.items())


class LoopHistory(PairWalkHistory):
    """The double's budgets grown by one ``m_value`` call per divided pair,
    and every pair's budget checked after every event."""

    increments = 0

    def walk(self, event, state):
        lo, hi = event.colliding[0], event.colliding[-1]
        ticks = state.v_fronts[event.v_front_id - 1].strength_ticks
        for (s, s2), rec in self.pairs.items():
            m = m_value(rec.classes, lo, hi, s, s2, self.eps)
            if m > 0.0:
                amount = ticks * round(m / self.eps)
                self.P[(s, s2)] += amount
                d = self.d(s, s2)
                self.S[d] = self.S.get(d, 0) + amount
                self.increments += 1

    def on_event(self, event, state):
        out = super().on_event(event, state)
        self.check_all(event.index)
        return out


class FloatPiHistory(PairHistory):
    """The production history, checked after every event against oracles kept
    here: each divided pair's float pi, grown by ``2 ||d3f|| |v_h| m_value``
    at every crossing, summed by the float pair loop of Q, with the joined
    pairs counted over the fronts ``group_fronts`` derives anew; the kept
    right states, and ``T`` from the pairs' budgets and the denominators of
    the waves' right states, recounted; no divided pair on one regrouped
    front; and the state's alive counts, recounted from the waves."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.pi: dict = {}          # pair key -> float pi, while the pair is divided
        self.snapshots_checked = 0
        self.denominators_peak = 0

    def on_event(self, event, state):
        if event.kind == EventKind.TRANSVERSAL:
            # from the classes before the crossing, which changes none of
            # them before the pass
            lo, hi = event.colliding[0], event.colliding[-1]
            factor = 2.0 * self.bounds.norm_d3_wwv * event.v_strength
            for key, rec in self.pairs.items():
                m = m_value(rec.classes, lo, hi, *key, self.eps)
                if m > 0.0:
                    self.pi[key] = self.pi.get(key, 0.0) + factor * m
        out = super().on_event(event, state)
        # a pair no longer divided forgets its pi
        pairs = self.pairs
        self.pi = {key: pi for key, pi in self.pi.items() if key in pairs}
        return out

    def float_q(self, state):
        n = len(alive_ids(state))
        joined = sum(len(ids) * (len(ids) - 1) // 2 for ids in group_fronts(state))
        q = self.bounds.norm_d2_ww * (n * (n - 1) // 2 - joined - len(self.pairs))
        for s, s2 in self.pairs:
            pi = self.pi.get((s, s2), 0.0)
            if pi != 0.0:
                q += pair_weight(pi, state.wave(s).w_hat, state.wave(s2).w_hat, self.eps)
        return q * self.eps**2

    def snapshot(self, state, index, sum_abs_dsigma):
        snap = super().snapshot(state, index, sum_abs_dsigma)
        want = self.float_q(state)
        assert math.isclose(snap.q_quadratic, want, rel_tol=1e-12), (index, snap.q_quadratic, want)
        assert self.hats == [w.w_hat for w in state.waves], index
        T, denominators = 0, set()
        front_of = {s: k for k, ids in enumerate(group_fronts(state)) for s in ids}
        for s, s2 in self.pairs:
            assert front_of[s] != front_of[s2], (index, s, s2)
            P = self.budget(s, s2)
            if P:
                d = abs(state.wave(s2).w_hat - state.wave(s).w_hat) + 1
                T += P * (self.L // d)
                denominators.add(d)
        assert self.T == T, index
        top = max((vf.id for vf in state.v_fronts), default=0)
        per_crossed = [0] * (top + 1)
        for w in state.waves:
            if w.alive:
                per_crossed[min(w.crossed, top)] += 1
        assert (state.n_alive, state.per_crossed) == (sum(per_crossed), per_crossed), index
        self.snapshots_checked += 1
        self.denominators_peak = max(self.denominators_peak, len(denominators))
        return snap


class TestPrefixPiMatchesLoop:
    CASES = [
        ("quadratic_coupled", 0.05, seed, 40) for seed in (0, 3, 7)
    ] + [
        ("quartic", 0.05, 2, 40),
        ("quadratic_coupled", 0.02, 1, 60),
    ]

    @staticmethod
    def case_data(flux, eps, seed, max_waves):
        spec = make_flux(flux, {"c": 0.1})
        cfg = ScenarioConfig(
            eps=eps, seed=seed,
            w0={"random": {"jumps": 6, "max_amplitude": 0.4, "max_waves": max_waves}},
            v0={"random": {"jumps": 5, "max_amplitude": 0.3, "max_fronts": 6}},
        )
        return (spec, derivative_bounds(spec)) + build_initial_data(cfg, spec)

    @pytest.mark.parametrize("flux,eps,seed,max_waves", CASES)
    def test_every_pair_and_snapshot_equal(self, flux, eps, seed, max_waves):
        spec, bounds, w0, v0 = self.case_data(flux, eps, seed, max_waves)
        fast = PairHistory(spec=spec, eps=eps, bounds=bounds)
        loop = LoopHistory(spec=spec, eps=eps, bounds=bounds)
        traj = run(w0, v0, spec, eps, bounds=bounds, history=fast)
        ref = run(w0, v0, spec, eps, bounds=bounds, history=loop)
        assert traj.snapshots == ref.snapshots
        assert fast.pairs.keys() == loop.pairs.keys()
        for key in fast.pairs:
            assert fast.budget(*key) == loop.P[key], key
        assert fast.T == loop.T
        assert loop.increments > 0
        # each live record counts exactly its divided pairs
        grouped: dict = {}
        for rec in fast.pairs.values():
            grouped[rec] = grouped.get(rec, 0) + 1
        assert {rec: rec.count for rec in fast.records} == grouped
        assert fast.n_divided == len(fast.pairs)

    @pytest.mark.parametrize("flux,eps,seed,max_waves", CASES)
    def test_integer_q_matches_the_float_pair_loop(self, flux, eps, seed, max_waves):
        spec, bounds, w0, v0 = self.case_data(flux, eps, seed, max_waves)
        history = FloatPiHistory(spec=spec, eps=eps, bounds=bounds)
        traj = run(w0, v0, spec, eps, bounds=bounds, history=history)
        assert history.snapshots_checked == len(traj.snapshots)
        assert history.denominators_peak > 0   # crossings grew some budgets


class TestRecordRegistry:
    @staticmethod
    def state_and_record(classes=((1,), (2, 3)), cls=PairHistory, **kwargs):
        """A state of alive waves, ids 1 up to the last id of ``classes``, at
        one point, each with a speed of its own (so on a front of its own),
        with one v-front of 2 ticks to their right, and a history of ``cls``
        whose L fits their right states, where the classes met at one point,
        at speeds 0, 1, ...: its one record.  Their right states are 1, 2,
        ..., so a pair (s, s2) of them has d = s2 - s + 1.  The waves of the
        jump back to 0 at x = 1 complete the state."""
        state = initial_enumeration(StepFunction.from_jumps([(0.0, classes[-1][-1]), (1.0, 0)]),
                                    StepFunction.from_jumps([(2.0, 2), (3.0, 0)]), EPS)
        for w in state.waves:
            w.speed = float(w.id)
        history = cls(eps=EPS, **kwargs)
        history.initialize(state, [[(c, float(k)) for k, c in enumerate(classes)]])
        rec, = history.records
        assert rec.classes == list(classes)
        return state, history, rec

    @staticmethod
    def cross(history, state, rec, colliding):
        """Grow the budgets of ``rec`` by a crossing of v-front 1 (2 ticks)
        over ``colliding``, walked by the double first."""
        history.walk(Event(
            index=1, time=0.0, x=0.0, kind=EventKind.TRANSVERSAL, colliding=colliding,
            fronts=(), sum_abs_dsigma=0.0, v_front_id=1), state)
        history._grow(rec, colliding[0], colliding[-1], 2)

    @staticmethod
    def meet_again(index, left, right, fronts, canceled=()):
        """An event at which the fronts ``left`` and ``right`` meet and the
        survivors leave as the fan ``fronts``."""
        kind = EventKind.CANCELLATION if canceled else EventKind.INTERACTION_POSITIVE
        return Event(index=index, time=0.0, x=0.0, kind=kind, colliding=left + right,
                     fronts=fronts, sum_abs_dsigma=0.0,
                     left_ids=left, right_ids=right, canceled=canceled)

    def test_relinked_and_dead_pairs_leave_their_record(self, spec, bounds):
        # right states 1, 2, 3: the pairs (1, 2) and (1, 3) have d = 2 and 3
        state, history, rec = self.state_and_record(cls=PairWalkHistory, spec=spec,
                                                    bounds=bounds)
        # a crossing of all three waves counts 1 + 2 for either pair
        self.cross(history, state, rec, (1, 2, 3))
        assert history.records == [rec] and rec.count == history.n_divided == 2
        assert history.budget(1, 2) == history.budget(1, 3) == 2 * 3
        assert history.P == {(1, 2): 6, (1, 3): 6} and history.S == {2: 6, 3: 6}
        w2, w3 = history.weights[2], history.weights[3]
        assert (rec.up, rec.dn) == ({1: 0, 2: w2, 3: w3}, {1: w2 + w3, 2: 0, 3: 0})
        assert history.T == 6 * w2 + 6 * w3 and history.validate(state) == []
        # a divided pair that meets again joined leaves the pairs, its
        # record's count, the weights and T, and joins the re-joined set
        history._rejoin(self.meet_again(7, (1,), (2,), (((1, 2), 0.5),)))
        assert list(history.pairs) == [(1, 3)] and rec.rejoined == {(1, 2)}
        assert history.records == [rec] and rec.count == 1 and history.S == {3: 6}
        assert (rec.up, rec.dn) == ({1: 0, 2: 0, 3: w3}, {1: w3, 2: 0, 3: 0})
        assert history.T == 6 * w3 and history.validate(state) == []
        # one that meets again divided is an error
        with pytest.raises(ValueError, match=r"pair \(1, 3\) met again while divided at event 8"):
            history._rejoin(self.meet_again(8, (1,), (3,), (((1,), 0.5), ((3,), 0.75))))
        # a potential, a weight or T changed behind the bookkeeping's back
        # fails the recount
        rec.A[3] += 1
        assert history.validate(state) == [
            f"kept budget sum T = {6 * w3}, recounted {7 * w3}"]
        rec.A[3] -= 1
        rec.up[3] += 1
        assert history.validate(state) == [
            f"record over ids 1..3: kept weight up[3] = {w3 + 1}, recounted {w3}"]
        rec.up[3] -= 1
        rec.dn[1] -= 1
        assert history.validate(state) == [
            f"record over ids 1..3: kept weight dn[1] = {w3 - 1}, recounted {w3}"]
        rec.dn[1] += 1
        history.T += 1
        assert history.validate(state) == [
            f"kept budget sum T = {6 * w3 + 1}, recounted {6 * w3}"]
        history.T -= 1
        # a dead wave's pairs leave in the record pass of its cancellation
        state.wave(3).x_a = None
        history._update_records(self.meet_again(9, (2,), (3,), (), canceled=(3,)), state)
        assert history.pairs == history.S == {} and history.records == []
        assert history.T == history.n_divided == 0

    def test_cancellation_takes_out_exactly_the_dead_waves_pairs(self, spec, bounds):
        # four one-wave classes, budgets grown by a crossing of waves 2..4;
        # then wave 4 dies at a cancellation of the fronts (3,) and (4,),
        # whose survivor 3 comes from one front, as every survivor of a
        # cancellation does: no pair across the two fronts outlives it
        state, history, rec = self.state_and_record(((1,), (2,), (3,), (4,)),
                                                    spec=spec, bounds=bounds)
        history._grow(rec, 2, 4, 2)
        assert [history.budget(1, s2) for s2 in (2, 3, 4)] == [2, 4, 6]
        assert history.budget(2, 3) == 4
        event = self.meet_again(5, (3,), (4,), (((3,), 0.5),), canceled=(4,))
        apply_event(state, event)
        history.on_event(event, state)
        # the dead wave's pairs are gone, and with them their weights and
        # their budgets' share of T
        assert set(history.pairs) == {(1, 2), (1, 3), (2, 3)}
        assert history.records == [rec] and rec.count == 3 and rec.rejoined == set()
        w = history.weights
        assert history.T == 2 * w[2] + 4 * w[3] + 4 * w[2]
        assert rec.classes == [(1,), (2,), (3,)] and history.validate(state) == []

    def test_record_left_without_pairs_is_not_refined(self, spec, bounds, monkeypatch):
        # waves 1 and 4 die: every pair of the record goes, so its class
        # (2, 3, 4), cut to (2, 3), is not split again for nothing
        state, history, rec = self.state_and_record(((1,), (2, 3, 4)), spec=spec, bounds=bounds)
        assert set(history.pairs) == {(1, 2), (1, 3), (1, 4)}
        splits = []
        monkeypatch.setattr(history, "_split_class",
                            lambda members, *args: splits.append(members) or [members])
        for s in (1, 4):
            state.wave(s).x_a = None
        history._update_records(self.meet_again(9, (1,), (2, 3, 4), (), canceled=(1, 4)), state)
        assert history.pairs == {} and history.records == [] and history.T == 0
        assert splits == []

    def test_pair_count_off_its_record_fails_validation(self, spec, bounds):
        state, history, rec = self.state_and_record(spec=spec, bounds=bounds)
        assert rec.count == 2
        rec.count += 1
        assert history.validate(state) == [
            "record over ids 1..3: kept pair count 3, recounted 2"]
        rec.count -= 1
        history.n_divided += 1
        assert history.validate(state) == ["kept divided pair total 3, recounted 2"]

    def test_stored_pair_on_one_kept_front_fails_validation(self, spec, bounds):
        # waves 2 and 3 share a front; the record of the meeting of (1,) and
        # (2, 3) divides only the pairs (1, 2) and (1, 3)
        state = initial_enumeration(StepFunction.from_jumps([(0.0, 3), (1.0, 0)]),
                                    StepFunction.from_jumps([(2.0, 2), (3.0, 0)]), EPS)
        for w in state.waves:
            w.speed = float(w.id)
        state.wave(3).speed = state.wave(2).speed
        assert [f.ids for f in state.fronts()][:2] == [(1,), (2, 3)]
        history = PairHistory(spec=spec, eps=EPS, bounds=bounds)
        history.initialize(state, [[((1,), 0.0), ((2, 3), 1.0)]])
        assert history.validate(state) == []
        # a meeting that divides waves 2 and 3: the pair would be counted
        # once as joined through n_joined and once as divided
        history._meet([((2,), 0.0), ((3,), 1.0)], state, 1)
        assert history.validate(state) == ["divided pair (2, 3) lies on one kept front"]

    def test_classes_out_of_id_order_or_stray_potentials_fail_validation(self, spec, bounds):
        state, history, rec = self.state_and_record(spec=spec, bounds=bounds)
        assert history.validate(state) == []
        rec.classes.reverse()
        assert history.validate(state) == ["record over ids 1..3: classes out of id order"]
        rec.classes.reverse()
        # potentials kept for a wave of no class
        rec.A[4] = rec.B[4] = 0
        assert history.validate(state) == ["record over ids 1..3: potentials or weights "
                                           "not kept for exactly the waves of its classes"]

    def test_class_unclipped_over_a_dead_wave_fails_validation(self, spec, bounds):
        state, history, rec = self.state_and_record(spec=spec, bounds=bounds)
        assert history.validate(state) == []
        # wave 3 dies, but the record keeps its last class
        state.wave(3).x_a = None
        assert history.validate(state) == [
            "record over ids 1..3: class 2..3 holds dead wave 3"]
        # the record pass of its cancellation cuts the class
        history._update_records(self.meet_again(9, (2,), (3,), (), canceled=(3,)), state)
        assert rec.classes == [(1,), (2,)] and history.validate(state) == []

    def test_class_over_a_dead_middle_wave_fails_validation(self, spec, bounds):
        # a class (1, 2, 3) whose middle wave died: both its ends are alive
        state, history, rec = self.state_and_record(((1, 2, 3), (4,)), spec=spec, bounds=bounds)
        assert history.validate(state) == []
        state.wave(2).x_a = None
        assert history.validate(state) == [
            "record over ids 1..4: class 1..3 holds dead wave 2"]

    @pytest.mark.parametrize("hats", [(1, 3), (2, 1, 3), (3, 4, 1)])
    def test_meeting_of_right_states_not_consecutive_raises(self, spec, bounds, hats):
        # a meeting built by hand: the waves 1.. of the right states ``hats``,
        # each at a speed of its own
        state = initial_enumeration(StepFunction.from_jumps([(0.0, 4), (1.0, 0)]),
                                    StepFunction((), (), 0), EPS)
        ids = list(range(1, len(hats) + 1))
        for w in state.waves:
            w.speed = float(w.id)
        for s, hat in zip(ids, hats):
            state.wave(s).w_hat = hat
        history = PairHistory(spec=spec, eps=EPS, bounds=bounds)
        history.initialize(state, [])
        with pytest.raises(ValueError, match=rf"meeting waves \[{', '.join(map(str, ids))}\] "
                                             rf"at event 7 have right states "
                                             rf"\[{', '.join(map(str, hats))}\], "
                                             "not consecutive ticks"):
            history._meet([((s,), float(s)) for s in ids], state, 7)
        assert history.records == []
        # joined waves make no record and need no ranks
        history._meet([(tuple(ids), 0.5)], state, 8)
        assert history.records == []

    @pytest.mark.parametrize("fronts", [[((2, 3), 0.5)], [((2,), 0.0), ((3,), 0.5)]])
    def test_meeting_waves_of_two_signs_raise(self, spec, bounds, fronts):
        # waves 1, 2 go up and 3, 4 down: joined or divided, the meeting raises
        state = initial_enumeration(StepFunction.from_jumps([(0.0, 2), (1.0, 1), (2.0, 0)]),
                                    StepFunction((), (), 0), EPS)
        assert [w.sign for w in state.waves] == [1, 1, -1, -1]
        for w in state.waves:
            w.speed = float(w.id)
        history = PairHistory(spec=spec, eps=EPS, bounds=bounds)
        history.initialize(state, [])
        with pytest.raises(ValueError, match="meeting waves of opposite sign survived event 5"):
            history._meet(fronts, state, 5)
        assert history.records == []

    def test_meeting_of_descending_right_states_reads_its_ranks(self, spec, bounds):
        # right states 4, 3, 2, 1 by id: ranks 0..3 from the right state of wave 1
        state = initial_enumeration(StepFunction.from_jumps([(0.0, 4), (1.0, 0)]),
                                    StepFunction((), (), 0), EPS)
        for w in state.waves:
            w.speed = float(w.id)
        for s, hat in zip((1, 2, 3, 4), (4, 3, 2, 1)):
            state.wave(s).w_hat = hat
        history = PairHistory(spec=spec, eps=EPS, bounds=bounds)
        history.initialize(state, [[((1,), 0.0), ((2, 3), 0.5), ((4,), 1.0)]])
        rec, = history.records
        assert (rec.hat0, rec.cuts) == (4, [0, 1, 3, math.inf])
        w = history.weights
        assert rec.up == {1: 0, 2: w[2], 3: w[3], 4: w[4] + w[2] + w[3]}
        assert rec.dn == {1: w[2] + w[3] + w[4], 2: w[3], 3: w[2], 4: 0}
        assert set(history.pairs) == {(1, 2), (1, 3), (1, 4), (2, 4), (3, 4)}
        assert rec.count == 5 and history.validate(state) == []


# the meeting classes of one record, by size; the dead waves among its ranks;
# the pairs re-joined, as indices into its divided pairs
recount_layouts = st.tuples(st.lists(st.integers(1, 4), min_size=2, max_size=6),
                            st.sets(st.integers(0, 23)), st.sets(st.integers(0, 80)))


@given(recount_layouts)
@settings(max_examples=200, deadline=None)
def test_recount_equals_the_pair_sums(spec, bounds, layout):
    # a record's weights, count and share of T, recounted in one pass over
    # its waves, against the sums over its divided pairs, with dead waves and
    # re-joins anywhere: against kept weights of 0, every nonzero one differs
    sizes, dead, rejoined = layout
    n = sum(sizes)
    state = initial_enumeration(StepFunction.from_jumps([(0.0, n), (1.0, 0)]),
                                StepFunction((), (), 0), EPS)
    for w in state.waves:
        w.speed = float(w.id)
    history = PairHistory(spec=spec, eps=EPS, bounds=bounds)
    history.initialize(state, [])
    fronts = [(tuple(range(sum(sizes[:k]) + 1, sum(sizes[:k + 1]) + 1)), float(k))
              for k in range(len(sizes))]
    speeds = {s: speed for ids, speed in fronts for s in ids}
    history._meet(fronts, state, 1)
    rec, = history.records
    alive = [s for s in range(1, n + 1) if s - 1 not in dead]
    assume(len({speeds[s] for s in alive}) > 1)
    rec.classes = [c for c in ([s for s in cls if s in alive] for cls in rec.classes) if c]
    divided = [(s, s2) for s in alive for s2 in alive if s < s2 and speeds[s] != speeds[s2]]
    rec.rejoined = {divided[k] for k in rejoined if k < len(divided)}
    # potentials A[s] = s and B[s] = 2s, so a pair's P is s2 - 2s; weights 0
    rec.A, rec.B = {s: s for s in alive}, {s: 2 * s for s in alive}
    rec.up, rec.dn = dict.fromkeys(alive, 0), dict.fromkeys(alive, 0)
    up, dn, T = dict.fromkeys(alive, 0), dict.fromkeys(alive, 0), 0
    for s, s2 in divided:
        if (s, s2) not in rec.rejoined:
            w = history.weights[s2 - s + 1]      # right states 1, 2, ..., n
            up[s2] += w
            dn[s] += w
            T += (s2 - 2 * s) * w
    differ, t, count, shared = history._recount(rec, state)
    assert differ == [(s, up[s], dn[s]) for s in alive if up[s] or dn[s]]
    assert (t, count, shared) == (T, len(divided) - len(rec.rejoined), [])


class TestQTrans:
    def test_one_v_front_right_of_k_waves(self, spec, bounds):
        w0 = StepFunction.from_jumps([(0.0, 3), (1.0, 0)])
        v0 = StepFunction.from_jumps([(5.0, 2), (9.0, 0)])
        traj = run(w0, v0, spec, EPS)
        # both v-fronts start right of all 6 waves: Q = (|v1| + |v2|) * 6 eps
        assert traj.snapshots[0].q_trans == pytest.approx((0.1 + 0.1) * 6 * EPS)

    def test_v_front_left_of_everything_contributes_zero(self, spec):
        w0 = StepFunction.from_jumps([(5.0, 1), (6.0, 0)])
        v0 = StepFunction.from_jumps([(0.0, 3), (1.0, 0)])
        traj = run(w0, v0, spec, EPS)
        assert traj.snapshots[0].q_trans == 0.0
        assert traj.events == []

    def test_matches_position_based_double_loop(self, spec, bounds):
        cfg = ScenarioConfig(
            seed=11,
            w0={"random": {"jumps": 5, "max_amplitude": 0.4, "max_waves": 30}},
            v0={"random": {"jumps": 3, "max_amplitude": 0.3}},
        )
        w0, v0 = build_initial_data(cfg, spec)
        history = PairHistory(spec=spec, eps=EPS, bounds=bounds)
        traj = run(w0, v0, spec, EPS, bounds=bounds, history=history)
        state = traj.final_state
        # oracle: strict position comparison (valid between events)
        want = 0.0
        for vf in state.v_fronts:
            for w in state.waves:
                if w.alive and position(w, state.time) < position(vf, state.time):
                    want += vf.strength_ticks * EPS * EPS
        assert traj.snapshots[-1].q_trans == pytest.approx(want, abs=1e-12)


class TestQQuadratic:
    def test_single_jump_datum_is_zero(self, spec, bounds):
        w0 = StepFunction.from_jumps([(0.0, 4), (9.0, 0)])
        history = PairHistory(spec=spec, eps=EPS, bounds=bounds)
        traj = run(w0, StepFunction((), (), 0), spec, EPS, bounds=bounds, history=history)
        # every pair inside one initial Riemann problem starts with weight 0
        first = [s for s in traj.snapshots if s.index == 0][0]
        # pairs across the two jumps never interacted; pairs inside one jump are 0
        n_never = 4 * 4
        assert first.q_quadratic == pytest.approx(bounds.norm_d2_ww * n_never * EPS**2)

    def test_initial_value_counts_never_met_pairs(self, spec, bounds):
        w0 = StepFunction.from_jumps([(0.0, 1), (2.0, 2), (4.0, 3), (6.0, 0)])
        history = PairHistory(spec=spec, eps=EPS, bounds=bounds)
        traj = run(w0, StepFunction((), (), 0), spec, EPS, bounds=bounds, history=history)
        q0 = traj.snapshots[0].q_quadratic
        # waves: 1 + 1 + 1 + 3; pairs never met: all pairs across jumps
        n = 6
        met = 3  # the three pairs inside the final 3-wave jump
        expected = bounds.norm_d2_ww * (n * (n - 1) / 2 - met) * EPS**2
        assert q0 == pytest.approx(expected)
        assert q0 <= bounds.norm_d2_ww * traj.tv_w0**2

    def test_weight_drops_to_zero_when_pairs_join(self, spec, bounds):
        # two shocks merging: the never-met pairs across them become joined
        w0 = StepFunction.from_jumps([(0.0, 4), (1.0, 2), (2.0, 0)])
        history = PairHistory(spec=spec, eps=EPS, bounds=bounds)
        traj = run(w0, StepFunction((), (), 0), spec, EPS, bounds=bounds, history=history)
        inter = [ev for ev in traj.events if ev.kind.is_interaction]
        assert len(inter) == 1
        ev = inter[0]
        before = traj.snapshots[ev.index - 1].q_quadratic
        after = traj.snapshots[ev.index].q_quadratic
        # exactly |L| * |R| = 2 * 2 never-met pairs lose their default weight
        assert before - after == pytest.approx(bounds.norm_d2_ww * 4 * EPS**2)


class TestPiRecursion:
    def drive(self, spec, bounds, w0, v0, n_events):
        """Step the event loop by hand so histories can be read mid-run."""
        state = initial_enumeration(w0, v0, EPS)
        table = FluxTable(spec, EPS)
        groups = assign_initial_speeds(state, table)
        history = PairHistory(spec=spec, eps=EPS, bounds=bounds)
        history.initialize(state, groups)
        events = []
        for j in range(1, n_events + 1):
            cand = next_collision(state)
            if cand is None:
                break
            ev = resolve(cand, state, table, j)
            history.on_event(ev, state)
            events.append(ev)
        return state, history, events

    def test_first_division_starts_at_zero(self, spec, bounds):
        w0 = StepFunction.from_jumps([(0.0, 2), (9.5, 0)])
        state, history, _ = self.drive(spec, bounds, w0, StepFunction((), (), 0), 0)
        rec = history.pairs[(1, 2)]   # the rarefaction fan splits at t=0
        assert history.budget(1, 2) == 0
        assert rec.classes == [(1,), (2,)]
        # the shock's pair is joined: not stored, and on one kept front
        assert (3, 4) not in history.pairs
        assert (3, 4) in [f.ids for f in state.fronts()]

    def test_transversal_crossings_accumulate_pi(self, spec, bounds):
        # one v-front overtakes the two rarefaction waves in two events; each
        # crossing adds 2 ||d3f|| |v_h| eps, so after both the pair holds the
        # budget of a crossing of its whole two-singleton interval, 2 the span
        w0 = StepFunction.from_jumps([(0.0, 2), (9.5, 0)])
        v0 = StepFunction.from_jumps([(5.0, 2), (9.0, 0)])
        state, history, events = self.drive(spec, bounds, w0, v0, 2)
        assert [ (ev.kind, ev.v_front_id) for ev in events ] == \
            [(EventKind.TRANSVERSAL, 1), (EventKind.TRANSVERSAL, 1)]
        v_strength = 2 * EPS
        assert all(ev.v_strength == pytest.approx(v_strength) for ev in events)
        P = history.budget(1, 2)
        assert P == 2 * 1 + 2 * 1          # ticks * count, once per crossing
        assert history.K * P == pytest.approx(2.0 * bounds.norm_d3_wwv * v_strength * 2 * EPS)

    def test_pi_unchanged_at_interactions_and_cancellations(self, spec, bounds):
        w0 = StepFunction.from_jumps([(0.0, 4), (1.0, 2), (2.0, 0)])
        history = PairHistory(spec=spec, eps=EPS, bounds=bounds)
        traj = run(w0, StepFunction((), (), 0), spec, EPS, bounds=bounds, history=history)
        assert any(ev.kind.is_interaction for ev in traj.events)
        for key in history.pairs:
            assert history.budget(*key) == 0  # no transversal event ever happened

    def test_pair_weight_cases(self, spec, bounds):
        # Q of four alive waves: one divided pair, one joined, four never met
        w0 = StepFunction.from_jumps([(0.0, 2), (9.5, 0)])
        v0 = StepFunction.from_jumps([(5.0, 2), (9.0, 0)])
        state, history, _ = self.drive(spec, bounds, w0, v0, 2)
        assert alive_ids(state) == [1, 2, 3, 4]
        # only the divided pair is stored; the joined one (weight 0) sits on
        # one kept front
        assert set(history.pairs) == {(1, 2)}
        assert [f.ids for f in state.fronts()] == [(1,), (2,), (3, 4)]
        assert state.n_joined == 1
        divided = history.K * history.budget(1, 2) / ((abs(state.wave(2).w_hat - state.wave(1).w_hat) + 1) * EPS)
        assert divided > 0.0
        want = (4 * bounds.norm_d2_ww + divided) * EPS**2
        assert history.q_quadratic(state) == pytest.approx(want)


class TestPiFullTable:
    # the replay's full per-pair pi maps; step k holds the state after event k

    def test_empty_before_division(self, spec, bounds):
        w0 = StepFunction.from_jumps([(0.0, 2), (9.5, 0)])
        traj = run(w0, StepFunction((), (), 0), spec, EPS, bounds=bounds)
        # the two shock waves of the downward jump never divide: no history
        replay = Replay(traj)
        for _ in replay.run():
            assert (3, 4) not in replay.pairs

    def test_zero_without_transversal_events(self, spec, bounds):
        w0 = StepFunction.from_jumps([(0.0, 2), (9.5, 0)])
        traj = run(w0, StepFunction((), (), 0), spec, EPS, bounds=bounds)
        table = recorded_steps(Replay(traj))[0].pairs[(1, 2)].pi
        assert set(table) == {(1, 2)}
        assert table[(1, 2)] == 0.0

    def test_single_crossing_matches_m_formula(self, spec, bounds):
        w0 = StepFunction.from_jumps([(0.0, 2), (9.5, 0)])
        v0 = StepFunction.from_jumps([(5.0, 2), (9.0, 0)])
        history = PairHistory(spec=spec, eps=EPS, bounds=bounds)
        traj = run(w0, v0, spec, EPS, bounds=bounds, history=history)
        first_cross = next(ev for ev in traj.events
                           if ev.kind == EventKind.TRANSVERSAL and ev.colliding[0] in (1, 2))
        step = recorded_steps(Replay(traj))[first_cross.index]
        assert step.index == first_cross.index
        table = step.pairs[(1, 2)].pi
        m = m_value([[1], [2]], first_cross.colliding[0], first_cross.colliding[-1], 1, 2, EPS)
        assert table[(1, 2)] == pytest.approx(2.0 * bounds.norm_d3_wwv
                                              * first_cross.v_strength * m)

    def test_replay_guard(self, spec, bounds):
        w0 = StepFunction.from_jumps([(0.0, 13), (9.5, 0)])
        traj = run(w0, StepFunction((), (), 0), spec, EPS, bounds=bounds)
        with pytest.raises(ValueError):
            Replay(traj)


class TestCancellationAmount:
    def test_values_and_kind_guard(self, spec, bounds):
        w0 = StepFunction.from_jumps([(0.0, 3), (1.0, 2), (5.0, 0)])
        traj = run(w0, StepFunction((), (), 0), spec, EPS, bounds=bounds)
        canc = [ev for ev in traj.events if ev.kind == EventKind.CANCELLATION]
        assert canc and canc[0].cancellation == pytest.approx(2 * EPS)
        other = [ev for ev in traj.events if not ev.kind == EventKind.CANCELLATION]
        assert other and all(ev.cancellation == 0.0 for ev in other)

    def test_matches_profile_tv_drop(self, spec, bounds):
        cfg = ScenarioConfig(
            seed=5,
            w0={"random": {"jumps": 5, "max_amplitude": 0.4, "max_waves": 30}},
            v0={"random": {"jumps": 3, "max_amplitude": 0.3}},
        )
        w0, v0 = build_initial_data(cfg, spec)
        traj = run(w0, v0, spec, EPS, bounds=bounds)
        for ev in traj.events:
            if ev.kind == EventKind.CANCELLATION:
                before = traj.snapshots[ev.index - 1].tv_w
                after = traj.snapshots[ev.index].tv_w
                assert ev.cancellation == pytest.approx(before - after)


class TestReplayAgreement:
    def test_replayed_q_matches_incremental_q(self, spec, bounds):
        for seed in range(8):
            cfg = ScenarioConfig(
                seed=seed,
                w0={"random": {"jumps": 3, "max_amplitude": 0.25, "max_waves": 12}},
                v0={"random": {"jumps": 2, "max_amplitude": 0.3}},
            )
            w0, v0 = build_initial_data(cfg, spec)
            history = PairHistory(spec=spec, eps=EPS, bounds=bounds)
            traj = run(w0, v0, spec, EPS, bounds=bounds, history=history)
            steps = recorded_steps(Replay(traj))
            assert len(steps) == len(traj.snapshots)
            for step, snap in zip(steps, traj.snapshots):
                assert step.q_quadratic == pytest.approx(snap.q_quadratic, abs=1e-12)
            # the replayed final state equals the simulated one field for field
            final = steps[-1]
            assert final.state.time == traj.final_state.time
            assert [(w.x_a, w.t_a, w.speed, w.crossed) for w in final.state.waves] == \
                [(w.x_a, w.t_a, w.speed, w.crossed) for w in traj.final_state.waves]
            assert [(vf.x_a, vf.t_a) for vf in final.state.v_fronts] == \
                [(vf.x_a, vf.t_a) for vf in traj.final_state.v_fronts]
            # the production per-pair pi values agree with the replayed tables
            for key, rec in history.pairs.items():
                assert key in final.pairs
                assert history.K * history.budget(*key) == pytest.approx(final.pairs[key].pi[key], abs=1e-12)
                assert [list(c) for c in rec.classes] == final.pairs[key].classes


def test_history_and_replay_each_keep_one_memo_per_run(spec, bounds):
    # a new history or replay starts with an empty block-flux memo; the
    # replay's block fluxes read only its own, so no flux the replay reads
    # is one the history's memo holds
    history_fluxes = replay_fluxes = 0
    for seed in range(8):
        cfg = ScenarioConfig(
            seed=seed,
            w0={"random": {"jumps": 3, "max_amplitude": 0.25, "max_waves": 12}},
            v0={"random": {"jumps": 2, "max_amplitude": 0.3}},
        )
        w0, v0 = build_initial_data(cfg, spec)
        history = PairHistory(spec=spec, eps=EPS, bounds=bounds)
        assert history.flux_memo == {}
        traj = run(w0, v0, spec, EPS, bounds=bounds, history=history)
        replay = Replay(traj)
        assert replay.flux_memo == {}
        for _, fluxes in replay.run():
            assert fluxes.memo is replay.flux_memo
            for s in alive_ids(replay.state):    # as the lemma checks read them
                fluxes.flux([s])
        ours = {id(eff) for eff in replay.flux_memo.values()}
        assert not ours & {id(eff) for eff in history.flux_memo.values()}
        history_fluxes += len(history.flux_memo)
        replay_fluxes += len(ours)
    assert history_fluxes > 5 and replay_fluxes > 50, (history_fluxes, replay_fluxes)


class JoinedClassHistory(PairHistory):
    """Asserts after every event that each class of each live record is
    joined: its alive members share one position and one speed.  Also counts
    the splits that cut a class."""

    splits = 0

    def on_event(self, event, state):
        out = super().on_event(event, state)
        for rec in self.records:
            for members in rec.classes:
                assert len({position(state.wave(s), state.time) for s in members}) <= 1, \
                    (event.index, members)
                assert len({state.wave(s).speed for s in members}) <= 1, (event.index, members)
        return out

    def _split_class(self, members, state, fluxes):
        out = super()._split_class(members, state, fluxes)
        if len(out) > 1:
            self.splits += 1
        return out


class TestClassSplitting:
    """A coupled quartic polynomial on a narrow box: crossings change the
    effective flux enough to cut classes apart."""

    FLUX = {"name": "custom_poly", "params": {
        "coeffs": [[2, 0, 0.5], [2, 1, 0.4], [3, 0, 0.3], [4, 1, 0.5]],
        "box": [-0.6, 0.6, -0.5, 0.5],
    }}

    @pytest.mark.parametrize("seed", [2, 7, 9])
    def test_split_classes_stay_joined(self, seed):
        spec = make_flux(self.FLUX["name"], self.FLUX["params"])
        bounds = derivative_bounds(spec)
        cfg = ScenarioConfig(
            flux=self.FLUX, eps=0.05, seed=seed,
            w0={"random": {"jumps": 6, "max_amplitude": 0.5}},
            v0={"random": {"jumps": 6, "max_amplitude": 0.45}},
        )
        w0, v0 = build_initial_data(cfg, spec)
        history = JoinedClassHistory(spec=spec, eps=0.05, bounds=bounds)
        run(w0, v0, spec, 0.05, bounds=bounds, history=history)
        assert history.splits > 0


def full_clip_and_split(history, records, event, state):
    """The refinement as one pass over every record the event touches (one
    that holds a dead wave or meets the crossing): cut each class to the
    alive waves, drop it if none is left, and split again each class of two
    or more waves that lost a wave or meets the crossing."""
    if event.kind.is_interaction:
        return
    dead = set(event.canceled)
    touched = event.colliding if event.kind == EventKind.TRANSVERSAL else None
    fluxes = BlockFluxes(state, history.table, {})
    for rec in records:
        lo, hi = rec.classes[0][0], rec.classes[-1][-1]
        if not any(lo <= d <= hi for d in dead) and (
            touched is None or hi < touched[0] or touched[-1] < lo
        ):
            continue
        new_classes = []
        for cls in rec.classes:
            members = tuple(s for s in cls if state.wave(s).alive)
            if not members:
                continue
            lost = len(members) < len(cls)
            crossed = touched is not None and not (
                members[-1] < touched[0] or touched[-1] < members[0]
            )
            if len(members) == 1 or not (lost or crossed):
                new_classes.append(members)
                continue
            new_classes.extend(history._split_class(members, state, fluxes))
        rec.classes = new_classes


class FullSplitHistory(PairHistory):
    """After every event, re-runs the full clip-and-split on a deep copy of
    each live record and asserts that it keeps the same classes as the
    production refinement.  Counts the crossings at which the production
    refinement cut a class apart, and the classes a cancellation cut: those
    that lost some of their waves but not all."""

    crossing_splits = 0
    cancellation_cuts = 0

    def _update_records(self, event, state):
        copies = {rec: copy.deepcopy(rec) for rec in self.records}
        super()._update_records(event, state)
        # the records still live: a record whose last pair died is not refined
        copies = {rec: copies[rec] for rec in self.records}
        if event.kind == EventKind.TRANSVERSAL:
            self.crossing_splits += sum(len(rec.classes) > len(copies[rec].classes)
                                        for rec in self.records)
        elif event.kind == EventKind.CANCELLATION:
            self.cancellation_cuts += sum(
                any(d in cls for d in event.canceled)
                and any(state.wave(s).alive for s in cls)
                for rec in copies.values() for cls in rec.classes)
        full_clip_and_split(self, copies.values(), event, state)
        for rec, want in copies.items():
            assert rec.classes == want.classes, event.index


class TestResplitMatchesFullPass:
    # a cubic flux whose cancellations cut classes of two or more waves
    CUBIC = {"name": "custom_poly", "params": {"coeffs": [[3, 0, 1.0], [2, 1, 0.4]]}}

    @pytest.mark.parametrize("flux,eps,seed,max_waves", TestPrefixPiMatchesLoop.CASES)
    def test_cases_keep_the_full_pass_classes(self, flux, eps, seed, max_waves):
        spec, bounds, w0, v0 = TestPrefixPiMatchesLoop.case_data(flux, eps, seed, max_waves)
        history = FullSplitHistory(spec=spec, eps=eps, bounds=bounds)
        traj = run(w0, v0, spec, eps, bounds=bounds, history=history)
        assert any(ev.kind == EventKind.TRANSVERSAL for ev in traj.events)

    @staticmethod
    def run_full_split(flux, seed, w_amplitude, v_amplitude):
        spec = make_flux(flux["name"], flux["params"])
        bounds = derivative_bounds(spec)
        cfg = ScenarioConfig(
            flux=flux, eps=0.05, seed=seed,
            w0={"random": {"jumps": 6, "max_amplitude": w_amplitude}},
            v0={"random": {"jumps": 6, "max_amplitude": v_amplitude}},
        )
        w0, v0 = build_initial_data(cfg, spec)
        history = FullSplitHistory(spec=spec, eps=0.05, bounds=bounds)
        run(w0, v0, spec, 0.05, bounds=bounds, history=history)
        return history

    @pytest.mark.parametrize("seed", [2, 7, 9])
    def test_crossings_that_cut_classes_keep_the_full_pass_classes(self, seed):
        history = self.run_full_split(TestClassSplitting.FLUX, seed, 0.5, 0.45)
        assert history.crossing_splits > 0

    @pytest.mark.parametrize("seed", [0, 1])
    def test_cancellations_that_cut_classes_keep_the_full_pass_classes(self, seed):
        history = self.run_full_split(self.CUBIC, seed, 0.4, 0.3)
        assert history.cancellation_cuts > 0


class EnvelopeSplitHistory(PairHistory):
    """Asserts at every class split that the classes read from the scalar
    fan are those of ``doubles.envelope_split``, which cuts between cells of
    different envelope slopes; counts the splits and those that cut a
    class apart."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.calls = self.cuts = 0

    def _split_class(self, members, state, fluxes):
        out = super()._split_class(members, state, fluxes)
        assert out == envelope_split(members, state, fluxes), (members, out)
        self.calls += 1
        self.cuts += len(out) > 1
        return out


def wide_leg(name):
    """The configs of criterion 9's wide non-convex leg ``name``."""
    flux, amplitude, _, _ = NON_CONVEX_WIDE[name]
    return [ensemble_config(seed, flux, amplitude) for seed in NON_CONVEX_SEEDS]


class TestFanSplitMatchesEnvelope:
    # (configs, floor on the splits that cut a class apart): the wide
    # non-convex legs of criterion 9 and the data of TestClassSplitting
    LEGS = {
        "cubic": (wide_leg("cubic"), 40),
        "quartic_0.75": (wide_leg("quartic_0.75"), 1),
        "class_splitting": ([ScenarioConfig(
            flux=TestClassSplitting.FLUX, eps=0.05, seed=seed,
            w0={"random": {"jumps": 6, "max_amplitude": 0.5}},
            v0={"random": {"jumps": 6, "max_amplitude": 0.45}},
        ) for seed in (2, 7, 9)], 3),
    }

    @pytest.mark.parametrize("leg", LEGS)
    def test_every_split_equals_the_envelope_split(self, leg):
        configs, floor = self.LEGS[leg]
        calls = cuts = 0
        for cfg in configs:
            spec = make_flux(cfg.flux["name"], cfg.flux["params"])
            bounds = derivative_bounds(spec)
            w0, v0 = build_initial_data(cfg, spec)
            history = EnvelopeSplitHistory(spec=spec, eps=cfg.eps, bounds=bounds)
            run(w0, v0, spec, cfg.eps, bounds=bounds, history=history)
            calls += history.calls
            cuts += history.cuts
        assert cuts >= floor, (leg, calls, cuts)


def load_workloads():
    """perfbench/workloads.py as a module, loaded by path without writing bytecode."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # its dataclasses look the module up
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def fine_eps_config(eps):
    """The benchmark's fine_eps datum on the grid of step ``eps``, at level fast."""
    w0, v0 = load_workloads().fine_eps_datum(eps)
    return ScenarioConfig(eps=eps, check_level="fast",
                          w0={"jumps": [[x, v] for x, v in w0]},
                          v0={"jumps": [[x, v] for x, v in v0]})


def run_with_walk(monkeypatch, config):
    """Run ``config`` with the per-pair walk double as its history; returns
    the result and the double."""
    made = []

    class Walk(PairWalkHistory):
        def __init__(self, **kwargs):
            super().__init__(**kwargs)
            made.append(self)

    monkeypatch.setattr(scenario, "PairHistory", Walk)
    res = run_scenario(config)
    history, = made
    history.check_all()
    assert history.events_checked == len(res.trajectory.events)
    return res, history


class TestPotentialsMatchTheWalk:
    """Each pair's budget read from the potentials equals the one the
    per-pair walk grows, T the walk's exact sum, and Q the Q read from S,
    after every event."""

    @pytest.mark.parametrize("config", golden_cases().values(),
                             ids=[path.name for path in golden_cases()])
    def test_goldens(self, monkeypatch, config):
        res, history = run_with_walk(monkeypatch, config)
        assert res.passed

    @pytest.mark.parametrize("eps,visits", [(0.02, 72_758), (0.01, 551_755), (0.005, 4_291_016)])
    def test_fine_eps_ladder(self, monkeypatch, eps, visits):
        res, history = run_with_walk(monkeypatch, fine_eps_config(eps))
        assert res.passed
        # the walk visits as many pairs as the production crossing did
        # before the potentials
        assert history.visits == visits


class RecordLookupHistory(PairHistory):
    """The production history, noting at each interaction and cancellation
    its kind, how many ``_record_of`` lookups ``on_event`` made, the pairs
    across its two fronts, and the divided pairs that met again."""

    seen: list = []

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.lookups = 0

    def _record_of(self, s, s2):
        self.lookups += 1
        return super()._record_of(s, s2)

    def on_event(self, event, state):
        lookups, divided = self.lookups, self.n_divided
        out = super().on_event(event, state)
        if event.left_ids:
            RecordLookupHistory.seen.append((event.kind, self.lookups - lookups,
                                             len(event.left_ids) * len(event.right_ids),
                                             divided - self.n_divided))
        return out


@pytest.fixture(scope="module")
def lookups():
    """What ``RecordLookupHistory`` saw over the four golden cases and the
    re-join datum: (lookups, cross pairs, pairs that met again) per
    interaction and per cancellation."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scenario, "PairHistory", RecordLookupHistory)
        mp.setattr(RecordLookupHistory, "seen", [])
        for config in [*golden_cases().values(), REJOIN]:
            run_scenario(config)
        seen = RecordLookupHistory.seen
    return {kind: [counts for k, *counts in seen if k.is_interaction == kind]
            for kind in (True, False)}


def test_an_interaction_looks_up_each_cross_pair_once(lookups):
    # _rejoin reads every pair across the two fronts once, for the
    # interaction detail and for the re-join alike
    seen = lookups[True]
    assert [n for n, _, _ in seen] == [pairs for _, pairs, _ in seen]
    assert max(pairs for _, pairs, _ in seen) > 1
    assert sum(rejoined for _, _, rejoined in seen) > 0, seen


def test_a_cancellation_looks_up_no_pair(lookups):
    # every pair across the two fronts of a cancellation has a dead wave,
    # whose pairs the record pass took out: nothing is looked up
    seen = lookups[False]
    assert [n for n, _, _ in seen] == [0] * len(seen)
    assert sum(pairs for _, pairs, _ in seen) > 100, seen


def corrupt_one(history, state, rng):
    """One seeded corruption of a live record of ``history`` behind its
    back, or of a wave of that record in ``state``; returns its kind and the
    call that undoes it."""
    rec = rng.choice(history.records)
    ids = [s for cls in rec.classes for s in cls]
    s = rng.choice(ids)
    kinds = ["A", "B", "up", "dn", "count", "dead wave", "re-joined", "re-joined outside"]
    kind = rng.choice(kinds + ["class order"] * (len(rec.classes) > 1))
    if kind in ("A", "B", "up", "dn"):
        kept, delta = getattr(rec, kind), rng.choice((-1, 1))
        kept[s] += delta
        return kind, lambda: kept.__setitem__(s, kept[s] - delta)
    if kind == "count":
        rec.count += 1
        return kind, lambda: setattr(rec, "count", rec.count - 1)
    if kind == "class order":
        k = rng.randrange(len(rec.classes) - 1)
        classes = rec.classes
        classes[k:k + 2] = classes[k + 1], classes[k]
        return kind, lambda: classes.__setitem__(slice(k, k + 2), (classes[k + 1], classes[k]))
    if kind == "dead wave":       # a wave of a class dies, and the record keeps it
        w = state.waves[s - 1]
        x_a, w.x_a = w.x_a, None
        return kind, lambda: setattr(w, "x_a", x_a)
    if kind == "re-joined":
        others = [t for t in ids if t != s]
    else:                         # with a wave the record does not hold
        others = [t for t in range(1, len(state.waves) + 1) if t not in rec.A]
    key = tuple(sorted((s, rng.choice(others or [s]))))
    if key[0] == key[1] or key in rec.rejoined:
        return kind, lambda: None
    rec.rejoined.add(key)
    return kind, lambda: rec.rejoined.discard(key)


class OracleCheckHistory(PairHistory):
    """The production history whose ``validate`` also runs the per-part
    oracle, on the history as it is and after one seeded corruption (then
    undone), and asserts equal problem lists, text and order alike.  Counts
    the corruptions by kind and those that the recount reports."""

    rng = random.Random(0)
    kinds: Counter = Counter()
    reported: Counter = Counter()

    def validate(self, state):
        out = super().validate(state)
        assert out == per_part_validate(self, state)
        if self.records:
            kind, undo = corrupt_one(self, state, self.rng)
            try:
                problems = super().validate(state)
                assert problems == per_part_validate(self, state), (kind, problems)
            finally:
                undo()
            self.kinds[kind] += 1
            self.reported[kind] += bool(problems)
        return out


def oracle_data():
    """The four golden cases (``scalar_fast`` at level full, so that it too
    is recounted at every group end) with the re-join datum, and the 24
    data of the benchmark's ensemble round."""
    goldens = [replace(c, check_level="full") if c.check_level == "fast" else c
               for c in golden_cases().values()]
    ensemble = [ScenarioConfig(flux=case.flux, eps=case.eps, check_level="full",
                               w0={"jumps": [[x, v] for x, v in case.w0]},
                               v0={"jumps": [[x, v] for x, v in case.v0]})
                for case in load_workloads().build("ensemble", 0).cases]
    return {"goldens": [*goldens, REJOIN], "ensemble": ensemble}


@pytest.mark.parametrize("data,calls", [("goldens", 90), ("ensemble", 1800)])
def test_recount_agrees_with_the_per_part_oracle(monkeypatch, data, calls):
    # at every group end, the one-pass recount and the per-part oracle
    # report the same problems, for the history as it is (none) and after a
    # seeded single corruption of a potential, a weight, a pair count, the
    # class order, a wave's life or the re-joined set
    monkeypatch.setattr(scenario, "PairHistory", OracleCheckHistory)
    monkeypatch.setattr(OracleCheckHistory, "rng", random.Random(36))
    monkeypatch.setattr(OracleCheckHistory, "kinds", Counter())
    monkeypatch.setattr(OracleCheckHistory, "reported", Counter())
    for config in oracle_data()[data]:
        assert run_scenario(config).passed
    kinds, reported = OracleCheckHistory.kinds, OracleCheckHistory.reported
    assert sum(kinds.values()) >= calls and len(kinds) == 9, kinds
    # most corruptions show; a shifted potential whose weight is 0 does not
    assert sum(reported.values()) > 0.8 * sum(kinds.values()), (kinds, reported)
