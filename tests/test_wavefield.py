import ast
import json
import random
from collections import Counter
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from doubles import (
    FrontIndexAgainstScan,
    alive_ids,
    by_cell_runs,
    fan_cells,
    kept_by_state,
    meeting_problem,
    minmax_stack_range,
    multipass_validate_enumeration,
    reconstruct_profile,
    reference_effective_flux,
    scan_front_index,
    speed_runs,
    swap_end_positions,
    swap_kept_ids,
    value_at,
    walk_block,
)
from golden.regen import golden_cases
from test_acceptance import (NON_CONVEX_WIDE, SMALL_N_CUBIC, SMALL_N_SEEDS, ensemble_config,
                             small_n_config)
from test_lattice_fuzz import fuzz
from test_verifier import REJOIN
from triwave import history, simulator, wavefield
from triwave.envelopes import EnvelopeResult
from triwave.flux import Box, DerivativeBounds, FluxSpec, FluxTable, PiecewiseAffineFlux, make_flux
from triwave.history import FunctionalSnapshot, PairHistory, PartitionRecord
from triwave.replay import ReplayPair
from triwave.riemann import FanFront, solve_scalar
from triwave.scenario import run_scenario
from triwave.simulator import CollisionCandidate
from triwave.verifier import CheckResult
from triwave.wavefield import (
    BlockFluxes,
    Event,
    EventKind,
    FieldState,
    Front,
    assign_initial_speeds,
    front_index,
    StepFunction,
    effective_flux,
    fan_runs,
    initial_enumeration,
    snapshot,
    speed_groups,
    stack_range,
    validate_enumeration,
    VFront,
    WaveRecord,
)

EPS = 0.05


def speeds_of(groups):
    """Per-wave speeds from ``speed_groups`` output."""
    return {s: speed for members, speed in groups for s in members}


def blocks(state):
    """Maximal runs of alive waves of one sign, each the tuple of its ids:
    the oracle for the blocks ``BlockFluxes`` reads from the kept fronts."""
    out = []
    for w in state.waves:
        if not w.alive:
            continue
        if out and state.wave(out[-1][-1]).sign == w.sign:
            out[-1].append(w.id)
        else:
            out.append([w.id])
    return [tuple(run) for run in out]


def kill(state, ids):
    for s in ids:
        w = state.wave(s)
        w.x_a = w.speed = None


class TestStepFunction:
    def test_from_jumps_drops_zero_jumps(self):
        sf = StepFunction.from_jumps([(1.0, 2), (2.0, 2), (3.0, 0)])
        assert sf.positions == (1.0, 3.0)
        assert sf.values == (2, 0)

    def test_value_and_tv(self):
        sf = StepFunction.from_jumps([(0.0, 3), (1.0, -1), (2.0, 0)])
        assert value_at(sf, -0.5) == 0
        assert value_at(sf, 0.0) == 3
        assert value_at(sf, 1.5) == -1
        assert sf.tv_ticks() == 3 + 4 + 1

    def test_rejects_unordered_breakpoints(self):
        with pytest.raises(ValueError):
            StepFunction((1.0, 1.0), (1, 2), 0)


class TestInitialEnumeration:
    def test_single_box_two_waves(self):
        w0 = StepFunction.from_jumps([(0.0, 1), (1.0, 0)])
        v0 = StepFunction((), (), 0)
        state = initial_enumeration(w0, v0, EPS)
        assert [w.id for w in state.waves] == [1, 2]
        w1, w2 = state.waves
        assert (w1.x_a, w1.sign, w1.w_hat) == (0.0, 1, 1)
        assert (w2.x_a, w2.sign, w2.w_hat) == (1.0, -1, 0)

    def test_monotone_staircase_stacks(self):
        w0 = StepFunction.from_jumps([(0.0, 3), (5.0, 0)])
        state = initial_enumeration(w0, StepFunction((), (), 0), EPS)
        stack = [w for w in state.waves if w.x_a == 0.0]
        assert [w.w_hat for w in stack] == [1, 2, 3]
        assert all(w.sign == 1 for w in stack)

    def test_random_datum_round_trips(self, rng, flux_table):
        for _ in range(25):
            n = int(rng.integers(2, 20))
            vals, prev = [], 0
            for _ in range(n):
                prev = int(rng.choice([v for v in range(-6, 7) if v != prev]))
                vals.append(prev)
            if vals[-1] != 0:
                vals.append(0)
            xs = np.sort(rng.uniform(0, 10, len(vals)))
            if len(np.unique(xs)) != len(xs):
                continue
            w0 = StepFunction(tuple(float(x) for x in xs), tuple(vals), 0)
            state = initial_enumeration(w0, StepFunction((), (), 0), EPS)
            assign_initial_speeds(state, flux_table)
            assert validate_enumeration(state) == []
            rebuilt = reconstruct_profile(state)
            assert rebuilt.positions == w0.positions
            assert rebuilt.values == w0.values
            assert state.tv_ticks() == w0.tv_ticks()

    def test_rejects_non_compact_support(self):
        with pytest.raises(ValueError):
            initial_enumeration(StepFunction((0.0,), (2,), 0), StepFunction((), (), 0), EPS)

    def test_v_labels_and_crossed_counts(self):
        w0 = StepFunction.from_jumps([(1.0, 1), (4.0, 0)])
        v0 = StepFunction.from_jumps([(2.0, 3), (4.0, 0)])
        state = initial_enumeration(w0, v0, EPS)
        first, second = state.waves
        assert state.v_ticks == [0, 3, 0]
        assert first.crossed == 0
        # the wave sitting exactly on a v-front has crossed it
        assert second.crossed == 2


class TestAssignSpeeds:
    def test_single_wave_chord(self, spec, flux_table):
        w0 = StepFunction.from_jumps([(0.0, 1), (1.0, 0)])
        state = initial_enumeration(w0, StepFunction((), (), 0), EPS)
        speeds = speeds_of(speed_groups(state, [1], flux_table, 0))
        g = flux_table.flux_for_v(0)
        assert speeds[1] == (g.value(1) - g.value(0)) / EPS

    def test_shock_front_shares_rh_speed(self, flux_table):
        # downward jump of a convex flux: one shock, every wave at the chord slope
        w0 = StepFunction.from_jumps([(0.0, 4), (1.0, 0)])
        state = initial_enumeration(w0, StepFunction((), (), 0), EPS)
        shock_ids = [5, 6, 7, 8]
        groups = speed_groups(state, shock_ids, flux_table, 0)
        assert len(groups) == 1
        speeds = speeds_of(groups)
        g = flux_table.flux_for_v(0)
        want = (g.value(4) - g.value(0)) / (4 * EPS)
        assert all(speeds[s] == pytest.approx(want, abs=1e-15) for s in shock_ids)

    def test_upward_jump_of_convex_flux_fans_out(self, flux_table):
        w0 = StepFunction.from_jumps([(0.0, 3), (9.0, 0)])
        state = initial_enumeration(w0, StepFunction((), (), 0), EPS)
        speeds = speeds_of(speed_groups(state, [1, 2, 3], flux_table, 0))
        g = flux_table.flux_for_v(0)
        cells = [(g.value(k + 1) - g.value(k)) / EPS for k in range(3)]
        assert [speeds[s] for s in (1, 2, 3)] == pytest.approx(cells, abs=1e-15)
        assert speeds[1] < speeds[2] < speeds[3]

    def test_mixed_sign_stack_rejected(self, flux_table):
        w0 = StepFunction.from_jumps([(0.0, 2), (1.0, 1), (2.0, 0)])
        state = initial_enumeration(w0, StepFunction((), (), 0), EPS)
        with pytest.raises(ValueError):
            speed_groups(state, [1, 2, 3], flux_table, 0)


class TestStackRange:
    """``stack_range`` owns the stack rule for every stack the event path
    reads, so the fans the pair history meets are cut from checked stacks."""

    @pytest.mark.parametrize("hats,wave,want", [
        ((1, 3), 2, 2), ((2, 1, 3), 2, 3), ((3, 4, 1), 3, 5),
        ((2, 1), 2, 3),     # a step against the sign of the stack
    ])
    def test_right_states_not_consecutive_raise(self, spec, bounds, hats, wave, want):
        # a stack built by hand: the rising waves 1.. of the right states ``hats``
        state = initial_enumeration(StepFunction.from_jumps([(0.0, 4), (1.0, 0)]),
                                    StepFunction((), (), 0), EPS)
        ids = tuple(range(1, len(hats) + 1))
        for s, hat in zip(ids, hats):
            state.wave(s).w_hat = hat
        with pytest.raises(ValueError, match=rf"wave {wave} of the stack 1\.\.{len(ids)} has "
                                             rf"right state {hats[wave - 1]}, not {want}"):
            stack_range(state, ids)
        # joined waves make no record and need no ranks
        for w in state.waves:
            w.speed = float(w.id)
        history = PairHistory(spec=spec, eps=EPS, bounds=bounds)
        history.initialize(state, [])
        history._meet([(ids, 0.5)], state)
        assert history.records == []

    @pytest.mark.parametrize("ids", [(2, 3), (1, 2, 3, 4)])
    def test_waves_of_two_signs_raise(self, flux_table, ids):
        # waves 1, 2 go up and 3, 4 down: a stack over both raises before
        # its fan is solved, so no meeting sees two signs
        state = initial_enumeration(StepFunction.from_jumps([(0.0, 2), (1.0, 1), (2.0, 0)]),
                                    StepFunction((), (), 0), EPS)
        assert [w.sign for w in state.waves] == [1, 1, -1, -1]
        with pytest.raises(ValueError, match="mixed-sign stack"):
            speed_groups(state, ids, flux_table, 0)


def one_jump(w_minus, w_plus):
    """A state whose one stack at x = 1 jumps from ``w_minus`` to
    ``w_plus`` (ticks), and that stack's ids."""
    w0 = StepFunction.from_jumps([(1.0, w_plus), (2.0, w_minus)], base=w_minus)
    state = initial_enumeration(w0, StepFunction((), (), 0), EPS)
    return state, [w.id for w in state.waves if w.x_a == 1.0]


def test_speed_groups_map_the_table_fan_onto_the_stack(spec):
    # each group is one front of the table's fan: its speed, and as many
    # waves as the front is wide, in id order, whose cells the front spans
    table = FluxTable(spec, EPS)
    for w_minus, w_plus in ((-3, 4), (5, -2)):
        state, ids = one_jump(w_minus, w_plus)
        groups = speed_groups(state, ids, table, 0)
        fan = table.fans[(w_minus, w_plus, 0)]
        assert [speed for _, speed in groups] == [f.speed for f in fan]
        for (members, _), f in zip(groups, fan):
            assert list(members) == sorted(members)
            assert len(members) == abs(f.w_right - f.w_left)
            assert sorted(state.wave(s).cell() for s in members) == list(fan_cells(f))
        assert [s for members, _ in groups for s in members] == ids


@pytest.mark.parametrize("widths", [(1, 2), (1, 1, 1, 2), (5,), ()])
def test_a_fan_whose_widths_miss_the_stack_size_raises(widths):
    # a stack of four waves and an upward fan of fronts of these widths
    fan, w = [], 0
    for width in widths:
        fan.append(FanFront(0.1 * len(fan), w, w + width))
        w += width
    with pytest.raises(ValueError, match=f"a fan {sum(widths)} waves wide cuts a stack of 4"):
        fan_runs((5, 6, 7, 8), fan)
    downward = [FanFront(0.1, 0, -2), FanFront(0.2, -2, -4)]
    assert fan_runs((5, 6, 7, 8), downward) == [(5, 6), (7, 8)]


class TestValidateEnumeration:
    def test_detects_bad_stack(self, flux_table):
        w0 = StepFunction.from_jumps([(0.0, 2), (1.0, 0)])
        state = initial_enumeration(w0, StepFunction((), (), 0), EPS)
        assign_initial_speeds(state, flux_table)
        assert validate_enumeration(state) == []
        state.wave(1).w_hat, state.wave(2).w_hat = 2, 1  # break monotonicity
        problems = validate_enumeration(state)
        assert any("right states" in p for p in problems)

    def test_detects_a_kept_joined_count_off_its_recount(self, flux_table):
        w0 = StepFunction.from_jumps([(0.0, 2), (1.0, 0)])
        state = initial_enumeration(w0, StepFunction((), (), 0), EPS)
        assign_initial_speeds(state, flux_table)
        # the fan is two fronts of one wave, the shock one front of two
        assert state.n_joined == 1 and validate_enumeration(state) == []
        state._n_joined += 1
        assert validate_enumeration(state) == [
            "kept count of pairs on one front 2, recounted 1"]

    def test_detects_position_disorder(self, flux_table):
        w0 = StepFunction.from_jumps([(0.0, 1), (1.0, 2), (2.0, 0)])
        state = initial_enumeration(w0, StepFunction((), (), 0), EPS)
        assign_initial_speeds(state, flux_table)
        state.wave(3).x_a = -1.0
        problems = validate_enumeration(state)
        assert any("out of order" in p for p in problems)


def corrupted_state(flux_table, corrupt):
    """Fronts 0 -> 2 (a fan of waves 1, 2), 2 -> 0 (a shock of waves 3, 4),
    0 -> -1 (wave 5) and -1 -> 0 (wave 6) across two v-fronts, with its
    fronts kept, after ``corrupt(state)``."""
    state = initial_enumeration(StepFunction.from_jumps([(0.0, 2), (1.0, 0), (2.0, -1), (3.0, 0)]),
                                StepFunction.from_jumps([(0.5, 2), (1.5, 0)]), EPS)
    assign_initial_speeds(state, flux_table)
    state.fronts()
    corrupt(state)
    return state


def set_wave(s, **values):
    def corrupt(state):
        for name, value in values.items():
            setattr(state.wave(s), name, value)
    return corrupt


# one corruption per kind of problem, and the problem it must raise
CORRUPTIONS = {
    "order": (swap_end_positions, "positions out of order: wave 1 at 3.0 after 2 at 0.0"),
    # waves 5 and 6 move at one speed: only their signs tell the runs apart
    "mixed_sign_stack": (set_wave(5, x_a=3.0), "mixed-sign stack at x=3.0"),
    "unfilled_stack": (set_wave(4, w_hat=1), "stack at x=1.0: right states [1, 1] do not fill [0, 2)"),
    "base": (set_wave(6, x_a=None, speed=None),
             "profile does not return to base: ends at -1"),
    "no_speed": (set_wave(1, speed=None), "alive wave 1 without speed"),
    # wave 5 killed behind the back of the kept counts and fronts
    "killed_behind_the_back": (set_wave(5, x_a=None, speed=None),
                               "stack at x=3.0: right states [0] do not fill (0, 1]"),
    "n_alive": (lambda state: setattr(state, "n_alive", 7), "kept alive count 7, recounted 6"),
    "per_crossed": (lambda state: state.per_crossed.__setitem__(0, 3),
                    "kept alive counts per crossed value [3, 2, 2], recounted [2, 2, 2]"),
    "mixed_front": (set_wave(4, crossed=0), "mixed front at x=1.0: crossed={0, 1}"),
    "mixed_front_crossed": (set_wave(4, crossed=2), "mixed front at x=1.0: crossed={1, 2}"),
    # the first of two mixed fronts is the one reported
    "two_mixed_fronts": (lambda state: (set_wave(2, speed=state.wave(1).speed, crossed=1)(state),
                                        set_wave(4, crossed=2)(state)),
                         "mixed front at x=0.0: crossed={0, 1}"),
    "kept_front": (swap_kept_ids, "kept front 0 is (2,), regrouped (1,)"),
    "n_joined": (lambda state: setattr(state, "_n_joined", 2),
                 "kept count of pairs on one front 2, recounted 1"),
    # fronts (1,), (2,), (3, 4), (5,), (6,): one last id off
    "last_ids": (lambda state: state._last_ids.__setitem__(2, 5), "kept last id 2 is 5, recounted 4"),
    # problems of several kinds, found in another order than they are listed
    "several": (lambda state: (set_wave(1, x_a=None, speed=None)(state),
                               set_wave(6, speed=None)(state)),
                "alive wave 6 without speed"),
}


class TestOnePassMatchesMultipass:
    """The one-pass ``validate_enumeration`` returns the problems of the
    multi-pass oracle in ``doubles``, in the same order."""

    def test_clean_state_has_no_problem(self, flux_table):
        state = corrupted_state(flux_table, lambda state: None)
        assert validate_enumeration(state) == multipass_validate_enumeration(state) == []

    @pytest.mark.parametrize("kind", CORRUPTIONS)
    def test_each_kind_of_corruption(self, flux_table, kind):
        corrupt, problem = CORRUPTIONS[kind]
        state = corrupted_state(flux_table, corrupt)
        problems = validate_enumeration(state)
        assert problem in problems
        assert problems == multipass_validate_enumeration(state)

    def test_after_every_event(self, monkeypatch):
        compared = []

        def both(state):
            problems = validate_enumeration(state)
            assert problems == multipass_validate_enumeration(state)
            compared.append(problems)
            return problems

        monkeypatch.setattr(simulator, "validate_enumeration", both)
        # the small-N data validated at every event, without the lemma suite
        configs = [replace(small_n_config(seed), check_level="full") for seed in SMALL_N_SEEDS]
        configs += [ensemble_config(seed, flux) for seed in (0, 1) for flux in (
            None, {"name": "quartic", "params": {}},
            {"name": "custom_poly", "params": {"coeffs": [[3, 0, 1.0], [2, 1, 0.4]]}})]
        events = sum(len(run_scenario(cfg).trajectory.events) for cfg in configs)
        assert events > 1000 and len(compared) > 500
        assert not any(compared)


class TestEffectiveFlux:
    def test_requires_homogeneous_block(self, flux_table):
        # effective_flux takes its block's one sign from BlockFluxes, which
        # builds one-sign blocks and refuses a run over two of them
        w0 = StepFunction.from_jumps([(0.0, 1), (1.0, 0)])
        state = initial_enumeration(w0, StepFunction((), (), 0), EPS)
        assign_initial_speeds(state, flux_table)
        fluxes = BlockFluxes(state, flux_table, {})
        assert [fluxes._block(s) for s in (1, 2)] == [(1,), (2,)]
        with pytest.raises(ValueError, match="span two homogeneous blocks"):
            fluxes.flux((1, 2))

    def test_blocks_partition_alive_waves(self):
        w0 = StepFunction.from_jumps([(0.0, 2), (1.0, -1), (2.0, 0)])
        state = initial_enumeration(w0, StepFunction((), (), 0), EPS)
        assert blocks(state) == [(1, 2), (3, 4, 5), (6,)]

    def test_negative_block_flux(self, spec):
        w0 = StepFunction.from_jumps([(0.0, 2), (1.0, -1), (2.0, 0)])
        state = initial_enumeration(w0, StepFunction((), (), 0), EPS)
        eff = effective_flux(state, (3, 4, 5), FluxTable(spec, EPS), {})
        # cells of the negative waves: hats 1, 0, -1 -> cells [1,2), [0,1), [-1,0)
        assert eff.base_index == -1
        assert len(eff.values) == 4


class TestBlockFluxes:
    def test_classes_of_one_block_share_its_flux(self, flux_table):
        # one positive block of five waves (ids 1-5), then a negative one (6-10)
        w0 = StepFunction.from_jumps([(0.0, 2), (1.0, 5), (2.0, 3), (3.0, 0)])
        state = initial_enumeration(w0, StepFunction((), (), 0), EPS)
        assign_initial_speeds(state, flux_table)
        fluxes = BlockFluxes(state, flux_table, {})
        assert fluxes.flux([1, 2]) is fluxes.flux([3, 4, 5])
        want = effective_flux(state, (1, 2, 3, 4, 5), flux_table, {})
        assert np.array_equal(fluxes.flux([4]).values, want.values)

    def test_one_cell_sequence_is_one_flux_within_a_run(self, flux_table):
        # within a run, one (cell, v tick) sequence maps to one flux object
        # and different sequences to different objects.  Blocks 1-5 and 6-10
        # of this datum both hold the cells 0-4 at v tick 0
        w0 = StepFunction.from_jumps([(0.0, 2), (1.0, 5), (2.0, 3), (3.0, 0)])
        state = initial_enumeration(w0, StepFunction((), (), 0), EPS)
        assign_initial_speeds(state, flux_table)
        memo = {}
        fluxes = BlockFluxes(state, flux_table, memo)
        assert fluxes.flux([6]) is fluxes.flux([1])
        assert list(memo) == [tuple((c, 0) for c in range(5))]
        # a later state of the run reads the same memo
        assert BlockFluxes(state.copy(), flux_table, memo).flux([8, 9]) is fluxes.flux([1])
        # signs + + - - - + + -: four blocks over four cell sequences
        w0 = StepFunction.from_jumps([(0.0, 2), (1.0, -1), (2.0, 1), (3.0, 0)])
        other = initial_enumeration(w0, StepFunction((), (), 0), EPS)
        assign_initial_speeds(other, flux_table)
        others = BlockFluxes(other, flux_table, memo)
        got = [others.flux(blk) for blk in blocks(other)] + [fluxes.flux([1])]
        assert len({id(eff) for eff in got}) == len(memo) == 5
        # the cells 0-1 at v tick 0, as block 1-2 above, then at v tick 2
        w0 = StepFunction.from_jumps([(0.0, 2), (1.0, 0)])
        v0 = StepFunction.from_jumps([(0.5, 2), (1.5, 0)])
        split = initial_enumeration(w0, v0, EPS)
        assign_initial_speeds(split, flux_table)
        fluxes = BlockFluxes(split, flux_table, memo)
        assert fluxes.flux([1]) is others.flux([1, 2])
        assert fluxes.flux([3]) is not fluxes.flux([1])
        assert len(memo) == 6

    def test_rh_speed_is_the_chord_of_the_block_flux(self, flux_table):
        w0 = StepFunction.from_jumps([(0.0, 3), (1.0, 0)])
        state = initial_enumeration(w0, StepFunction((), (), 0), EPS)
        assign_initial_speeds(state, flux_table)
        fluxes = BlockFluxes(state, flux_table, {})
        g = fluxes.flux([1, 2, 3])
        assert fluxes.rh_speed([1, 2, 3]) == (g.value(3) - g.value(0)) / (3 * EPS)

    @pytest.mark.parametrize("dead", [(), (2, 3), (1, 2, 3, 4), (5, 6), (4, 5, 6, 7), (7, 8)])
    def test_finds_the_block_of_the_oracle(self, flux_table, dead):
        # signs + + - - - + + -, cancelled in pairs from a shared middle
        # state; after (4, 5, 6, 7) the negative waves 3 and 8 form one block
        w0 = StepFunction.from_jumps([(0.0, 2), (1.0, -1), (2.0, 1), (3.0, 0)])
        state = initial_enumeration(w0, StepFunction((), (), 0), EPS)
        assign_initial_speeds(state, flux_table)
        kill(state, dead)    # before the fronts are first built, so they skip the dead
        fluxes = BlockFluxes(state, flux_table, {})
        for blk in blocks(state):
            want = effective_flux(state, blk, flux_table, {})
            for s in blk:
                assert np.array_equal(fluxes.flux([s]).values, want.values)
                assert fluxes.flux([s]) is fluxes.flux(blk)
            assert fluxes._block(blk[0]) == blk == walk_block(state, blk[0])
            beyond = [s for s in alive_ids(state) if s > blk[-1]]
            if beyond:
                with pytest.raises(ValueError, match="span two homogeneous blocks"):
                    fluxes.flux([blk[-1], beyond[0]])

    def test_run_spanning_two_blocks_raises(self, flux_table):
        w0 = StepFunction.from_jumps([(0.0, 2), (1.0, -1), (2.0, 0)])
        state = initial_enumeration(w0, StepFunction((), (), 0), EPS)
        assign_initial_speeds(state, flux_table)
        with pytest.raises(ValueError, match="span two homogeneous blocks"):
            BlockFluxes(state, flux_table, {}).flux([2, 3])

    def test_a_dead_wave_has_no_block(self, flux_table):
        w0 = StepFunction.from_jumps([(0.0, 2), (1.0, -1), (2.0, 0)])
        state = initial_enumeration(w0, StepFunction((), (), 0), EPS)
        assign_initial_speeds(state, flux_table)
        kill(state, (2, 3))
        with pytest.raises(ValueError, match="wave 3 is on no kept front"):
            BlockFluxes(state, flux_table, {}).flux([3])


def test_a_memo_hit_is_the_reference_flux(monkeypatch):
    # every flux a run's memo hands out again, in the history and in the
    # replay, has the values of the block's cells integrated anew
    real = wavefield.effective_flux
    hits = []

    def checked(state, block, table, memo):
        cells = sorted((state.wave(s).cell(), state.v_ticks[state.wave(s).crossed])
                       for s in block)
        hit = tuple(cells) in memo
        eff = real(state, block, table, memo)
        if hit:
            want = reference_effective_flux(cells, table.spec, table.eps)
            assert (eff.base_index, eff.values) == (want.base_index, want.values), cells
            hits.append(len(cells))
        return eff

    monkeypatch.setattr(wavefield, "effective_flux", checked)
    configs = list(golden_cases().values()) + [small_n_config(seed) for seed in range(10)]
    for cfg in configs:
        run_scenario(cfg)
    assert len(hits) > 50 and max(hits) > 5, (len(hits), max(hits, default=0))


def test_block_matches_the_id_walk_after_every_event(monkeypatch):
    # the goldens, and criterion 9's legs that cancel waves and hold classes
    # of two or more: after every event, each alive wave's block read from
    # the kept fronts is the one the id walk over dead waves finds
    seen = {"events": 0, "cancellations": 0, "multi_front_blocks": 0}
    real = simulator.resolve

    def compare(cand, state, flux_table, index):
        event = real(cand, state, flux_table, index)
        fluxes, fronts = BlockFluxes(state, flux_table, {}), state.fronts()
        for s in alive_ids(state):
            blk = fluxes._block(s)
            assert blk == walk_block(state, s), (index, s)
            seen["multi_front_blocks"] += len(blk) > len(fronts[front_index(state, s)].ids)
        seen["events"] += 1
        seen["cancellations"] += event.kind == EventKind.CANCELLATION
        return event

    monkeypatch.setattr(simulator, "resolve", compare)
    configs = list(golden_cases().values())
    configs += [ensemble_config(seed, flux, amplitude)
                for flux, amplitude, _, _ in NON_CONVEX_WIDE.values() for seed in range(5)]
    for cfg in configs:
        # the check level plays no part in the blocks
        run_scenario(replace(cfg, check_level="fast"))
    assert seen["events"] > 500 and seen["cancellations"] > 50, seen
    assert seen["multi_front_blocks"] > 1000, seen


def test_front_index_matches_the_scan_after_every_event(monkeypatch):
    # the goldens: after every event, the bisection of the kept last ids
    # finds the front of every alive wave and no front for a dead one
    check = FrontIndexAgainstScan(simulator.resolve)
    monkeypatch.setattr(simulator, "resolve", check)
    for cfg in golden_cases().values():
        run_scenario(replace(cfg, check_level="fast"))
    assert check.seen["events"] > 100 and check.seen["dead"] > 1000, check.seen


def test_only_wavefield_reads_the_blocks():
    # BlockFluxes is the one lookup from a run of waves to its block's flux
    pkg = Path(__file__).resolve().parents[1] / "src" / "triwave"
    callers = {
        path.stem
        for path in pkg.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call) and (
            (isinstance(node.func, ast.Name) and node.func.id == "effective_flux")
            or (isinstance(node.func, ast.Attribute)
                and node.func.attr in ("effective_flux", "blocks")))
    }
    assert callers == {"wavefield"}


def test_copy_keeps_every_field_and_shares_no_record():
    # each field set apart from its default, so a field the copy drops shows
    wave = WaveRecord(**{f.name: k + 1 for k, f in enumerate(fields(WaveRecord))})
    vf = VFront(**{f.name: k + 1 for k, f in enumerate(fields(VFront))})
    state = FieldState(EPS, [wave], [vf], time=2.0, w_base=1, v_base=3)
    copy = state.copy()
    assert (copy.waves, copy.v_fronts) == (state.waves, state.v_fronts)
    assert (copy.eps, copy.time, copy.w_base, copy.v_ticks) == (EPS, 2.0, 1, [3, vf.v_right])
    copy.wave(1).x_a = copy.v_fronts[0].x_a = -1.0
    assert (wave.x_a, vf.x_a) != (-1.0, -1.0)


def test_copy_builds_the_fronts_led_by_its_own_waves(flux_table):
    w0 = StepFunction.from_jumps([(0.0, 2), (1.0, 5), (2.0, 3), (3.0, 0)])
    state = initial_enumeration(w0, StepFunction((), (), 0), EPS)
    assign_initial_speeds(state, flux_table)
    fronts = state.fronts()
    copy = state.copy()
    assert copy._fronts is copy._last_ids is None   # built on first use
    assert [f.ids for f in copy.fronts()] == [f.ids for f in fronts]
    assert all(f.lead is copy.wave(f.lead.id) for f in copy.fronts())
    assert copy._last_ids == state._last_ids == [f.ids[-1] for f in fronts]
    assert copy.n_joined == state.n_joined and validate_enumeration(copy) == []
    # new speeds drop the kept fronts and their last ids together
    assign_initial_speeds(state, flux_table)
    assert state._fronts is state._last_ids is None


def test_snapshot_is_json_ready(flux_table):
    w0 = StepFunction.from_jumps([(0.0, 1), (1.0, 0)])
    v0 = StepFunction.from_jumps([(2.0, 1), (3.0, 0)])
    state = initial_enumeration(w0, v0, EPS)
    assign_initial_speeds(state, flux_table)
    text = json.dumps(snapshot(state))
    data = json.loads(text)
    assert len(data["waves"]) == 2
    assert len(data["v_fronts"]) == 2


def test_only_wavefield_moves_the_state():
    # apply_event is the one code path that moves a state across an event
    moved = {"x_a", "t_a", "speed", "crossed", "time"}
    pkg = Path(__file__).resolve().parents[1] / "src" / "triwave"
    writers = {
        path.stem
        for path in pkg.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
        and node.attr in moved
    }
    assert writers == {"wavefield"}


def test_per_event_records_are_slotted_and_shared_ones_frozen():
    # a run makes these per event or per check: slotted, and not frozen,
    # since a frozen dataclass costs several times as much to build
    wave = WaveRecord(1, 1, 1, 0.0, 0.5, 0)
    vf = VFront(1, 2.0, 0, 1)
    front = Front((1,), wave)
    records = [
        wave, vf, front,
        Event(1, 0.5, 1.0, EventKind.TRANSVERSAL, (1,), (((1,), 0.5),), 0.0),
        FunctionalSnapshot(0, 0.0, 0.05, 0.0, 0.0, 0.0),
        PartitionRecord([(1,), (2,)], [1, 2]),
        CollisionCandidate(0.5, 1.0, front, vf),
        CheckResult("x", "global", 0.0, 1.0, 1.0, True),
    ]
    for obj in records:
        cls = type(obj)
        assert "__slots__" in vars(cls) and not hasattr(obj, "__dict__"), cls.__name__
        assert not cls.__dataclass_params__.frozen, cls.__name__
        name = fields(cls)[0].name
        setattr(obj, name, getattr(obj, name))
    assert vf.speed == -1.0     # a class attribute beside the slots
    # a process-wide cache shares these: they stay frozen
    for cls in (FanFront, PiecewiseAffineFlux, EnvelopeResult, FluxSpec, DerivativeBounds,
                Box, StepFunction, ReplayPair):
        assert cls.__dataclass_params__.frozen, cls.__name__


def test_an_event_carries_the_speed_runs_of_its_survivors(monkeypatch):
    # after every event, the fan the event carries is the runs of equal
    # speed, sign and crossing count over its sorted survivors, left to
    # right at strictly increasing speed, and each of its fronts lies inside
    # one kept front
    seen = Counter()
    real = simulator.resolve

    def compare(cand, state, flux_table, index):
        event = real(cand, state, flux_table, index)
        survivors = set(event.colliding) - set(event.canceled)
        assert [ids for ids, _ in event.fronts] == speed_runs(state, survivors), index
        speeds = [speed for _, speed in event.fronts]
        assert all(a < b for a, b in zip(speeds, speeds[1:])), index
        kept = state.fronts()
        for ids, _ in event.fronts:
            k = scan_front_index(state, ids[0])
            assert set(ids) <= set(kept[k].ids), (index, ids)
        seen[event.kind, len(event.fronts) > 1] += 1
        return event

    monkeypatch.setattr(simulator, "resolve", compare)
    quartic, amplitude, _, _ = NON_CONVEX_WIDE["quartic_0.75"]
    configs = [*golden_cases().values(), REJOIN, small_n_config(SMALL_N_SEEDS[0], SMALL_N_CUBIC),
               ensemble_config(0, quartic, amplitude)]
    for cfg in configs:
        run_scenario(replace(cfg, check_level="fast"))
    assert seen[EventKind.CANCELLATION, True] > 0, seen
    assert seen[EventKind.TRANSVERSAL, True] > 0, seen


def test_the_slices_are_the_lookups_they_replace(monkeypatch):
    # after every event of the goldens, the re-join datum, three non-convex
    # data and the first 40 lattice-fuzz data: each stack's two states read
    # off its end waves are the least and greatest of all its right states,
    # each fan cut by its widths is the grouping by cell, a cancellation's
    # id slices are the waves the per-wave keep test keeps and cancels, every
    # event's fan passes the sign and consecutive-tick checks the pair
    # history's meeting once made, a block's cells in id order (reversed if
    # negative) are sorted, and a run's chord spans the cells of all its waves
    seen = Counter()
    real_groups, real_resolve = wavefield.speed_groups, simulator.resolve
    real_split = history.PairHistory._split_class
    real_build, real_rh = wavefield.build_effective_flux, BlockFluxes.rh_speed

    def groups(state, ids, table, v_tick):
        out = real_groups(state, ids, table, v_tick)
        if ids:
            w_range = minmax_stack_range(state, ids)
            assert wavefield.stack_range(state, ids) == w_range
            assert [m for m, _ in out] == by_cell_runs(state, ids, table.fan(*w_range, v_tick))
            seen["fans", len(out) > 1] += 1
        return out

    def split(self, members, state, fluxes):
        out = real_split(self, members, state, fluxes)
        fan = solve_scalar(*minmax_stack_range(state, members), fluxes.flux(members))
        assert out == by_cell_runs(state, members, fan)
        seen["splits", len(out) > 1] += 1
        return out

    def resolve(cand, state, table, index):
        event = real_resolve(cand, state, table, index)
        assert meeting_problem(state, event.fronts) is None, index
        seen["meetings", len(event.fronts) > 1] += 1
        if event.kind == EventKind.CANCELLATION:
            survivors = tuple(s for ids, _ in event.fronts for s in ids)
            assert (survivors, event.canceled) == kept_by_state(state, event.left_ids,
                                                                event.right_ids), index
            seen["cancellations", bool(survivors)] += 1
        return event

    def build(cells, table):
        assert cells == sorted(cells)
        return real_build(cells, table)

    def rh(self, members):
        cells = [self.state.wave(s).cell() for s in members]
        got = real_rh(self, members)
        assert got == wavefield.rh_speed(self.flux(members), min(cells), max(cells) + 1)
        seen["chords"] += 1
        return got

    for module in (wavefield, simulator):
        monkeypatch.setattr(module, "speed_groups", groups)
    monkeypatch.setattr(simulator, "resolve", resolve)
    monkeypatch.setattr(history.PairHistory, "_split_class", split)
    monkeypatch.setattr(wavefield, "build_effective_flux", build)
    monkeypatch.setattr(BlockFluxes, "rh_speed", rh)
    cubic, cubic_amplitude, _, _ = NON_CONVEX_WIDE["cubic"]
    quartic, quartic_amplitude, _, _ = NON_CONVEX_WIDE["quartic_0.75"]
    configs = [*golden_cases().values(), REJOIN, small_n_config(SMALL_N_SEEDS[0], SMALL_N_CUBIC),
               ensemble_config(0, quartic, quartic_amplitude),
               ensemble_config(0, cubic, cubic_amplitude)]
    rng = random.Random(0)     # the fuzz's own stream
    configs += [fuzz.draw_config(rng) for _ in range(40)]
    for cfg in configs:
        # the check level plays no part in the event path; small_n reads
        # the chords of the lemma suite
        level = "small_n" if cfg.check_level == "small_n" else "fast"
        run_scenario(replace(cfg, check_level=level))
    assert seen["fans", True] > 50 and seen["splits", True] > 3, seen
    assert seen["meetings", True] > 10, seen
    assert seen["cancellations", True] > 100 and seen["chords"] > 100, seen
