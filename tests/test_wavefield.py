import ast
import json
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from doubles import (
    alive_ids,
    multipass_validate_enumeration,
    reconstruct_profile,
    swap_end_positions,
    swap_kept_ids,
    value_at,
    walk_block,
)
from golden.regen import golden_cases
from test_acceptance import NON_CONVEX_WIDE, SMALL_N_SEEDS, ensemble_config, small_n_config
from triwave import simulator
from triwave.flux import FluxTable, make_flux
from triwave.riemann import solve_scalar
from triwave.scenario import run_scenario
from triwave.wavefield import (
    BlockFluxes,
    EventKind,
    FieldState,
    assign_initial_speeds,
    front_index,
    StepFunction,
    effective_flux,
    initial_enumeration,
    snapshot,
    speed_groups,
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
        speeds = speeds_of(speed_groups(state, [1], flux_table))
        g = flux_table.flux_for_v(0)
        assert speeds[1] == (g.value(1) - g.value(0)) / EPS

    def test_shock_front_shares_rh_speed(self, flux_table):
        # downward jump of a convex flux: one shock, every wave at the chord slope
        w0 = StepFunction.from_jumps([(0.0, 4), (1.0, 0)])
        state = initial_enumeration(w0, StepFunction((), (), 0), EPS)
        shock_ids = [5, 6, 7, 8]
        groups = speed_groups(state, shock_ids, flux_table)
        assert len(groups) == 1
        speeds = speeds_of(groups)
        g = flux_table.flux_for_v(0)
        want = (g.value(4) - g.value(0)) / (4 * EPS)
        assert all(speeds[s] == pytest.approx(want, abs=1e-15) for s in shock_ids)

    def test_upward_jump_of_convex_flux_fans_out(self, flux_table):
        w0 = StepFunction.from_jumps([(0.0, 3), (9.0, 0)])
        state = initial_enumeration(w0, StepFunction((), (), 0), EPS)
        speeds = speeds_of(speed_groups(state, [1, 2, 3], flux_table))
        g = flux_table.flux_for_v(0)
        cells = [(g.value(k + 1) - g.value(k)) / EPS for k in range(3)]
        assert [speeds[s] for s in (1, 2, 3)] == pytest.approx(cells, abs=1e-15)
        assert speeds[1] < speeds[2] < speeds[3]

    def test_mixed_sign_stack_rejected(self, flux_table):
        w0 = StepFunction.from_jumps([(0.0, 2), (1.0, 1), (2.0, 0)])
        state = initial_enumeration(w0, StepFunction((), (), 0), EPS)
        with pytest.raises(ValueError):
            speed_groups(state, [1, 2, 3], flux_table)


def one_jump(w_minus, w_plus):
    """A state whose one stack at x = 1 jumps from ``w_minus`` to
    ``w_plus`` (ticks), and that stack's ids."""
    w0 = StepFunction.from_jumps([(1.0, w_plus), (2.0, w_minus)], base=w_minus)
    state = initial_enumeration(w0, StepFunction((), (), 0), EPS)
    return state, [w.id for w in state.waves if w.x_a == 1.0]


class TestFanMemo:
    def test_kept_fans_equal_a_fresh_solve(self, spec):
        # upward and downward jumps over the lattice, each asked for twice
        table = FluxTable(spec, EPS)
        for v in (-6, 0, 5):
            for w_minus in range(-8, 9, 2):
                for w_plus in range(-9, 10, 3):
                    if w_plus == w_minus:
                        continue
                    state, ids = one_jump(w_minus, w_plus)
                    first = speed_groups(state, ids, table, v)
                    fresh = solve_scalar(w_minus, w_plus, FluxTable(spec, EPS).flux_for_v(v))
                    kept = table.fans[(w_minus, w_plus, v)]
                    assert kept == fresh
                    assert [speed for _, speed in first] == [f.speed for f in fresh]
                    assert speed_groups(state, ids, table, v) == first
                    assert table.fans[(w_minus, w_plus, v)] is kept
        assert len(table.fans) == 3 * 9 * 7 - 3 * 3

    def test_a_solve_that_raises_is_not_kept(self):
        # f = w^2 has chord speed 1.25 and more on w in [0.6, 0.8]
        table = FluxTable(make_flux("custom_poly", {"coeffs": [[2, 0, 1.0]]}), EPS)
        state, ids = one_jump(12, 16)
        for _ in range(2):
            with pytest.raises(ValueError, match="outside \\(-1, 1\\)"):
                speed_groups(state, ids, table)
            assert table.fans == {}

    def test_fans_are_kept_per_table(self, spec):
        # tables of different eps or flux share no entry
        state, ids = one_jump(0, 4)
        tables = [FluxTable(spec, EPS), FluxTable(spec, 2 * EPS),
                  FluxTable(make_flux("quartic"), EPS)]
        groups = [speed_groups(state, ids, table) for table in tables]
        for table, got in zip(tables, groups):
            assert list(table.fans) == [(0, 4, 0)]
            assert [speed for _, speed in got] == [
                f.speed for f in solve_scalar(0, 4, table.flux_for_v(0))]
        assert len({tuple(speed for _, speed in got) for got in groups}) == 3


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
    def test_requires_homogeneous_block(self, spec):
        w0 = StepFunction.from_jumps([(0.0, 1), (1.0, 0)])
        state = initial_enumeration(w0, StepFunction((), (), 0), EPS)
        with pytest.raises(ValueError):
            effective_flux(state, (1, 2), FluxTable(spec, EPS))

    def test_blocks_partition_alive_waves(self):
        w0 = StepFunction.from_jumps([(0.0, 2), (1.0, -1), (2.0, 0)])
        state = initial_enumeration(w0, StepFunction((), (), 0), EPS)
        assert blocks(state) == [(1, 2), (3, 4, 5), (6,)]

    def test_negative_block_flux(self, spec):
        w0 = StepFunction.from_jumps([(0.0, 2), (1.0, -1), (2.0, 0)])
        state = initial_enumeration(w0, StepFunction((), (), 0), EPS)
        eff = effective_flux(state, (3, 4, 5), FluxTable(spec, EPS))
        # cells of the negative waves: hats 1, 0, -1 -> cells [1,2), [0,1), [-1,0)
        assert eff.base_index == -1
        assert len(eff.values) == 4


class TestBlockFluxes:
    def test_classes_of_one_block_share_its_flux(self, flux_table):
        # one positive block of five waves (ids 1-5), then a negative one (6-7)
        w0 = StepFunction.from_jumps([(0.0, 2), (1.0, 5), (2.0, 3), (3.0, 0)])
        state = initial_enumeration(w0, StepFunction((), (), 0), EPS)
        assign_initial_speeds(state, flux_table)
        fluxes = BlockFluxes(state, flux_table)
        assert fluxes.flux([1, 2]) is fluxes.flux([3, 4, 5])
        assert fluxes.flux([6]) is not fluxes.flux([1])
        want = effective_flux(state, (1, 2, 3, 4, 5), flux_table)
        assert np.array_equal(fluxes.flux([4]).values, want.values)

    def test_rh_speed_is_the_chord_of_the_block_flux(self, flux_table):
        w0 = StepFunction.from_jumps([(0.0, 3), (1.0, 0)])
        state = initial_enumeration(w0, StepFunction((), (), 0), EPS)
        assign_initial_speeds(state, flux_table)
        fluxes = BlockFluxes(state, flux_table)
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
        fluxes = BlockFluxes(state, flux_table)
        for blk in blocks(state):
            want = effective_flux(state, blk, flux_table)
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
            BlockFluxes(state, flux_table).flux([2, 3])

    def test_a_dead_wave_has_no_block(self, flux_table):
        w0 = StepFunction.from_jumps([(0.0, 2), (1.0, -1), (2.0, 0)])
        state = initial_enumeration(w0, StepFunction((), (), 0), EPS)
        assign_initial_speeds(state, flux_table)
        kill(state, (2, 3))
        with pytest.raises(ValueError, match="wave 3 is on no kept front"):
            BlockFluxes(state, flux_table).flux([3])


def test_block_matches_the_id_walk_after_every_event(monkeypatch):
    # the goldens, and criterion 9's legs that cancel waves and hold classes
    # of two or more: after every event, each alive wave's block read from
    # the kept fronts is the one the id walk over dead waves finds
    seen = {"events": 0, "cancellations": 0, "multi_front_blocks": 0}
    real = simulator.resolve

    def compare(cand, state, flux_table, index):
        event = real(cand, state, flux_table, index)
        fluxes, fronts = BlockFluxes(state, flux_table), state.fronts()
        for s in alive_ids(state):
            blk = fluxes._block(s)
            assert blk == walk_block(state, s), (index, s)
            seen["multi_front_blocks"] += len(blk) > len(fronts[front_index(fronts, s)].ids)
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


def test_copy_keeps_the_fronts_led_by_its_own_waves(flux_table):
    w0 = StepFunction.from_jumps([(0.0, 2), (1.0, 5), (2.0, 3), (3.0, 0)])
    state = initial_enumeration(w0, StepFunction((), (), 0), EPS)
    assign_initial_speeds(state, flux_table)
    assert state.copy()._fronts is None     # none kept yet: built on first use
    fronts = state.fronts()
    copy = state.copy()
    assert [f.ids for f in copy._fronts] == [f.ids for f in fronts]
    assert all(f.lead is copy.wave(f.lead.id) for f in copy._fronts)
    assert copy.n_joined == state.n_joined and validate_enumeration(copy) == []


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
