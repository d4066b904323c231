import pytest

from doubles import (
    CorruptAfterFirstEvent,
    ReviveAfterFirstCancellation,
    alive_ids,
    corrupt_history,
    group_fronts,
    swap_kept_ids,
)
from golden.regen import SCALAR_FAST_JUMPS
from triwave import scenario, simulator
from triwave.flux import FluxTable, make_flux
from triwave.scenario import ScenarioConfig, build_initial_data, run_scenario
from triwave.simulator import (
    TIME_TOL,
    CollisionCandidate,
    _meeting,
    _objects,
    next_collision,
    resolve,
    run,
)
from triwave.wavefield import (
    Event,
    EventKind,
    Front,
    StepFunction,
    VFront,
    apply_event,
    assign_initial_speeds,
    initial_enumeration,
    position,
    validate_enumeration,
)

EPS = 0.05


def prepared_state(w_jumps, v_jumps, flux_table):
    state = initial_enumeration(
        StepFunction.from_jumps(w_jumps),
        StepFunction.from_jumps(v_jumps),
        EPS,
    )
    assign_initial_speeds(state, flux_table)
    return state


def brute_force_earliest(state):
    """All-pairs collision scan (the oracle for the adjacent-pair version)."""
    objs = _objects(state)
    best = None
    for i in range(len(objs)):
        for j in range(i + 1, len(objs)):
            l, r = objs[i], objs[j]
            if isinstance(l, VFront):
                continue
            gap = position(r, state.time) - position(l, state.time)
            if isinstance(r, VFront):
                if state.wave(l.ids[0]).crossed >= r.id:
                    continue
                tau = gap / (l.speed + 1.0)
            else:
                if l.speed <= r.speed:
                    continue
                tau = gap / (l.speed - r.speed)
            t = state.time + max(tau, 0.0)
            if best is None or t < best:
                best = t
    return best


class TestNextCollision:
    def test_two_crossing_fronts(self, flux_table):
        # the top rarefaction wave of 0 -> 2 chases the slower 2 -> 0 shock
        state = prepared_state([(0.0, 2), (1.0, 0)], [], flux_table)
        cand = next_collision(state)
        chaser = state.wave(2)
        shock = state.wave(3)
        want_tau = (shock.x_a - chaser.x_a) / (chaser.speed - shock.speed)
        assert cand is not None
        assert cand.time == pytest.approx(want_tau)
        assert cand.x == pytest.approx(position(chaser, want_tau))

    def test_hand_set_speeds_halfway_meeting(self, flux_table):
        # fronts at x = 0 and 1 with speeds 0.5 and -0.5 meet at t = 1, x = 0.5
        state = prepared_state([(0.0, 1), (1.0, 0)], [], flux_table)
        state.wave(1).speed = 0.5
        state.wave(2).speed = -0.5
        cand = next_collision(state)
        assert cand.time == pytest.approx(1.0)
        assert cand.x == pytest.approx(0.5)

    def test_parallel_fronts_never_collide(self, flux_table):
        # a one-tick box: both edges sit on the same flux cell, equal speeds
        state = prepared_state([(0.0, 1), (1.0, 0)], [], flux_table)
        assert state.wave(1).speed == state.wave(2).speed
        assert next_collision(state) is None

    def test_v_fronts_alone_never_collide(self, flux_table):
        state = prepared_state([], [(0.0, 2), (1.0, 0)], flux_table)
        assert next_collision(state) is None

    def test_matches_all_pairs_oracle(self, rng):
        spec = make_flux("quadratic_coupled")
        table = FluxTable(spec, EPS)
        checked = 0
        for seed in range(40):
            cfg = ScenarioConfig(
                seed=seed,
                w0={"random": {"jumps": 8, "max_amplitude": 0.4, "max_waves": 40}},
                v0={"random": {"jumps": 4, "max_amplitude": 0.3}},
            )
            w0, v0 = build_initial_data(cfg, spec)
            state = prepared_state(
                list(zip(w0.positions, w0.values)),
                list(zip(v0.positions, v0.values)),
                table,
            )
            cand = next_collision(state)
            want = brute_force_earliest(state)
            # a first-family front is never caught from behind
            assert cand is None or not isinstance(cand.left, VFront)
            if cand is None:
                assert want is None
            else:
                assert cand.time == pytest.approx(want, abs=1e-12)
                checked += 1
        assert checked >= 30


class TestResolve:
    def test_interaction_merges_into_single_front(self, flux_table):
        # two downward jumps of a convex flux: the right shock is slower
        state = prepared_state([(0.0, 4), (1.0, 2), (2.0, 0)], [], flux_table)
        shocks = state.fronts()
        cand = next_collision(state)
        event = resolve(cand, state, flux_table, index=1)
        assert event.kind == EventKind.INTERACTION_NEGATIVE
        g = flux_table.flux_for_v(0)
        want = (g.value(4) - g.value(0)) / (4 * EPS)
        assert set(event.post_speeds.values()) == {want}
        assert len(state.fronts()) == len(shocks) - 1

    def test_total_annihilation(self, flux_table):
        # a one-tick box is naturally parallel; force the edges together to
        # exercise the resolution of a full +eps/-eps cancellation
        state = prepared_state([(0.0, 1), (1.0, 0)], [], flux_table)
        state.wave(1).speed = 0.05
        state.wave(2).speed = -0.05
        cand = next_collision(state)
        event = resolve(cand, state, flux_table, index=1)
        assert event.kind == EventKind.CANCELLATION
        assert event.canceled == (1, 2)
        assert event.cancellation == pytest.approx(2 * EPS)
        assert event.colliding == (1, 2) and event.post_speeds == {}
        assert alive_ids(state) == []
        assert state.wave(1).speed is None

    def test_partial_cancellation_of_merged_shock(self, spec, flux_table):
        # the lone negative wave first merges with the 2-wave shock
        # (interaction), then the fastest rarefaction wave cancels into it
        w0 = StepFunction.from_jumps([(0.0, 3), (1.0, 2), (5.0, 0)])
        traj = run(w0, StepFunction((), (), 0), spec, EPS)
        kinds = [ev.kind for ev in traj.events]
        assert kinds[0] == EventKind.INTERACTION_NEGATIVE
        assert kinds[1] == EventKind.CANCELLATION
        assert traj.events[1].cancellation == pytest.approx(2 * EPS)
        assert traj.events[1].canceled == (3, 4)
        assert traj.events[1].colliding == (3, 4, 5, 6)
        assert sorted(traj.events[1].post_speeds) == [5, 6]

    def test_transversal_respects_speed_bound(self, spec, flux_table, bounds):
        state = prepared_state([(0.0, 3), (1.0, 0)], [(2.0, 4), (9.0, 0)], flux_table)
        # first event: the v-front meets the negative shock
        cand = next_collision(state)
        pre = {s: state.wave(s).speed for s in cand.left.ids}
        event = resolve(cand, state, flux_table, index=1)
        assert event.kind == EventKind.TRANSVERSAL
        assert set(event.post_speeds) == set(pre)
        for s, post in event.post_speeds.items():
            assert abs(post - pre[s]) <= bounds.norm_d2_wv * event.v_strength
        # profile unchanged by re-speeding
        assert validate_enumeration(state) == []

    @pytest.mark.parametrize("right_speed", [None, 0.2], ids=["equal_speeds", "diverging"])
    def test_zero_width_pulse_cancels_at_once(self, flux_table, right_speed):
        # a one-tick box of zero width: opposite signs at one x meet at tau = 0
        # even where their speeds say they do not approach
        state = prepared_state([(0.0, 1), (1.0, 0)], [], flux_table)
        state.wave(2).x_a = 0.0
        if right_speed is not None:
            state.wave(2).speed = right_speed
        cand = next_collision(state)
        assert (cand.time, cand.x) == (0.0, 0.0)
        event = resolve(cand, state, flux_table, index=1)
        assert event.kind == EventKind.CANCELLATION
        assert event.canceled == (1, 2)
        assert alive_ids(state) == []

    def test_returned_fronts_are_not_edited_by_later_events(self, flux_table):
        state = prepared_state([(0.0, 4), (1.0, 2), (2.0, 0)], [], flux_table)
        before = state.fronts()
        held = [(f, f.ids) for f in before]
        resolve(next_collision(state), state, flux_table, index=1)
        assert [(f, f.ids) for f in before] == held
        assert state.fronts() is not before

    @pytest.mark.parametrize("pick,problem", [
        (lambda f: (f[0], f[2]), "are not neighbours in the kept front list"),
        (lambda f: (f[1], f[0]), "are not neighbours in the kept front list"),
        (lambda f: (f[2], f[1]), "are not neighbours in the kept front list"),
        (lambda f: (Front(f[0].ids, f[0].lead), f[1]), r"front \(\d+, \d+\) is not a kept"),
    ], ids=["skips_a_front", "reversed", "last_and_before", "copy_of_a_kept_front"])
    def test_fronts_that_are_not_kept_neighbours_rejected(self, flux_table, pick, problem):
        # three shocks, then a fan; a candidate must hold the kept front
        # objects, left and its right-hand neighbour, and is refused before
        # anything moves
        state = prepared_state([(0.0, -2), (1.0, -4), (2.0, -6), (3.0, 0)], [], flux_table)
        fronts = state.fronts()
        assert [f.ids for f in fronts[:3]] == [(1, 2), (3, 4), (5, 6)]
        left, right = pick(fronts)
        with pytest.raises(ValueError, match=problem):
            resolve(CollisionCandidate(0.5, 1.5, left, right), state, flux_table, index=1)
        assert state.fronts() is fronts and state.time == 0.0

    def test_fronts_with_v_fronts_between_them_rejected(self, flux_table):
        # two neighbouring shocks with a pair of v-fronts between them that
        # raise v and restore it: both see v = 0, but the right one has
        # crossed both v-fronts, which must pass the left one before the two
        # can meet
        state = prepared_state([(0.0, -2), (1.0, -4), (2.0, 0)], [(0.4, 2), (0.6, 0)],
                               flux_table)
        fronts = state.fronts()
        left, right = fronts[0], fronts[1]
        assert (left.ids, right.ids) == ((1, 2), (3, 4))
        assert (left.lead.crossed, right.lead.crossed) == (0, 2)
        assert state.v_ticks[0] == state.v_ticks[2] == 0
        with pytest.raises(ValueError, match="colliding w-fronts have crossed different v-fronts"):
            resolve(CollisionCandidate(0.5, 1.5, left, right), state, flux_table, index=1)
        assert state.fronts() is fronts and state.time == 0.0

    def test_crossing_of_a_front_that_is_not_kept_rejected(self, flux_table):
        state = prepared_state([(0.0, 3), (1.0, 0)], [(2.0, 4), (9.0, 0)], flux_table)
        cand = next_collision(state)
        assert isinstance(cand.right, VFront)
        stale = Front(cand.left.ids, cand.left.lead)
        with pytest.raises(ValueError, match="is not a kept front"):
            resolve(CollisionCandidate(cand.time, cand.x, stale, cand.right), state,
                    flux_table, index=1)

    def test_stale_event_rejected(self, flux_table):
        state = prepared_state([(0.0, 2), (1.0, 0)], [], flux_table)
        cand = next_collision(state)
        state.time = cand.time + 1.0  # the state has advanced past the event
        with pytest.raises(ValueError):
            resolve(cand, state, flux_table, index=1)


class TestRun:
    def test_parallel_box_no_events(self, spec):
        # both edges of a one-tick box share a flux cell, hence a speed
        w0 = StepFunction.from_jumps([(0.0, 1), (1.0, 0)])
        traj = run(w0, StepFunction((), (), 0), spec, EPS)
        assert traj.events == []
        assert traj.snapshots[0].q_trans == 0.0

    def test_each_v_front_crosses_each_w_front_once(self, spec):
        # v-fronts start right of both w-fronts and overtake them leftwards;
        # after a crossing the pair never meets again (v is slower than any w)
        w0 = StepFunction.from_jumps([(0.0, 1), (1.0, 0)])
        v0 = StepFunction.from_jumps([(3.0, 2), (8.0, 0)])
        traj = run(w0, v0, spec, EPS)
        kinds = [ev.kind for ev in traj.events]
        assert len(kinds) == 4  # 2 v-fronts x 2 w-fronts
        assert all(k == EventKind.TRANSVERSAL for k in kinds)
        crossings = {(ev.v_front_id, ev.colliding[0]) for ev in traj.events}
        assert crossings == {(1, 1), (1, 2), (2, 1), (2, 2)}

    def test_empty_datum(self, spec):
        traj = run(StepFunction((), (), 0), StepFunction((), (), 0), spec, EPS)
        assert traj.events == []

    def test_rejects_initial_speeds_outside_hyperbolic_range(self):
        # f = 2 w^2: the rarefaction cells of an upward jump to w = 0.4 reach speed 1.5
        steep = make_flux("custom_poly", {"coeffs": [[2, 0, 2.0]]})
        w0 = StepFunction.from_jumps([(0.0, 8), (1.0, 0)])
        with pytest.raises(ValueError, match=r"outside \(-1, 1\)"):
            run(w0, StepFunction((), (), 0), steep, EPS)

    def test_golden_event_count_seed_42(self, spec):
        # frozen after the invariant suite first passed on this scenario
        cfg = ScenarioConfig(
            seed=42,
            w0={"random": {"jumps": 5, "max_amplitude": 0.4, "max_waves": 20}},
            v0={"random": {"jumps": 3, "max_amplitude": 0.3, "max_fronts": 3}},
        )
        w0, v0 = build_initial_data(cfg, spec)
        assert w0.tv_ticks() == 18
        assert len(v0.positions) == 3
        traj = run(w0, v0, spec, EPS, validate_each_event=True)
        assert len(traj.events) == 32
        kinds = [ev.kind.value for ev in traj.events]
        assert kinds.count("transversal") == 24
        assert kinds.count("cancellation") == 7
        assert kinds.count("interaction_negative") == 1

    def test_profile_conserved_at_transversal_events(self, spec, monkeypatch):
        cfg = ScenarioConfig(
            seed=7,
            w0={"random": {"jumps": 4, "max_amplitude": 0.3, "max_waves": 16}},
            v0={"random": {"jumps": 2, "max_amplitude": 0.3}},
        )
        w0, v0 = build_initial_data(cfg, spec)
        arriving = {}     # event index -> the waves of the left front, before resolve
        real = simulator.resolve

        def capture(cand, state, flux_table, index):
            arriving[index] = set(cand.left.ids)
            return real(cand, state, flux_table, index)

        monkeypatch.setattr(simulator, "resolve", capture)
        traj = run(w0, v0, spec, EPS)
        for ev in traj.events:
            if ev.kind == EventKind.TRANSVERSAL:
                assert ev.canceled == ()
                # same waves, same states: the w-profile is untouched
                assert set(ev.post_speeds) == arriving[ev.index]
        # total variation only drops at cancellations
        for ev in traj.events:
            before = traj.snapshots[ev.index - 1].tv_w
            after = traj.snapshots[ev.index].tv_w
            if ev.kind == EventKind.CANCELLATION:
                assert after == pytest.approx(before - ev.cancellation)
            else:
                assert after == before

    def test_termination_and_event_guard(self, spec):
        from triwave.simulator import EventGuardExceeded

        cfg = ScenarioConfig(
            seed=3,
            w0={"random": {"jumps": 6, "max_amplitude": 0.4, "max_waves": 30}},
            v0={"random": {"jumps": 3, "max_amplitude": 0.3}},
        )
        w0, v0 = build_initial_data(cfg, spec)
        traj = run(w0, v0, spec, EPS)
        assert len(traj.events) < 10**6
        with pytest.raises(EventGuardExceeded):
            run(w0, v0, spec, EPS, event_guard=1)


# Lattice-aligned data, (x, ticks) at eps 0.05 under quadratic_coupled (c 0.1),
# whose exactly simultaneous collisions leave fronts in the wrong float order.
ORDERING_REPROS = [
    pytest.param([(7.0, -6), (9.0, 2), (10.0, 0)], [(3.5, 1), (4.0, 0)],
                 id="positions_out_of_order"),
    pytest.param([(1.0, 4), (1.5, -2), (4.0, -5), (7.0, 7), (7.5, -8), (8.5, 0)],
                 [(0.0, 3), (6.5, 0), (9.5, 0)], id="colliding_not_contiguous",
                 marks=pytest.mark.xfail(
                     strict=True, raises=ValueError,
                     reason="after event 24 wave 36 at 3.2499999999999982 sits after "
                            "wave 45 at 3.2499999999999973")),
    pytest.param([(3.0, -3), (6.0, -2), (6.5, 5), (7.5, 0)],
                 [(2.5, 2), (3.5, 0), (6.5, 2), (7.0, 0)], id="different_v_values"),
    pytest.param([(1.5, -3), (5.5, 3), (6.5, -6), (7.0, 0)], [(3.0, -2), (5.0, 0)],
                 id="mixed_front"),
]

# Lattice data (flux, w0, v0) from a seeded fuzz at eps 0.05 that raised while
# the collision search sorted fronts by float position (the first six) or
# grouped two waves of opposite sign into one front (the last).
LATTICE_DATA = [
    ("quadratic_coupled", [(2.0, 1), (2.5, -7), (3.0, -6), (4.0, -5), (5.5, 8), (9.0, 0)],
     [(6.5, 4), (8.0, -4), (8.5, 0)]),
    ("quadratic_coupled", [(0.0, 7), (2.5, 2), (4.0, -2), (6.0, 1), (8.0, -8), (9.0, 4),
                           (9.5, 0)], [(3.0, -3), (3.5, -1), (4.0, 0)]),
    ("quartic", [(1.0, 5), (1.5, -6), (5.5, 2), (6.5, -8), (9.5, 0)],
     [(0.0, 4), (3.0, -3), (5.0, 1), (6.5, 4), (8.0, 0)]),
    ("quartic", [(0.5, -6), (1.0, -1), (1.5, -4), (4.5, -8), (5.0, -1), (6.0, -2), (8.0, 0)],
     [(1.0, -4), (2.5, 2), (3.5, 1), (5.0, -3), (5.5, 0)]),
    ("quadratic_coupled", [(8.5, 6), (9.0, -8), (9.5, -4), (10.0, 0)],
     [(0.5, -1), (2.5, -3), (4.0, 0)]),
    ("quartic", [(1.0, -3), (1.5, -4), (3.5, -2), (5.0, -4), (7.5, 0)],
     [(2.5, 1), (4.5, 0), (6.0, -2), (6.5, 0)]),
    ("quartic", [(3.0, -6), (4.5, 4), (6.5, -1), (7.0, 1), (7.5, -3), (8.0, 0)],
     [(1.5, -3), (3.0, -4), (5.5, 0)]),
]


def ordering_config(w_jumps, v_jumps, level, flux="quadratic_coupled"):
    return ScenarioConfig(
        flux={"name": flux, "params": {"c": 0.1}}, eps=EPS,
        w0={"jumps": w_jumps}, v0={"jumps": v_jumps}, check_level=level,
    )


class TestFrontOrdering:
    def test_fast_run_rejects_a_corrupt_final_state(self, monkeypatch):
        # without per-event validation the run reaches its end, where the
        # double has swapped two waves
        monkeypatch.setattr(simulator, "next_collision",
                            CorruptAfterFirstEvent(simulator.next_collision))
        cfg = ordering_config(*ORDERING_REPROS[0].values, "fast")
        with pytest.raises(ValueError, match="final enumeration invalid: positions out of order"):
            run_scenario(cfg)

    @pytest.mark.parametrize("level,what", [("full", r"enumeration invalid after event 1 "),
                                            ("fast", "final enumeration invalid: ")])
    def test_run_rejects_corrupt_kept_fronts(self, monkeypatch, level, what):
        # the double swaps two ids between the first two kept fronts; only the
        # comparison with group_fronts can tell, since anchors are untouched
        monkeypatch.setattr(simulator, "next_collision",
                            CorruptAfterFirstEvent(simulator.next_collision, swap_kept_ids))
        cfg = ordering_config(*ORDERING_REPROS[0].values, level)
        with pytest.raises(ValueError, match=what + r".*kept front 0 is"):
            run_scenario(cfg)

    @pytest.mark.parametrize("level,when", [("full", r"enumeration invalid after event 2 "),
                                            ("fast", "final enumeration invalid: ")])
    @pytest.mark.parametrize("corrupt,problem", [
        ("potential", r"kept budget sum T = -?\d+, recounted -?\d+"),
        ("weight", r"record over ids \d+\.\.\d+: kept weight up\[\d+\] = -?\d+, recounted -?\d+"),
        ("T", r"kept budget sum T = -?\d+, recounted -?\d+"),
        ("cut", r"record over ids \d+\.\.\d+: kept (weight up\[\d+\] = -?|pair count )\d+, "
                r"recounted -?\d+"),
        ("rejoined", r"record over ids \d+\.\.\d+: kept (weight up\[\d+\] = -?|pair count )\d+, "
                     r"recounted -?\d+"),
        ("count", r"record over ids \d+\.\.\d+: kept pair count \d+, recounted \d+"),
    ])
    def test_run_rejects_a_budget_outside_its_sum(self, monkeypatch, level, when, corrupt,
                                                  problem):
        # the double adds 1 to a potential of one divided pair or to T after
        # event 2, or to a weight of one of its waves after event 2 and every
        # later event, or after event 2 moves a cut point of its record,
        # slips the pair into the record's re-joined set or adds 1 to the
        # record's pair count; only the recounts can tell
        monkeypatch.setattr(scenario, "PairHistory", corrupt_history(2, corrupt))
        cfg = ordering_config(*ORDERING_REPROS[0].values, level)
        with pytest.raises(ValueError, match=when + ".*" + problem):
            run_scenario(cfg)

    @pytest.mark.parametrize("seed", range(12))
    def test_run_rejects_a_wave_revived_between_fronts(self, monkeypatch, seed):
        # a cancelled wave brought back at the event point lies alive between
        # kept neighbours; at full the recount after its event group finds
        # it, at fast the final recount does
        real = simulator.resolve
        for level in ("full", "fast"):
            revive = ReviveAfterFirstCancellation(real)
            monkeypatch.setattr(simulator, "resolve", revive)
            with pytest.raises(ValueError) as raised:
                run_scenario(ScenarioConfig(seed=seed, check_level=level))
            assert revive.index is not None
            what = (f"enumeration invalid after event {revive.index} " if level == "full"
                    else "final enumeration invalid: ")
            assert str(raised.value).startswith(what), str(raised.value)
            assert "kept alive count" in str(raised.value)

    @pytest.mark.parametrize("w_jumps,v_jumps", ORDERING_REPROS)
    def test_runs_at_full_and_passes(self, w_jumps, v_jumps):
        assert run_scenario(ordering_config(w_jumps, v_jumps, "full")).passed

    @pytest.mark.parametrize("flux,w_jumps,v_jumps", LATTICE_DATA)
    def test_lattice_datum_runs_at_full_and_passes(self, flux, w_jumps, v_jumps):
        assert run_scenario(ordering_config(w_jumps, v_jumps, "full", flux)).passed

    def test_order_comes_from_the_enumeration(self, flux_table):
        # v-front 1 starts at x=2: wave 1 (x=1) has not crossed it, wave 2 (x=4)
        # has; moving wave 1 right of the v-front leaves the order as it is
        state = prepared_state([(1.0, 1), (4.0, 0)], [(2.0, 3), (5.0, 0)], flux_table)
        state.wave(1).x_a = 3.0
        assert position(state.wave(1), state.time) == 3.0
        objs = _objects(state)
        assert [o.id if isinstance(o, VFront) else o.ids for o in objs] == [(1,), 1, (2,), 2]


def acceptance_data(seed, flux):
    """The acceptance ensemble's random datum for ``seed`` under ``flux``."""
    cfg = ScenarioConfig(
        seed=seed, flux=flux,
        w0={"random": {"jumps": 6, "max_amplitude": 0.4, "max_waves": 40}},
        v0={"random": {"jumps": 5, "max_amplitude": 0.3, "max_fronts": 6}},
    )
    w0, v0 = build_initial_data(cfg, make_flux(flux["name"], flux["params"]))
    return flux, list(zip(w0.positions, w0.values)), list(zip(v0.positions, v0.values))


KEPT_FRONT_DATA = [
    pytest.param(*acceptance_data(seed, {"name": "quadratic_coupled", "params": {}}),
                 id=f"acceptance_seed_{seed}")
    for seed in (0, 3, 7)
] + [
    pytest.param(*acceptance_data(1, {"name": "quartic", "params": {}}), id="quartic_seed_1"),
] + [
    pytest.param({"name": flux, "params": {"c": 0.1}}, w_jumps, v_jumps, id=f"lattice_{k}")
    for k, (flux, w_jumps, v_jumps) in enumerate(LATTICE_DATA)
]


@pytest.mark.parametrize("flux,w_jumps,v_jumps", KEPT_FRONT_DATA)
def test_kept_fronts_match_the_regrouping_after_every_event(flux, w_jumps, v_jumps):
    table = FluxTable(make_flux(flux["name"], flux["params"]), EPS)
    state = prepared_state(w_jumps, v_jumps, table)
    index = 0
    while (cand := next_collision(state)) is not None:
        index += 1
        resolve(cand, state, table, index)
        regrouped = group_fronts(state)
        assert [f.ids for f in state.fronts()] == regrouped, f"after event {index}"
        assert state.n_joined == sum(len(ids) * (len(ids) - 1) // 2 for ids in regrouped), \
            f"after event {index}"
    assert index > 0


def full_scan(state):
    """The winner by the queue's rule over every adjacent pair of the full
    ``_objects`` scan: (t, x, left ids, right)."""
    objs = _objects(state)
    found = [(*met, i) for i, (l, r) in enumerate(zip(objs, objs[1:]))
             if not isinstance(l, VFront) and (met := _meeting(l, r)) is not None]
    if not found:
        return None
    limit = max(min(t for t, _, _ in found), state.time) + TIME_TOL
    t, x, i = min((c for c in found if c[0] <= limit), key=lambda c: (c[1], c[2]))
    return t, x, objs[i].ids, objs[i + 1]


@pytest.mark.parametrize("flux,w_jumps,v_jumps", KEPT_FRONT_DATA + [
    pytest.param({"name": "quadratic_coupled", "params": {"c": 0.1}},
                 [tuple(j) for j in SCALAR_FAST_JUMPS], [], id="single_tick_jumps"),
])
def test_queue_matches_a_full_scan_after_every_event(flux, w_jumps, v_jumps):
    table = FluxTable(make_flux(flux["name"], flux["params"]), EPS)
    state = prepared_state(w_jumps, v_jumps, table)
    index = 0
    while (cand := next_collision(state)) is not None:
        # a Front compares by identity, so the right fronts must be one object
        assert (cand.time, cand.x, cand.left.ids, cand.right) == full_scan(state), \
            f"before event {index + 1}"
        index += 1
        resolve(cand, state, table, index)
    assert full_scan(state) is None
    assert index > 0


@pytest.mark.parametrize("colliding,neighbour", [((3, 4), 2), ((2, 3), 4)], ids=["left", "right"])
def test_site_merges_with_a_neighbour_arriving_at_the_same_point(flux_table, colliding, neighbour):
    # waves 2, 3 and 4 all reach x = 1 at t = 2; two of them collide and leave
    # the speed of the third, so the site joins it without a further event
    state = prepared_state([(-1.0, 1), (0.0, 2), (1.5, 3), (2.0, 4), (3.0, 0)], [], flux_table)
    for s, speed in zip(range(1, 9), (0.6, 0.5, -0.25, -0.5, 0.9, 0.9, 0.9, 0.9)):
        state.wave(s).speed = speed
    next_collision(state)    # builds the queue, which the event must repair
    lo, hi = colliding
    post = state.wave(neighbour).speed
    apply_event(state, Event(
        index=1, time=2.0, x=1.0, kind=EventKind.INTERACTION_POSITIVE,
        colliding=(lo, hi), post_speeds={lo: post, hi: post},
        sum_abs_dsigma=0.0, left_ids=(lo,), right_ids=(hi,)))
    assert [f.ids for f in state.fronts()] == group_fronts(state) == [(1,), (2, 3, 4), (5, 6, 7, 8)]
    assert len({(state.wave(s).x_a, state.wave(s).t_a) for s in (2, 3, 4)}) == 1
    assert validate_enumeration(state) == []
    # wave 1 now chases the joined front
    cand = next_collision(state)
    assert (cand.time, cand.x, cand.left.ids, cand.right) == full_scan(state)
    assert cand.right is state.fronts()[1]
