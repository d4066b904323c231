"""Acceptance suite: one test per criterion, one printed verdict line each.

The main ensemble (100 seeds, eps = 0.05, at most 40 waves and 6 first-family
fronts, default flux) is run once per session at the full check level; the
criteria read it.  Criterion 9 runs the same data generators on the
non-convex ``quartic`` flux and on a coupled ``custom_poly`` flux, and on two
legs whose data straddle an inflection of the flux, so that partition classes
of two or more waves and re-joins occur; criterion 7 runs the small-N data on
a cubic ``custom_poly`` flux too.  Run with
``pytest tests/test_acceptance.py -v -s``.
"""

import time

import numpy as np
import pytest

import test_envelopes as env_props
from doubles import PairWalkHistory, reconstruct_profile
from triwave import scenario
from triwave.envelopes import convex_envelope
from triwave.flux import PiecewiseAffineFlux
from triwave.replay import Replay
from triwave.scenario import ScenarioConfig, run_scenario
from triwave.wavefield import validate_enumeration

ENSEMBLE_SEEDS = range(100)
SCALAR_SEEDS = range(30)
SMALL_N_SEEDS = range(30)
NON_CONVEX_SEEDS = range(20)
NON_CONVEX_FLUXES = {
    "quartic": {"name": "quartic", "params": {}},
    # the coupled quartic polynomial of test_history.TestClassSplitting
    "custom_poly": {"name": "custom_poly", "params": {
        "coeffs": [[2, 0, 0.5], [2, 1, 0.4], [3, 0, 0.3], [4, 1, 0.5]],
        "box": [-0.6, 0.6, -0.5, 0.5],
    }},
}
# (flux, w amplitude, floor on the events after which some class holds two or
# more waves, floor on the re-joins) of the legs whose data cross an
# inflection: the quartic's at |w| = 0.577 and the cubic's at w = -0.133 v
NON_CONVEX_WIDE = {
    "quartic_0.75": ({"name": "quartic", "params": {}}, 0.75, 200, 25),
    "cubic": ({"name": "custom_poly", "params": {"coeffs": [[3, 0, 1.0], [2, 1, 0.4]]}},
              0.4, 1000, 100),
}


def report(criterion: int, text: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS - {text}")


def ensemble_config(seed: int, flux: dict | None = None,
                    w_amplitude: float = 0.4) -> ScenarioConfig:
    return ScenarioConfig(
        flux=flux or {"name": "quadratic_coupled", "params": {}},
        seed=seed,
        check_level="full",
        w0={"random": {"jumps": 6, "max_amplitude": w_amplitude, "max_waves": 40}},
        v0={"random": {"jumps": 5, "max_amplitude": 0.3, "max_fronts": 6}},
    )


# a cubic flux whose small-N runs hold classes of two or more waves, which
# the default flux never forms
SMALL_N_CUBIC = {"name": "custom_poly", "params": {"coeffs": [[3, 0, 1.0], [2, 1, 0.4]]}}


def small_n_config(seed: int, flux: dict | None = None) -> ScenarioConfig:
    """The data of the small-N lemma suite: at most 12 waves and 4 fronts."""
    return ScenarioConfig(
        flux=flux or {"name": "quadratic_coupled", "params": {}},
        seed=seed,
        check_level="small_n",
        w0={"random": {"jumps": 3, "max_amplitude": 0.3, "max_waves": 12}},
        v0={"random": {"jumps": 3, "max_amplitude": 0.3, "max_fronts": 4}},
    )


@pytest.fixture(scope="session")
def ensemble():
    out = []
    for seed in ENSEMBLE_SEEDS:
        start = time.perf_counter()
        res = run_scenario(ensemble_config(seed))
        out.append((res, time.perf_counter() - start))
    return out


@pytest.fixture(scope="session")
def scalar_ensemble():
    out = []
    for seed in SCALAR_SEEDS:
        cfg = ScenarioConfig(
            seed=seed,
            check_level="full",
            w0={"random": {"jumps": 6, "max_amplitude": 0.4, "max_waves": 40}},
            v0={"jumps": []},
        )
        out.append(run_scenario(cfg))
    return out


def filter_checks(results, name):
    return [c for c in results if c.name == name]


def test_criterion_1_envelope_oracle():
    rng = np.random.default_rng(20240501)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 65))
        ys = rng.uniform(-1.0, 1.0, n)
        g = PiecewiseAffineFlux(eps=0.05, base_index=0, values=tuple(ys.tolist()))
        env = convex_envelope(g, 0, n - 1)
        want = env_props.oracle_lower_hull_values(np.arange(n) * 0.05, ys)
        worst = max(worst, float(np.max(np.abs(env.node_values - want))))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-12
    assert elapsed < 5.0
    report(1, f"1000 random envelopes match the brute-force hull "
              f"(worst deviation {worst:.2e}, {elapsed:.2f}s)")


def test_criterion_2_envelope_property_suite():
    rng = np.random.default_rng(97)
    env_props.test_prop_split_at_contact(rng)
    env_props.test_prop_restriction_raises_slopes(rng)
    env_props.test_prop_restriction_raises_slope_gaps(rng)
    env_props.test_prop_shock_intervals_persist(rng)
    env_props.test_prop_left_slope_change_bounded_by_cancellation(rng)
    env_props.test_prop_envelope_slopes_stable_under_flux_perturbation(rng)
    env_props.test_prop_affine_equivariance(rng)
    report(2, f"7 envelope properties, {env_props.N_PROPERTY_CASES} randomized "
              f"instances each, zero violations beyond 1e-12")


def test_criterion_3_enumeration_integrity(ensemble):
    # every run already re-validated the enumeration (including the exact
    # stack/push-forward identities) after every event; re-check the finals
    n_events = 0
    for res, _ in ensemble:
        assert res.passed, [c for c in res.checks if not c.passed][:3]
        assert validate_enumeration(res.trajectory.final_state) == []
        profile = reconstruct_profile(res.trajectory.final_state)
        assert profile.tv_ticks() == res.trajectory.final_state.tv_ticks()
        n_events += len(res.trajectory.events)
    report(3, f"enumeration + push-forward identity exact after all "
              f"{n_events} events across {len(ensemble)} seeds")


def test_criterion_4_qtrans_identity(ensemble):
    n_drops = 0
    for res, _ in ensemble:
        for name in ("q_trans_initial", "q_trans_drop", "q_trans_monotone"):
            checks = filter_checks(res.checks, name)
            assert all(c.passed for c in checks), name
            if name == "q_trans_drop":
                n_drops += len(checks)
    report(4, f"transversal decrement identity exact at {n_drops} crossings; "
              f"initial bound holds on all {len(ensemble)} seeds")


def test_criterion_5_per_event_bounds(ensemble):
    names = [
        "transversal_speed",
        "cancellation_bound",
        "interaction_decrease",
        "q_quadratic_monotone_interaction",
        "transversal_increase",
        "wavefront_decrease",
        "q_quadratic_cancel_decrease",
    ]
    counts = dict.fromkeys(names, 0)
    min_slack = dict.fromkeys(names, float("inf"))
    for res, _ in ensemble:
        for name in names:
            for c in filter_checks(res.checks, name):
                assert c.passed, (name, c.scope, c.lhs, c.rhs)
                counts[name] += 1
                min_slack[name] = min(min_slack[name], c.slack)
    assert counts["transversal_speed"] > 100
    assert counts["cancellation_bound"] > 50
    report(5, "per-event bounds: " + ", ".join(
        f"{n}={counts[n]}" for n in names))


def test_criterion_6_global_bound(ensemble, scalar_ensemble):
    for res, _ in ensemble:
        checks = filter_checks(res.checks, "main_theorem")
        assert len(checks) == 1 and checks[0].passed
    for res in scalar_ensemble:
        check = filter_checks(res.checks, "main_theorem")[0]
        assert check.passed
        b = res.trajectory.bounds
        assert check.rhs == pytest.approx(3 * b.norm_d2_ww * res.trajectory.tv_w0**2)
    report(6, f"main estimate holds on {len(ensemble)} mixed and "
              f"{len(scalar_ensemble)} scalar-only runs (reduced bound)")


def test_criterion_7_small_n_lemmas():
    start = time.perf_counter()
    lemma_names = {"class_gap_lemma", "outer_pair_pi_agreement", "replay_q_quadratic",
                   "replay_pi_match", "partition_classes_joined", "partition_restriction"}
    n_checks = 0
    seen: set[str] = set()
    wide_class_seed = None    # a cubic seed with a class of two or more waves
    for flux in (None, SMALL_N_CUBIC):
        for seed in SMALL_N_SEEDS:
            res = run_scenario(small_n_config(seed, flux))
            assert res.passed, (flux, seed, [c for c in res.checks if not c.passed][:3])
            names = [c.name for c in res.checks if c.name in lemma_names]
            n_checks += len(names)
            seen.update(names)
            if flux and wide_class_seed is None:
                replay = Replay(res.trajectory)
                if any(len(cls) > 1 for _ in replay.run()
                       for pair in replay.pairs.values() for cls in pair.classes):
                    wide_class_seed = seed
    elapsed = time.perf_counter() - start
    # a lemma suite that stops emitting one of its checks fails here
    assert seen == lemma_names
    # the class checks see a class they could fail on
    assert wide_class_seed is not None
    assert elapsed < 60.0
    report(7, f"lemma suite on {len(SMALL_N_SEEDS)} small runs each of "
              f"quadratic_coupled and a cubic custom_poly, {n_checks} lemma checks, "
              f"a class of two or more waves at cubic seed {wide_class_seed}, "
              f"{elapsed:.1f}s")


def test_criterion_8_termination_and_determinism(ensemble, tmp_path):
    slowest = 0.0
    for res, elapsed in ensemble:
        assert res.trajectory.final_state is not None
        assert len(res.trajectory.events) < 10**6
        assert elapsed < 10.0
        slowest = max(slowest, elapsed)
    for seed in (0, 1, 42):
        cfg = ensemble_config(seed)
        run_scenario(cfg, out_dir=tmp_path / f"a{seed}")
        run_scenario(cfg, out_dir=tmp_path / f"b{seed}")
        a = (tmp_path / f"a{seed}" / "events.csv").read_bytes()
        b = (tmp_path / f"b{seed}" / "events.csv").read_bytes()
        assert a == b
    report(8, f"all runs terminate (slowest {slowest:.2f}s); "
              f"events.csv byte-identical on re-runs")


class ClassCountingHistory(PairWalkHistory):
    """The per-pair walk double (each pair's budget and Q checked against the
    potentials after every event), counting the events after which some
    class holds two or more waves and the divided pairs that meet again
    joined."""

    wide_events = 0
    rejoins = 0

    def on_event(self, event, state):
        out = super().on_event(event, state)
        if any(len(cls) > 1 for rec in self.records for cls in rec.classes):
            ClassCountingHistory.wide_events += 1
        return out

    def _rejoin(self, event):
        before = self.n_divided
        super()._rejoin(event)
        ClassCountingHistory.rejoins += before - self.n_divided


def test_criterion_9_non_convex_and_custom_fluxes(monkeypatch):
    start = time.perf_counter()
    monkeypatch.setattr(scenario, "PairHistory", ClassCountingHistory)
    legs = {name: (flux, 0.4, 0, 0) for name, flux in NON_CONVEX_FLUXES.items()}
    legs.update(NON_CONVEX_WIDE)
    n_events = 0
    counts = {}
    for name, (flux, amplitude, wide_floor, rejoin_floor) in legs.items():
        ClassCountingHistory.wide_events = ClassCountingHistory.rejoins = 0
        for seed in NON_CONVEX_SEEDS:
            res = run_scenario(ensemble_config(seed, flux, amplitude))
            assert res.passed, (name, seed, [c for c in res.checks if not c.passed][:3])
            n_events += len(res.trajectory.events)
        counts[name] = (ClassCountingHistory.wide_events, ClassCountingHistory.rejoins)
        # the leg still reaches the classes and re-joins it was chosen for
        assert counts[name][0] >= wide_floor and counts[name][1] >= rejoin_floor, (name, counts)
    elapsed = time.perf_counter() - start
    report(9, f"every check passes on {len(NON_CONVEX_SEEDS)} seeds each of "
              f"{', '.join(legs)} at level full, {n_events} events; "
              f"(events with a class of >= 2 waves, re-joins): {counts}; "
              f"budgets and Q equal to the per-pair walk's; {elapsed:.1f}s")
