import math
import re
from dataclasses import astuple, replace

import numpy as np
import pytest
from scipy import integrate

from doubles import reference_effective_flux, write_config
from triwave import cli, flux
from triwave.envelopes import rh_speed
from triwave.flux import (
    Box,
    DerivativeBounds,
    FluxSpec,
    FluxTable,
    build_effective_flux,
    derivative_bounds,
    flux_constants,
    flux_table,
    interpolate,
    make_flux,
    validate_chords,
    validate_flux,
)
from triwave.history import PairHistory
from triwave.scenario import ScenarioConfig, run_scenario
from triwave.simulator import run
from triwave.verifier import run_verifier
from triwave.wavefield import StepFunction

EPS = 0.05
# numpy's 16-point Gauss-Legendre nodes and weights
GL_NODES, GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


def centered(f, x, h):
    return (f(x + h) - f(x - h)) / (2 * h)


@pytest.mark.parametrize("name,params", [
    ("quadratic_coupled", {}),
    ("quartic", {}),
    ("custom_poly", {"coeffs": [[2, 0, 0.5], [2, 1, 0.1], [3, 1, -0.05]]}),
])
def test_analytic_derivatives_match_finite_differences(name, params, rng):
    spec = make_flux(name, params)
    h = 1e-5
    h3 = 1e-3  # third-order stencils need a larger step to beat roundoff
    for _ in range(100):
        w = rng.uniform(spec.box.w_min + 2 * h3, spec.box.w_max - 2 * h3)
        v = rng.uniform(spec.box.v_min + 2 * h3, spec.box.v_max - 2 * h3)
        fd_w = centered(lambda x: spec.eval(x, v), w, h)
        fd_ww = (spec.eval(w + h, v) - 2 * spec.eval(w, v) + spec.eval(w - h, v)) / h**2
        fd_wv = centered(lambda y: centered(lambda x: spec.eval(x, y), w, h), v, h)
        fd_wwv = centered(
            lambda y: (spec.eval(w + h3, y) - 2 * spec.eval(w, y) + spec.eval(w - h3, y)) / h3**2,
            v, h3,
        )
        for got, want in [
            (spec.d_w(w, v), fd_w),
            (spec.d2_ww(w, v), fd_ww),
            (spec.d2_wv(w, v), fd_wv),
            (spec.d3_wwv(w, v), fd_wwv),
        ]:
            assert got == pytest.approx(want, rel=1e-5, abs=1e-5)


def test_default_flux_is_hyperbolic(spec):
    assert validate_flux(spec) == []
    assert validate_flux(make_flux("quartic")) == []


def test_interpolate_exact_on_affine():
    box = Box(-2.0, 2.0, -1.0, 1.0)
    spec = FluxSpec(
        name="affine",
        eval=lambda w, v: w,
        d_w=lambda w, v: 1.0,
        d2_ww=lambda w, v: 0.0,
        d2_wv=lambda w, v: 0.0,
        d3_wwv=lambda w, v: 0.0,
        box=box,
    )
    g = interpolate(spec, 0.0, 0.25, -8, 8)
    for i in range(-8, 9):
        assert g.value(i) == i * 0.25
    # midpoint agreement of the affine interpolation
    for i in range(-8, 8):
        mid = 0.5 * (g.value(i) + g.value(i + 1))
        assert mid == pytest.approx((i + 0.5) * 0.25, rel=1e-15)


def test_interpolate_square_nodes():
    box = Box(-3.0, 3.0, -1.0, 1.0)
    spec = FluxSpec("sq", lambda w, v: w * w, lambda w, v: 2 * w,
                    lambda w, v: 2.0, lambda w, v: 0.0, lambda w, v: 0.0, box)
    g = interpolate(spec, 0.3, 1.0, 0, 2)
    assert list(g.values) == [0.0, 1.0, 4.0]


def test_interpolate_sin_deviation_bound():
    box = Box(0.0, 1.0, -1.0, 1.0)
    spec = FluxSpec("sin", lambda w, v: math.sin(w), lambda w, v: math.cos(w),
                    lambda w, v: -math.sin(w), lambda w, v: 0.0, lambda w, v: 0.0, box)
    eps = 0.1
    g = interpolate(spec, 0.0, eps, 0, 10)
    xs = np.linspace(0.0, 1.0, 10_001)
    worst = 0.0
    for x in xs:
        i = min(int(x / eps), 9)
        frac = (x - i * eps) / eps
        interp = (1 - frac) * g.value(i) + frac * g.value(i + 1)
        worst = max(worst, abs(interp - math.sin(x)))
    assert worst <= eps**2 / 8 * 1.0  # sup |sin''| = 1


def test_interpolate_reads_the_box_by_its_ticks():
    # w_max is 4e-10 ticks short of the node at tick 16, which Box.w_ticks
    # rounds into the box; the table's interpolants reach that node
    spec = make_flux("quadratic_coupled", {"box": [-0.8, 0.79999999998, -0.5, 0.5]})
    assert spec.box.w_ticks(EPS) == (-16, 16)
    table = FluxTable(spec, EPS)
    assert table.flux_for_v(0).last_index == 16
    assert table.flux_for_v(10).base_index == -16
    # one tick past the rounded box is outside it
    with pytest.raises(ValueError, match="outside box"):
        interpolate(spec, 0.0, EPS, -16, 17)
    with pytest.raises(ValueError, match="outside box"):
        interpolate(spec, 11 * EPS, EPS, -16, 16)


def test_interpolate_rejects_out_of_box(spec):
    with pytest.raises(ValueError):
        interpolate(spec, 0.0, EPS, -100, 100)
    with pytest.raises(ValueError):
        interpolate(spec, 5.0, EPS, 0, 4)
    with pytest.raises(ValueError):
        interpolate(spec, 0.0, EPS, 4, 4)


def test_derivative_bounds_examples():
    box = Box(-1.0, 1.0, -0.5, 0.5)
    plain = FluxSpec("half_sq", lambda w, v: 0.5 * w * w, lambda w, v: w,
                     lambda w, v: 1.0, lambda w, v: 0.0, lambda w, v: 0.0, box)
    b = derivative_bounds(plain)
    assert b.norm_d2_ww == pytest.approx(1.01)
    assert b.norm_d3_wwv == 0.0

    coupled = make_flux("quadratic_coupled", {"box": (-1.0, 1.0, -0.5, 0.5)})
    b = derivative_bounds(coupled)
    assert b.norm_d3_wwv == pytest.approx(0.2 * 1.01)

    wavy = FluxSpec(
        "sin_coupled",
        eval=lambda w, v: 0.5 * w * w + 0.1 * np.sin(v) * w * w,
        d_w=lambda w, v: w + 0.2 * np.sin(v) * w,
        d2_ww=lambda w, v: 1.0 + 0.2 * np.sin(v),
        d2_wv=lambda w, v: 0.2 * np.cos(v) * w,
        d3_wwv=lambda w, v: 0.2 * np.cos(v),
        box=box,
    )
    b = derivative_bounds(wavy)
    # dense-grid oracle over v (the derivative is w-independent)
    dense = max(abs(0.2 * math.cos(v)) for v in np.linspace(-0.5, 0.5, 2001))
    assert b.norm_d3_wwv == pytest.approx(1.01 * dense, rel=1e-9)
    assert b.norm_d3_wwv == pytest.approx(0.202, rel=1e-9)


def loop_derivative_bounds(spec, grid_n=256):
    """Point-by-point oracle: the sup norms sampled one grid point at a time."""
    ws = np.linspace(spec.box.w_min, spec.box.w_max, grid_n + 1)
    vs = np.linspace(spec.box.v_min, spec.box.v_max, grid_n + 1)
    m_ww = m_wv = m_wwv = 0.0
    for v in vs:
        for w in ws:
            m_ww = max(m_ww, abs(spec.d2_ww(w, v)))
            m_wv = max(m_wv, abs(spec.d2_wv(w, v)))
            m_wwv = max(m_wwv, abs(spec.d3_wwv(w, v)))
    return DerivativeBounds(float(1.01 * m_ww), float(1.01 * m_wv), float(1.01 * m_wwv))


@pytest.mark.parametrize("name,params", [
    ("quadratic_coupled", {"c": 0.1}),
    ("quartic", {"c": 0.1}),
    ("custom_poly", {"coeffs": [[2, 0, 0.5], [2, 1, 0.1], [3, 0, 0.1]]}),
    ("quadratic_coupled", {"c": 0.37}),
    ("quartic", {"c": -0.23, "box": (-0.7, 0.9, -0.45, 0.6)}),
    ("custom_poly", {"coeffs": [[2, 0, 0.5], [2, 1, 0.4], [3, 0, 0.3], [4, 1, 0.5]]}),
])
def test_derivative_bounds_equal_point_loop(name, params):
    spec = make_flux(name, params)
    assert derivative_bounds(spec) == loop_derivative_bounds(spec)


@pytest.mark.parametrize("coeffs", [[[2, 0, 2.0]], [[2, 0, 0.5]], [[2, 0, 0.5], [2, 1, 2.0]]])
def test_validate_flux_equals_point_loop(coeffs):
    spec = make_flux("custom_poly", {"coeffs": coeffs})
    grid = np.linspace(-0.8, 0.8, 65), np.linspace(-0.5, 0.5, 65)
    loop = [f"d_w({w}, {v}) = {spec.d_w(w, v)} <= -1"
            for v in grid[1] for w in grid[0] if spec.d_w(w, v) <= -1.0]
    assert validate_flux(spec) == loop


@pytest.mark.parametrize("term", [[2.5, 0, 1.0], [-1, 0, 1.0], [True, 0, 1.0], [2, 0.5, 1.0]],
                         ids=["fractional", "negative", "bool", "fractional_v"])
def test_custom_poly_rejects_exponents_that_are_not_non_negative_integers(term):
    # int() would read 2.5 as 2, drop the term of -1 and read True as 1
    message = f"flux custom_poly: exponents must be non-negative integers, got {term!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        make_flux("custom_poly", {"coeffs": [[2, 0, 0.5], term]})


def test_custom_poly_takes_an_integral_float_exponent_as_its_integer():
    spec = make_flux("custom_poly", {"coeffs": [[2.0, 1.0, 0.5]]})
    assert spec.eval(0.5, 0.4) == make_flux("custom_poly", {"coeffs": [[2, 1, 0.5]]}).eval(0.5, 0.4)


def test_validate_chords_reads_the_given_w_range_and_v_values():
    # f = 0.5 w^2 + 2 w^2 v passes the box-wide d_w > -1 check; at v = 0.25
    # it is w^2, whose chords reach 1 from w = 0.5 on
    spec = make_flux("custom_poly", {"coeffs": [[2, 0, 0.5], [2, 1, 2.0]],
                                     "box": [0.0, 0.8, -0.5, 0.5]})
    assert validate_flux(spec) == []
    assert validate_chords(spec, EPS, 0, 12, [0]) == []
    assert validate_chords(spec, EPS, 0, 10, [0, 5]) == []
    problems = validate_chords(spec, EPS, 0, 12, [5, 0, 5])
    assert len(problems) == 2
    assert problems[0].startswith("chord of f(., v=0.25) from w=0.5 to w=0.55 is 1.05")
    assert problems[0].endswith(", outside (-1, 1)")


def test_validate_flux_reports_a_speed_that_is_not_a_number():
    spec = replace(make_flux("quadratic_coupled"), d_w=lambda w, v: w * math.nan)
    problems = validate_flux(spec)
    assert len(problems) == 65 * 65
    assert problems[0] == "d_w(-0.8, -0.5) = nan is not a number"


def test_a_non_finite_derivative_fails_fast(tmp_path, capsys):
    # 5e306 * 11 * 10 overflows: d2_ww is -inf at w = -0.8 and NaN at w = 0,
    # which a max over the grid would return or skip depending on its order
    selection = {"name": "custom_poly", "params": {"coeffs": [[11, 0, 5e306]]}}
    message = ("flux custom_poly: d2_ww(-0.8, -0.5) = -inf is not finite, "
               "so its sup norm on the box is no bound")
    with pytest.raises(ValueError, match=re.escape(message)):
        flux_constants(selection)
    cfg = tmp_path / "cfg.json"
    write_config(ScenarioConfig(flux=selection, w0={"jumps": [[1.0, 1], [2.0, 0]]},
                                v0={"jumps": []}), cfg)
    assert cli.main(["run", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_a_float_power_past_the_largest_float_is_a_value_error():
    # d_w = w + 6 w^5 is 1e500 at w = 1e100: Python's float power raises
    # OverflowError there, where numpy gave inf
    selection = {"name": "custom_poly",
                 "params": {"coeffs": [[2, 0, 0.5], [6, 0, 1.0]], "box": [0, 1e100, -1, 1]}}
    with pytest.raises(ValueError, match=r"^flux custom_poly overflows on its box: "):
        flux_constants(selection)


def sin_coupled(sin, cos):
    """0.5 w^2 + 0.1 sin(v) w^2 on the default box, with ``sin`` and ``cos``
    from ``math`` or from numpy (whose results are numpy scalars)."""
    return FluxSpec(
        "sin_coupled",
        eval=lambda w, v: 0.5 * w * w + 0.1 * sin(v) * w * w,
        d_w=lambda w, v: w + 0.2 * sin(v) * w,
        d2_ww=lambda w, v: 1.0 + 0.2 * sin(v),
        d2_wv=lambda w, v: 0.2 * cos(v) * w,
        d3_wwv=lambda w, v: 0.2 * cos(v),
        box=Box(-0.8, 0.8, -0.5, 0.5),
    )


@pytest.mark.parametrize("sin,cos", [(math.sin, math.cos), (np.sin, np.cos)],
                         ids=["math", "numpy_scalars"])
def test_a_hand_built_flux_runs_end_to_end_on_plain_floats(sin, cos):
    spec = sin_coupled(sin, cos)
    assert validate_flux(spec) == []
    bounds = derivative_bounds(spec)
    assert bounds.norm_d3_wwv == pytest.approx(0.202, rel=1e-9)
    history = PairHistory(spec=spec, eps=EPS, bounds=bounds)
    traj = run(StepFunction.from_jumps([(1.0, 4), (2.0, -2), (3.0, 0)]),
               StepFunction.from_jumps([(1.5, 3), (2.5, 0)]), spec, EPS,
               bounds=bounds, history=history, validate_each_event=True)
    checks = run_verifier(traj, level="full", history=history)
    assert len(traj.events) > 3 and all(c.passed for c in checks)
    table = FluxTable(spec, EPS)
    floats = [*astuple(bounds), *table.flux_for_v(3).values,
              *table.cell_increments(2, -3),
              *build_effective_flux([(0, 1), (1, -2)], table).values,
              *(x for ev in traj.events for x in (ev.time, ev.x, *ev.post_speeds.values())),
              *(snap.q_quadratic for snap in traj.snapshots)]
    assert {type(x) for x in floats} == {float}


def test_gauss_legendre_tables_are_numpys():
    assert flux._GL_NODES == tuple(GL_NODES.tolist())
    assert flux._GL_WEIGHTS == tuple(GL_WEIGHTS.tolist())


@pytest.mark.parametrize("box", [[-0.8, 0.8, -0.5, 0.5], [-0.7, 0.9, -0.45, 0.6]])
@pytest.mark.parametrize("grid_n", [64, 256])
def test_grid_is_numpys_linspace(box, grid_n):
    ws, vs = flux._grid(make_flux("quartic", {"box": box}), grid_n)
    assert ws == np.linspace(box[0], box[1], grid_n + 1).tolist()
    assert vs == np.linspace(box[2], box[3], grid_n + 1).tolist()


class TestEffectiveFlux:
    def test_single_cell_normalization(self, spec):
        eff = build_effective_flux([(0, 2)], FluxTable(spec, EPS))
        assert eff.values[0] == 0.0
        assert eff.values[1] > 0.0

    def test_derivative_increment_is_cell_average(self, spec, rng):
        # the second difference at each interior node is the hat-weighted
        # average of d2f/dw2 over the two cells that meet there
        cells = [(k, int(rng.integers(-4, 5))) for k in range(-3, 5)]
        eff = build_effective_flux(cells, FluxTable(spec, EPS))
        for k in range(1, len(cells)):
            (t_l, v_l), (t_r, v_r) = cells[k - 1], cells[k]
            fd = (eff.values[k + 1] - 2 * eff.values[k] + eff.values[k - 1]) / EPS**2
            left, _ = integrate.quad(
                lambda w: (w - t_l * EPS) * spec.d2_ww(w, v_l * EPS), t_l * EPS, t_r * EPS)
            right, _ = integrate.quad(
                lambda w: ((t_r + 1) * EPS - w) * spec.d2_ww(w, v_r * EPS),
                t_r * EPS, (t_r + 1) * EPS)
            assert fd == pytest.approx((left + right) / EPS**2, abs=1e-8)

    def test_second_difference_matches_quadrature(self, spec):
        # adjacent cells with different v labels
        cells = [(0, -4), (1, 4)]
        eff = build_effective_flux(cells, FluxTable(spec, EPS))
        fd = (eff.values[2] - 2 * eff.values[1] + eff.values[0]) / EPS**2
        # independent oracle: the hat-weighted average of the second derivative
        left, _ = integrate.quad(
            lambda w: (w - 0.0) * spec.d2_ww(w, -4 * EPS), 0.0, EPS)
        right, _ = integrate.quad(
            lambda w: (2 * EPS - w) * spec.d2_ww(w, 4 * EPS), EPS, 2 * EPS)
        assert fd == pytest.approx((left + right) / EPS**2, abs=1e-8)

    def test_uniform_label_matches_plain_flux_chords(self, spec):
        # chord-slope differences of the effective flux equal those of f(., v)
        v_tick = 3
        cells = [(k, v_tick) for k in range(-5, 6)]
        eff = build_effective_flux(cells, FluxTable(spec, EPS))
        g = interpolate(spec, v_tick * EPS, EPS, -5, 6)

        def chord(fn, a, b):
            return (fn.value(b) - fn.value(a)) / ((b - a) * EPS)

        for (a1, b1) in [(-5, -2), (-3, 6), (0, 2)]:
            for (a2, b2) in [(-5, 6), (-4, 0)]:
                diff_eff = rh_speed(eff, a1, b1) - rh_speed(eff, a2, b2)
                diff_g = chord(g, a1, b1) - chord(g, a2, b2)
                assert diff_eff == pytest.approx(diff_g, abs=1e-9)

    def test_rejects_non_contiguous_cells(self, spec):
        with pytest.raises(ValueError):
            build_effective_flux([(0, 0), (2, 0)], FluxTable(spec, EPS))


BUILT_IN = [
    ("quadratic_coupled", {"c": 0.1}),
    ("quartic", {"c": 0.1}),
    ("custom_poly", {"coeffs": [[2, 0, 0.5], [2, 1, 0.1], [3, 0, 0.1]]}),
]


class TestCellIncrements:
    @pytest.mark.parametrize("name,params", BUILT_IN)
    def test_build_equals_the_uncached_quadrature(self, name, params, rng):
        # blocks of mixed v labels, some sharing cells: every build, the
        # first (misses) and the second (hits), gives the reference's bytes
        spec = make_flux(name, params)
        table = FluxTable(spec, EPS)
        for lo, n in [(-16, 32), (-5, 9), (0, 1), (-3, 12), (-16, 32)]:
            cells = [(lo + k, int(rng.integers(-10, 11))) for k in range(n)]
            want = reference_effective_flux(cells, spec, EPS)
            for _ in range(2):
                got = build_effective_flux(cells, table)
                assert got.base_index == want.base_index
                assert [x.hex() for x in got.values] == [x.hex() for x in want.values]

    def test_increments_are_kept_per_table(self):
        # two tables of different eps or flux never see each other's entries
        spec, other = make_flux("quadratic_coupled"), make_flux("quartic")
        cells = [(k, 3 - k) for k in range(-4, 4)]
        tables = [(spec, EPS), (spec, 2 * EPS), (other, EPS)]
        built = [FluxTable(s, e) for s, e in tables]
        for (s, e), table in zip(tables, built):
            got = build_effective_flux(cells, table)
            want = reference_effective_flux(cells, s, e)
            assert [x.hex() for x in got.values] == [x.hex() for x in want.values]
        assert len({table.cell_increments(1, 2) for table in built}) == 3


def numpy_cell_increments(spec, eps, tick, v_tick):
    """One cell's two increments by numpy, the nodes and weights mapped as
    ``FluxTable.cell_increments`` maps them, summed two ways: by ``np.dot``,
    whose order of addition is the BLAS build's, and in the order that
    ``cell_increments`` fixes, the 16 terms as a 4 x 4 array summed down its
    columns, the column sums then added as (0 + 2) + (1 + 3)."""
    a = tick * eps
    v = v_tick * eps
    x = a + 0.5 * eps * (GL_NODES + 1.0)
    wts = 0.5 * eps * GL_WEIGHTS
    g = np.array([spec.d2_ww(xi, v) for xi in x])
    terms = (wts * g, wts * ((a + eps - x) * g))
    dot = (float(np.dot(wts, g)), float(np.dot(wts, (a + eps - x) * g)))
    lanes = [t.reshape(4, 4).sum(axis=0) for t in terms]
    fixed = tuple(float((c[0] + c[2]) + (c[1] + c[3])) for c in lanes)
    return dot, fixed


def ulps(a, b):
    return abs(a - b) / math.ulp(max(abs(a), abs(b)))


@pytest.mark.parametrize("eps", [0.05, 0.02])
@pytest.mark.parametrize("name,params", BUILT_IN, ids=[name for name, _ in BUILT_IN])
def test_cell_increments_agree_with_numpy(name, params, eps):
    # every cell of the box under every v tick of it: equal to the fixed
    # order, which no golden CSV pins (only report.json reads it), and
    # within 4 ulps of np.dot, which may sum in another order on another BLAS
    spec = make_flux(name, params)
    table = FluxTable(spec, eps)
    v_lo, v_hi = math.ceil(spec.box.v_min / eps - 1e-9), math.floor(spec.box.v_max / eps + 1e-9)
    worst = 0.0
    for tick in range(table.lo, table.hi):
        for v_tick in range(v_lo, v_hi + 1):
            got = table.cell_increments(tick, v_tick)
            dot, fixed = numpy_cell_increments(spec, eps, tick, v_tick)
            assert got == fixed, (tick, v_tick)
            worst = max(worst, *map(ulps, got, dot))
    assert worst <= 4


def test_flux_table_caches(spec):
    table = FluxTable(spec, EPS)
    g1 = table.flux_for_v(2)
    g2 = table.flux_for_v(2)
    assert g1 is g2
    assert g1.value(4) == spec.eval(4 * EPS, 2 * EPS)


def test_make_flux_unknown_name():
    with pytest.raises(ValueError):
        make_flux("nope")


@pytest.mark.parametrize("name,params,message", [
    ("quadratic_coupled", {"c": math.nan}, "flux quadratic_coupled: c must be finite, got nan"),
    ("quartic", {"c": -math.inf}, "flux quartic: c must be finite, got -inf"),
    ("quartic", {"c": None}, "flux quartic: c must be a number, got None"),
    ("quadratic_coupled", {"c": True}, "flux quadratic_coupled: c must be a number, got True"),
    ("quartic", {"c": "0.2"}, "flux quartic: c must be a number, got '0.2'"),
    ("custom_poly", {"coeffs": [[2, 0, "0.5"]]},
     "flux custom_poly: coefficient must be a number, got '0.5'"),
    ("custom_poly", {"coeffs": [[2, 0, False]]},
     "flux custom_poly: coefficient must be a number, got False"),
    ("custom_poly", {"coeffs": [[2, 0, 0.5], [2, 1, math.inf]]},
     "flux custom_poly: coefficient must be finite, got inf"),
    ("custom_poly", {"coeffs": [[2, 0]]},
     "flux custom_poly: coeffs must be a list of [i, j, a] triples, got [[2, 0]]"),
    ("quadratic_coupled", {"box": [-0.8, math.inf, -0.5, 0.5]},
     "flux box must be 4 numbers [w_min, w_max, v_min, v_max], got [-0.8, inf, -0.5, 0.5]"),
])
def test_make_flux_rejects_params_that_are_not_finite_numbers(name, params, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        make_flux(name, params)


def test_make_flux_rejects_unknown_and_missing_params():
    with pytest.raises(ValueError, match="unknown params k$"):
        make_flux("quartic", {"k": 1})
    with pytest.raises(ValueError, match="unknown params cc, d$"):
        make_flux("quadratic_coupled", {"c": 0.2, "cc": 0.2, "d": 1})
    with pytest.raises(ValueError, match="needs coeffs"):
        make_flux("custom_poly", {"box": [-0.8, 0.8, -0.5, 0.5]})


CUBIC = {"name": "custom_poly", "params": {"coeffs": [[3, 0, 1.0], [2, 1, 0.4]]}}


def fresh_bounds(selection):
    return derivative_bounds(make_flux(selection["name"], selection.get("params")))


def counting(monkeypatch, name):
    """Count the calls ``flux_constants`` makes to ``flux.<name>``."""
    calls = []
    real = getattr(flux, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(flux, name, counted)
    return calls


class TestFluxConstants:
    @pytest.mark.parametrize("selection", [
        {"name": "quadratic_coupled", "params": {"c": 0.1}},
        {"name": "quartic", "params": {"c": 0.1}},
        {"name": "quadratic_coupled"},
        CUBIC,
    ], ids=["quadratic_coupled", "quartic", "default_params", "cubic_custom_poly"])
    def test_bounds_equal_a_fresh_computation(self, selection):
        spec, bounds = flux_constants(selection)
        assert spec.name == selection["name"]
        assert bounds == fresh_bounds(selection)
        # a second lookup, from an equal dict in another key order, is the first
        assert flux_constants(dict(reversed(selection.items()))) == (spec, bounds)

    def test_computed_once_per_selection(self, monkeypatch):
        calls = counting(monkeypatch, "derivative_bounds")
        selection = {"name": "quartic", "params": {"c": 0.0123}}
        first = flux_constants(selection)
        assert flux_constants({"params": {"c": 0.0123}, "name": "quartic"}) is first
        assert len(calls) == 1

    def test_a_failing_flux_raises_every_time(self, monkeypatch):
        calls = counting(monkeypatch, "validate_flux")
        selection = {"name": "custom_poly", "params": {"coeffs": [[2, 0, 2.0]]}}
        message = "flux custom_poly is not hyperbolic on its box: d_w(-0.8, -0.5) = -3.2 <= -1"
        for _ in range(2):
            with pytest.raises(ValueError, match=re.escape(message)):
                flux_constants(selection)
        assert len(calls) == 2

    @pytest.mark.parametrize("other", [
        {"name": "custom_poly", "params": {**CUBIC["params"], "box": [-0.6, 0.6, -0.5, 0.5]}},
        {"name": "custom_poly", "params": {"coeffs": [[3, 0, 1.0], [2, 1, 0.5]]}},
    ], ids=["box", "coefficient"])
    def test_selections_that_differ_get_their_own_bounds(self, other):
        _, bounds = flux_constants(CUBIC)
        _, got = flux_constants(other)
        assert got == fresh_bounds(other) != bounds

    def test_the_callers_dict_does_not_reach_a_later_lookup(self):
        coeffs = [[3, 0, 1.0], [2, 1, 0.35]]
        selection = {"name": "custom_poly", "params": {"coeffs": coeffs}}
        want = fresh_bounds(selection)
        cfg = ScenarioConfig(flux=selection, w0={"jumps": [[1.0, 2], [2.0, 0]]},
                             v0={"jumps": []}, check_level="fast")
        assert run_scenario(cfg).trajectory.bounds == want
        coeffs[1][2] = 0.9
        selection["params"]["box"] = [-0.6, 0.6, -0.5, 0.5]
        spec, bounds = flux_constants({"name": "custom_poly",
                                       "params": {"coeffs": [[3, 0, 1.0], [2, 1, 0.35]]}})
        assert bounds == want
        assert spec.box == Box(-0.8, 0.8, -0.5, 0.5)
        assert spec.d2_wv(0.5, 0.0) == pytest.approx(2 * 0.35 * 0.5)
        # and the mutated dict is a selection of its own
        assert flux_constants(selection)[1] == fresh_bounds(selection) != want


class TestFluxTableMemo:
    def test_one_table_per_flux_and_eps(self):
        spec, _ = flux_constants(CUBIC)
        table = flux_table(spec, 0.05)
        assert flux_table(spec, 0.05) is table
        assert (table.spec, table.eps) == (spec, 0.05)
        assert flux_table(spec, 0.025) is not table
        assert flux_table(make_flux("custom_poly", CUBIC["params"]), 0.05) is not table

    def test_an_int_eps_is_its_own_key(self):
        spec = make_flux("quadratic_coupled", {"box": [-4.0, 4.0, -0.5, 0.5]})
        assert type(flux_table(spec, 1).eps) is int
        assert type(flux_table(spec, 1.0).eps) is float

    def test_the_oldest_table_goes_after_memo_size_more_keys(self):
        spec = make_flux("quartic")
        tables = [flux_table(spec, 0.01 + k * 1e-3) for k in range(flux._MEMO_SIZE + 1)]
        # the newest _MEMO_SIZE keys are kept, newest first
        assert all(flux_table(spec, t.eps) is t for t in reversed(tables[1:]))
        assert flux_table(spec, tables[0].eps) is not tables[0]
