import pytest

from doubles import entropic_speed, fan_cells
from triwave.flux import FluxTable, PiecewiseAffineFlux
from triwave.riemann import solve_scalar
from triwave.wavefield import fan_runs


def paf(values, eps=1.0, base=0):
    return PiecewiseAffineFlux(eps=eps, base_index=base, values=tuple(map(float, values)))


def test_equal_states_empty_fan():
    g = paf([0.0, 1.0, 4.0])
    assert solve_scalar(1, 1, g) == ()


def test_downward_jump_of_convex_flux_is_single_shock():
    g = paf([0.5 * (0.2 * k) ** 2 for k in range(5)], eps=0.2)
    fan = solve_scalar(4, 0, g)
    assert len(fan) == 1
    front = fan[0]
    assert front.w_left == 4 and front.w_right == 0
    assert front.speed == pytest.approx((g.value(4) - g.value(0)) / (4 * 0.2))
    assert fan_runs((1, 2, 3, 4), fan) == [(1, 2, 3, 4)]


def test_w_shape_fan_groups():
    g = paf([0.0, -0.1875, 0.0, -0.1875, 0.0], eps=0.5, base=-2)
    fan = solve_scalar(-2, 2, g)
    assert [f.speed for f in fan] == pytest.approx([-0.375, 0.0, 0.375])
    assert [abs(f.w_right - f.w_left) for f in fan] == [1, 2, 1]
    # telescoping
    assert fan[0].w_left == -2
    assert fan[-1].w_right == 2


def test_fan_speeds_match_entropic_speed_of_every_member_cell(rng):
    for _ in range(200):
        n = int(rng.integers(3, 30))
        ys = rng.uniform(-0.5, 0.5, n) * 0.05
        g = paf(ys, eps=0.05)
        a, b = sorted(rng.choice(n, size=2, replace=False))
        if a == b:
            continue
        up = bool(rng.integers(0, 2))
        fan = solve_scalar(a, b, g) if up else solve_scalar(b, a, g)
        lo, hi = a, b
        sign = +1 if up else -1
        for front in fan:
            for cell in fan_cells(front):
                want = entropic_speed(g, lo, hi, cell, sign)
                assert front.speed == pytest.approx(want, abs=1e-12)
        speeds = [f.speed for f in fan]
        assert all(y > x for x, y in zip(speeds, speeds[1:]))


def test_triangular_hand_example(spec):
    # w jumps 0 -> 0.2 at v+ = 0.2, eps = 0.1:
    # f(w, 0.2) = 0.52 w^2 gives rarefaction cell slopes 0.052 and 0.156
    table = FluxTable(spec, 0.1)
    fan = solve_scalar(0, 2, table.flux_for_v(2))
    assert [f.speed for f in fan] == pytest.approx([0.052, 0.156])


def test_triangular_speeds_in_hyperbolic_range(flux_table, rng):
    for _ in range(100):
        w1, w2 = (int(x) for x in rng.integers(-16, 17, size=2))
        v = int(rng.integers(-10, 11))
        speeds = [f.speed for f in solve_scalar(w1, w2, flux_table.flux_for_v(v))]
        assert all(-1.0 < s < 1.0 for s in speeds)
        assert all(y > x for x, y in zip(speeds, speeds[1:]))


def test_triangular_idempotent(flux_table, rng):
    for _ in range(50):
        w1, w2 = (int(x) for x in rng.integers(-16, 17, size=2))
        v = int(rng.integers(-10, 11))
        g = flux_table.flux_for_v(v)
        assert solve_scalar(w1, w2, g) == solve_scalar(w1, w2, g)
