import math

import numpy as np
import pytest

from doubles import entropic_speed
from triwave.envelopes import (
    SLOPE_TOL,
    concave_envelope,
    convex_envelope,
    rh_speed,
)
from triwave.flux import PiecewiseAffineFlux


def paf(values, eps=1.0, base=0):
    return PiecewiseAffineFlux(eps=eps, base_index=base, values=tuple(map(float, values)))


def contact(env):
    """Per node of [lo, hi]: does the envelope touch the input there (is it a vertex)?"""
    flags = np.zeros(env.hi - env.lo + 1, dtype=bool)
    flags[[v - env.lo for v in env.vertices]] = True
    return flags


def oracle_lower_hull_values(xs, ys):
    """Gift-wrapping lower hull, O(n^2): the independent envelope oracle."""
    n = len(xs)
    verts = [0]
    cur = 0
    while cur < n - 1:
        best_j = cur + 1
        best_slope = (ys[cur + 1] - ys[cur]) / (xs[cur + 1] - xs[cur])
        for j in range(cur + 2, n):
            slope = (ys[j] - ys[cur]) / (xs[j] - xs[cur])
            if slope < best_slope:
                best_slope = slope
                best_j = j
        verts.append(best_j)
        cur = best_j
    out = np.empty(n)
    for a, b in zip(verts, verts[1:]):
        for k in range(a, b + 1):
            t = (xs[k] - xs[a]) / (xs[b] - xs[a])
            out[k] = (1 - t) * ys[a] + t * ys[b]
    if n == 1:
        out[0] = ys[0]
    return out


class TestAgainstOracle:
    def test_random_inputs_match_brute_force(self, rng):
        for _ in range(300):
            n = int(rng.integers(2, 65))
            ys = rng.uniform(-1.0, 1.0, n)
            g = paf(ys, eps=0.05)
            env = convex_envelope(g, 0, n - 1)
            want = oracle_lower_hull_values(np.arange(n) * 0.05, ys)
            assert np.max(np.abs(env.node_values - want)) <= 1e-12

    def test_concave_is_negated_convex(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 40))
            ys = rng.uniform(-1.0, 1.0, n)
            env = concave_envelope(paf(ys), 0, n - 1)
            neg = convex_envelope(paf(-ys), 0, n - 1)
            assert np.array_equal(env.node_values, -np.asarray(neg.node_values))
            assert np.array_equal(env.cell_slopes, -np.asarray(neg.cell_slopes))
            assert np.array_equal(contact(env), contact(neg))


class TestExamples:
    def test_convex_data_is_its_own_envelope(self):
        ys = [(0.5 * k) ** 2 for k in range(-4, 5)]
        env = convex_envelope(paf(ys, eps=0.5, base=-4), -4, 4)
        assert np.array_equal(env.node_values, np.asarray(ys))
        assert contact(env).all()

    def test_concave_data_gives_the_chord(self):
        ys = [-((0.5 * k) ** 2) for k in range(-2, 3)]
        env = convex_envelope(paf(ys, eps=0.5, base=-2), -2, 2)
        assert np.allclose(env.cell_slopes, 0.0)
        assert env.node_values[0] == ys[0] and env.node_values[-1] == ys[-1]
        assert list(contact(env)) == [True, False, False, False, True]

    def test_w_shape_hull(self):
        # samples of w^4 - w^2 at eps = 0.5 on [-1, 1]
        ys = [0.0, -0.1875, 0.0, -0.1875, 0.0]
        env = convex_envelope(paf(ys, eps=0.5, base=-2), -2, 2)
        assert env.vertices == (-2, -1, 1, 2)
        assert env.node_values[2] == pytest.approx(-0.1875)
        assert list(env.cell_slopes) == pytest.approx([-0.375, 0.0, 0.0, 0.375])

    def test_rh_speed_examples(self, rng):
        sq = paf([(0.5 * k) ** 2 for k in range(0, 3)], eps=0.5)
        assert rh_speed(sq, 0, 2) == pytest.approx(1.0)
        aff = paf([0.3 * k for k in range(6)], eps=1.0)
        for a in range(5):
            for b in range(a + 1, 6):
                assert rh_speed(aff, a, b) == pytest.approx(0.3)
        ys = rng.uniform(-1, 1, 12)
        g = paf(ys, eps=0.25)
        slopes = np.diff(ys) / 0.25
        assert rh_speed(g, 0, 11) == pytest.approx(np.mean(slopes))
        with pytest.raises(ValueError):
            rh_speed(g, 3, 3)

    def test_entropic_speed_examples(self, rng):
        convex = paf([k * k * 0.25 for k in range(-3, 4)], eps=0.5, base=-3)
        env = convex_envelope(convex, -3, 3)
        for c in range(-3, 3):
            assert entropic_speed(convex, -3, 3, c, +1) == env.cell_slope(c)
        # one shock interval: every cell gets the chord speed
        hump = paf([1.0, 1.3, 1.5, 1.1, 0.2], eps=1.0)
        env = convex_envelope(hump, 0, 4)
        assert [bool(f) for f in contact(env)] == [True, False, False, False, True]
        for c in range(4):
            assert entropic_speed(hump, 0, 4, c, +1) == rh_speed(hump, 0, 4)
        ys = rng.uniform(-1, 1, 20)
        g = paf(ys)
        speeds = [entropic_speed(g, 0, 19, c, +1) for c in range(19)]
        assert all(b >= a for a, b in zip(speeds, speeds[1:]))
        with pytest.raises(ValueError):
            entropic_speed(g, 0, 19, 19, +1)

    def test_divides_examples(self):
        # two cells are divided when their envelope slopes differ by more than SLOPE_TOL
        def divided(env, c1, c2):
            return abs(env.cell_slope(c1) - env.cell_slope(c2)) > SLOPE_TOL

        hump = convex_envelope(paf([1.0, 1.3, 1.5, 1.1, 0.2], eps=1.0), 0, 4)
        for c1 in range(4):
            for c2 in range(c1 + 1, 4):
                assert not divided(hump, c1, c2)
        sq = convex_envelope(paf([k * k for k in range(6)], eps=1.0), 0, 5)
        for c1 in range(5):
            for c2 in range(c1 + 1, 5):
                assert divided(sq, c1, c2)
        w = convex_envelope(paf([0.0, -0.1875, 0.0, -0.1875, 0.0], eps=0.5, base=-2), -2, 2)
        assert divided(w, -2, -1)       # slopes -0.375 vs 0
        assert not divided(w, -1, 0)    # both on the flat hull stretch

    def test_degenerate_interval_rejected(self):
        g = paf([0.0, 1.0, 2.0])
        with pytest.raises(ValueError):
            convex_envelope(g, 1, 1)


# ---------------------------------------------------------------------------
# randomized property suite for the envelope calculus

N_PROPERTY_CASES = 500


def random_case(rng, n_min=4, n_max=32):
    n = int(rng.integers(n_min, n_max + 1))
    ys = rng.uniform(-1.0, 1.0, n)
    return paf(ys, eps=0.125), n - 1


def split_point(rng, hi):
    return int(rng.integers(1, hi))


def test_prop_split_at_contact(rng):
    """If the envelope touches the data at an interior node, it is the
    concatenation of the envelopes of the two half intervals."""
    done = 0
    while done < N_PROPERTY_CASES:
        g, hi = random_case(rng)
        env = convex_envelope(g, 0, hi)
        flags = contact(env)
        interior = [k for k in range(1, hi) if flags[k]]
        if not interior:
            continue
        u = interior[rng.integers(0, len(interior))]
        left = convex_envelope(g, 0, u)
        right = convex_envelope(g, u, hi)
        glued = np.concatenate([left.node_values, right.node_values[1:]])
        assert np.max(np.abs(env.node_values - glued)) <= 1e-12
        done += 1


def test_prop_restriction_raises_slopes(rng):
    for _ in range(N_PROPERTY_CASES):
        g, hi = random_case(rng)
        u = split_point(rng, hi)
        big = convex_envelope(g, 0, hi)
        left = convex_envelope(g, 0, u) if u >= 1 else None
        for c in range(u):
            assert left.cell_slope(c) >= big.cell_slope(c) - 1e-12
        right = convex_envelope(g, u, hi) if u <= hi - 1 else None
        for c in range(u, hi):
            assert right.cell_slope(c) <= big.cell_slope(c) + 1e-12


def test_prop_restriction_raises_slope_gaps(rng):
    for _ in range(N_PROPERTY_CASES):
        g, hi = random_case(rng)
        u = split_point(rng, hi)
        if u < 2:
            continue
        big = convex_envelope(g, 0, hi)
        left = convex_envelope(g, 0, u)
        for c1 in range(u - 1):
            for c2 in range(c1 + 1, u):
                gap_left = left.cell_slope(c2) - left.cell_slope(c1)
                gap_big = big.cell_slope(c2) - big.cell_slope(c1)
                assert gap_left >= gap_big - 1e-12


def same_shock(env, c1, c2):
    """Cells c1 < c2 lie in one shock interval: no contact node in between."""
    flags = contact(env)
    return not any(flags[k - env.lo] for k in range(c1 + 1, c2 + 1))


def test_prop_shock_intervals_persist(rng):
    for _ in range(N_PROPERTY_CASES):
        g, hi = random_case(rng)
        u = split_point(rng, hi)
        if u < 2:
            continue
        small = convex_envelope(g, 0, u)
        big = convex_envelope(g, 0, hi)
        for c1 in range(u - 1):
            for c2 in range(c1 + 1, u):
                if same_shock(small, c1, c2):
                    assert same_shock(big, c1, c2)
                    assert abs(big.cell_slope(c1) - big.cell_slope(c2)) <= 1e-12


def random_smooth(rng):
    """A random trigonometric polynomial with a certified curvature bound."""
    terms = [(rng.uniform(-0.5, 0.5), rng.uniform(0.5, 4.0), rng.uniform(0, 2 * np.pi))
             for _ in range(3)]

    def f(w):
        return sum(a * math.sin(k * w + phi) for a, k, phi in terms)

    lip_d1 = sum(abs(a) * k * k for a, k, phi in terms)  # sup |f''| <= sum |a| k^2
    return f, lip_d1


def test_prop_left_slope_change_bounded_by_cancellation(rng):
    """Restricting [a, b] to [a, u] raises the left slope at u by at most
    Lip(f') (b - u), for grid samplings of smooth functions."""
    eps = 0.0625
    for _ in range(N_PROPERTY_CASES):
        f, lip = random_smooth(rng)
        hi = int(rng.integers(6, 40))
        ys = [f(k * eps) for k in range(hi + 1)]
        g = paf(ys, eps=eps)
        u = int(rng.integers(2, hi))
        small = convex_envelope(g, 0, u)
        big = convex_envelope(g, 0, hi)
        change = small.cell_slope(u - 1) - big.cell_slope(u - 1)
        assert change <= lip * (hi - u) * eps + 1e-12


def test_prop_envelope_slopes_stable_under_flux_perturbation(rng):
    """sup-norm of the envelope-slope difference is at most sup |f' - g'|."""
    eps = 0.0625
    for _ in range(N_PROPERTY_CASES):
        base, _ = random_smooth(rng)
        a = rng.uniform(-0.3, 0.3)
        k = rng.uniform(math.pi, 8.0)
        hi = int(rng.integers(4, 40))

        f = lambda w: base(w) + a * math.sin(k * w)
        # f' - base' = a k cos(k w); the sup |a k| is attained at w = 0
        sup_diff = abs(a * k)
        fs = paf([f(j * eps) for j in range(hi + 1)], eps=eps)
        gs = paf([base(j * eps) for j in range(hi + 1)], eps=eps)
        env_f = convex_envelope(fs, 0, hi)
        env_g = convex_envelope(gs, 0, hi)
        worst = float(np.max(np.abs(np.asarray(env_f.cell_slopes) - env_g.cell_slopes)))
        assert worst <= sup_diff + 1e-12


def test_prop_affine_equivariance(rng):
    for _ in range(N_PROPERTY_CASES):
        g, hi = random_case(rng)
        m = float(rng.uniform(-2, 2))
        q = float(rng.uniform(-1, 1))
        shifted = paf(g.values + m * (np.arange(hi + 1) * g.eps) + q, eps=g.eps)
        env = convex_envelope(g, 0, hi)
        env_shifted = convex_envelope(shifted, 0, hi)
        want = env.node_values + m * (np.arange(hi + 1) * g.eps) + q
        assert np.max(np.abs(env_shifted.node_values - want)) <= 1e-12
        assert np.array_equal(contact(env), contact(env_shifted))
