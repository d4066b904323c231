"""Approximate (non-conservative) Riemann solver for the triangular system.

The solution of ((w-, v-), (w+, v+)) is a first-family front carrying the v
jump at speed exactly -1, followed by the scalar fan of (w-, w+) computed with
the flux f_eps(., v+): convex-envelope cell slopes for an upward jump, concave
for a downward one, grouped into fronts of equal speed.

``solve_scalar`` is the only place where an envelope becomes fronts; the
simulator reaches it through ``wavefield.speed_groups``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .envelopes import SLOPE_TOL, concave_envelope, convex_envelope
from .flux import FluxSpec, PiecewiseAffineFlux, interpolate

__all__ = ["FanFront", "RiemannFan", "solve_scalar", "solve_triangular"]


@dataclass(frozen=True)
class FanFront:
    """One outgoing front: family 1 carries v at speed -1, family 2 carries w."""

    family: int
    speed: float
    w_left: int       # ticks; w_left == w_right for family 1
    w_right: int
    v_left: int
    v_right: int
    cells: tuple[int, ...]   # family 2: left ticks of member cells, fan order


@dataclass(frozen=True)
class RiemannFan:
    fronts: tuple[FanFront, ...]

    def speeds(self) -> list[float]:
        return [f.speed for f in self.fronts]


def solve_scalar(w_minus: int, w_plus: int, g: PiecewiseAffineFlux,
                 v_tick: int = 0) -> RiemannFan:
    """Scalar fan of the jump w_minus -> w_plus (ticks) under the flux g.

    Hull segments whose slopes agree within SLOPE_TOL merge into one front
    moving at the chord slope of the merged stretch.  A speed outside
    (-1, 1) means the flux is not hyperbolic there and raises ValueError.
    """
    if w_minus == w_plus:
        return RiemannFan(fronts=())
    upward = w_plus > w_minus
    lo, hi = (w_minus, w_plus) if upward else (w_plus, w_minus)
    env = convex_envelope(g, lo, hi) if upward else concave_envelope(g, lo, hi)

    segments: list[tuple[int, int, float]] = []
    for a, b in zip(env.vertices, env.vertices[1:]):
        slope = float(env.cell_slopes[a - env.lo])
        if segments and abs(slope - segments[-1][2]) <= SLOPE_TOL:
            a0, _, _ = segments[-1]
            chord = (env.node_values[b - env.lo] - env.node_values[a0 - env.lo]) / (
                (b - a0) * g.eps
            )
            segments[-1] = (a0, b, float(chord))
        else:
            segments.append((a, b, slope))

    fronts: list[FanFront] = []
    for a, b, speed in segments:
        if not -1.0 < speed < 1.0:
            raise ValueError(f"second-family speed {speed} outside (-1, 1): hyperbolicity violated")
        if upward:
            fronts.append(FanFront(2, speed, a, b, v_tick, v_tick, tuple(range(a, b))))
        else:
            fronts.append(FanFront(2, speed, b, a, v_tick, v_tick,
                                   tuple(range(b - 1, a - 1, -1))))
    if not upward:
        # concave slopes decrease in w; fan order is by increasing speed
        fronts.reverse()
    # telescoping consistency of the outgoing states
    state = w_minus
    for f in fronts:
        if f.w_left != state:
            raise AssertionError("fan states do not telescope")
        state = f.w_right
    assert state == w_plus
    return RiemannFan(fronts=tuple(fronts))


def solve_triangular(left: tuple[int, int], right: tuple[int, int],
                     spec: FluxSpec, eps: float) -> RiemannFan:
    """Fan of ((w-, v-), (w+, v+)); all states are grid ticks.

    The v jump travels at speed -1 and the w fan is computed with the flux at
    the right v state; hyperbolicity puts every w speed strictly above -1, so
    the fronts come out ordered.
    """
    w_minus, v_minus = left
    w_plus, v_plus = right
    for w, v in (left, right):
        if not (spec.box.contains_w(w * eps) and spec.box.contains_v(v * eps)):
            raise ValueError(f"state ({w * eps}, {v * eps}) outside box")
    fronts: list[FanFront] = []
    if v_minus != v_plus:
        fronts.append(FanFront(1, -1.0, w_minus, w_minus, v_minus, v_plus, ()))
    if w_minus != w_plus:
        lo, hi = min(w_minus, w_plus), max(w_minus, w_plus)
        g = interpolate(spec, v_plus * eps, eps, lo, hi)
        scalar = solve_scalar(w_minus, w_plus, g, v_tick=v_plus)
        fronts.extend(scalar.fronts)
    speeds = [f.speed for f in fronts]
    if any(b <= a for a, b in zip(speeds, speeds[1:])):
        raise AssertionError("fan speeds not strictly increasing")
    return RiemannFan(fronts=tuple(fronts))
