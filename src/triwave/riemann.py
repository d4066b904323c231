"""Approximate (non-conservative) Riemann solver for the triangular system.

The solution of ((w-, v-), (w+, v+)) is a first-family front carrying the v
jump at speed exactly -1, followed by the scalar fan of (w-, w+) computed with
the flux f_eps(., v+): convex-envelope cell slopes for an upward jump, concave
for a downward one, grouped into fronts of equal speed.

``solve_scalar`` builds that fan, the only place where an envelope becomes
fronts.  Its one caller is ``wavefield.speed_groups``, which solves each
``(w-, w+, v tick)`` once per run and keeps the fan in the run's
``flux.FluxTable``: every stack that meets that jump shares one tuple of
frozen fronts.
"""

from __future__ import annotations

from dataclasses import dataclass

from .envelopes import SLOPE_TOL, concave_envelope, convex_envelope
from .flux import PiecewiseAffineFlux

__all__ = ["FanFront", "solve_scalar"]


@dataclass(frozen=True)
class FanFront:
    """One second-family front of a scalar fan."""

    speed: float
    w_left: int       # ticks
    w_right: int
    cells: tuple[int, ...]   # left ticks of member cells, fan order


def solve_scalar(w_minus: int, w_plus: int,
                 g: PiecewiseAffineFlux) -> tuple[FanFront, ...]:
    """Scalar fan of the jump w_minus -> w_plus (ticks) under the flux g.

    Hull segments whose slopes agree within SLOPE_TOL merge into one front
    moving at the chord slope of the merged stretch.  A speed outside
    (-1, 1) means the flux is not hyperbolic there and raises ValueError.
    """
    if w_minus == w_plus:
        return ()
    upward = w_plus > w_minus
    lo, hi = (w_minus, w_plus) if upward else (w_plus, w_minus)
    env = convex_envelope(g, lo, hi) if upward else concave_envelope(g, lo, hi)

    segments: list[tuple[int, int, float]] = []
    for a, b in zip(env.vertices, env.vertices[1:]):
        slope = env.cell_slopes[a - env.lo]
        if segments and abs(slope - segments[-1][2]) <= SLOPE_TOL:
            a0, _, _ = segments[-1]
            chord = (env.node_values[b - env.lo] - env.node_values[a0 - env.lo]) / (
                (b - a0) * g.eps
            )
            segments[-1] = (a0, b, chord)
        else:
            segments.append((a, b, slope))

    fronts: list[FanFront] = []
    for a, b, speed in segments:
        if not -1.0 < speed < 1.0:
            raise ValueError(f"second-family speed {speed} outside (-1, 1): hyperbolicity violated")
        if upward:
            fronts.append(FanFront(speed, a, b, tuple(range(a, b))))
        else:
            fronts.append(FanFront(speed, b, a, tuple(range(b - 1, a - 1, -1))))
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
    return tuple(fronts)
