"""Approximate (non-conservative) Riemann solver for the triangular system.

The solution of ((w-, v-), (w+, v+)) is a first-family front carrying the v
jump at speed exactly -1, followed by the scalar fan of (w-, w+) computed with
the flux f_eps(., v+): convex-envelope cell slopes for an upward jump, concave
for a downward one, grouped into fronts of equal speed.

``solve_scalar`` builds that fan, the only place where an envelope becomes
fronts.  ``flux.FluxTable.fan`` solves, checks and keeps each fan of
f_eps(., v).  ``history.PairHistory`` splits a partition class by the fan of
the Riemann problem it spans under a block's effective flux, whose speeds are
true only up to a constant, so it reads only the fronts' widths, by which
:func:`triwave.wavefield.fan_runs` cuts a run of waves.
"""

from __future__ import annotations

from dataclasses import dataclass

from .envelopes import SLOPE_TOL, PiecewiseAffineFlux, concave_envelope, convex_envelope

__all__ = ["FanFront", "solve_scalar"]


@dataclass(frozen=True)
class FanFront:
    """One second-family front of a scalar fan."""

    speed: float
    w_left: int       # ticks; the front holds |w_right - w_left| waves
    w_right: int


def solve_scalar(w_minus: int, w_plus: int,
                 g: PiecewiseAffineFlux) -> tuple[FanFront, ...]:
    """Scalar fan of the jump w_minus -> w_plus (ticks) under the flux g.

    Hull segments whose slopes agree within SLOPE_TOL merge into one front
    moving at the chord slope of the merged stretch.
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

    # concave slopes decrease in w; fan order is by increasing speed
    fronts = ([FanFront(speed, a, b) for a, b, speed in segments] if upward
              else [FanFront(speed, b, a) for a, b, speed in reversed(segments)])
    # telescoping consistency of the outgoing states
    state = w_minus
    for f in fronts:
        if f.w_left != state:
            raise AssertionError("fan states do not telescope")
        state = f.w_right
    assert state == w_plus
    return tuple(fronts)
