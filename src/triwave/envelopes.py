"""Piecewise affine functions on the grid and their convex/concave envelopes.

The lower convex hull of the flux samples is the single computational kernel
of the whole simulator: wave speeds are its cell slopes, shock intervals are
its affine stretches, and every interaction estimate compares such slopes
across nested intervals.

The hull is computed with an Andrew monotone chain over the grid nodes.
Collinear nodes are kept as hull vertices, so a node touches the envelope if
and only if it is a vertex; this makes contact exact.  Cells covered by
one hull segment share the same slope float, which is what lets wavefronts be
grouped by exact speed equality downstream.  Their input, a
``PiecewiseAffineFlux``, is defined here and built by ``flux``.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "PiecewiseAffineFlux",
    "EnvelopeResult",
    "convex_envelope",
    "concave_envelope",
    "rh_speed",
    "SLOPE_TOL",
]

# two cells count as divided when their envelope slopes differ by more than this
SLOPE_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class PiecewiseAffineFlux:
    """Samples of f(., v) at the nodes of eps*Z; affine in between.

    ``base_index`` is the tick of the leftmost node, so node k of ``values``
    sits at ``(base_index + k) * eps``.  ``values`` is a tuple of floats.
    """

    eps: float
    base_index: int
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.values) < 2:
            raise ValueError("piecewise affine flux needs at least 2 nodes")

    @property
    def last_index(self) -> int:
        return self.base_index + len(self.values) - 1

    def value(self, tick: int) -> float:
        if not self.base_index <= tick <= self.last_index:
            raise ValueError(f"node {tick} outside [{self.base_index}, {self.last_index}]")
        return self.values[tick - self.base_index]

    def node_slice(self, lo: int, hi: int) -> tuple[float, ...]:
        """Node values on ticks [lo, hi], inclusive."""
        if not (self.base_index <= lo < hi <= self.last_index):
            raise ValueError(f"range [{lo}, {hi}] not within flux grid")
        return self.values[lo - self.base_index : hi - self.base_index + 1]


@dataclass(frozen=True, eq=False)
class EnvelopeResult:
    """Envelope of a piecewise affine function over ticks [lo, hi].

    ``cell_slopes[k]`` is the envelope derivative on cell (lo+k, lo+k+1); all
    cells under one hull segment share the same float.  ``vertices`` are the
    nodes where the envelope equals the input exactly (rarefaction points);
    interior nodes of a shock interval are strictly off the input.
    """

    eps: float
    lo: int
    hi: int
    node_values: tuple[float, ...]
    cell_slopes: tuple[float, ...]
    vertices: tuple[int, ...]  # ticks of hull vertices, lo and hi included

    def cell_slope(self, cell: int) -> float:
        if not self.lo <= cell < self.hi:
            raise ValueError(f"cell {cell} outside [{self.lo}, {self.hi})")
        return self.cell_slopes[cell - self.lo]


def _lower_hull(ys: list[float]) -> list[int]:
    """Indices (into ys, the nodes at unit spacing) of the lower hull
    vertices, collinear points kept."""
    hull: list[int] = []
    for i in range(len(ys)):
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            # right turn means b lies above chord(a, i): drop it; ties stay
            cross = (b - a) * (ys[i] - ys[a]) - (ys[b] - ys[a]) * (i - a)
            if cross < 0.0:
                hull.pop()
            else:
                break
        hull.append(i)
    return hull


def _envelope(g: PiecewiseAffineFlux, lo: int, hi: int, sign: float) -> EnvelopeResult:
    """sign times the lower convex hull of sign * g: convex for +1, concave for -1.

    Multiplying by +-1 is exact, so the concave envelope is exactly the
    negated convex envelope of -g.
    """
    if lo >= hi:
        raise ValueError("degenerate interval")
    ys = [sign * y for y in g.node_slice(lo, hi)]
    hull = _lower_hull(ys)

    node_values = [ys[0]]
    cell_slopes = []
    for a, b in zip(hull, hull[1:]):
        slope = (ys[b] - ys[a]) / ((b - a) * g.eps)
        cell_slopes.extend([slope] * (b - a))
        node_values.extend([ys[a] + slope * (k - a) * g.eps for k in range(a + 1, b)])
        node_values.append(ys[b])
    return EnvelopeResult(
        eps=g.eps,
        lo=lo,
        hi=hi,
        node_values=tuple(sign * y for y in node_values),
        cell_slopes=tuple(sign * s for s in cell_slopes),
        vertices=tuple(lo + i for i in hull),
    )


def convex_envelope(g: PiecewiseAffineFlux, lo: int, hi: int) -> EnvelopeResult:
    """Lower convex hull of the nodes of g over ticks [lo, hi]."""
    return _envelope(g, lo, hi, 1.0)


def concave_envelope(g: PiecewiseAffineFlux, lo: int, hi: int) -> EnvelopeResult:
    """Upper concave hull; equals -convex_envelope(-g) exactly."""
    return _envelope(g, lo, hi, -1.0)


def rh_speed(g: PiecewiseAffineFlux, lo: int, hi: int) -> float:
    """Rankine-Hugoniot speed: chord slope of g over ticks [lo, hi]."""
    if lo == hi:
        raise ValueError("degenerate interval")
    if lo > hi:
        lo, hi = hi, lo
    return (g.value(hi) - g.value(lo)) / ((hi - lo) * g.eps)

