"""Flux models: smooth coupled fluxes, grid interpolants, effective fluxes.

The simulated equation transports w with velocity d f/dw (w, v), where v is a
passive field carried by the linear first family.  Everything downstream works
on the piecewise affine interpolation of f(., v) over the grid eps*Z, so this
module owns:

- ``FluxSpec``: a smooth flux with its analytic partial derivatives and the
  rectangular (w, v) box it is trusted on;
- ``PiecewiseAffineFlux``: node samples of f(., v) on eps*Z;
- ``DerivativeBounds``: sampled sup norms of the second/third derivatives,
  used as the constants of every runtime inequality check;
- ``flux_constants``: the checked ``FluxSpec`` of a flux selection and its
  ``DerivativeBounds``, computed once per selection in a process;
- ``FluxTable``: the cache of one flux at one eps, keyed by integer ticks:
  the interpolants f_eps(., v), the scalar fans of the Riemann problems
  solved so far, and the quadrature increments of each cell;
- ``flux_table``: the one ``FluxTable`` per (flux, eps) in a process, which
  the runs of a batch or an ensemble share;
- ``build_effective_flux``: the effective flux of a block, a
  ``PiecewiseAffineFlux`` whose second w-derivative equals d2f/dw2(., v)
  cell by cell, anchored to value 0 / slope 0 at its left node (it is only
  ever used through differences, which are affine-invariant).

All grid coordinates in this package are integer "ticks": node i sits at
``i * eps``.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, Iterable

__all__ = [
    "Box",
    "FluxSpec",
    "DerivativeBounds",
    "PiecewiseAffineFlux",
    "make_flux",
    "interpolate",
    "derivative_bounds",
    "flux_constants",
    "flux_table",
    "build_effective_flux",
    "FluxTable",
    "validate_flux",
    "validate_chords",
]

Real2 = Callable[[float, float], float]

# nodes and weights for the per-cell quadrature of build_effective_flux: the
# 16-point Gauss-Legendre rule on [-1, 1], as numpy's leggauss(16) gives it
_GL_NODES = (
    -0.9894009349916499, -0.9445750230732326, -0.8656312023878318, -0.755404408355003,
    -0.6178762444026438, -0.45801677765722737, -0.2816035507792589, -0.09501250983763744,
    0.09501250983763744, 0.2816035507792589, 0.45801677765722737, 0.6178762444026438,
    0.755404408355003, 0.8656312023878318, 0.9445750230732326, 0.9894009349916499,
)
_GL_WEIGHTS = (
    0.027152459411754176, 0.062253523938647456, 0.0951585116824926, 0.12462897125553407,
    0.1495959888165767, 0.16915651939500265, 0.18260341504492364, 0.18945061045506864,
    0.18945061045506864, 0.18260341504492364, 0.16915651939500265, 0.1495959888165767,
    0.12462897125553407, 0.0951585116824926, 0.062253523938647456, 0.027152459411754176,
)


@dataclass(frozen=True)
class Box:
    """Rectangular domain of validity in the (w, v) plane."""

    w_min: float
    w_max: float
    v_min: float
    v_max: float

    def w_ticks(self, eps: float) -> tuple[int, int]:
        """The least and greatest tick k whose w = k * eps lies in [w_min,
        w_max], up to rounding: the w nodes of every interpolant of the box
        at grid step eps."""
        return math.ceil(self.w_min / eps - 1e-9), math.floor(self.w_max / eps + 1e-9)

    def v_ticks(self, eps: float) -> tuple[int, int]:
        """The least and greatest tick k whose v = k * eps lies in [v_min,
        v_max], up to rounding, as ``w_ticks``."""
        return math.ceil(self.v_min / eps - 1e-9), math.floor(self.v_max / eps + 1e-9)


@dataclass(frozen=True)
class FluxSpec:
    """A smooth flux f(w, v) together with its analytic partial derivatives.

    ``eval`` is the flux itself; the derivative evaluators must agree with
    finite differences of ``eval``.  Hyperbolicity requires d_w > -1
    throughout the box (see :func:`validate_flux`).

    Every evaluator is called with two Python floats, one point at a time,
    and must return a real number: plain ``math`` functions serve.  What it
    returns is stored as a ``float``, so a numpy scalar is converted too.
    """

    name: str
    eval: Real2
    d_w: Real2
    d2_ww: Real2
    d2_wv: Real2
    d3_wwv: Real2
    box: Box


@dataclass(frozen=True)
class DerivativeBounds:
    """Sampled sup norms of the derivatives entering the interaction estimates.

    Each bound is the max of the corresponding |derivative| over a dense grid,
    inflated by 1%, so it dominates the true sup norm for smooth fluxes while
    staying within a percent of it.
    """

    norm_d2_ww: float
    norm_d2_wv: float
    norm_d3_wwv: float


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


# ---------------------------------------------------------------------------
# registry of built-in fluxes


def _quadratic_coupled(c: float, box: Box) -> FluxSpec:
    return FluxSpec(
        name="quadratic_coupled",
        eval=lambda w, v: 0.5 * w * w + c * v * w * w,
        d_w=lambda w, v: w + 2.0 * c * v * w,
        d2_ww=lambda w, v: 1.0 + 2.0 * c * v,
        d2_wv=lambda w, v: 2.0 * c * w,
        d3_wwv=lambda w, v: 2.0 * c,
        box=box,
    )


def _quartic(c: float, box: Box) -> FluxSpec:
    return FluxSpec(
        name="quartic",
        eval=lambda w, v: 0.25 * w**4 - 0.5 * w * w + c * v * w * w,
        d_w=lambda w, v: w**3 - w + 2.0 * c * v * w,
        d2_ww=lambda w, v: 3.0 * w * w - 1.0 + 2.0 * c * v,
        d2_wv=lambda w, v: 2.0 * c * w,
        d3_wwv=lambda w, v: 2.0 * c,
        box=box,
    )


def _custom_poly(coeffs: list, box: Box) -> FluxSpec:
    """Polynomial flux sum a * w^i * v^j from a list of [i, j, a] triples."""
    if not isinstance(coeffs, (list, tuple)) or not all(
            isinstance(t, (list, tuple)) and len(t) == 3 for t in coeffs):
        raise ValueError(f"flux custom_poly: coeffs must be a list of [i, j, a] triples, "
                         f"got {coeffs!r}")
    for term in coeffs:
        # int() would read 2.5 as 2 and True as 1, and drop a term of -1
        if not all(type(e) in (int, float) and e >= 0 and e % 1 == 0 for e in term[:2]):
            raise ValueError(f"flux custom_poly: exponents must be non-negative integers, "
                             f"got {list(term)!r}")
    terms = [(int(i), int(j), _finite("custom_poly", "coefficient", a)) for i, j, a in coeffs]

    def df(di: int, dj: int) -> Real2:
        # each surviving term's coefficient, computed once
        kept = []
        for i, j, a in terms:
            if i < di or j < dj:
                continue
            coef = a
            for k in range(di):
                coef *= i - k
            for k in range(dj):
                coef *= j - k
            kept.append((coef, i - di, j - dj))

        def g(w: float, v: float) -> float:
            total = 0.0
            for coef, p, q in kept:
                total += coef * w ** p * v ** q
            return total

        return g

    return FluxSpec(
        name="custom_poly",
        eval=df(0, 0),
        d_w=df(1, 0),
        d2_ww=df(2, 0),
        d2_wv=df(1, 1),
        d3_wwv=df(2, 1),
        box=box,
    )


DEFAULT_BOX = Box(-0.8, 0.8, -0.5, 0.5)


def _parse_box(raw) -> Box:
    """``[w_min, w_max, v_min, v_max]`` from a config, checked before use."""
    if (not isinstance(raw, (list, tuple)) or len(raw) != 4
            or any(isinstance(b, bool) or not isinstance(b, (int, float)) or not math.isfinite(b)
                   for b in raw)):
        raise ValueError(f"flux box must be 4 numbers [w_min, w_max, v_min, v_max], got {raw!r}")
    box = Box(*raw)
    if not (box.w_min < box.w_max and box.v_min < box.v_max):
        raise ValueError(f"flux box {raw!r} needs w_min < w_max and v_min < v_max")
    return box


def _finite(flux: str, what: str, raw) -> float:
    """``raw`` as a float; raises unless it is a finite number (a bool or a
    string is not one)."""
    if isinstance(raw, bool) or not isinstance(raw, numbers.Real):
        raise ValueError(f"flux {flux}: {what} must be a number, got {raw!r}")
    if not math.isfinite(raw):
        raise ValueError(f"flux {flux}: {what} must be finite, got {raw!r}")
    return float(raw)


def make_flux(name: str, params: dict | None = None) -> FluxSpec:
    """Build a flux from the registry: quadratic_coupled, quartic, custom_poly."""
    params = dict(params or {})
    box_raw = params.pop("box", None)
    box = _parse_box(box_raw) if box_raw is not None else DEFAULT_BOX
    if name == "quadratic_coupled":
        spec = _quadratic_coupled(_finite(name, "c", params.pop("c", 0.1)), box)
    elif name == "quartic":
        spec = _quartic(_finite(name, "c", params.pop("c", 0.1)), box)
    elif name == "custom_poly":
        if "coeffs" not in params:
            raise ValueError("flux custom_poly needs coeffs")
        spec = _custom_poly(params.pop("coeffs"), box)
    else:
        raise ValueError(f"unknown flux {name!r}")
    if params:
        raise ValueError(f"flux {name}: unknown params {', '.join(sorted(params))}")
    return spec


# ---------------------------------------------------------------------------
# operations


def interpolate(spec: FluxSpec, v: float, eps: float, lo: int, hi: int) -> PiecewiseAffineFlux:
    """Sample f(., v) at ticks [lo, hi]; the interpolation is affine in between.

    Node values equal spec.eval exactly at the nodes.  Raises if the range or
    v falls outside the flux box, read as ticks by ``Box.w_ticks`` and
    ``Box.v_ticks``: the one rounding rule of the box on the grid.
    """
    if lo >= hi:
        raise ValueError("need lo < hi")
    v_lo, v_hi = spec.box.v_ticks(eps)
    if not v_lo - 1e-9 <= v / eps <= v_hi + 1e-9:
        raise ValueError(f"v={v} outside box")
    w_lo, w_hi = spec.box.w_ticks(eps)
    if not (w_lo <= lo and hi <= w_hi):
        raise ValueError(f"range [{lo * eps}, {hi * eps}] outside box")
    values = tuple(float(spec.eval(i * eps, v)) for i in range(lo, hi + 1))
    return PiecewiseAffineFlux(eps=eps, base_index=lo, values=values)


def _axis(lo: float, hi: float, n: int) -> list[float]:
    """``n + 1`` evenly spaced points from lo to hi, ends included, each
    ``i * step + lo`` as numpy's ``linspace`` computes them."""
    step = (hi - lo) / n
    out = [i * step + lo for i in range(n + 1)]
    out[-1] = hi
    return out


def _grid(spec: FluxSpec, grid_n: int) -> tuple[list[float], list[float]]:
    """The w and v axes of the (grid_n+1)^2 grid of the flux box."""
    box = spec.box
    return _axis(box.w_min, box.w_max, grid_n), _axis(box.v_min, box.v_max, grid_n)


def _sup_norm(spec: FluxSpec, name: str, ws: list[float], vs: list[float]) -> float:
    """max |spec.<name>| over the grid ws x vs.  Raises unless every sample
    is finite: a NaN or an infinity bounds nothing."""
    fn = getattr(spec, name)
    top = 0.0
    for v in vs:
        row = list(map(abs, map(fn, ws, repeat(v))))
        if not all(map(math.isfinite, row)):
            w = next(w for w, d in zip(ws, row) if not math.isfinite(d))
            raise ValueError(f"flux {spec.name}: {name}({w}, {v}) = {fn(w, v)} is not finite, "
                             f"so its sup norm on the box is no bound")
        top = max(top, max(row))
    return float(top)


def derivative_bounds(spec: FluxSpec) -> DerivativeBounds:
    """Sup norms of |d2_ww|, |d2_wv|, |d3_wwv| sampled on a 257^2 grid.

    The 1.01 inflation keeps every downstream inequality conservative with
    respect to the true (unsampled) sup norm.  A derivative that is not
    finite at some grid point raises ``ValueError``.
    """
    ws, vs = _grid(spec, 256)
    return DerivativeBounds(*(1.01 * _sup_norm(spec, name, ws, vs)
                              for name in ("d2_ww", "d2_wv", "d3_wwv")))


def validate_flux(spec: FluxSpec) -> list[str]:
    """Check hyperbolicity (d_w > -1) on a 65^2 grid, v outer and w inner;
    return violations.  A value that is not a number (NaN) is a violation too."""
    ws, vs = _grid(spec, 64)
    out = []
    for v in vs:
        for w, d in zip(ws, map(spec.d_w, ws, repeat(v))):
            if not d > -1.0:
                out.append(f"d_w({w}, {v}) = {d} <= -1" if d <= -1.0
                           else f"d_w({w}, {v}) = {d} is not a number")
    return out


# flux selections whose constants, and (flux, eps) keys whose tables, a
# process keeps: a run reads one, and a batch or an ensemble cycles through a
# few
_MEMO_SIZE = 16


def flux_constants(flux: dict) -> tuple[FluxSpec, DerivativeBounds]:
    """The flux a selection ``{"name": ..., "params": {...}}`` names, checked
    hyperbolic on its box, and its derivative bounds.

    Both are frozen and computed once per selection in a process (the last
    ``_MEMO_SIZE`` selections are kept), keyed on the selection's canonical
    JSON text and built from that text, so a later change to the caller's
    dict does not reach them.  A selection that fails raises every time, and
    nothing is kept for it."""
    return _flux_constants(json.dumps(flux, sort_keys=True))


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _flux_constants(key: str) -> tuple[FluxSpec, DerivativeBounds]:
    flux = json.loads(key)
    spec = make_flux(flux["name"], flux.get("params"))
    try:
        problems = validate_flux(spec)
        if problems:
            raise ValueError(f"flux {spec.name} is not hyperbolic on its box: {problems[0]}")
        return spec, derivative_bounds(spec)
    except OverflowError as exc:
        # a float power past the largest float raises rather than give inf
        raise ValueError(f"flux {spec.name} overflows on its box: {exc}") from None


@functools.lru_cache(maxsize=_MEMO_SIZE, typed=True)
def flux_table(spec: FluxSpec, eps: float) -> FluxTable:
    """The process's ``FluxTable`` of ``spec`` at ``eps``, which the
    simulator and the pair history of every run at that key share.

    The last ``_MEMO_SIZE`` keys are kept, and the one used longest ago goes
    first.  A spec is keyed by its functions, so the same selection shares a
    table as long as ``flux_constants`` keeps its spec; ``typed`` keeps an
    int eps apart from the equal float, whose ticks would evaluate the flux
    at other arguments."""
    return FluxTable(spec, eps)


def validate_chords(spec: FluxSpec, eps: float, w_lo: int, w_hi: int,
                    v_ticks: Iterable[int]) -> list[str]:
    """Check that every chord of f_eps(., v) between adjacent nodes of the
    ticks [w_lo, w_hi] lies in (-1, 1), for each of ``v_ticks``; return
    violations.

    Every fan speed of ``riemann.solve_scalar`` is a mean of such chords, so
    a run whose w values stay in [w_lo, w_hi] and whose v labels are among
    ``v_ticks`` solves no fan with a speed outside (-1, 1)."""
    out = []
    for v_tick in sorted(set(v_ticks)):
        v = v_tick * eps
        values = [spec.eval(k * eps, v) for k in range(w_lo, w_hi + 1)]
        for k, (a, b) in enumerate(zip(values, values[1:]), start=w_lo):
            chord = (b - a) / eps
            if not -1.0 < chord < 1.0:
                out.append(f"chord of f(., v={v}) from w={k * eps} to w={(k + 1) * eps} "
                           f"is {chord}, outside (-1, 1)")
    return out


def build_effective_flux(cells: list[tuple[int, int]], table: FluxTable) -> PiecewiseAffineFlux:
    """Construct the effective flux from ``cells = [(cell_tick, v_tick), ...]``.

    ``cell_tick`` is the left node of the cell; cells must be contiguous and
    ascending.  The v label of each cell selects which d2f/dw2(., v) profile
    is integrated across it twice (:meth:`FluxTable.cell_increments`), from
    value 0 and slope 0 at the left node.
    """
    if not cells:
        raise ValueError("empty cell list")
    ticks = [c for c, _ in cells]
    if any(b != a + 1 for a, b in zip(ticks, ticks[1:])):
        raise ValueError("cells must be contiguous and ascending")
    eps = table.eps
    values = [0.0]
    slope = 0.0    # first derivative at the left node of the current cell
    for tick, v_tick in cells:
        incr_d, incr_v = table.cell_increments(tick, v_tick)
        # value(b) = value(a) + slope(a)*eps + int_a^b (b - x) g(x) dx
        values.append(values[-1] + slope * eps + incr_v)
        slope += incr_d
    return PiecewiseAffineFlux(eps=eps, base_index=ticks[0], values=tuple(values))


class FluxTable:
    """The cache of one flux at one eps, keyed by integer ticks.

    Three kernels are computed once per key and kept for the table's life:

    - :meth:`flux_for_v`: the interpolant f_eps(., v) over the box, per v tick;
    - ``fans``: the scalar fan of the jump ``w_left -> w_right`` under
      f_eps(., v), per ``(w_left, w_right, v_tick)``, as the tuple of frozen
      ``FanFront`` that ``riemann.solve_scalar`` returns.  The solver imports
      this module, so ``wavefield.speed_groups``, the caller that keeps fans,
      fills the dict; a jump whose solve raises is not stored;
    - :meth:`cell_increments`: the two quadrature increments of one cell
      under one v label, per ``(cell_tick, v_tick)``.

    Every kernel is a pure function of its key, and an entry is stored only
    once it is whole, so a table holds the same values whichever runs filled
    it, a run that raised included.  The simulator and the pair history take
    the one table per (flux, eps) of the process from :func:`flux_table`,
    so a run reads the fans and cells an earlier run solved.  The replay
    builds its own table for each run, so the small-N oracle never reads a
    kernel that the run it checks computed.
    """

    def __init__(self, spec: FluxSpec, eps: float):
        self.spec = spec
        self.eps = eps
        self.lo, self.hi = spec.box.w_ticks(eps)
        if self.hi - self.lo < 1:
            raise ValueError("box too small for the grid step")
        self._interpolants: dict[int, PiecewiseAffineFlux] = {}
        self.fans: dict[tuple[int, int, int], tuple] = {}
        self._cells: dict[tuple[int, int], tuple[float, float]] = {}

    def flux_for_v(self, v_tick: int) -> PiecewiseAffineFlux:
        got = self._interpolants.get(v_tick)
        if got is None:
            got = interpolate(self.spec, v_tick * self.eps, self.eps, self.lo, self.hi)
            self._interpolants[v_tick] = got
        return got

    def cell_increments(self, tick: int, v_tick: int) -> tuple[float, float]:
        """``(slope increment, value increment)`` across the cell
        [tick, tick + 1] under d2f/dw2(., v_tick * eps): the integrals of g
        and of (b - x) g over the cell [a, b], by 16-point Gauss-Legendre
        quadrature."""
        key = (tick, v_tick)
        got = self._cells.get(key)
        if got is None:
            eps = self.eps
            h = 0.5 * eps
            a = tick * eps
            b = a + eps
            v = v_tick * eps
            d2_ww = self.spec.d2_ww
            slope_terms, value_terms = [], []
            for node, weight in zip(_GL_NODES, _GL_WEIGHTS):
                x = a + h * (node + 1.0)    # the Gauss node mapped to [a, b]
                g = float(d2_ww(x, v))
                slope_terms.append(h * weight * g)
                value_terms.append(h * weight * ((b - x) * g))
            got = self._cells[key] = (_quadrature_sum(slope_terms),
                                      _quadrature_sum(value_terms))
        return got


def _quadrature_sum(p: list[float]) -> float:
    """The sum of one cell's 16 quadrature terms in one fixed order: four
    lanes, lane k the terms k, k + 4, k + 8, k + 12 in turn, then the lanes
    as (0 + 2) + (1 + 3).  It is the order of OpenBLAS's AVX2 ``ddot``, in
    which the golden files were first written, and it no longer depends on
    which BLAS is installed."""
    lane0 = ((p[0] + p[4]) + p[8]) + p[12]
    lane1 = ((p[1] + p[5]) + p[9]) + p[13]
    lane2 = ((p[2] + p[6]) + p[10]) + p[14]
    lane3 = ((p[3] + p[7]) + p[11]) + p[15]
    return (lane0 + lane2) + (lane1 + lane3)
