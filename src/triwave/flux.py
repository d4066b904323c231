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
- ``FluxTable``: the per-run cache of one flux at one eps, keyed by integer
  ticks: the interpolants f_eps(., v), the scalar fans of the Riemann
  problems solved so far, and the quadrature increments of each cell;
- ``build_effective_flux``: the effective flux of a block, a
  ``PiecewiseAffineFlux`` whose second w-derivative equals d2f/dw2(., v_label)
  cell by cell, anchored to value 0 / slope 0 at its left node (it is only
  ever used through differences, which are affine-invariant).

All grid coordinates in this package are integer "ticks": node i sits at
``i * eps``.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

__all__ = [
    "Box",
    "FluxSpec",
    "DerivativeBounds",
    "PiecewiseAffineFlux",
    "make_flux",
    "interpolate",
    "derivative_bounds",
    "flux_constants",
    "build_effective_flux",
    "FluxTable",
    "validate_flux",
    "validate_chords",
]

Real2 = Callable[[float, float], float]

# nodes and weights for the per-cell quadrature of build_effective_flux
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


@dataclass(frozen=True)
class Box:
    """Rectangular domain of validity in the (w, v) plane."""

    w_min: float
    w_max: float
    v_min: float
    v_max: float

    def contains_w(self, w: float) -> bool:
        return self.w_min - 1e-12 <= w <= self.w_max + 1e-12

    def contains_v(self, v: float) -> bool:
        return self.v_min - 1e-12 <= v <= self.v_max + 1e-12

    def w_ticks(self, eps: float) -> tuple[int, int]:
        """The least and greatest tick k whose w = k * eps lies in [w_min,
        w_max], up to rounding: the w nodes of every interpolant of the box
        at grid step eps."""
        return math.ceil(self.w_min / eps - 1e-9), math.floor(self.w_max / eps + 1e-9)


@dataclass(frozen=True)
class FluxSpec:
    """A smooth flux f(w, v) together with its analytic partial derivatives.

    ``eval`` is the flux itself; the derivative evaluators must agree with
    finite differences of ``eval``.  Hyperbolicity requires d_w > -1
    throughout the box (see :func:`validate_flux`).

    Every evaluator must also broadcast over numpy arrays, as the built-in
    lambdas do: :func:`derivative_bounds` and :func:`validate_flux` call it
    once on a whole meshgrid of the box.  An evaluator that returns a scalar
    (a constant derivative) is broadcast to the grid.
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
    sits at ``(base_index + k) * eps``.
    """

    eps: float
    base_index: int
    values: np.ndarray

    def __post_init__(self) -> None:
        if len(self.values) < 2:
            raise ValueError("piecewise affine flux needs at least 2 nodes")

    @property
    def last_index(self) -> int:
        return self.base_index + len(self.values) - 1

    def value(self, tick: int) -> float:
        if not self.base_index <= tick <= self.last_index:
            raise ValueError(f"node {tick} outside [{self.base_index}, {self.last_index}]")
        return float(self.values[tick - self.base_index])

    def node_slice(self, lo: int, hi: int) -> np.ndarray:
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
        def g(w: float, v: float) -> float:
            total = 0.0
            for i, j, a in terms:
                if i < di or j < dj:
                    continue
                coef = a
                for k in range(di):
                    coef *= i - k
                for k in range(dj):
                    coef *= j - k
                total += coef * w ** (i - di) * v ** (j - dj)
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
    """``raw`` as a float; raises unless it is a finite number."""
    try:
        value = float(raw)
    except (TypeError, ValueError):
        raise ValueError(f"flux {flux}: {what} must be a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"flux {flux}: {what} must be finite, got {raw!r}")
    return value


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
    v falls outside the flux box.
    """
    if lo >= hi:
        raise ValueError("need lo < hi")
    if not spec.box.contains_v(v):
        raise ValueError(f"v={v} outside box")
    if not (spec.box.contains_w(lo * eps) and spec.box.contains_w(hi * eps)):
        raise ValueError(f"range [{lo * eps}, {hi * eps}] outside box")
    values = np.array([spec.eval(i * eps, v) for i in range(lo, hi + 1)], dtype=float)
    return PiecewiseAffineFlux(eps=eps, base_index=lo, values=values)


def _grid(spec: FluxSpec, grid_n: int) -> tuple[np.ndarray, np.ndarray]:
    """The (grid_n+1)^2 meshgrid of the flux box, w along rows, v down columns."""
    ws = np.linspace(spec.box.w_min, spec.box.w_max, grid_n + 1)
    vs = np.linspace(spec.box.v_min, spec.box.v_max, grid_n + 1)
    return np.meshgrid(ws, vs)


def _on_grid(fn: Real2, w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``fn`` on the whole grid; a constant evaluator returns a scalar."""
    return np.broadcast_to(fn(w, v), w.shape)


def derivative_bounds(spec: FluxSpec) -> DerivativeBounds:
    """Sup norms of |d2_ww|, |d2_wv|, |d3_wwv| sampled on a 257^2 grid.

    The 1.01 inflation keeps every downstream inequality conservative with
    respect to the true (unsampled) sup norm.
    """
    w, v = _grid(spec, 256)
    m_ww, m_wv, m_wwv = (float(np.max(np.abs(_on_grid(fn, w, v))))
                         for fn in (spec.d2_ww, spec.d2_wv, spec.d3_wwv))
    return DerivativeBounds(float(1.01 * m_ww), float(1.01 * m_wv), float(1.01 * m_wwv))


def validate_flux(spec: FluxSpec) -> list[str]:
    """Check hyperbolicity (d_w > -1) on a 65^2 grid; return violations.
    A value that is not a number (NaN) is a violation too."""
    w, v = _grid(spec, 64)
    d_w = _on_grid(spec.d_w, w, v)
    return [f"d_w({w[k]}, {v[k]}) = {d_w[k]} <= -1" if d_w[k] <= -1.0
            else f"d_w({w[k]}, {v[k]}) = {d_w[k]} is not a number"
            for k in zip(*np.nonzero(~(d_w > -1.0)))]


# flux selections whose constants a process keeps: a run reads one, and a
# batch or an ensemble cycles through a few
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
    problems = validate_flux(spec)
    if problems:
        raise ValueError(f"flux {spec.name} is not hyperbolic on its box: {problems[0]}")
    return spec, derivative_bounds(spec)


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
    values = np.zeros(len(cells) + 1)
    slope = 0.0    # first derivative at the left node of the current cell
    for k, (tick, v_tick) in enumerate(cells):
        incr_d, incr_v = table.cell_increments(tick, v_tick)
        # value(b) = value(a) + slope(a)*eps + int_a^b (b - x) g(x) dx
        values[k + 1] = values[k] + slope * eps + incr_v
        slope += incr_d
    return PiecewiseAffineFlux(eps=eps, base_index=ticks[0], values=values)


class FluxTable:
    """The per-run cache of one flux at one eps, keyed by integer ticks.

    Three kernels are computed once per key and kept for the run:

    - :meth:`flux_for_v`: the interpolant f_eps(., v) over the box, per v tick;
    - ``fans``: the scalar fan of the jump ``w_left -> w_right`` under
      f_eps(., v), per ``(w_left, w_right, v_tick)``, as the tuple of frozen
      ``FanFront`` that ``riemann.solve_scalar`` returns.  The solver imports
      this module, so ``wavefield.speed_groups``, its one caller, fills the
      dict; a jump whose solve raises is not stored;
    - :meth:`cell_increments`: the two quadrature increments of one cell
      under one v label, per ``(cell_tick, v_tick)``.

    A table belongs to whoever builds it: the simulator, the pair history and
    the replay each build their own, so no run reads another's entries.
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
            a = tick * eps
            v = v_tick * eps
            # map Gauss nodes to [a, a+eps]
            x = a + 0.5 * eps * (_GL_NODES + 1.0)
            wts = 0.5 * eps * _GL_WEIGHTS
            g = np.array([self.spec.d2_ww(xi, v) for xi in x])
            got = self._cells[key] = (float(np.dot(wts, g)),
                                      float(np.dot(wts, (a + eps - x) * g)))
        return got
