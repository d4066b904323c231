"""Test doubles shared by the test modules and the CLI runs they start.

A CLI run imports this module with ``tests`` on ``PYTHONPATH``.
"""

import numpy as np

from triwave.flux import PiecewiseAffineFlux
from triwave.history import PairHistory
from triwave.wavefield import Front

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


def swap_end_positions(state):
    """Swap the anchors of the first and last alive waves."""
    alive = [w for w in state.waves if w.alive]
    a, b = alive[0], alive[-1]
    (a.x_a, a.t_a), (b.x_a, b.t_a) = (b.x_a, b.t_a), (a.x_a, a.t_a)


def swap_kept_ids(state):
    """Swap the last id of the first kept front with the first id of the
    second: anchors stay as they are, only the kept fronts go wrong."""
    fronts = state.fronts()
    a, b = fronts[0], fronts[1]
    fronts[0] = Front(a.ids[:-1] + b.ids[:1], a.lead)
    fronts[1] = Front(a.ids[-1:] + b.ids[1:], b.lead)


class CorruptAfterFirstEvent:
    """Stands in for ``simulator.next_collision``: the first search is the
    real one; the second corrupts the state with ``corrupt`` (by default it
    puts the enumeration out of order) and reports that nothing meets, so
    the run ends on the corrupt state."""

    def __init__(self, real, corrupt=swap_end_positions):
        self.real = real
        self.corrupt = corrupt
        self.calls = 0

    def __call__(self, state):
        self.calls += 1
        if self.calls == 1:
            return self.real(state)
        self.corrupt(state)
        return None


def bump_one_budget(at):
    """A ``PairHistory`` class whose ``on_event`` adds 1 to the P of its first
    divided pair after event ``at``, without touching ``S``: only the
    recount of the kept budget sums can tell."""

    class BumpOneBudget(PairHistory):
        def on_event(self, event, state):
            out = super().on_event(event, state)
            if event.index == at:
                next(iter(self.pairs.values())).P += 1
            return out

    return BumpOneBudget


def reference_effective_flux(cells, spec, eps):
    """The effective flux of ``cells = [(cell_tick, v_tick), ...]`` with every
    cell integrated anew, by 16-point Gauss-Legendre quadrature, as one build
    did before a ``FluxTable`` kept the increments: the oracle of
    ``flux.build_effective_flux``."""
    values = np.zeros(len(cells) + 1)
    slope = 0.0
    for k, (tick, v_tick) in enumerate(cells):
        a = tick * eps
        v = v_tick * eps
        x = a + 0.5 * eps * (_GL_NODES + 1.0)
        wts = 0.5 * eps * _GL_WEIGHTS
        g = np.array([spec.d2_ww(xi, v) for xi in x])
        incr_d = float(np.dot(wts, g))
        incr_v = float(np.dot(wts, (a + eps - x) * g))
        values[k + 1] = values[k] + slope * eps + incr_v
        slope += incr_d
    return PiecewiseAffineFlux(eps=eps, base_index=cells[0][0], values=values)
