"""Test doubles shared by the test modules and the CLI runs they start.

A CLI run imports this module with ``tests`` on ``PYTHONPATH``.
"""

from itertools import zip_longest

import numpy as np

from triwave.flux import PiecewiseAffineFlux
from triwave.history import PairHistory
from triwave.wavefield import Front, _count_alive, position

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


def group_fronts(state):
    """The ids of every second-family front, derived anew from the waves: maximal
    runs of alive waves, in id order, that share position, speed and sign.

    Raises ``ValueError`` if a run mixes v labels or crossing counts."""
    alive = [w for w in state.waves if w.alive]
    return _group_runs(alive, [position(w, state.time) for w in alive])


def _group_runs(alive, pos):
    """:func:`group_fronts` over the alive waves and their positions."""
    out = []
    start = 0
    for k in range(1, len(alive)):
        a, b = alive[k - 1], alive[k]
        if pos[k] != pos[k - 1] or a.speed != b.speed or a.sign != b.sign:
            out.append(_run_ids(alive[start:k], pos[start]))
            start = k
    if alive:
        out.append(_run_ids(alive[start:], pos[start]))
    return out


def _run_ids(run, x):
    """The ids of one run; raises unless every wave has the v label and the
    crossing count of the first."""
    first = run[0]
    for w in run:
        if w.v_label != first.v_label or w.crossed != first.crossed:
            labels = {w.v_label for w in run}
            crossed = {w.crossed for w in run}
            raise ValueError(f"mixed front at x={x}: labels={labels} crossed={crossed}")
    return tuple([w.id for w in run])


def multipass_validate_enumeration(state):
    """``wavefield.validate_enumeration`` as separate passes over the alive
    waves: positions, their order, the stacks, the alive counts and the
    regrouping by :func:`group_fronts`.  The oracle of the one-pass version:
    the same problems, in the same order."""
    problems = []
    alive = [w for w in state.waves if w.alive]
    # a wave without speed (reported below) is taken to stay at its anchor
    pos = [w.x_a if w.speed is None else position(w, state.time) for w in alive]
    for k in range(len(alive) - 1):
        if pos[k] > pos[k + 1]:
            problems.append(f"positions out of order: wave {alive[k].id} at {pos[k]} "
                            f"after {alive[k + 1].id} at {pos[k + 1]}")

    # stacks of co-located waves, by exact position
    level = state.w_base
    start = 0
    for k in range(1, len(alive) + 1):
        if k < len(alive) and pos[k] == pos[start]:
            continue
        stack, x = alive[start:k], pos[start]
        start = k
        sign = stack[0].sign
        if len(stack) > 1 and len({w.sign for w in stack}) != 1:
            problems.append(f"mixed-sign stack at x={x}")
            continue
        before = level
        after = before + sign * len(stack)
        hats = [w.w_hat for w in stack]
        if hats != list(range(before + sign, after + sign, sign)):
            problems.append(
                f"stack at x={x}: right states {hats} do not fill "
                f"{'(' + str(before) + ', ' + str(after) + ']' if sign > 0 else '[' + str(after) + ', ' + str(before) + ')'}"
            )
        level = after
    if level != state.w_base:
        problems.append(f"profile does not return to base: ends at {level}")

    for w in alive:
        if w.speed is None:
            problems.append(f"alive wave {w.id} without speed")
    for w in state.waves:
        if not w.alive and w.death_time is None:
            problems.append(f"dead wave {w.id} without death time")
    n_alive, per_crossed = _count_alive(alive, state.v_fronts)
    if state.n_alive != n_alive:
        problems.append(f"kept alive count {state.n_alive}, recounted {n_alive}")
    if state.per_crossed != per_crossed:
        problems.append(f"kept alive counts per crossed value {state.per_crossed}, "
                        f"recounted {per_crossed}")
    if state._fronts is not None:
        try:
            regrouped = _group_runs(alive, pos)
        except ValueError as exc:
            problems.append(str(exc))
        else:
            kept = [f.ids for f in state._fronts]
            for k, (a, b) in enumerate(zip_longest(kept, regrouped)):
                if a != b:
                    problems.append(f"kept front {k} is {a}, regrouped {b}")
                    break
            n_joined = sum(len(ids) * (len(ids) - 1) // 2 for ids in regrouped)
            if state._n_joined != n_joined:
                problems.append(f"kept count of pairs on one front {state._n_joined}, "
                                f"recounted {n_joined}")
    return problems
