"""Test doubles shared by the test modules and the CLI runs they start.

A CLI run imports this module with ``tests`` on ``PYTHONPATH``.
"""

import json
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import zip_longest
from operator import itemgetter
from pathlib import Path

from triwave.envelopes import SLOPE_TOL, concave_envelope, convex_envelope
from triwave.flux import FluxTable, PiecewiseAffineFlux
from triwave.history import PairHistory
from triwave.replay import Replay, ReplayPair
from triwave.wavefield import (BlockFluxes, EventKind, FieldState, Front, StepFunction,
                               _count_alive, apply_event, position)


def value_at(sf, x):
    """The value of the step function ``sf`` at ``x``: the value right of
    its last breakpoint at or left of ``x``, or its base left of them all."""
    out = sf.base
    for bx, val in zip(sf.positions, sf.values):
        if bx <= x:
            out = val
        else:
            break
    return out


def write_config(config, path):
    """Write the scenario config ``config`` to ``path`` as the one-line JSON
    document ``ScenarioConfig.from_json`` reads back."""
    Path(path).write_text(json.dumps(vars(config)) + "\n")


def entropic_speed(g, lo, hi, cell, sign):
    """Envelope cell slope the Riemann problem [lo, hi] assigns to one cell.

    Positive waves read the convex envelope, negative waves the concave one,
    matching the sign convention of the speed function: the oracle of the
    speeds ``riemann.solve_scalar`` assigns.
    """
    if not (lo <= cell < hi):
        raise ValueError(f"cell {cell} not inside [{lo}, {hi})")
    env = convex_envelope(g, lo, hi) if sign > 0 else concave_envelope(g, lo, hi)
    return env.cell_slope(cell)


def envelope_split(members, state, fluxes):
    """Split the class ``members`` (ascending ids, one sign) by the envelope
    of its block's effective flux (``fluxes``, a ``BlockFluxes``) over the
    cells it spans: cut between neighbours whose cell slopes differ by more
    than SLOPE_TOL.  The oracle of ``PairHistory._split_class``, which reads
    the same split from the scalar fan ``riemann.solve_scalar`` builds."""
    eff = fluxes.flux(members)
    sign = state.wave(members[0]).sign
    cells = [state.wave(s).cell() for s in members]
    lo, hi = min(cells), max(cells) + 1
    env = convex_envelope(eff, lo, hi) if sign > 0 else concave_envelope(eff, lo, hi)
    slopes = [env.cell_slope(c) for c in cells]
    out = []
    start = 0
    for k in range(1, len(members)):
        if abs(slopes[k] - slopes[k - 1]) > SLOPE_TOL:
            out.append(members[start:k])
            start = k
    out.append(members[start:])
    return out


def reconstruct_profile(state):
    """Rebuild w(t, .) from the alive waves: the push-forward identity, the
    oracle of the enumeration."""
    jumps = {}
    for w in state.waves:
        if w.alive:
            x = position(w, state.time)
            jumps[x] = jumps.get(x, 0) + w.sign
    level = state.w_base
    xs, vals = [], []
    for x in sorted(jumps):
        if jumps[x] == 0:
            continue
        level += jumps[x]
        xs.append(x)
        vals.append(level)
    return StepFunction(tuple(xs), tuple(vals), state.w_base)


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


class ReviveAfterFirstCancellation:
    """Stands in for ``simulator.resolve``: after the first cancellation it
    brings the first wave that event cancelled back to life at the event
    point, at speed 0, behind the back of the kept counts, the kept fronts
    and the history.  ``index`` is that event's index once it has run."""

    def __init__(self, real):
        self.real = real
        self.index = None

    def __call__(self, cand, state, flux_table, index):
        event = self.real(cand, state, flux_table, index)
        if self.index is None and event.canceled:
            w = state.wave(event.canceled[0])
            w.x_a, w.t_a, w.speed = event.x, event.time, 0.0
            self.index = index
        return event


def corrupt_history(at, what):
    """A ``PairHistory`` class whose ``on_event`` corrupts one kept value
    behind the history's back, for its first divided pair (s, s2) and its
    record: ``what`` is ``"potential"`` (1 more on A[s2], so the pair's
    budget moves and ``T`` does not), ``"weight"`` (1 more on up[s2]),
    ``"T"`` (1 more on the sum), ``"cut"`` (the cut point that starts the
    meeting class of s2 moves past s2, so s2 changes meeting class),
    ``"rejoined"`` ((s, s2) slips into the record's re-joined set, so it is
    no longer divided) or ``"count"`` (1 more on the record's count of
    divided pairs).  Only the recounts of ``validate`` can tell.

    A weight is corrupted after event ``at`` and after every later event
    that leaves a divided pair: once corrupted, it leaves the recounts with
    its record unless a crossing has read it into ``T`` first.  Anything
    else is corrupted once, after event ``at``: the gap it opens between the
    kept value and its recount lasts the run, since the record takes the
    corrupted value out with its pairs."""

    class CorruptHistory(PairHistory):
        def on_event(self, event, state):
            out = super().on_event(event, state)
            if (event.index == at or what == "weight" and event.index > at) and self.records:
                (s, s2), rec = next(iter(self.pairs.items()))
                if what == "potential":
                    rec.A[s2] += 1
                elif what == "weight":
                    rec.up[s2] += 1
                elif what == "T":
                    self.T += 1
                elif what == "cut":
                    rec.cuts[rec.cuts.index(rec.meeting(s2)[0])] = rec.rank(s2) + 1
                elif what == "rejoined":
                    rec.rejoined.add((s, s2))
                else:
                    rec.count += 1
            return out

    return CorruptHistory


class PairWalkHistory(PairHistory):
    """The production history, with a per-pair walk of the budgets kept
    beside it as the oracle of its potentials and of its implicit pairs.

    The double keeps its own set of the divided pairs, built from the events
    and never read from the history: a meeting (``_meet``) divides the pairs
    of waves of unequal speed, a cancellation (``_update_records``) takes out
    the pairs of its dead waves, and a pair across an event's two fronts
    that meets again at equal speeds (``_rejoin``) leaves.  For each pair it
    keeps its own P and the record made at its meeting, and ``S[d]``, the sum
    of P over the divided pairs with denominator d (no zero sums); per
    record, its pairs in rows by lower id (rows and entries in ascending id
    order).  At a crossing, running sums of the class sizes over the run
    a..b of classes inside the crossing give each pair's count, and the walk
    visits only the pairs with a nonzero count: those whose lower wave lies
    in a class up to b and upper wave in a class from a on.

    After every event it asserts that its pairs are those of ``pairs``, each
    with its record; that the production ``T`` is exactly the sum of
    S[d] * L / d; that ``q_quadratic`` equals Q read from ``S``, with the
    sum of S[d] / d rounded once, over the lcm of the double's own
    denominators; and that each pair of every record a crossing reached
    (one with a class inside the crossing) has the P of the production
    ``budget``: only the potentials of those records change.  ``check_all``
    asserts it for every pair."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.P: dict = {}        # pair key -> P
        self.owner: dict = {}    # pair key -> the record made at its meeting
        self.partners: dict = {} # wave -> the waves it has a divided pair with
        self.S: dict = {}        # d -> sum of P over the divided pairs with denominator d
        self.rows: dict = {}     # record -> s -> s2 -> d
        self.visits = 0          # pair budgets the walk grew
        self.reached: list = []  # the records the last crossing reached
        self.events_checked = 0

    def d(self, s, s2):
        """The denominator of the pair (s, s2), from the waves' right states."""
        return abs(self.hats[s2 - 1] - self.hats[s - 1]) + 1

    def _meet(self, ids, speeds, index):
        made = len(self.records)
        super()._meet(ids, speeds, index)
        divided = [(s, s2) for i, s in enumerate(ids) for s2 in ids[i + 1:]
                   if speeds[s] != speeds[s2]]
        if not divided:
            assert len(self.records) == made, index
            return
        rec, = self.records[made:]
        for s, s2 in divided:
            assert (s, s2) not in self.P, (index, s, s2)
            self.P[(s, s2)] = 0
            self.owner[(s, s2)] = rec
            self.partners.setdefault(s, set()).add(s2)
            self.partners.setdefault(s2, set()).add(s)
            self.rows.setdefault(rec, {}).setdefault(s, {})[s2] = self.d(s, s2)

    def _update_records(self, event, state):
        super()._update_records(event, state)
        for d in event.canceled:
            for s in sorted(self.partners.get(d, ())):
                self.part(*sorted((s, d)))

    def _rejoin(self, event):
        super()._rejoin(event)
        for s in event.left_ids:
            for s2 in event.right_ids:
                if (s, s2) in self.P:
                    assert event.post_speeds[s] == event.post_speeds[s2], event.index
                    self.part(s, s2)

    def part(self, s, s2):
        """Forget the divided pair (s, s2), s < s2, and its P."""
        rec, d = self.owner.pop((s, s2)), self.d(s, s2)
        P = self.P.pop((s, s2))
        if P:
            left = self.S[d] - P
            if left:
                self.S[d] = left
            else:
                del self.S[d]
        self.partners[s].discard(s2)
        self.partners[s2].discard(s)
        rows = self.rows[rec]
        del rows[s][s2]
        if not rows[s]:
            del rows[s]
            if not rows:
                del self.rows[rec]

    def walk(self, event, state):
        """P grows by ticks * count for every pair with count != 0, at the
        crossing ``event``, from the classes before it."""
        lo, hi = event.colliding[0], event.colliding[-1]
        ticks = state.v_fronts[event.v_front_id - 1].strength_ticks
        P, S = self.P, self.S
        for rec, rows in self.rows.items():
            classes = rec.classes
            if classes[-1][-1] < lo or hi < classes[0][0]:
                continue
            a = bisect_left(classes, lo, key=itemgetter(0))
            b = bisect_right(classes, hi, key=itemgetter(-1)) - 1
            if a > b:
                continue
            self.reached.append(rec)
            # wave of classes a..b -> the count of those classes before its
            # own, and through its own
            counts, total = {}, 0
            for cls in classes[a:b + 1]:
                counts.update(dict.fromkeys(cls, (total, total + len(cls))))
                total += len(cls)
            first_lo, last_hi = classes[a][0], classes[b][-1]
            for s, row in rows.items():
                if s > last_hi:
                    break          # class(s) > b: this row and the rows after it
                start = counts[s][0] if s >= first_lo else 0
                for s2, d in reversed(row.items()):
                    if s2 < first_lo:
                        break      # class(s2) < a: this entry and the ones before it
                    # count > 0: class(s2) > class(s), and class(s2) >= a
                    amount = ticks * ((counts[s2][1] if s2 <= last_hi else total) - start)
                    P[(s, s2)] += amount
                    S[d] = S.get(d, 0) + amount
                    self.visits += 1

    def walk_q(self, state):
        """Q with the divided part read from ``S``: the sum of S[d] / d,
        correctly rounded (an int over an int)."""
        n = state.n_alive
        never = n * (n - 1) // 2 - state.n_joined - len(self.P)
        M = math.lcm(*self.S)
        divided = sum(S * (M // d) for d, S in self.S.items()) / M
        b = self.bounds
        return self.eps**2 * (b.norm_d2_ww * never + 2.0 * b.norm_d3_wwv * self.eps * divided)

    def check_all(self, index=None):
        """Assert that every pair's P equals the production ``budget``."""
        assert self.owner == self.pairs, index
        for rec in self.rows:
            self._check_record(rec, index)

    def _check_record(self, rec, index):
        A, B, P = rec.A, rec.B, self.P
        for s, row in self.rows[rec].items():
            b = B[s]
            for s2 in row:
                assert A[s2] - b == P[(s, s2)], (index, (s, s2), A[s2] - b, P[(s, s2)])

    def on_event(self, event, state):
        if event.kind == EventKind.TRANSVERSAL:
            self.walk(event, state)   # a crossing changes no class before the pass
        snap, detail = super().on_event(event, state)
        for rec in self.reached:
            if rec in self.rows:
                self._check_record(rec, event.index)
        self.reached.clear()
        assert self.owner == self.pairs, event.index
        assert self.T == sum(S * self.weights[d] for d, S in self.S.items()), event.index
        assert snap.q_quadratic == self.walk_q(state), (event.index, snap.q_quadratic)
        self.events_checked += 1
        return snap, detail


def reference_effective_flux(cells, spec, eps):
    """The effective flux of ``cells = [(cell_tick, v_tick), ...]`` with every
    cell integrated anew, each in a fresh ``FluxTable``, as one build did
    before a table kept the increments: the oracle of
    ``flux.build_effective_flux``.  ``test_flux`` checks the quadrature
    itself against numpy's."""
    values = [0.0]
    slope = 0.0
    for tick, v_tick in cells:
        incr_d, incr_v = FluxTable(spec, eps).cell_increments(tick, v_tick)
        values.append(values[-1] + slope * eps + incr_v)
        slope += incr_d
    return PiecewiseAffineFlux(eps=eps, base_index=cells[0][0], values=tuple(values))


def walk_block(state, s):
    """The maximal homogeneous block around alive wave ``s``, found by
    walking the ids out both ways over dead waves, up to the first alive
    wave of the other sign, and keeping the alive ids met: the oracle of
    ``BlockFluxes._block``, which reads the block from the kept fronts."""
    waves = state.waves
    sign = waves[s - 1].sign
    sides = []
    for ids in (range(s - 1, 0, -1), range(s + 1, len(waves) + 1)):
        found = []
        for t in ids:
            w = waves[t - 1]
            if w.alive:
                if w.sign != sign:
                    break
                found.append(t)
        sides.append(found)
    return (*reversed(sides[0]), s, *sides[1])


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
    """The ids of one run; raises unless every wave has the crossing count
    of the first."""
    crossed = {w.crossed for w in run}
    if len(crossed) > 1:
        raise ValueError(f"mixed front at x={x}: crossed={crossed}")
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


def pair_weight(pi, w_hat, w_hat2, eps):
    """q of a divided pair with right states ``w_hat``, ``w_hat2`` (ticks)."""
    return pi / ((abs(w_hat2 - w_hat) + 1) * eps)


@dataclass
class RecordedStep:
    """The replay right after one event, copied: the oracle's view of a step."""

    index: int
    pairs: dict                 # divided pair -> ReplayPair
    joined: set                 # the alive pairs whose last meeting joined them
    state: FieldState
    q_quadratic: float


def recorded_steps(replay):
    """The steps of ``replay.run()`` as a list of ``RecordedStep``, each with
    its own copy of the replay's pairs, joined pairs and state as they read
    right after the event."""
    return [RecordedStep(index, dict(replay.pairs), set(replay.joined), replay.state.copy(),
                         replay.q_quadratic())
            for index, _ in replay.run()]


class PerPairReplay(Replay):
    """``Replay`` with one entry per pair: ``status`` holds every pair of the
    run, ``"never"``, ``"joined"``, ``"divided"`` or ``"dead"``, and each
    divided pair has a ``ReplayPair`` of its own.  ``_step`` walks every
    pair and carries each divided one across the event on its own, with no
    memo; ``q_quadratic`` reads the statuses.  The oracle of the shared
    replay, which keeps only its divided and joined pairs, carries each
    shared history once and visits only the divided pairs."""

    def __init__(self, traj):
        n = len(traj.initial_state.waves)
        self.status = {(a, b): "never" for a in range(1, n + 1) for b in range(a + 1, n + 1)}
        super().__init__(traj)

    def with_status(self, status):
        """The pairs of ``status``, as a set."""
        return {key for key, st in self.status.items() if st == status}

    def _step(self, event):
        apply_event(self.state, event)
        dead = set(event.canceled)
        meeting = event.post_speeds
        fluxes = BlockFluxes(self.state, self.table)
        for key, status in self.status.items():
            s, s2 = key
            if s in dead or s2 in dead:
                self.status[key] = "dead"
                self.pairs.pop(key, None)
                self.joined.discard(key)
            elif status == "divided":
                if s in meeting and s2 in meeting:
                    if meeting[s] == meeting[s2]:
                        continue  # met again joined: _meet marks it so
                    raise ValueError(f"pair {key} met again while divided (event {event.index})")
                self.pairs[key] = self._carry(self.pairs[key], event, dead, fluxes)
        self._meet(sorted(meeting), meeting)
        return fluxes

    def _meet(self, ids, speeds):
        if len(ids) < 2:
            return
        classes = []
        for s in ids:
            if classes and speeds[s] == speeds[classes[-1][-1]]:
                classes[-1].append(s)
            else:
                classes.append([s])
        group_of = {s: k for k, cls in enumerate(classes) for s in cls}
        for i, a in enumerate(ids):
            for b in ids[i + 1:]:
                if group_of[a] == group_of[b]:
                    self.status[(a, b)] = "joined"
                    self.pairs.pop((a, b), None)
                    self.joined.add((a, b))
                else:
                    self.status[(a, b)] = "divided"
                    self.pairs[(a, b)] = ReplayPair(
                        [list(c) for c in classes],
                        {(p, p2): 0.0 for j, p in enumerate(ids) for p2 in ids[j + 1:]})
                    self.joined.discard((a, b))

    def q_quadratic(self):
        eps = self.traj.eps
        alive = [w for w in self.state.waves if w.alive]
        q = 0.0
        for i, a in enumerate(alive):
            for b in alive[i + 1:]:
                key = (a.id, b.id)
                if self.status[key] == "never":
                    q += self.traj.bounds.norm_d2_ww
                elif self.status[key] == "divided":
                    q += pair_weight(self.pairs[key].pi[key], a.w_hat, b.w_hat, eps)
        return q * eps**2


def alive_ids(state):
    """The ids of the alive waves of ``state``, in ascending order."""
    return [w.id for w in state.waves if w.alive]
