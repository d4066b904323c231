"""Pairwise interaction history and the quadratic interaction functional.

A pair of waves that has shared a position at least once is either joined
(same position and speed) or divided.  Joined pairs are exactly the pairs of
waves on one front, so the state's kept fronts tell them: the history stores
none of them, and reads their number as ``FieldState.n_joined``.  For every
divided pair it stores a partition of the waves present at their last
meeting into classes that have never been told apart since, and an
accumulated budget ``pi`` that grows only at transversal crossings.

The pair weight is

    q = 0                                   joined,
    q = pi / (|w_hat(s') - w_hat(s)| + eps) divided after meeting,
    q = ||d2f/dw2||                         never met,

and the quadratic functional sums q * eps^2 over alive pairs.  Its decrease
at interactions dominates the speed-change sum there; its increase at
transversal crossings is controlled by the decay of the transversal Glimm
functional.

Budgets are exact integers.  A crossing of v-front h adds
2 ||d3f/dw2dv|| |v_h| M to pi, with |v_h| = ticks_h * eps and M = count * eps
(``m_value``), so every pi is ``K * P``: K = 2 ||d3f/dw2dv|| eps^2, and P is
the integer sum of ticks_h * count over the pair's crossings.  A divided
pair maps to its partition record and nothing else: its denominator
d = |w_hat(s') - w_hat(s)| + 1 in ticks is read from the two waves' right
states (permanent, kept in ``hats``), and P from per-wave potentials.

Partitions are shared: every pair divided at the same event sees the same
classes, so one record per event serves them all, and every pair of a record
comes from the one ``_meet`` that makes it, with P = 0.  A class is the tuple
of its alive ids.  At a crossing the classes of a record that lie inside it
form one run a..b, found by bisecting on their first and last ids, and the
count of a pair (s, s') of the record is ``F(s') - G(s)``: F(w) is the number
of waves in classes a..min(class(w), b), G(w) the number in classes
a..max(class(w), a) - 1, both 0 below class a.  So each wave w of a record
keeps two integer potentials, ``A[w] += ticks * F(w)`` and
``B[w] += ticks * G(w)`` at every crossing, and

    P(s, s') = A[s'] - B[s].

A crossing then costs O(waves of the record from class a on) instead of
O(pairs it grows).

Q needs the sum of P / d, and d varies per pair.  The history keeps it exact
as one Python int, ``T = sum P * (L / d)`` over the divided pairs, with
``L = lcm(1..d_max)`` and d_max = max w_hat - min w_hat + 1, set once in
``initialize`` (w_hat is permanent).  Each wave of a record keeps two integer
weights: ``up[w]``, the sum of L / d over its partners below it in the
record, and ``dn[w]``, the sum over its partners above.  A crossing adds
``ticks * sum_w (F(w) up[w] - G(w) dn[w])`` to T; a divided pair that dies or
meets again takes ``P * L / d`` out of T and ``L / d`` out of the weights of
its two waves.  Then

    Q = eps^2 (||d2f/dw2|| (n(n-1)/2 - joined pairs - stored pairs)
               + 2 ||d3f/dw2dv|| eps T / L),

n the alive count, the joined pairs those on one kept front, the stored
pairs the divided ones, and T / L one correctly rounded division: O(1) per
event.

An event changes only the records that meet its colliding waves, and one
pass carries them across it.  A divided pair lives in the record it divided
at, and both its waves stay in that record's classes until they die, so a
dead wave's pairs are found among its record's waves.  A class is split
again by the scalar fan ``riemann.solve_scalar`` builds for the Riemann
problem it spans under the current effective flux, as the initial classes
are.  No stored pair lies
on one kept front, so only pairs across an event's two fronts meet again:
joined, they leave the store; divided, they are an error.
``PairHistory.validate`` recounts T and every record's weights from the
stored pairs and reports a stored pair on one kept front, which would be
counted twice.
"""

from __future__ import annotations

import logging
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import accumulate, repeat
from operator import itemgetter, mul

from .flux import DerivativeBounds, FluxSpec, flux_table
from .riemann import solve_scalar
from .wavefield import BlockFluxes, Event, EventKind, FieldState, stack_range

__all__ = [
    "FunctionalSnapshot",
    "PartitionRecord",
    "PairHistory",
    "m_value",
]

log = logging.getLogger("triwave.history")


@dataclass(frozen=True)
class FunctionalSnapshot:
    """Functional values right after event ``index`` (index 0 = initial data)."""

    index: int
    time: float
    tv_w: float
    q_trans: float
    q_quadratic: float
    sum_abs_dsigma: float


@dataclass(eq=False)
class PartitionRecord:
    """Shared partition for the pairs divided at one event: its classes, in
    ascending id order, each the tuple of its alive waves in ascending id
    order.  The waves present at that meeting, less those dead since, are
    the classes' union.  A class that loses a wave is cut to the waves left.
    Per wave of the classes it keeps the potentials ``A`` and ``B`` (so a
    pair's budget is ``A[s2] - B[s]``) and the weights ``up`` and ``dn`` (the
    sums of L / d over the wave's partners below and above it), all 0 when
    the record is made.  Records compare and hash by identity, so they key
    the registry.
    """

    classes: list[tuple[int, ...]]
    A: dict[int, int] = field(init=False)
    B: dict[int, int] = field(init=False)
    up: dict[int, int] = field(init=False)
    dn: dict[int, int] = field(init=False)

    def __post_init__(self) -> None:
        ids = [s for cls in self.classes for s in cls]
        self.A, self.B, self.up, self.dn = (dict.fromkeys(ids, 0) for _ in range(4))

    def forget(self, ids) -> None:
        """Drop the potentials and weights of the dead waves ``ids``."""
        for s in ids:
            del self.A[s], self.B[s], self.up[s], self.dn[s]


_first = itemgetter(0)
_last = itemgetter(-1)


def _record_problem(rec: PartitionRecord, waves: list) -> str | None:
    """What a crossing and a refinement take for granted of a live record
    ``rec`` and it fails: its classes non-empty, their ids ascending across
    the record, every wave of a class alive, and its potentials and weights
    kept for exactly the waves of its classes.  None if it holds."""
    prev = 0
    for cls in rec.classes:
        if not cls:
            return "empty class"
        for s in cls:
            if s <= prev:
                return "classes out of id order"
            if not waves[s - 1].alive:
                return f"class {cls[0]}..{cls[-1]} holds dead wave {s}"
            prev = s
    ids = {s for cls in rec.classes for s in cls}
    if not ids == rec.A.keys() == rec.B.keys() == rec.up.keys() == rec.dn.keys():
        return "potentials or weights not kept for exactly the waves of its classes"
    return None


def _weight_problem(name: str, kept: dict[int, int], recount: dict[int, int]) -> str | None:
    """The first wave whose kept weight ``name`` differs from its recount,
    or None."""
    if kept == recount:
        return None
    s = min(s for s in kept.keys() | recount.keys() if kept.get(s) != recount.get(s))
    return f"kept weight {name}[{s}] = {kept.get(s)}, recounted {recount.get(s)}"


def _span(rec: PartitionRecord) -> str:
    """How a problem names the record ``rec``."""
    ids = [s for cls in rec.classes for s in cls]
    return f"record over ids {min(ids)}..{max(ids)}"


def m_value(class_members: list[list[int]], part_lo: int, part_hi: int,
            p: int, p_prime: int, eps: float) -> float:
    """Total strength of the partition classes between p and p' (inclusive)
    that lie entirely inside the colliding wave set [part_lo, part_hi]."""
    ki = kj = None
    for k, members in enumerate(class_members):
        if members and members[0] <= p <= members[-1]:
            ki = k
        if members and members[0] <= p_prime <= members[-1]:
            kj = k
    if ki is None or kj is None:
        raise ValueError("p, p' must belong to the partitioned interval")
    if ki > kj:
        ki, kj = kj, ki
    total = 0
    for k in range(ki, kj + 1):
        members = class_members[k]
        if members and part_lo <= members[0] and members[-1] <= part_hi:
            total += len(members)
    return total * eps


class PairHistory:
    """Incrementally maintained pair histories, partitions and functionals."""

    def __init__(self, spec: FluxSpec, eps: float, bounds: DerivativeBounds):
        # the process's table of (spec, eps), for the block fluxes
        self.table = flux_table(spec, eps)
        self.eps = eps
        self.bounds = bounds
        self.K = 2.0 * bounds.norm_d3_wwv * eps**2     # pi = K * P
        # (s, s2), s < s2 -> the record of the divided pair; joined pairs
        # are never stored
        self.pairs: dict[tuple[int, int], PartitionRecord] = {}
        # live record -> the number of divided pairs sharing it
        self.records: dict[PartitionRecord, int] = {}
        # the waves' right states by id - 1, L = lcm(1..d_max) and
        # weights[d] = L // d; initialize sets them
        self.hats: list[int] = []
        self.L = 1
        self.weights = [0, 1]
        # sum of P * L / d over the divided pairs
        self.T = 0

    def budget(self, s: int, s2: int) -> int:
        """P of the divided pair (s, s2), s < s2: pi = K * P."""
        rec = self.pairs[(s, s2)]
        return rec.A[s2] - rec.B[s]

    def _weight(self, s: int, s2: int) -> int:
        """L / d of the pair (s, s2): d = |w_hat(s2) - w_hat(s)| + 1."""
        hats = self.hats
        return self.weights[abs(hats[s2 - 1] - hats[s - 1]) + 1]

    def _set_pair(self, s: int, s2: int, rec: PartitionRecord) -> None:
        """Store (s, s2), s < s2, as a divided pair of the fresh record
        ``rec`` (so P = 0): in ``pairs``, its record's pair count and the
        weights of its two waves."""
        self.pairs[(s, s2)] = rec
        self.records[rec] = self.records.get(rec, 0) + 1
        w = self._weight(s, s2)
        rec.up[s2] += w
        rec.dn[s] += w

    def _drop(self, s: int, s2: int) -> None:
        """Forget the divided pair (s, s2), s < s2: it leaves ``pairs`` and
        its record's count (a record without pairs leaves the registry), and
        takes its L / d out of the weights of its waves and P * L / d out of
        ``T``."""
        rec = self.pairs.pop((s, s2))
        left = self.records[rec] - 1
        if left:
            self.records[rec] = left
        else:
            del self.records[rec]
        w = self._weight(s, s2)
        rec.up[s2] -= w
        rec.dn[s] -= w
        P = rec.A[s2] - rec.B[s]
        if P:
            self.T -= P * w

    def validate(self, state: FieldState) -> list[str]:
        """Recount from the stored pairs ``T``, every live record's weights
        ``up`` and ``dn`` and its pair count; check that no stored pair has
        both waves on one kept front (``q_quadratic`` counts those pairs as
        joined through ``state.n_joined``), and check every live record for
        what a crossing takes for granted (``_record_problem``).  Returns
        the first kept value that differs from its recount, the first such
        pair and the first record that fails (empty = ok)."""
        problems = []
        weights, hats = self.weights, self.hats
        # wave -> its kept front's index, for the fronts of two or more waves
        front_of = {s: k for k, f in enumerate(state.fronts()) if len(f.ids) > 1
                    for s in f.ids}
        front_get = front_of.get
        on_front = None
        # record -> the recounted up and dn of the waves it keeps them for,
        # and its pair count; a record's pairs come from one _meet, so they
        # mostly come in a row
        recount: dict[PartitionRecord, list] = {}
        last = entry = None
        for (s, s2), rec in self.pairs.items():
            if rec is not last:
                last = rec
                entry = recount.get(last)
                if entry is None:
                    entry = recount[last] = [dict.fromkeys(last.up, 0),
                                             dict.fromkeys(last.dn, 0), 0]
                up, dn = entry[0], entry[1]
                up_get, dn_get = up.get, dn.get
            entry[2] += 1
            w = weights[abs(hats[s2 - 1] - hats[s - 1]) + 1]
            up[s2] = up_get(s2, 0) + w
            dn[s] = dn_get(s, 0) + w
            k = front_get(s)
            if k is not None and k == front_get(s2) and on_front is None:
                on_front = (s, s2)
        # the sum over the pairs of (A[s2] - B[s]) L / d, wave by wave
        T = 0
        for rec, (up, dn, _) in recount.items():
            T += sum(map(mul, map(rec.A.get, up, repeat(0)), up.values()))
            T -= sum(map(mul, map(rec.B.get, dn, repeat(0)), dn.values()))
        if T != self.T:
            problems.append(f"kept budget sum T = {self.T}, recounted {T}")
        for rec in self.records:
            up, dn, _ = recount.get(rec) or (dict.fromkeys(rec.up, 0),
                                             dict.fromkeys(rec.dn, 0), 0)
            problem = _weight_problem("up", rec.up, up) or _weight_problem("dn", rec.dn, dn)
            if problem:
                problems.append(f"{_span(rec)}: {problem}")
                break
        count = {rec: entry[2] for rec, entry in recount.items()}
        if count != self.records:
            rec = next(rec for rec in [*self.records, *count]
                       if count.get(rec) != self.records.get(rec))
            problems.append(f"{_span(rec)}: kept pair count {self.records.get(rec, 0)}, "
                            f"recounted {count.get(rec, 0)}")
        if on_front is not None:
            problems.append(f"stored pair {on_front} lies on one kept front")
        for rec in self.records:
            problem = _record_problem(rec, state.waves)
            if problem:
                problems.append(f"{_span(rec)}: {problem}")
                break
        return problems

    # -- construction ------------------------------------------------------

    def initialize(self, state: FieldState, initial_groups) -> FunctionalSnapshot:
        """Keep the waves' right states and fix L from them, and record the
        pair relations created by the initial Riemann problems."""
        self.hats = hats = [w.w_hat for w in state.waves]
        d_max = max(hats) - min(hats) + 1 if hats else 1
        self.L = math.lcm(*range(1, d_max + 1))
        self.weights = [0] + [self.L // d for d in range(1, d_max + 1)]
        for groups in initial_groups:
            ids = [s for members, _ in groups for s in members]
            self._meet(ids, {s: speed for members, speed in groups for s in members})
        return self.snapshot(state, index=0, sum_abs_dsigma=0.0)

    # -- event update ------------------------------------------------------

    def on_event(self, event: Event, state: FieldState):
        """Advance all histories across one event; returns (snapshot, detail)."""
        detail = None
        if event.kind.is_interaction:
            detail = self._interaction_detail(event, state)
        else:
            self._update_records(event, state)
        if event.left_ids:
            self._rejoin(event)
        if event.post_speeds:
            ids = sorted(event.post_speeds)
            if len({state.wave(s).sign for s in ids}) != 1:
                raise ValueError("meeting waves of opposite sign survived one event")
            self._meet(ids, event.post_speeds)

        snap = self.snapshot(state, index=event.index,
                             sum_abs_dsigma=event.sum_abs_dsigma)
        return snap, detail

    def _update_records(self, event: Event, state: FieldState) -> None:
        """Carry the records across a crossing or a cancellation, in one pass
        over those that meet the span of ``event.colliding``, which holds
        every crossed or dead wave.  Per record, the pairs of its dead waves
        leave (a record left without pairs is done), a crossing grows its
        potentials (``_grow``), and the classes that meet the span are split
        again by one rule.  A class changes only if the event crossed it (the
        effective flux changes only on cells whose waves crossed the
        first-family front) or killed one of its waves: then it is cut to its
        alive waves, dropped if none is left, and split again if two or more
        are.  A crossing kills no wave (``simulator.resolve``)."""
        first, last, dead = event.colliding[0], event.colliding[-1], event.canceled
        crossing = event.kind == EventKind.TRANSVERSAL
        if crossing:
            ticks = state.v_fronts[event.v_front_id - 1].strength_ticks
        fluxes = BlockFluxes(state, self.table)
        waves, pairs, records = state.waves, self.pairs, self.records
        for rec in [*records]:      # a record that loses its last pair leaves
            classes = rec.classes
            if classes[-1][-1] < first or last < classes[0][0]:
                continue
            for d in dead:
                if d in rec.A:
                    for s in rec.A:     # the partners of d's pairs of rec
                        key = (d, s) if d < s else (s, d)
                        if pairs.get(key) is rec:
                            self._drop(*key)
            if rec not in records:
                continue
            if crossing:
                self._grow(rec, first, last, ticks)
            # classes lo..hi - 1 meet the colliding waves' span
            lo = bisect_left(classes, first, key=_last)
            hi = bisect_right(classes, last, key=_first)
            new_classes: list[tuple[int, ...]] = []
            for cls in classes[lo:hi]:
                if not ((crossing and len(cls) > 1) or any(d in cls for d in dead)):
                    new_classes.append(cls)
                    continue
                members = tuple(s for s in cls if waves[s - 1].alive)
                if len(members) < len(cls):
                    rec.forget(s for s in cls if not waves[s - 1].alive)
                if len(members) > 1:
                    new_classes.extend(self._split_class(members, state, fluxes))
                elif members:
                    new_classes.append(members)
            classes[lo:hi] = new_classes

    def _grow(self, rec: PartitionRecord, lo: int, hi: int, ticks: int) -> None:
        """Grow P by ticks * count for every pair of ``rec``, through the
        potentials, at a crossing of the waves ``lo..hi`` by a v-front of
        ``ticks`` (pi grows by 2 ||d3f/dw2dv|| |v_h| M, and count is the
        integer of ``m_value``, M = count * eps).  Running sums of the sizes
        of the classes a..b inside the crossing give F and G of each wave from
        class a on: F(w) = G(w) = the total of a..b past class b."""
        classes = rec.classes
        # classes a..b: the first starts at lo or later, the last ends at hi
        # or earlier, so all of them lie inside the crossing
        a = bisect_left(classes, lo, key=_first)
        b = bisect_right(classes, hi, key=_last) - 1
        if a > b:
            return
        A, B, up, dn = rec.A, rec.B, rec.up, rec.dn
        total = dT = 0
        for k in range(a, len(classes)):
            g = total
            if k <= b:
                total += len(classes[k])
            f, g = ticks * total, ticks * g
            for w in classes[k]:
                A[w] += f
                B[w] += g
                dT += f * up[w] - g * dn[w]
        self.T += dT

    def _split_class(self, members: tuple[int, ...], state: FieldState,
                     fluxes: BlockFluxes) -> list[tuple[int, ...]]:
        """Split one class by the scalar fan of the Riemann problem it spans
        under the current effective flux: one class per front of the fan, in
        fan order, which is id order.  The effective flux is anchored to
        slope 0 at its left node, so the fan's speeds are true speeds only up
        to a constant, and only their grouping is read."""
        w_left, w_right = stack_range(state, members)
        by_cell = {state.wave(s).cell(): s for s in members}
        return [tuple(sorted(by_cell[c] for c in f.cells))
                for f in solve_scalar(w_left, w_right, fluxes.flux(members))]

    def _rejoin(self, event: Event) -> None:
        """Drop the stored pairs across the event's two fronts, once the dead
        waves' pairs have left: they meet again joined; one that meets again
        divided raises."""
        speeds, pairs = event.post_speeds, self.pairs
        for s in event.left_ids:
            for s2 in event.right_ids:
                if (s, s2) in pairs:
                    if speeds[s] != speeds[s2]:
                        raise ValueError(f"pair ({s}, {s2}) met again while divided "
                                         f"at event {event.index}")
                    log.debug("pair (%d, %d) re-joined at event %d", s, s2, event.index)
                    self._drop(s, s2)

    def _meet(self, ids: list[int], speeds: dict[int, float]) -> None:
        """Pairs of ``ids`` meeting at one point: joined where the speeds
        agree, else divided and sharing one fresh partition whose classes are
        the runs of equal speed.  Every divided pair starts with P = 0 (its
        record's potentials are 0)."""
        runs = [[ids[0]]]
        for prev, s in zip(ids, ids[1:]):
            if speeds[s] == speeds[prev]:
                runs[-1].append(s)
            else:
                runs.append([s])
        if len(runs) == 1:
            return
        record = PartitionRecord([tuple(run) for run in runs])
        end = 0
        for run in runs[:-1]:
            end += len(run)
            above = ids[end:]
            for s in run:
                for s2 in above:
                    self._set_pair(s, s2, record)

    # -- the interaction-side detail for the wavefront-decrease check -------

    def _interaction_detail(self, event: Event, state: FieldState) -> dict:
        """Both sides of the pre-event wavefront inequality at an interaction.

        Uses the effective flux of the block containing both fronts; at an
        interaction it is unchanged from the previous event, so the post-event
        state provides it.
        """
        fluxes = BlockFluxes(state, self.table)
        left, right = event.left_ids, event.right_ids
        fluxes.flux(left + right)  # raises unless both fronts lie in one block
        size_l = len(left) * self.eps
        size_r = len(right) * self.eps
        sum_P = 0
        n_never = 0
        for s in left:
            for s2 in right:
                rec = self.pairs.get((s, s2))
                if rec is None:
                    n_never += 1
                else:
                    sum_P += rec.A[s2] - rec.B[s]
        sum_pi = self.K * sum_P
        lhs = (fluxes.rh_speed(left) - fluxes.rh_speed(right)) * size_l * size_r
        rhs = sum_pi * self.eps**2 + n_never * self.bounds.norm_d2_ww * (
            size_l + size_r
        ) * self.eps**2
        return {"sum_pi_met": sum_pi, "n_never": n_never, "lhs": lhs, "rhs": rhs}

    # -- functionals ---------------------------------------------------------

    def q_quadratic(self, state: FieldState) -> float:
        """Q = sum over alive pairs of q * eps^2, from the counts alone:
        never-met pairs are all alive pairs but the joined ones (the pairs on
        one front, ``state.n_joined``) and the stored divided ones, and the
        divided pairs enter through T (the weight pi / (d eps) of pi = K * P is
        2 ||d3f/dw2dv|| eps P / d, and T / L is the sum of P / d, rounded
        once).  O(1)."""
        n = state.n_alive
        never = n * (n - 1) // 2 - state.n_joined - len(self.pairs)
        divided = self.T / self.L
        b = self.bounds
        return self.eps**2 * (b.norm_d2_ww * never + 2.0 * b.norm_d3_wwv * self.eps * divided)

    def q_trans(self, state: FieldState) -> float:
        """Transversal Glimm functional: strength of every first-family front
        times the strength of the waves still ahead (to its left).

        Read from the state's kept alive counts per ``crossed`` value in
        O(v-fronts): the waves ahead of front h are those with ``crossed < h``.
        """
        ahead, eps, total = [0, *accumulate(state.per_crossed)], self.eps, 0.0
        for vf in state.v_fronts:   # a loop: sum() rounds otherwise from Python 3.12
            total += vf.strength_ticks * eps * ahead[vf.id] * eps
        return total

    def snapshot(self, state: FieldState, index: int, sum_abs_dsigma: float) -> FunctionalSnapshot:
        return FunctionalSnapshot(
            index=index,
            time=state.time,
            tv_w=state.tv_ticks() * self.eps,
            q_trans=self.q_trans(state),
            q_quadratic=self.q_quadratic(state),
            sum_abs_dsigma=sum_abs_dsigma,
        )
