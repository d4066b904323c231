"""Pairwise interaction history and the quadratic interaction functional.

A pair of waves that has shared a position at least once is either joined
(same position and speed) or divided.  Joined pairs are exactly the pairs of
waves on one front, so the state's kept fronts tell them, and the history
reads their number as ``FieldState.n_joined``.  Every divided pair has a
partition of the waves present at its last meeting into classes that have
never been told apart since, and an accumulated budget ``pi`` that grows
only at transversal crossings.

The pair weight is

    q = 0                                   joined,
    q = pi / (|w_hat(s') - w_hat(s)| + eps) divided after meeting,
    q = ||d2f/dw2||                         never met,

and the quadratic functional sums q * eps^2 over alive pairs.  Its decrease
at interactions dominates the speed-change sum there; its increase at
transversal crossings is controlled by the decay of the transversal Glimm
functional.

No pair is stored.  The pairs divided at one meeting share one partition
record, made by ``_meet``: the meeting's waves have consecutive right states
(``wavefield.stack_range`` checks it), so a wave's meeting rank is
|w_hat - w_hat of rank 0| and d = |w_hat(s') - w_hat(s)| + 1 in ticks is the
rank difference plus 1.
The record keeps its meeting classes, the ids of the fronts of the fan that
leaves the meeting, as cut points over the ranks.  Its divided pairs are the
pairs of its alive waves in two meeting classes, less the set of those that
met again joined, and it keeps their count; ``q_quadratic`` reads the total
of the counts.  A pair's record is the latest live record that holds both
its waves.

Budgets are exact integers.  A crossing of v-front h adds
2 ||d3f/dw2dv|| |v_h| M to pi, with |v_h| = ticks_h * eps and M = count * eps
(``m_value``), so every pi is ``K * P``: K = 2 ||d3f/dw2dv|| eps^2, and P is
the integer sum of ticks_h * count over the pair's crossings.  The record's
current classes, tuples of alive ids that refine its meeting classes, give
the counts.  At a crossing the classes of a record that lie inside it form
one run a..b, found by bisecting on their first and last ids, and the count
of a pair (s, s') of the record is ``F(s') - G(s)``: F(w) is the number of
waves in classes a..min(class(w), b), G(w) the number in classes
a..max(class(w), a) - 1, both 0 below class a.  So each wave w of a record
keeps two integer potentials, ``A[w] += ticks * F(w)`` and
``B[w] += ticks * G(w)`` at every crossing, and

    P(s, s') = A[s'] - B[s].

Q needs the sum of P / d.  The history keeps it exact as one Python int,
``T = sum P * (L / d)`` over the divided pairs, with L = lcm(1..d_max) and
d_max = max w_hat - min w_hat + 1, set once in ``initialize`` (w_hat is
permanent).  Each wave of a record keeps two integer weights: ``up[w]``, the
sum of L / d over its divided partners below it, and ``dn[w]``, over those
above, which ``_meet`` takes from the recount that ``validate`` runs.  A
crossing adds ``ticks * sum_w (F(w) up[w] - G(w) dn[w])`` to T; when a wave
dies, one pass over its record's waves takes its pairs' L / d out of its
partners' weights and their P * L / d out of T, and a pair that meets again
joined does the same for itself.  Then

    Q = eps^2 (||d2f/dw2|| (n(n-1)/2 - joined pairs - divided pairs)
               + 2 ||d3f/dw2dv|| eps T / L),

n the alive count and T / L one correctly rounded division: O(1) per event.

An event changes only the records that meet its colliding waves, and one
pass carries them across it.  A class is split again by the scalar fan
``riemann.solve_scalar`` builds for the Riemann problem it spans under the
current effective flux, as the initial classes are.  No divided pair lies on
one kept front, so only pairs across an interaction's two fronts meet again,
all joined, since the interaction leaves one front (``simulator.resolve``):
they join their record's re-joined set.
``PairHistory.validate`` recounts each record at every call, from its
classes, cut points and re-joined set, in one pass over its waves that
checks what a crossing relies on and computes each wave's weights in
O(runs of alive ranks) integer operations, mostly one, and the pair count
and T; it also reports a divided pair on one kept front, which would be
counted twice.  ``pairs`` builds the map of every divided pair to its record
on each read, for ``replay_pi_match`` at level ``small_n`` and the oracles.
"""

from __future__ import annotations

import logging
import math
from bisect import bisect_left, bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import accumulate, combinations, product, repeat
from operator import itemgetter

from .flux import DerivativeBounds, FluxSpec, flux_table
from .riemann import solve_scalar
from .wavefield import BlockFluxes, Event, EventKind, FieldState, fan_runs, stack_range

__all__ = [
    "FunctionalSnapshot",
    "PartitionRecord",
    "PairHistory",
    "m_value",
]

log = logging.getLogger("triwave.history")


@dataclass(slots=True)
class FunctionalSnapshot:
    """Functional values right after event ``index`` (index 0 = initial data)."""

    index: int
    time: float
    tv_w: float
    q_trans: float
    q_quadratic: float
    sum_abs_dsigma: float


@dataclass(slots=True, eq=False)
class PartitionRecord:
    """Shared partition for the pairs divided at one meeting: its classes,
    in ascending id order, each the tuple of its alive waves in ascending id
    order.  The waves present at the meeting, less those dead since, are the
    classes' union; a class that loses a wave is cut to the waves left.  It
    reads the waves' right states from ``hats``, the history's list, and
    keeps ``hat0``, the right state of meeting rank 0, and its meeting
    classes as ``cuts``: 0, the meeting ranks at which the second and later
    ones start, and infinity (so the classes it is made with are the meeting
    classes, over ranks 0, 1, ...).  It keeps ``rejoined``, its pairs that
    met again joined, and ``count``, the number of its divided pairs.  Per
    wave of the classes it keeps the potentials ``A`` and ``B`` (so a pair's
    budget is ``A[s2] - B[s]``), 0 when the record is made, and the weights
    ``up`` and ``dn`` (the sums of L / d over the wave's divided partners
    below and above it), which ``PairHistory._meet`` sets.
    """

    classes: list[tuple[int, ...]]
    hats: list[int] = field(repr=False)     # the waves' right states by id - 1
    hat0: int = field(init=False)
    cuts: list[float] = field(init=False)
    rejoined: set[tuple[int, int]] = field(init=False, default_factory=set)
    count: int = field(init=False, default=0)
    A: dict[int, int] = field(init=False)
    B: dict[int, int] = field(init=False)
    up: dict[int, int] = field(init=False)
    dn: dict[int, int] = field(init=False)

    def __post_init__(self) -> None:
        ids = [s for cls in self.classes for s in cls]
        self.hat0 = self.hats[ids[0] - 1]
        self.cuts = [0, *accumulate(map(len, self.classes[:-1])), math.inf]
        self.A, self.B, self.up, self.dn = (dict.fromkeys(ids, 0) for _ in range(4))

    def rank(self, s: int) -> int:
        """The meeting rank of wave ``s``."""
        return abs(self.hats[s - 1] - self.hat0)

    def meeting(self, s: int) -> tuple[float, float]:
        """The meeting class of wave ``s``: its first rank and the one past
        its last."""
        k = bisect_right(self.cuts, self.rank(s))
        return self.cuts[k - 1], self.cuts[k]

    def divides(self, s: int, s2: int) -> bool:
        """Whether its waves s < s2 are a divided pair: in two meeting
        classes, and not met again joined since."""
        return (s, s2) not in self.rejoined and self.meeting(s) != self.meeting(s2)


_first = itemgetter(0)
_last = itemgetter(-1)


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
        # the process's table of (spec, eps), for the block fluxes, and this
        # run's fluxes by their blocks' (cell, v tick) sequence
        self.table = flux_table(spec, eps)
        self.flux_memo: dict = {}
        self.eps = eps
        self.bounds = bounds
        self.K = 2.0 * bounds.norm_d3_wwv * eps**2     # pi = K * P
        # the live records, those with divided pairs, in the order made
        self.records: list[PartitionRecord] = []
        self.n_divided = 0          # the sum of their counts
        # the waves' right states by id - 1, L = lcm(1..d_max), weights[d] =
        # L // d and cum[d] = the sum of weights[:d]; initialize sets them
        self.hats: list[int] = []
        self.L = 1
        self.weights = [0, 1]
        self.cum = [0, 0, 1]
        # sum of P * L / d over the divided pairs
        self.T = 0
        # (id, |v jump| * eps) per first-family front; initialize sets it
        self.v_strengths: list[tuple[int, float]] = []

    def _record_of(self, s: int, s2: int) -> PartitionRecord | None:
        """The record of the divided pair (s, s2), s < s2, or None if the
        pair is not divided: the latest live record that holds both waves,
        if it divides them."""
        for rec in reversed(self.records):
            if s in rec.A and s2 in rec.A:
                return rec if rec.divides(s, s2) else None
        return None

    @property
    def pairs(self) -> dict[tuple[int, int], PartitionRecord]:
        """Every divided pair (s, s2), s < s2, mapped to its record, by
        record in the order made and then by key.  Built on each read, for
        ``replay_pi_match`` at level ``small_n`` and for the oracles."""
        out = {}
        for rec in self.records:
            ids = [*rec.A]
            starts = [rec.meeting(s)[0] for s in ids]
            for s, start in zip(ids, starts):       # the partners above s, by class
                out.update(dict.fromkeys(zip(repeat(s), ids[bisect_right(starts, start):]), rec))
            for key in rec.rejoined:
                del out[key]
        return out

    def budget(self, s: int, s2: int) -> int:
        """P of the divided pair (s, s2), s < s2: pi = K * P."""
        rec = self._record_of(s, s2)
        if rec is None:
            raise KeyError((s, s2))
        return rec.A[s2] - rec.B[s]

    def _part(self, rec: PartitionRecord, pairs: list[tuple[int, int]]) -> None:
        """Take the divided pairs ``pairs`` out of ``rec``: each one's L / d
        leaves the weights of its waves and its P * L / d leaves T.  A record
        left without pairs is done, and leaves the live records."""
        for s, s2 in pairs:
            w = self.weights[abs(self.hats[s2 - 1] - self.hats[s - 1]) + 1]
            rec.up[s2] -= w
            rec.dn[s] -= w
            self.T -= (rec.A[s2] - rec.B[s]) * w
        rec.count -= len(pairs)
        self.n_divided -= len(pairs)
        if pairs and not rec.count:
            self.records.remove(rec)

    def _recount(self, rec: PartitionRecord, state: FieldState) -> tuple[list, int, int, list]:
        """Recount ``rec`` in one pass over its waves in class order; raise
        ``ValueError`` unless its classes are non-empty, their ids ascend,
        its waves are alive and keep potentials and weights, and no other
        does.  The L / d of ranks a..b sum to cum[r - a + 2] - cum[r - b + 1]
        below rank r, cum[b - r + 2] - cum[a - r + 1] above it.  Returns the
        waves whose kept weights differ as (s, up, dn) by id (with those of
        re-joined pairs off the record, None for a side with no pair), the
        share of T, the pair count and the kept fronts on which two waves
        next in class order lie in two meeting classes."""
        cum, hats, hat0, cuts = self.cum, self.hats, rec.hat0, rec.cuts
        A, B, up, dn, classes = rec.A, rec.B, rec.up, rec.dn, rec.classes
        state.fronts()      # builds the kept fronts and their last ids if need be
        waves, last_ids, n = state.waves, state._last_ids, sum(map(len, classes))
        lo, hi, gaps, f = 0, n - 1, [], 0   # alive ranks lo..hi less the runs in gaps
        if classes[0] and classes[-1]:
            lo, hi = abs(hats[classes[0][0] - 1] - hat0), abs(hats[classes[-1][-1] - 1] - hat0)
            f = bisect_left(last_ids, classes[0][0], 0, len(last_ids) - 1)
        if hi - lo != n - 1:
            ranks = [abs(hats[s - 1] - hat0) for cls in classes for s in cls]
            gaps = [(p + 1, q - 1) for p, q in zip(ranks, ranks[1:]) if q > p + 1]
        less: dict[int, list[int]] = {}     # wave -> L / d of its re-joined pairs below and above
        for s, s2 in rec.rejoined:
            for t, i in (s2, 0), (s, 1):
                less.setdefault(t, [0, 0])[i] += self.weights[abs(hats[s2 - 1] - hats[s - 1]) + 1]
        differ, shared, T, count, stray = [], [], 0, -len(rec.rejoined), False
        prev = k = end = below = m = 0      # below: the waves of lower meeting classes
        for cls in classes:
            if not cls:
                raise ValueError("empty class")
            for s in cls:
                if s <= prev or waves[s - 1].x_a is None:
                    raise ValueError("classes out of id order" if s <= prev
                                     else f"class {cls[0]}..{cls[-1]} holds dead wave {s}")
                r = abs(hats[s - 1] - hat0)
                if r >= end:        # s starts meeting class k (ranks ascend)
                    k = k + 1 if r < cuts[k + 1] else bisect_right(cuts, r, k + 1)
                    c0, end = cuts[k - 1], cuts[k]      # its alive ranks are c0..c1 - 1
                    c0, c1 = c0 if c0 > lo else lo, end if end <= hi else hi + 1
                    count, below, m = count + below * m, below + m, 0
                    if prev:        # does the front of prev hold s too?
                        while last_ids[f] < prev and f + 1 < len(last_ids):
                            f += 1
                        if s <= last_ids[f] and f not in shared:
                            shared.append(f)
                m += 1
                u = cum[r - lo + 2] - cum[r - c0 + 2]
                v = cum[hi - r + 2] - cum[c1 - r + 1]
                if gaps:
                    for a, b in gaps:
                        u -= cum[r - a + 2] - cum[r - min(b, c0 - 1) + 1] if a < c0 else 0
                        v -= cum[b - r + 2] - cum[max(a, c1) - r + 1] if b >= c1 else 0
                if less and s in less:
                    u, v = u - less[s][0], v - less.pop(s)[1]
                try:
                    if u != up[s] or v != dn[s]:
                        differ.append((s, u, v))
                    T += A[s] * u - B[s] * v
                except KeyError:
                    stray = True
                prev = s
        if stray or not n == len(A) == len(B) == len(up) == len(dn):
            raise ValueError("potentials or weights not kept for exactly the waves of its classes")
        differ += ((s, -du or None, -dv or None) for s, (du, dv) in less.items())
        return sorted(differ) if less else differ, T, count + below * m, shared

    def validate(self, state: FieldState) -> list[str]:
        """Recount every live record from scratch (``_recount``), then T and
        the total.  Returns the first record that breaks what a crossing takes
        for granted, or else per record its first kept weight that differs
        (``up``, then ``dn``, by id) or its count, and the first divided pair
        on each kept front; then T and the total (empty = ok)."""
        problems, T, total = [], 0, 0
        for rec in self.records:
            try:
                differ, t, count, shared = self._recount(rec, state)
            except ValueError as exc:
                return [f"{_span(rec)}: {exc}"]
            T, total = T + t, total + count
            if differ or count != rec.count:
                up, dn = rec.up, rec.dn
                problems.append(f"{_span(rec)}: " + next(
                    (f"kept weight up[{s}] = {up.get(s)}, recounted {u}"
                     for s, u, _ in differ if u != up.get(s)),
                    next((f"kept weight dn[{s}] = {dn.get(s)}, recounted {v}"
                          for s, _, v in differ if v != dn.get(s)),
                         f"kept pair count {rec.count}, recounted {count}")))
            for f in shared:
                ids = [s for s in state.fronts()[f].ids if s in rec.A]
                problems += [f"divided pair {key} lies on one kept front"
                             for key in combinations(ids, 2) if rec.divides(*key)][:1]
        if T != self.T:
            problems.append(f"kept budget sum T = {self.T}, recounted {T}")
        if total != self.n_divided:
            problems.append(f"kept divided pair total {self.n_divided}, recounted {total}")
        return problems

    # -- construction ------------------------------------------------------

    def initialize(self, state: FieldState, initial_groups) -> FunctionalSnapshot:
        """Keep the waves' right states and the first-family strengths, fix
        L from the right states, and record the pair relations created by
        the initial Riemann problems."""
        self.hats = hats = [w.w_hat for w in state.waves]
        self.v_strengths = [(vf.id, vf.strength_ticks * self.eps) for vf in state.v_fronts]
        d_max = max(hats) - min(hats) + 1 if hats else 1
        self.L = math.lcm(*range(1, d_max + 1))
        self.weights = [0] + [self.L // d for d in range(1, d_max + 1)]
        self.cum = [0, *accumulate(self.weights)]
        for groups in initial_groups:
            self._meet(groups, state)
        return self.snapshot(state, index=0, sum_abs_dsigma=0.0)

    # -- event update ------------------------------------------------------

    def on_event(self, event: Event, state: FieldState):
        """Advance all histories across one event; returns (snapshot, detail)."""
        detail = None
        if event.kind.is_interaction:
            detail = self._interaction_detail(event, state, *self._rejoin(event))
        else:
            self._update_records(event, state)
        if event.fronts:
            self._meet(event.fronts, state)
        return self.snapshot(state, index=event.index, sum_abs_dsigma=event.sum_abs_dsigma), detail

    def _update_records(self, event: Event, state: FieldState) -> None:
        """Carry the records across a crossing or a cancellation, in one pass
        over those that meet the span of ``event.colliding``, which holds
        every crossed or dead wave.  Per record, the pairs of its dead waves
        leave (``_bury``; a record left without pairs is done), a crossing
        grows its potentials (``_grow``), and the classes that meet the span
        are split again by one rule.  A class changes only if the event
        crossed it (the effective flux changes only on cells whose waves
        crossed the first-family front) or killed one of its waves: then it
        is cut to its alive waves, dropped if none is left, and split again
        if two or more are.  A crossing kills no wave
        (``simulator.resolve``)."""
        first, last, dead = event.colliding[0], event.colliding[-1], event.canceled
        crossing = event.kind == EventKind.TRANSVERSAL
        ticks = state.v_fronts[event.v_front_id - 1].strength_ticks if crossing else 0
        fluxes = BlockFluxes(state, self.table, self.flux_memo)
        for rec in [*self.records]:      # a record that loses its last pair leaves
            classes = rec.classes
            if classes[-1][-1] < first or last < classes[0][0]:
                continue
            if dead and not self._bury(rec, dead):
                continue
            if crossing:
                self._grow(rec, first, last, ticks)
            # classes lo..hi - 1 meet the colliding waves' span
            lo = bisect_left(classes, first, key=_last)
            hi = bisect_right(classes, last, key=_first)
            new_classes: list[tuple[int, ...]] = []
            for cls in classes[lo:hi]:
                members = tuple(s for s in cls if s in rec.A)   # not buried
                if len(members) > 1 and (crossing or len(members) < len(cls)):
                    new_classes.extend(self._split_class(members, state, fluxes))
                elif members:
                    new_classes.append(members)
            classes[lo:hi] = new_classes

    def _bury(self, rec: PartitionRecord, dead) -> bool:
        """Take the divided pairs of the dead waves ``dead`` out of ``rec``,
        one pass over its waves per dead wave (``_part``), and the dead waves
        out of its waves and its re-joined set.  Returns whether the record
        still has divided pairs."""
        for d in dead:
            if d in rec.A:
                start, end = rec.meeting(d)
                keys = ((s, d) if s < d else (d, s) for s in rec.A
                        if not start <= rec.rank(s) < end)
                self._part(rec, [key for key in keys if key not in rec.rejoined])
                del rec.A[d], rec.B[d], rec.up[d], rec.dn[d]
                rec.rejoined = {key for key in rec.rejoined if d not in key}
        return rec.count > 0

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
        to a constant, and only its fronts' widths are read: they cut the
        class into id slices (``wavefield.fan_runs``), after
        ``wavefield.stack_range`` has checked the class's stack rule."""
        return fan_runs(members, solve_scalar(*stack_range(state, members), fluxes.flux(members)))

    def _rejoin(self, event: Event) -> tuple[int, int]:
        """Walk the pairs across the two fronts of an interaction once; return
        how many have no record (the never-met pairs) and the sum of P over
        the others, which meet again joined: each leaves its record and joins
        its re-joined set: ``simulator.resolve`` lets an interaction leave
        only one front, so every pair across it meets again joined.  At a
        cancellation every such pair has a dead wave (the survivors all
        come from one front), whose pairs ``_bury`` has taken out."""
        n_never = sum_P = 0
        for s, s2 in product(event.left_ids, event.right_ids):
            rec = self._record_of(s, s2)
            if rec is None:
                n_never += 1
                continue
            log.debug("pair (%d, %d) re-joined at event %d", s, s2, event.index)
            sum_P += rec.A[s2] - rec.B[s]
            self._part(rec, [(s, s2)])
            rec.rejoined.add((s, s2))
        return n_never, sum_P

    def _meet(self, fronts: Sequence[tuple[tuple[int, ...], float]], state: FieldState) -> None:
        """The waves of the fan ``fronts``, one ``(ids, speed)`` per front as
        :func:`~triwave.wavefield.speed_groups` returns it, meeting at one
        point: joined on one front, else divided and sharing one fresh record
        whose meeting classes are the fronts' ids.  Every divided pair starts
        with P = 0 (its record's potentials are 0).  The fan is
        ``speed_groups``' cut of a stack that ``wavefield.stack_range`` has
        checked, so its right states are consecutive ticks, which the
        record's ranks and denominators read."""
        if len(fronts) == 1:
            return
        rec = PartitionRecord([ids for ids, _ in fronts], self.hats)
        differ, _, rec.count, _ = self._recount(rec, state)
        for s, u, v in differ:      # the weights of a fresh record are 0
            rec.up[s], rec.dn[s] = u, v
        self.records.append(rec)
        self.n_divided += rec.count

    # -- the interaction-side detail for the wavefront-decrease check -------

    def _interaction_detail(self, event: Event, state: FieldState, n_never: int,
                            sum_P: int) -> dict:
        """Both sides of the pre-event wavefront inequality at an interaction,
        from the counts ``_rejoin`` returns.

        Uses the effective flux of the block containing both fronts; at an
        interaction it is unchanged from the previous event, so the post-event
        state provides it.  Both fronts lie in that block, as the one front
        ``simulator.resolve`` lets the interaction leave.
        """
        fluxes = BlockFluxes(state, self.table, self.flux_memo)
        left, right = event.left_ids, event.right_ids
        size_l = len(left) * self.eps
        size_r = len(right) * self.eps
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
        one front, ``state.n_joined``) and the divided ones (``n_divided``), and the
        divided pairs enter through T (the weight pi / (d eps) of pi = K * P is
        2 ||d3f/dw2dv|| eps P / d, and T / L is the sum of P / d, rounded
        once).  O(1)."""
        n = state.n_alive
        never = n * (n - 1) // 2 - state.n_joined - self.n_divided
        divided = self.T / self.L
        b = self.bounds
        return self.eps**2 * (b.norm_d2_ww * never + 2.0 * b.norm_d3_wwv * self.eps * divided)

    def q_trans(self, state: FieldState) -> float:
        """Transversal Glimm functional: strength of every first-family front
        times the strength of the waves still ahead (to its left).

        Read from the state's kept alive counts per ``crossed`` value in
        O(v-fronts): the waves ahead of front h are those with ``crossed < h``.
        The strengths are the ones ``initialize`` kept: no event changes a
        v jump.
        """
        ahead, eps, total = [0, *accumulate(state.per_crossed)], self.eps, 0.0
        for h, strength in self.v_strengths:   # left to right, as simulator.left_sum adds
            total += strength * ahead[h] * eps
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
