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
the integer sum of ticks_h * count over the pair's crossings.  Each pair
stores P and its denominator d = |w_hat(s') - w_hat(s)| + 1 in ticks, fixed
when the pair meets; the history keeps ``S[d]``, the sum of P over the
divided pairs with denominator d, as Python ints.  Then

    Q = eps^2 (||d2f/dw2|| (n(n-1)/2 - joined pairs - stored pairs)
               + 2 ||d3f/dw2dv|| eps sum_d S[d] / d),

n the alive count, the joined pairs those on one kept front, the stored
pairs the divided ones, the sum over d taken by ``math.fsum`` in sorted
order: O(distinct denominators) per event, and independent of summation
order.  ``S`` changes in three places only: a crossing grows P, and a
divided pair that dies or meets again takes its P out.  A divided pair that
meets again joined leaves the store; one that meets again and stays divided
is an error.  ``PairHistory.validate`` recounts ``S`` from the pairs and
reports a stored pair on one kept front, which would be counted twice.

Partitions are shared: every pair divided at the same event sees the same
classes, so one record per event serves them all.  A class is the tuple of
its alive ids.
``PairHistory`` keeps a registry from each live record to the divided pairs
that share it, in rows by lower id: ``records[rec][s][s2]``, rows and
entries in ascending id order.  At a crossing the classes of a record that
lie inside it form one run a..b, found by bisecting on their first and last
ids, and a pair has a nonzero count exactly when its lower wave's class is
at most b and its upper wave's at least a; running sums of the class sizes
over the run give that count in O(1), so the walk stops at the first row
past b and at the first entry of a row below a.  A crossing or a
cancellation changes only the classes that meet its colliding waves, and one
rule re-splits them for both.  One crossing then costs O(changed pairs +
crossed classes) instead of O(classes + pairs) of every record it reaches.
"""

from __future__ import annotations

import logging
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from operator import itemgetter

from .envelopes import SLOPE_TOL, concave_envelope, convex_envelope
from .flux import DerivativeBounds, FluxSpec, FluxTable
from .wavefield import BlockFluxes, Event, EventKind, FieldState

__all__ = [
    "FunctionalSnapshot",
    "PartitionRecord",
    "PairRec",
    "PairHistory",
    "m_value",
    "pair_weight",
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
    Records compare and hash by identity, so they key the pair registry.
    """

    classes: list[tuple[int, ...]]


@dataclass(slots=True)
class PairRec:
    """History of one divided pair: its shared partition; its integer budget
    P (pi = K * P, 0 when the pair divides); and its denominator
    d = |w_hat' - w_hat| + 1, fixed when the pair divides."""

    record: PartitionRecord
    P: int
    d: int


_first = itemgetter(0)
_last = itemgetter(-1)


def _ascending(ids) -> bool:
    """True if the distinct ``ids`` (dict keys) come in ascending order."""
    ids = list(ids)
    return ids == sorted(ids)


def _record_problem(rec: PartitionRecord, rows: dict[int, dict[int, PairRec]],
                    waves: list) -> str | None:
    """What a refinement takes for granted of a live record and ``rec``
    fails: its rows of pairs (``rows``) and each row in ascending id order,
    its classes non-empty and their ids ascending across the record, and
    every wave of a class alive.  None if it holds."""
    if not (_ascending(rows) and all(map(_ascending, rows.values()))):
        return "pairs out of id order"
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
    return None


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


def pair_weight(pi: float, w_hat: int, w_hat2: int, eps: float) -> float:
    """q of a divided pair with right states ``w_hat``, ``w_hat2`` (ticks)."""
    return pi / ((abs(w_hat2 - w_hat) + 1) * eps)


class PairHistory:
    """Incrementally maintained pair histories, partitions and functionals."""

    def __init__(self, spec: FluxSpec, eps: float, bounds: DerivativeBounds):
        self.table = FluxTable(spec, eps)   # the history's own, for its block fluxes
        self.eps = eps
        self.bounds = bounds
        self.K = 2.0 * bounds.norm_d3_wwv * eps**2     # pi = K * P
        # (s, s2), s < s2 -> the divided pair; joined pairs are never stored
        self.pairs: dict[tuple[int, int], PairRec] = {}
        # live record -> lower id s -> upper id s2 -> the divided pair (s, s2)
        # sharing it; rows and entries in ascending id order
        self.records: dict[PartitionRecord, dict[int, dict[int, PairRec]]] = {}
        # wave id -> the waves it has a stored pair with; no empty sets
        self.partners: dict[int, set[int]] = {}
        # d -> sum of P over the divided pairs with denominator d; no zero sums
        self.S: dict[int, int] = {}

    def _set_pair(self, key: tuple[int, int], pair: PairRec) -> None:
        """Store the fresh (P = 0) divided ``pair`` under ``key``: in
        ``pairs``, ``partners`` and its record's row."""
        s, s2 = key
        self.pairs[key] = pair
        self.partners.setdefault(s, set()).add(s2)
        self.partners.setdefault(s2, set()).add(s)
        self.records.setdefault(pair.record, {}).setdefault(s, {})[s2] = pair

    def _drop(self, s: int, s2: int) -> None:
        """Forget the divided pair of waves ``s`` and ``s2`` (either order):
        it leaves ``pairs``, ``partners`` and its record's row, and takes its
        P out of ``S``."""
        if s > s2:
            s, s2 = s2, s
        pair = self.pairs.pop((s, s2))
        for a, b in ((s, s2), (s2, s)):
            mates = self.partners[a]
            mates.discard(b)
            if not mates:
                del self.partners[a]
        rows = self.records[pair.record]
        row = rows[s]
        del row[s2]
        if not row:
            del rows[s]
            if not rows:
                del self.records[pair.record]
        if pair.P:
            # a P changed behind S's back may leave a negative sum: validate reports it
            left = self.S.get(pair.d, 0) - pair.P
            if left:
                self.S[pair.d] = left
            else:
                del self.S[pair.d]

    def validate(self, state: FieldState) -> list[str]:
        """Recount ``S`` from the pairs' budgets, check that no stored pair
        has both waves on one kept front (``q_quadratic`` counts those pairs
        as joined through ``state.n_joined``), and check every live record
        for what a crossing takes for granted (``_record_problem``).  Returns
        the first kept sum that differs, the first such pair and the first
        record that fails (empty = ok)."""
        problems = []
        recount: dict[int, int] = {}
        for pair in self.pairs.values():
            if pair.P:
                recount[pair.d] = recount.get(pair.d, 0) + pair.P
        if recount != self.S:
            d = min(d for d in recount.keys() | self.S.keys()
                    if recount.get(d, 0) != self.S.get(d, 0))
            problems.append(f"kept budget sum S[{d}] = {self.S.get(d, 0)}, "
                            f"recounted {recount.get(d, 0)}")
        pair = self._pair_on_one_front(state)
        if pair is not None:
            problems.append(f"stored pair {pair} lies on one kept front")
        for rec, rows in self.records.items():
            problem = _record_problem(rec, rows, state.waves)
            if problem:
                ids = [s for cls in rec.classes for s in cls]
                problems.append(f"record over ids {min(ids)}..{max(ids)}: {problem}")
                break
        return problems

    def _pair_on_one_front(self, state: FieldState) -> tuple[int, int] | None:
        """The first stored pair whose waves share a kept front, found through
        ``partners``, or None."""
        for f in state.fronts():
            ids = f.ids
            if len(ids) > 1:
                for s in ids:
                    mates = self.partners.get(s)
                    if mates and not mates.isdisjoint(ids):
                        return s, min(mates.intersection(ids))
        return None

    # -- construction ------------------------------------------------------

    def initialize(self, state: FieldState, initial_groups) -> FunctionalSnapshot:
        """Record the pair relations created by the initial Riemann problems."""
        for groups in initial_groups:
            ids = [s for members, _ in groups for s in members]
            self._meet(ids, {s: speed for members, speed in groups for s in members}, 0, state)
        return self.snapshot(state, index=0, sum_abs_dsigma=0.0)

    # -- event update ------------------------------------------------------

    def on_event(self, event: Event, state: FieldState):
        """Advance all histories across one event; returns (snapshot, detail)."""
        detail = None
        if event.kind.is_interaction:
            detail = self._interaction_detail(event, state)

        if event.canceled:
            self._apply_deaths(event.canceled)
        if event.kind == EventKind.TRANSVERSAL:
            self._apply_transversal_pi(event, state)
        self._refine_records(event, state)
        if event.post_speeds:
            ids = sorted(event.post_speeds)
            if len({state.wave(s).sign for s in ids}) != 1:
                raise ValueError("meeting waves of opposite sign survived one event")
            self._meet(ids, event.post_speeds, event.index, state)

        snap = self.snapshot(state, index=event.index,
                             sum_abs_dsigma=event.sum_abs_dsigma)
        return snap, detail

    def _apply_deaths(self, canceled: tuple[int, ...]) -> None:
        """Drop the pairs of the dead waves, found through ``partners``."""
        for s in canceled:
            for s2 in list(self.partners.get(s, ())):
                self._drop(s, s2)

    def _apply_transversal_pi(self, event: Event, state: FieldState) -> None:
        """pi grows by 2 ||d3f/dw2dv|| |v_h| M for every pair still divided,
        so P grows by ticks_h * count.

        count is the integer of ``m_value`` (M = count * eps).  Per record,
        running sums of the sizes of the classes a..b inside the crossing
        give it in O(1), and only the pairs with count != 0 are visited:
        those whose lower wave lies in a class up to b and upper wave in a
        class from a on.  With K = 0 every pi is 0 whatever P holds, and P is
        left as it is.
        """
        if self.K == 0.0:
            return
        lo, hi = event.colliding[0], event.colliding[-1]   # a crossing kills no wave
        ticks = state.v_fronts[event.v_front_id - 1].strength_ticks
        S = self.S
        for rec, rows in self.records.items():
            classes = rec.classes
            if classes[-1][-1] < lo or hi < classes[0][0]:
                continue  # no class of the record can lie inside the crossing
            # classes a..b: the first starts at lo or later, the last ends at
            # hi or earlier, so all of them lie inside the crossing
            a = bisect_left(classes, lo, key=_first)
            b = bisect_right(classes, hi, key=_last) - 1
            if a > b:
                continue
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
                for s2, pair in reversed(row.items()):
                    if s2 < first_lo:
                        break      # class(s2) < a: this entry and the ones before it
                    amount = ticks * ((counts[s2][1] if s2 <= last_hi else total) - start)
                    pair.P += amount
                    S[pair.d] = S.get(pair.d, 0) + amount

    def _refine_records(self, event: Event, state: FieldState) -> None:
        """Split again the classes this event may change, by one rule for a
        crossing and a cancellation; an interaction changes none.

        A class changes only if the event crossed it (the effective flux
        changes only on cells whose waves crossed the first-family front) or
        killed one of its waves, and every crossed or dead wave lies in
        ``event.colliding``.  So per record only the classes that meet the
        span of those waves are visited.  Each is kept as it is, unless the
        event crossed it and it holds two or more waves, or killed one of
        its waves: then it is cut to its alive waves, dropped if none is
        left, and split again if two or more are.  A crossing kills no wave
        (``simulator.resolve``).
        """
        if event.kind.is_interaction:
            return
        first, last, dead = event.colliding[0], event.colliding[-1], event.canceled
        crossing = event.kind == EventKind.TRANSVERSAL
        fluxes = BlockFluxes(state, self.table)
        waves = state.waves
        for rec in self.records:
            classes = rec.classes
            if classes[-1][-1] < first or last < classes[0][0]:
                continue
            # classes lo..hi - 1 meet the colliding waves' span
            lo = bisect_left(classes, first, key=_last)
            hi = bisect_right(classes, last, key=_first)
            new_classes: list[tuple[int, ...]] = []
            for cls in classes[lo:hi]:
                if not ((crossing and len(cls) > 1) or any(d in cls for d in dead)):
                    new_classes.append(cls)
                    continue
                members = tuple(s for s in cls if waves[s - 1].alive)
                if len(members) > 1:
                    new_classes.extend(self._split_class(members, state, fluxes))
                elif members:
                    new_classes.append(members)
            classes[lo:hi] = new_classes

    def _split_class(self, members: tuple[int, ...], state: FieldState,
                     fluxes: BlockFluxes) -> list[tuple[int, ...]]:
        """Split one class by the Riemann problem it spans under the current
        effective flux; classes are runs of equal entropic speed."""
        eff = fluxes.flux(members)
        sign = state.wave(members[0]).sign
        cells = [state.wave(s).cell() for s in members]
        lo, hi = min(cells), max(cells) + 1
        env = convex_envelope(eff, lo, hi) if sign > 0 else concave_envelope(eff, lo, hi)
        slopes = [env.cell_slope(c) for c in cells]
        out: list[tuple[int, ...]] = []
        start = 0
        for k in range(1, len(members)):
            if abs(slopes[k] - slopes[k - 1]) > SLOPE_TOL:
                out.append(members[start:k])
                start = k
        out.append(members[start:])
        return out

    def _meet(self, ids: list[int], speeds: dict[int, float], index: int,
              state: FieldState) -> None:
        """Pairs of ``ids`` meeting at one point after event ``index``: joined
        where the speeds agree, else divided and sharing one fresh partition
        whose classes are the runs of equal speed.  Joined pairs are not
        stored, so a stored pair that meets here joined is dropped; one that
        meets here divided raises.  Every divided pair starts with P = 0 and
        the denominator of its right states."""
        meeting = set(ids)
        for s in ids:
            mates = self.partners.get(s)
            if not mates:
                continue
            for s2 in mates & meeting:   # s2 > s: the pairs of earlier ids are gone
                if speeds[s] != speeds[s2]:
                    raise ValueError(f"pair ({s}, {s2}) met again while divided at event {index}")
                log.debug("pair (%d, %d) re-joined at event %d", s, s2, index)
                self._drop(s, s2)
        runs = [[ids[0]]]
        for prev, s in zip(ids, ids[1:]):
            if speeds[s] == speeds[prev]:
                runs[-1].append(s)
            else:
                runs.append([s])
        if len(runs) == 1:
            return
        record = PartitionRecord([tuple(run) for run in runs])
        hats = [state.wave(s).w_hat for s in ids]
        end = 0
        for run in runs[:-1]:
            end += len(run)
            for i in range(end - len(run), end):
                s, hat = ids[i], hats[i]
                for j in range(end, len(ids)):
                    self._set_pair((s, ids[j]), PairRec(record, 0, abs(hats[j] - hat) + 1))

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
                pair = self.pairs.get((s, s2))
                if pair is None:
                    n_never += 1
                else:
                    sum_P += pair.P
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
        divided pairs enter through S (the ``pair_weight`` of pi = K * P is
        2 ||d3f/dw2dv|| eps P / d).  O(distinct denominators)."""
        n = state.n_alive
        never = n * (n - 1) // 2 - state.n_joined - len(self.pairs)
        divided = math.fsum(self.S[d] / d for d in sorted(self.S))
        b = self.bounds
        return self.eps**2 * (b.norm_d2_ww * never + 2.0 * b.norm_d3_wwv * self.eps * divided)

    def q_trans(self, state: FieldState) -> float:
        """Transversal Glimm functional: strength of every first-family front
        times the strength of the waves still ahead (to its left).

        Read from the state's kept alive counts per ``crossed`` value in
        O(v-fronts): the waves ahead of front h are those with ``crossed < h``.
        """
        if not state.v_fronts:
            return 0.0
        ahead = [0]
        for n in state.per_crossed:
            ahead.append(ahead[-1] + n)
        total = 0.0
        for vf in state.v_fronts:
            total += vf.strength_ticks * self.eps * ahead[vf.id] * self.eps
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
