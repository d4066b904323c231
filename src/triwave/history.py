"""Pairwise interaction history and the quadratic interaction functional.

For every pair of waves that has shared a position at least once, this module
tracks whether the pair is currently joined (same position and speed) or
divided, the interval of waves present at their last meeting, a partition of
that interval into classes that have never been told apart since, and an
accumulated budget ``pi`` that grows only at transversal crossings.

The pair weight is

    q = 0                                   joined,
    q = pi / (|w_hat(s') - w_hat(s)| + eps) divided after meeting,
    q = ||d2f/dw2||                         never met,

and the quadratic functional sums q * eps^2 over alive pairs.  Its decrease
at interactions dominates the speed-change sum there; its increase at
transversal crossings is controlled by the decay of the transversal Glimm
functional.

Partitions are shared: every pair divided at the same event sees the same
interval and the same classes, so one record per event serves them all.
``PairHistory`` keeps a registry from each live record to the divided pairs
that share it.  A transversal crossing then walks each record it can reach
once: prefix sums of the contained-class strength give every pair of the
record its increment in O(1), so the pi update of one crossing costs
O(classes + pairs) of the records it touches instead of O(all pairs x classes).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from .envelopes import SLOPE_TOL, concave_envelope, convex_envelope
from .flux import DerivativeBounds, FluxSpec
from .wavefield import BlockFluxes, Event, EventKind, FieldState, IdRange

__all__ = [
    "FunctionalSnapshot",
    "PartitionRecord",
    "PairRec",
    "PairHistory",
    "m_value",
    "pair_weight",
    "contained_prefix",
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
    """Shared interval-of-waves and partition for pairs divided at one event.

    ``interval`` and every class are id ranges whose live content is the
    range cut to currently alive waves; classes stay contiguous because
    cancellations remove contiguous id runs.  Records compare and hash by
    identity, so they key the pair registry.
    """

    interval: IdRange
    classes: list[IdRange]

    def class_members(self, state: FieldState) -> list[list[int]]:
        return [c.members(state) for c in self.classes]


@dataclass
class PairRec:
    """History of one pair that has met: its shared partition, None while the
    pair is joined, and its pi budget."""

    record: PartitionRecord | None
    pi: float


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


def contained_prefix(class_members: list[list[int]], part_lo: int,
                     part_hi: int) -> list[int]:
    """Prefix sums of the class sizes counted by ``m_value``: entry k is the
    number of waves in classes 0..k-1 that lie entirely inside
    [part_lo, part_hi].  For p in class ki and p' in class kj >= ki,
    m_value(p, p') is (prefix[kj + 1] - prefix[ki]) * eps."""
    prefix = [0]
    total = 0
    for members in class_members:
        if members and part_lo <= members[0] and members[-1] <= part_hi:
            total += len(members)
        prefix.append(total)
    return prefix


class PairHistory:
    """Incrementally maintained pair histories, partitions and functionals."""

    def __init__(self, spec: FluxSpec, eps: float, bounds: DerivativeBounds):
        self.spec = spec
        self.eps = eps
        self.bounds = bounds
        self.pairs: dict[tuple[int, int], PairRec] = {}
        # live record -> the divided pairs that share it
        self.records: dict[PartitionRecord, dict[tuple[int, int], PairRec]] = {}

    def _set_pair(self, key: tuple[int, int], pair: PairRec) -> None:
        """Store ``pair`` under ``key``, moving it between registry entries."""
        old = self.pairs.get(key)
        if old is not None and old.record is not None:
            self._unlink(key, old.record)
        self.pairs[key] = pair
        if pair.record is not None:
            self.records.setdefault(pair.record, {})[key] = pair

    def _unlink(self, key: tuple[int, int], record: PartitionRecord) -> None:
        sharing = self.records[record]
        del sharing[key]
        if not sharing:
            del self.records[record]

    # -- construction ------------------------------------------------------

    def initialize(self, state: FieldState, initial_groups) -> FunctionalSnapshot:
        """Record the pair relations created by the initial Riemann problems."""
        for groups in initial_groups:
            ids = [s for members, _ in groups for s in members]
            self._meet(ids, {s: speed for members, speed in groups for s in members}, 0)
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
        if event.participants is not None:
            ids = event.participants.members(state)
            if len({state.wave(s).sign for s in ids}) != 1:
                raise ValueError("meeting waves of opposite sign survived one event")
            self._meet(ids, event.post_speeds, event.index)

        snap = self.snapshot(state, index=event.index,
                             sum_abs_dsigma=event.sum_abs_dsigma)
        return snap, detail

    def _apply_deaths(self, canceled: tuple[int, ...]) -> None:
        dead = set(canceled)
        for key in [k for k in self.pairs if k[0] in dead or k[1] in dead]:
            pair = self.pairs.pop(key)
            if pair.record is not None:
                self._unlink(key, pair.record)

    def _apply_transversal_pi(self, event: Event, state: FieldState) -> None:
        """pi grows by 2 ||d3f/dw2dv|| |v_h| M for every pair still divided.

        M is ``m_value``: one prefix-sum table per record gives it for every
        pair of the record, from the same integer count.
        """
        part = event.participants
        factor = 2.0 * self.bounds.norm_d3_wwv * event.v_strength
        if factor == 0.0 or part is None:
            return
        eps = self.eps
        for rec, sharing in self.records.items():
            if rec.interval.hi < part.lo or part.hi < rec.interval.lo:
                continue  # no class of the record can lie inside the crossing
            members = rec.class_members(state)
            prefix = contained_prefix(members, part.lo, part.hi)
            if prefix[-1] == 0:
                continue
            class_of = {s: k for k, ids in enumerate(members) for s in ids}
            for (s, s2), pair in sharing.items():
                ki = class_of.get(s)
                kj = class_of.get(s2)
                if ki is None or kj is None:
                    raise ValueError("p, p' must belong to the partitioned interval")
                if ki > kj:
                    ki, kj = kj, ki
                count = prefix[kj + 1] - prefix[ki]
                if count:
                    pair.pi += factor * (count * eps)

    def _refine_records(self, event: Event, state: FieldState) -> None:
        """Clip intervals to the alive set and split classes the current
        effective flux tells apart.

        The effective flux changes only on cells whose waves crossed the
        first-family front, and class membership changes only through deaths,
        so only classes touched by this event can actually split.  A record
        whose interval holds no dead wave and misses the crossing set is
        already clipped and split, and is left as it is.
        """
        if event.kind.is_interaction:
            return  # nothing changed: same flux, same members
        dead = set(event.canceled)
        touched = event.participants if event.kind == EventKind.TRANSVERSAL else None
        fluxes = BlockFluxes(state, self.spec)

        for rec in self.records:
            span = rec.interval
            if not any(span.lo <= d <= span.hi for d in dead) and (
                touched is None or span.hi < touched.lo or touched.hi < span.lo
            ):
                continue
            live = span.members(state)
            if not live:
                continue
            rec.interval = IdRange(live[0], live[-1])
            new_classes: list[IdRange] = []
            for cls in rec.classes:
                members = cls.members(state)
                if not members:
                    continue
                lost = any(cls.lo <= d <= cls.hi for d in dead)
                crossed = touched is not None and not (
                    members[-1] < touched.lo or touched.hi < members[0]
                )
                if len(members) == 1 or not (lost or crossed):
                    new_classes.append(IdRange(members[0], members[-1]))
                    continue
                new_classes.extend(self._split_class(members, state, fluxes))
            rec.classes = new_classes

    def _split_class(self, members: list[int], state: FieldState,
                     fluxes: BlockFluxes) -> list[IdRange]:
        """Split one class by the Riemann problem it spans under the current
        effective flux; classes are runs of equal entropic speed."""
        eff = fluxes.flux(members)
        sign = state.wave(members[0]).sign
        cells = [state.wave(s).cell() for s in members]
        lo, hi = min(cells), max(cells) + 1
        env = convex_envelope(eff, lo, hi) if sign > 0 else concave_envelope(eff, lo, hi)
        slopes = [env.cell_slope(c) for c in cells]
        out: list[IdRange] = []
        start = 0
        for k in range(1, len(members)):
            if abs(slopes[k] - slopes[k - 1]) > SLOPE_TOL:
                out.append(IdRange(members[start], members[k - 1]))
                start = k
        out.append(IdRange(members[start], members[-1]))
        return out

    def _meet(self, ids: list[int], speeds: dict[int, float], index: int) -> None:
        """Pairs of ``ids`` meeting at one point after event ``index``: joined
        where the speeds agree, else divided and sharing one fresh partition
        whose classes are the runs of equal speed."""
        classes: list[IdRange] = []
        start = 0
        for k in range(1, len(ids)):
            if speeds[ids[k]] != speeds[ids[k - 1]]:
                classes.append(IdRange(ids[start], ids[k - 1]))
                start = k
        classes.append(IdRange(ids[start], ids[-1]))
        record = None
        if len(classes) > 1:
            record = PartitionRecord(interval=IdRange(ids[0], ids[-1]), classes=classes)
        for i, s in enumerate(ids):
            for s2 in ids[i + 1:]:
                joined = speeds[s] == speeds[s2]
                old = self.pairs.get((s, s2))
                if old is not None and old.record is not None:
                    if not joined:
                        # re-meeting pairs were on one front, hence joined, before
                        raise ValueError(
                            f"pair ({s}, {s2}) met again while divided at event {index}"
                        )
                    log.debug("pair (%d, %d) re-joined at event %d", s, s2, index)
                self._set_pair((s, s2), PairRec(record=None if joined else record, pi=0.0))

    # -- the interaction-side detail for the wavefront-decrease check -------

    def _interaction_detail(self, event: Event, state: FieldState) -> dict:
        """Both sides of the pre-event wavefront inequality at an interaction.

        Uses the effective flux of the block containing both fronts; at an
        interaction it is unchanged from the previous event, so the post-event
        state provides it.
        """
        fluxes = BlockFluxes(state, self.spec)
        left = event.left_ids.members(state)
        right = event.right_ids.members(state)
        fluxes.flux(left + right)  # raises unless both fronts lie in one block
        size_l = len(left) * self.eps
        size_r = len(right) * self.eps
        sum_pi = 0.0
        n_never = 0
        for s in left:
            for s2 in right:
                pair = self.pairs.get((s, s2))
                if pair is None:
                    n_never += 1
                else:
                    sum_pi += pair.pi
        lhs = (fluxes.rh_speed(left) - fluxes.rh_speed(right)) * size_l * size_r
        rhs = sum_pi * self.eps**2 + n_never * self.bounds.norm_d2_ww * (
            size_l + size_r
        ) * self.eps**2
        return {"sum_pi_met": sum_pi, "n_never": n_never, "lhs": lhs, "rhs": rhs}

    # -- functionals ---------------------------------------------------------

    def q_quadratic(self, state: FieldState) -> float:
        """Q = sum over alive pairs of q * eps^2, never-met pairs in closed form."""
        alive = state.alive_ids()
        n = len(alive)
        total_pairs = n * (n - 1) // 2
        q = self.bounds.norm_d2_ww * (total_pairs - len(self.pairs))
        for (s, s2), pair in self.pairs.items():
            if pair.record is not None and pair.pi != 0.0:
                q += pair_weight(pair.pi, state.wave(s).w_hat, state.wave(s2).w_hat, self.eps)
        return q * self.eps**2

    def q_trans(self, state: FieldState) -> float:
        """Transversal Glimm functional: strength of every first-family front
        times the strength of the waves still ahead (to its left).

        Recomputed from the state on every call, in O(waves + fronts): alive
        waves are counted per ``crossed`` value once, and the waves ahead of
        front h are those with ``crossed < h``.
        """
        if not state.v_fronts:
            return 0.0
        top = max(vf.id for vf in state.v_fronts)
        per_crossed = [0] * (top + 1)
        for w in state.waves:
            if w.alive:
                per_crossed[min(w.crossed, top)] += 1
        ahead = [0]
        for n in per_crossed:
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
