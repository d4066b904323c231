"""Event-driven wavefront tracking for the triangular system.

Between events every front moves on a straight line; the loop repeatedly
finds the earliest meeting of two adjacent fronts, classifies it (interaction
of same-sign second-family fronts, cancellation of opposite-sign ones, or a
transversal crossing by a first-family front), re-solves the local Riemann
problem and updates the enumeration.

The search keeps the meeting of every adjacent pair of fronts in a heap on
the state (Holden–Risebro's front tracking).  A pair's meeting time and x
come from the anchors of its two fronts alone (``wavefield.position``), so
they do not depend on when they are computed.  The heap is built from a full
scan of the fronts (:func:`_objects`) on the first search; after that each
event hands it the fronts it changed and their pairs get fresh entries.

The kept front list is the one source of adjacency: a queue entry
(:meth:`CollisionQueue._holds`) and a candidate of :func:`resolve` are checked against it.

Simultaneous collisions are resolved sequentially at the same time
coordinate, leftmost first, so every resolved event is binary and the
per-event estimates apply verbatim.
"""

from __future__ import annotations

import heapq
import logging
from dataclasses import dataclass, field
from functools import reduce
from itertools import count
from operator import add

from .flux import DerivativeBounds, FluxSpec, FluxTable, derivative_bounds, flux_table
from .history import PairHistory
from .wavefield import (
    Event,
    EventKind,
    FieldState,
    Front,
    StepFunction,
    VFront,
    apply_event,
    assign_initial_speeds,
    front_index,
    initial_enumeration,
    position,
    speed_groups,
    validate_enumeration,
)

__all__ = [
    "CollisionCandidate",
    "Trajectory",
    "next_collision",
    "resolve",
    "run",
    "EventGuardExceeded",
]

log = logging.getLogger("triwave.simulator")

TIME_TOL = 1e-10      # candidates within this of the earliest are one cluster


def left_sum(terms) -> float:
    """``sum(terms)`` added left to right, as before Python 3.12, whose
    ``sum`` compensates float rounding: so no artifact depends on the
    Python version.  An empty sum is the int 0, as ``sum``'s."""
    return reduce(add, terms, 0)


class EventGuardExceeded(ValueError):
    """A run needed more events than its ``event_guard`` allows."""


@dataclass(slots=True)
class CollisionCandidate:
    time: float
    x: float
    left: Front
    right: Front | VFront


@dataclass
class Trajectory:
    """Complete run log: events plus aligned functional snapshots."""

    eps: float
    spec: FluxSpec
    bounds: DerivativeBounds
    initial_state: FieldState
    initial_groups: list[list[tuple[tuple[int, ...], float]]]
    tv_w0: float                                            # TV(w0), set once by run
    tv_v0: float
    events: list[Event] = field(default_factory=list)
    snapshots: list = field(default_factory=list)          # FunctionalSnapshot, index j
    interaction_details: dict = field(default_factory=dict)  # event index -> dict
    final_state: FieldState | None = None


def _objects(state: FieldState) -> list[Front | VFront]:
    """All moving fronts, left to right in the enumeration.

    Fronts come in wave-id order, and v-front h sits just before the first
    front whose waves have crossed it (``crossed >= h``).  Float positions
    play no part: after simultaneous collisions they may round out of order.
    """
    v_fronts = state.v_fronts
    objs: list[Front | VFront] = []
    h = 0
    for front in state.fronts():
        crossed = front.lead.crossed
        while h < len(v_fronts) and v_fronts[h].id <= crossed:
            objs.append(v_fronts[h])
            h += 1
        objs.append(front)
    objs.extend(v_fronts[h:])
    return objs


def _meeting(l: Front, r: Front | VFront) -> tuple[float, float] | None:
    """(t, x) where the adjacent fronts ``l`` and ``r`` meet, from their
    anchors alone; None when they never do.  A w-front is read through its
    lead wave, whose anchor, speed and sign are the front's."""
    a = l.lead
    if isinstance(r, VFront):
        # a w-front meets each v-front at most once; the crossing counter is exact
        if a.crossed >= r.id:
            return None
        b = r
    else:
        b = r.lead
        if a.speed <= b.speed:
            # apart or diverging: only a zero-width pulse of opposite signs meets, at once
            if a.sign == b.sign:
                return None
            t0 = max(a.t_a, b.t_a)
            x = position(a, t0)
            return (t0, x) if x == position(b, t0) else None
    t0 = max(a.t_a, b.t_a)
    x = position(a, t0)
    tau = max((position(b, t0) - x) / (a.speed - b.speed), 0.0)
    return t0 + tau, x + a.speed * tau


def _kept(state: FieldState, front: Front) -> int | None:
    """The index of ``front`` in the kept front list; None once an event
    has replaced it by another object."""
    k = front_index(state, front.ids[0])
    return k if k is not None and state.fronts()[k] is front else None


def _right_of(state: FieldState, k: int) -> Front | VFront | None:
    """The right-hand neighbour of kept front ``k`` in :func:`_objects`
    order: v-front ``crossed + 1`` if it sits before the next front, else
    that front; None for the last front with no v-front ahead."""
    fronts, v_fronts = state.fronts(), state.v_fronts
    nxt = fronts[k + 1] if k + 1 < len(fronts) else None
    c = fronts[k].lead.crossed
    if c < len(v_fronts) and (nxt is None or nxt.lead.crossed > c):
        return v_fronts[c]
    return nxt


class CollisionQueue:
    """The meetings ``(t, x, lo, seq, left, right)`` of adjacent fronts,
    earliest first; an entry that no longer holds is dropped at the top.

    :func:`~triwave.wavefield.apply_event` appends to ``site`` the fronts
    whose right-hand neighbour may have changed, and :meth:`repair` gives
    each a fresh entry, or none.  So an unchanged pair may hold two entries,
    equal in ``(t, x, lo)`` since a meeting is read from the anchors alone.
    """

    def __init__(self, objs: list[Front | VFront]):
        self.heap: list[tuple] = []
        self.site: list[Front] = []
        self._seq = count()
        for l, r in zip(objs, objs[1:]):
            if isinstance(l, Front):   # a v-front is never caught from behind
                self._push(l, r)

    def _push(self, l: Front, r: Front | VFront | None) -> None:
        met = None if r is None else _meeting(l, r)
        if met is not None:
            heapq.heappush(self.heap, (*met, l.ids[0], next(self._seq), l, r))

    def repair(self, state: FieldState) -> None:
        """New entries for the pairs right of the fronts in ``site``."""
        for f in self.site:
            k = _kept(state, f)
            if k is not None:   # else replaced by a later event, whose site lists its successor
                self._push(f, _right_of(state, k))
        self.site.clear()

    def _holds(self, item: tuple, state: FieldState) -> bool:
        """Whether ``item``'s left front is kept and its right object is
        still that front's right-hand neighbour."""
        k = _kept(state, item[4])
        return k is not None and _right_of(state, k) is item[5]

    def earliest(self, state: FieldState) -> CollisionCandidate | None:
        """The winner of the earliest cluster: every entry that holds due within
        ``TIME_TOL`` of the earliest (a time before the state's counts as the
        state's), then the leftmost x, then the leftmost pair."""
        heap = self.heap
        while heap and not self._holds(heap[0], state):
            heapq.heappop(heap)
        if not heap:
            return None
        limit = max(heap[0][0], state.time) + TIME_TOL
        # the entries due by the limit form a subtree at the top of the heap
        best, todo = None, [0]
        while todo:
            i = todo.pop()
            if i >= len(heap) or heap[i][0] > limit:
                continue
            item = heap[i]
            if (best is None or item[1:3] < best[1:3]) and self._holds(item, state):
                best = item
            todo += (2 * i + 1, 2 * i + 2)
        t, x, _, _, left, right = best
        return CollisionCandidate(time=t, x=x, left=left, right=right)


def next_collision(state: FieldState) -> CollisionCandidate | None:
    """Earliest meeting of two adjacent fronts; None when nothing ever meets.

    Simultaneous candidates (within TIME_TOL) are clustered and the
    leftmost-position pair wins, ties broken by list order.  The state's
    collision queue is built on the first call and repaired at the sites of
    the events since the last one.
    """
    queue = state._queue
    if queue is None:
        queue = state._queue = CollisionQueue(_objects(state))
    else:
        queue.repair(state)
    return queue.earliest(state)


def resolve(cand: CollisionCandidate, state: FieldState, flux_table: FluxTable,
            index: int) -> Event:
    """Check the candidate, solve the local Riemann problem and move the state
    across the resulting event.

    The candidate's fronts must be neighbours in the kept front list: its
    left front is kept, and the right one is the next kept front, or at a
    crossing the v-front each wave of the left front crosses next.  Their
    waves, in id order, are the event's ``colliding`` tuple."""
    if cand.time < state.time - TIME_TOL:
        raise ValueError(f"stale event: t={cand.time} but state is at {state.time}")
    t_j = max(cand.time, state.time)
    x_j = cand.x
    left, right = cand.left, cand.right
    crossing = isinstance(right, VFront)
    fronts = state.fronts()
    k = _kept(state, left)
    if k is None:
        raise ValueError(f"colliding front {left.ids} is not a kept front")
    if not crossing and (k + 1 == len(fronts) or fronts[k + 1] is not right):
        raise ValueError(f"colliding fronts {left.ids} and {right.ids} are not neighbours "
                         f"in the kept front list")
    colliding = left.ids if crossing else left.ids + right.ids
    survivors, canceled = colliding, ()
    waves = state.waves
    if crossing:
        for s in colliding:
            if waves[s - 1].crossed != right.id - 1:
                raise ValueError(f"wave {s} crossing front {right.id} out of order")
        kind, v_tick = EventKind.TRANSVERSAL, right.v_right
    else:
        a, b = left.lead, right.lead
        if a.crossed != b.crossed:
            raise ValueError("colliding w-fronts have crossed different v-fronts")
        v_tick = state.v_ticks[a.crossed]
        if a.sign == b.sign:
            kind = EventKind.INTERACTION_POSITIVE if a.sign > 0 else EventKind.INTERACTION_NEGATIVE
        else:
            # cancellation: opposite signs annihilate pairwise from the middle
            # state the fronts share; each is a run (wavefield docstring), so
            # the larger keeps its waves farthest from the middle
            kind = EventKind.CANCELLATION
            if waves[left.ids[-1] - 1].w_hat != b.w_hat - b.sign:
                raise ValueError("cancellation fronts do not share the middle state")
            n_l, n = len(left.ids), min(len(left.ids), len(right.ids))
            survivors = left.ids[:n_l - n] + right.ids[n:]
            canceled = left.ids[n_l - n:] + right.ids[:n]
    groups = speed_groups(state, survivors, flux_table, v_tick)
    if kind.is_interaction and len(groups) != 1:
        raise ValueError(f"interaction at ({t_j}, {x_j}) did not merge into one front")
    # the survivors' slots hold their pre-event speeds until apply_event
    event = Event(
        index=index,
        time=t_j,
        x=x_j,
        kind=kind,
        colliding=colliding,
        fronts=tuple(groups),
        sum_abs_dsigma=left_sum(abs(speed - waves[s - 1].speed)
                                for members, speed in groups for s in members) * state.eps,
        left_ids=() if crossing else left.ids,
        right_ids=() if crossing else right.ids,
        v_front_id=right.id if crossing else None,
        v_strength=right.strength_ticks * state.eps if crossing else 0.0,
        canceled=canceled,
        cancellation=len(canceled) * state.eps,
    )
    apply_event(state, event)
    return event


def run(
    w0: StepFunction,
    v0: StepFunction,
    spec: FluxSpec,
    eps: float,
    *,
    bounds: DerivativeBounds | None = None,
    history: PairHistory | None = None,
    event_guard: int = 10**6,
    validate_each_event: bool = False,
) -> Trajectory:
    """Run the full wavefront evolution of (w0, v0) until no fronts meet.

    ``history`` (a PairHistory) is created on demand; it is consulted after
    every event and its snapshots are stored on the trajectory.  The final
    state and the history are validated once at every check level, so a run
    that leaves the enumeration or the kept budget sums corrupt raises
    ``ValueError`` instead of returning.  With
    ``validate_each_event`` both are also validated at the end of each
    group of simultaneous events: once no further collision is due within
    ``TIME_TOL`` of the last one, since inside a group a stack may still hold
    a collision due at the same t.
    """
    if bounds is None:
        bounds = derivative_bounds(spec)
    state = initial_enumeration(w0, v0, eps)
    table = flux_table(spec, eps)
    initial_groups = assign_initial_speeds(state, table)
    _require_valid(state, "initial enumeration invalid")

    if history is None:
        history = PairHistory(spec=spec, eps=eps, bounds=bounds)
    traj = Trajectory(
        eps=eps,
        spec=spec,
        bounds=bounds,
        initial_state=state.copy(),
        initial_groups=initial_groups,
        tv_w0=w0.tv_ticks() * eps,
        tv_v0=v0.tv_ticks() * eps,
    )
    traj.snapshots.append(history.initialize(state, initial_groups))

    unchecked: Event | None = None   # last event of the group not yet validated
    debug = log.isEnabledFor(logging.DEBUG)   # asked once: no event changes it
    while True:
        cand = next_collision(state)
        if unchecked is not None and (cand is None or cand.time > state.time + TIME_TOL):
            _require_valid(state, f"enumeration invalid after event {unchecked.index} "
                                  f"({unchecked.kind.value} at t={unchecked.time})", history)
            unchecked = None
        if cand is None:
            break
        index = len(traj.events) + 1
        if index > event_guard:
            raise EventGuardExceeded(f"more than {event_guard} events")
        event = resolve(cand, state, table, index)
        if debug:
            log.debug("event %d: %s at t=%.6g x=%.6g", index, event.kind.value, event.time, event.x)
        snap, detail = history.on_event(event, state)
        traj.events.append(event)
        traj.snapshots.append(snap)
        if detail:
            traj.interaction_details[index] = detail
        if validate_each_event:
            unchecked = event
    _require_valid(state, "final enumeration invalid", history)
    traj.final_state = state
    return traj


def _require_valid(state: FieldState, what: str, history: PairHistory | None = None) -> None:
    """Raise unless the state, and the history's kept budget sums, pass their
    recounts."""
    problems = validate_enumeration(state)
    if history is not None:
        problems += history.validate(state)
    if problems:
        raise ValueError(f"{what}: " + "; ".join(problems))
