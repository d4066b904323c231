"""Enumeration of waves: identities, signs, right states, positions, speeds.

Every elementary jump of size eps in the transported field w is a *wave* with
a permanent 1-based id, a permanent sign and a permanent right state ``w_hat``
(stored as an integer tick).  The field state tracks, per wave, its anchor and
speed (None once cancelled) and how many first-family fronts it has crossed,
which tells the v value at its position: ``FieldState.v_ticks[crossed]``.
First-family fronts all travel at speed -1 and are stored separately.  An
``Event`` records one resolved collision in terms of this enumeration: the
ids of the waves that meet, in id order, and the speeds of the survivors
after it.  :func:`apply_event` is the one place that moves a state across an
event; the simulator and the replay both call it.

Positions are anchored: every wave and first-family front keeps the position
``x_a`` it had at time ``t_a``, when an event last moved it, and
:func:`position` alone computes where it is at a later time.  An event moves
only the objects at its site, never the others.  The waves of one front share
one anchor, so they stay at one position exactly.

The second-family fronts are kept on the state across events.  The first call
of :meth:`FieldState.fronts` builds them from one-wave fronts by the merge
rule; after that :func:`apply_event` edits them around the event site only,
and tells the simulator's collision queue (if the state has one) which fronts
it changed.  :func:`validate_enumeration` derives the same runs anew from
each wave's own position and compares the two.  The state
also keeps ``n_joined``, the pairs of waves on one front: the joined pairs
of the pair history, which stores none of them.
The kept fronts answer every question of adjacency: :func:`front_index`
finds the front that holds a wave, and the fronts next to it in the list
are its neighbours.  :class:`BlockFluxes` is the one lookup from a run of
waves to the effective flux of its homogeneous block, a maximal run of kept
fronts of one sign, built from the cell increments its ``FluxTable``
keeps.

A run of waves (the waves of an event, of a front, of a partition class or
of a block) is the tuple of its alive ids in ascending order.

State arithmetic is exact: w values, right states and v values are integer
ticks; only positions, speeds and times are floats.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate, chain, pairwise, zip_longest
from operator import mul
from typing import Iterable, Sequence

from .envelopes import rh_speed
from .flux import FluxTable, PiecewiseAffineFlux, build_effective_flux
from .riemann import solve_scalar

__all__ = [
    "StepFunction",
    "WaveRecord",
    "VFront",
    "Front",
    "EventKind",
    "Event",
    "apply_event",
    "front_index",
    "position",
    "FieldState",
    "initial_enumeration",
    "assign_initial_speeds",
    "speed_groups",
    "stack_range",
    "validate_enumeration",
    "effective_flux",
    "BlockFluxes",
    "snapshot",
]


@dataclass(frozen=True)
class StepFunction:
    """Right-continuous, compactly supported step function with tick values.

    ``values[k]`` is the value on ``[positions[k], positions[k+1])``; the
    function equals ``base`` left of the first breakpoint.
    """

    positions: tuple[float, ...]
    values: tuple[int, ...]   # ticks
    base: int = 0

    def __post_init__(self) -> None:
        if len(self.positions) != len(self.values):
            raise ValueError("positions/values length mismatch")
        if any(b <= a for a, b in zip(self.positions, self.positions[1:])):
            raise ValueError("breakpoints must be strictly increasing")
        prev = self.base
        for x, val in zip(self.positions, self.values):
            if val == prev:
                raise ValueError(f"zero jump at x={x}")
            prev = val

    @staticmethod
    def from_jumps(jumps: Sequence[tuple[float, int]], base: int = 0) -> "StepFunction":
        items = sorted(jumps, key=lambda j: j[0])
        xs, vals, prev = [], [], base
        for x, val in items:
            if val == prev:
                continue
            xs.append(float(x))
            vals.append(int(val))
            prev = val
        return StepFunction(tuple(xs), tuple(vals), base)

    def jumps(self) -> list[tuple[float, int, int]]:
        """(x, value before, value after) for each breakpoint."""
        out, prev = [], self.base
        for x, val in zip(self.positions, self.values):
            out.append((x, prev, val))
            prev = val
        return out

    def tv_ticks(self) -> int:
        return sum(abs(after - before) for _, before, after in self.jumps())

    @property
    def final_value(self) -> int:
        return self.values[-1] if self.values else self.base


@dataclass
class WaveRecord:
    """One eps-sized wave: permanent id/sign/right state, mutable trajectory."""

    id: int
    sign: int
    w_hat: int              # right state, ticks
    x_a: float | None       # anchor: position at time t_a; None encodes the +infinity of cancelled waves
    speed: float | None
    crossed: int            # first-family fronts with index <= crossed are behind
    t_a: float = 0.0

    @property
    def alive(self) -> bool:
        return self.x_a is not None

    def cell(self) -> int:
        """Left tick of the wave's cell: (w_hat-1, w_hat) if positive, (w_hat, w_hat+1) if negative."""
        return self.w_hat - 1 if self.sign > 0 else self.w_hat


@dataclass
class VFront:
    """First-family front: carries the v jump leftward at speed -1.

    Its anchor is its initial position at time 0 until a crossing snaps it to
    the event point.
    """

    speed = -1.0            # a class attribute, not a field: every v-front moves at -1

    id: int
    x_a: float              # anchor: position at time t_a
    v_left: int
    v_right: int
    t_a: float = 0.0

    @property
    def strength_ticks(self) -> int:
        return abs(self.v_right - self.v_left)


@dataclass(frozen=True, eq=False)
class Front:
    """Maximal contiguous run of alive waves sharing position, speed and sign.

    Only the ids and the lead wave are stored: anchor, speed, sign and
    crossing count are read from the lead, whose anchor every wave of the
    front shares.
    """

    ids: tuple[int, ...]
    lead: WaveRecord

    @property
    def x_a(self) -> float:
        return self.lead.x_a

    @property
    def t_a(self) -> float:
        return self.lead.t_a

    @property
    def speed(self) -> float:
        return self.lead.speed

    @property
    def sign(self) -> int:
        return self.lead.sign


def position(obj: WaveRecord | VFront | Front, t: float) -> float:
    """Position of an alive wave, a front or a v-front at time ``t``, from its
    anchor: ``x_a + speed (t - t_a)``."""
    return obj.x_a + obj.speed * (t - obj.t_a)


def _last_id(front: Front) -> int:
    return front.ids[-1]


def front_index(fronts: Sequence[Front], s: int) -> int | None:
    """Index in the kept list ``fronts`` of the front whose ids span wave
    ``s`` (for an alive wave, the front it is on), by bisection on last ids;
    None if no kept front spans it.

    An event replaces every front it changes by a new object, so a caller
    that holds a front tells whether it is still kept by identity:
    ``fronts[k] is front`` at the index of its first wave."""
    k = bisect_left(fronts, s, key=_last_id)
    return k if k < len(fronts) and fronts[k].ids[0] <= s else None


def _merge_fronts(fronts: Iterable[Front], waves: Sequence[WaveRecord], t: float) -> list[Front]:
    """Join every two adjacent fronts that share position at time ``t``,
    speed and sign; the waves of a joined front take the anchor of its first
    wave.

    Raises ``ValueError`` if the joined waves disagree on the v-fronts they
    have crossed."""
    out: list[Front] = []
    for f in fronts:
        if out:
            a, b = out[-1].lead, f.lead
            if a.speed == b.speed and a.sign == b.sign and position(a, t) == position(b, t):
                if a.crossed != b.crossed:
                    raise ValueError(f"mixed front at x={position(a, t)}: "
                                     f"crossed={ {a.crossed, b.crossed} }")
                if (b.x_a, b.t_a) != (a.x_a, a.t_a):
                    for s in f.ids:
                        waves[s - 1].x_a, waves[s - 1].t_a = a.x_a, a.t_a
                out[-1] = Front(out[-1].ids + f.ids, a)
                continue
        out.append(f)
    return out


class EventKind(str, Enum):
    INTERACTION_POSITIVE = "interaction_positive"
    INTERACTION_NEGATIVE = "interaction_negative"
    CANCELLATION = "cancellation"
    TRANSVERSAL = "transversal"

    @property
    def is_interaction(self) -> bool:
        return self in (EventKind.INTERACTION_POSITIVE, EventKind.INTERACTION_NEGATIVE)


@dataclass
class Event:
    """One resolved binary collision.  Its survivors are the keys of
    ``post_speeds``; at a crossing, which kills no wave, they are
    ``colliding``."""

    index: int
    time: float
    x: float
    kind: EventKind
    colliding: tuple[int, ...]        # second-family waves arriving at (t, x): contiguous alive ids
    post_speeds: dict[int, float]     # survivor -> its speed after the event
    sum_abs_dsigma: float             # sum over surviving waves of |speed change| * eps
    left_ids: tuple[int, ...] = ()    # the ids of the two colliding w-fronts (empty for transversal)
    right_ids: tuple[int, ...] = ()
    v_front_id: int | None = None     # transversal only
    v_strength: float = 0.0           # |v_h| (0 unless transversal)
    canceled: tuple[int, ...] = ()
    cancellation: float = 0.0         # total-variation drop (0 unless cancellation)


def apply_event(state: FieldState, event: Event) -> None:
    """Move ``state`` across ``event``: anchor the colliding waves at the
    event point, kill the cancelled ones, set the new speeds and, at a
    crossing, snap the v-front and count it crossed by the waves that cross
    it.  No other wave or v-front is touched: their anchors still give their
    positions.  The alive counts follow: each cancelled wave leaves
    ``n_alive`` and its ``per_crossed`` slot, and each crossing wave moves to
    the slot of the v-front it crossed.  The state's fronts (built here if it
    has none yet) are edited at the site: the fronts that met are replaced by
    the survivors, which merge with a neighbour on either side where equal
    and then share its anchor; the old list is left as it was, the pairs on
    one front are recounted over the fronts replaced, and the collision
    queue (if any) is told which fronts may have a new right-hand
    neighbour."""
    fronts = state.fronts()
    t, x = event.time, event.x
    state.time = t
    colliding = event.colliding
    for s in colliding:
        w = state.wave(s)
        w.x_a, w.t_a = x, t
    per_crossed = state.per_crossed
    top = len(per_crossed) - 1
    for s in event.canceled:
        w = state.wave(s)
        w.x_a = None
        w.speed = None
        state.n_alive -= 1
        per_crossed[min(w.crossed, top)] -= 1
    for s, speed in event.post_speeds.items():
        state.wave(s).speed = speed
    if event.v_front_id is not None:
        vf = state.v_fronts[event.v_front_id - 1]
        vf.x_a, vf.t_a = x, t
        for s in event.post_speeds:
            w = state.wave(s)
            per_crossed[min(w.crossed, top)] -= 1
            per_crossed[event.v_front_id] += 1
            w.crossed = event.v_front_id
    # replace the fronts that meet the colliding waves by the survivors, then
    # merge them with the neighbour on either side
    lo = bisect_left(fronts, colliding[0], key=lambda f: f.ids[-1])
    hi = bisect_right(fronts, colliding[-1], key=lambda f: f.ids[0])
    a, b = max(lo - 1, 0), hi + 1
    site = [Front((s,), state.wave(s)) for s in sorted(event.post_speeds)]
    window = _merge_fronts(fronts[a:lo] + site + fronts[hi:b], state.waves, t)
    state._fronts = fronts[:a] + window + fronts[b:]
    state._n_joined += _count_joined(window) - _count_joined(fronts[a:b])
    if state._queue is not None:
        # a merge with the left neighbour also changes the pair left of it
        state._queue.site.extend(state._fronts[max(a - 1, 0):a + len(window)])


class FieldState:
    """Full simulation state: wave records plus first-family fronts.

    ``v_ticks[h]`` is the v value right of v-front h, and ``v_ticks[0]``
    the base of v: the v value of a wave is ``v_ticks[crossed]``.

    Three counts are kept across events by :func:`apply_event`:
    ``n_alive``, the number of alive waves; ``per_crossed``, the alive waves
    per ``crossed`` value, capped at the top v-front id; and ``n_joined``,
    the pairs of waves on one front.  A new state (and so a copy) counts the
    first two from its waves, and ``n_joined`` when it builds its fronts.

    ``_queue`` is the simulator's collision queue once it has built one;
    :func:`apply_event` appends the fronts it changes to its ``site`` list."""

    def __init__(self, eps: float, waves: list[WaveRecord], v_fronts: list[VFront],
                 time: float = 0.0, w_base: int = 0, v_base: int = 0):
        self.eps = eps
        self.time = time
        self.w_base = w_base
        self.waves = waves
        self.v_fronts = v_fronts
        self.v_ticks = [v_base, *(vf.v_right for vf in v_fronts)]
        self._fronts: list[Front] | None = None   # kept by apply_event once built
        self._n_joined = 0                          # counted with the fronts
        self._queue = None                          # the simulator's, built on first use
        self.n_alive, self.per_crossed = _count_alive(waves, v_fronts)

    def wave(self, s: int) -> WaveRecord:
        return self.waves[s - 1]

    def tv_ticks(self) -> int:
        return self.n_alive

    def fronts(self) -> list[Front]:
        """Second-family fronts, left to right in wave-id order.

        Built on first use by merging one-wave fronts, then kept: each event
        replaces the list instead of editing it, so a list once returned
        never changes.  Callers must not edit it either."""
        if self._fronts is None:
            self._fronts = _merge_fronts((Front((w.id,), w) for w in self.waves if w.alive),
                                         self.waves, self.time)
            self._n_joined = _count_joined(self._fronts)
        return self._fronts

    @property
    def n_joined(self) -> int:
        """The pairs of alive waves on one front: the sum over the fronts of
        k(k-1)/2, k the front's wave count.  Builds the fronts on first use."""
        self.fronts()
        return self._n_joined

    def copy(self) -> "FieldState":
        """A deep copy of the waves and v-fronts.  Kept fronts are copied too,
        each led by the copy's own wave; a simulator rebuilds its queue on
        first use.

        Every field is read by name: ``vars(w)`` would give the live records
        a materialised ``__dict__``, which makes every later attribute read on
        them about a third slower on CPython 3.11."""
        out = FieldState(
            eps=self.eps,
            waves=[WaveRecord(w.id, w.sign, w.w_hat, w.x_a, w.speed, w.crossed, w.t_a)
                   for w in self.waves],
            v_fronts=[VFront(vf.id, vf.x_a, vf.v_left, vf.v_right, vf.t_a)
                      for vf in self.v_fronts],
            time=self.time,
            w_base=self.w_base,
            v_base=self.v_ticks[0],
        )
        if self._fronts is not None:
            waves = out.waves
            out._fronts = [Front(f.ids, waves[f.lead.id - 1]) for f in self._fronts]
            out._n_joined = self._n_joined
        return out


def _count_alive(waves: Sequence[WaveRecord], v_fronts: Sequence[VFront]) -> tuple[int, list[int]]:
    """The alive waves, and the alive waves per ``crossed`` value (slot
    ``min(crossed, top)``, ``top`` the largest v-front id), counted anew."""
    top = max((vf.id for vf in v_fronts), default=0)
    per_crossed = [0] * (top + 1)
    n_alive = 0
    for w in waves:
        if w.alive:
            n_alive += 1
            per_crossed[min(w.crossed, top)] += 1
    return n_alive, per_crossed


def _count_joined(fronts: Iterable[Front]) -> int:
    """The pairs of waves that share a front: the sum of k(k-1)/2 over the
    fronts, k a front's wave count."""
    twice = 0
    for f in fronts:
        k = len(f.ids)
        twice += k * (k - 1)
    return twice // 2


def initial_enumeration(w0: StepFunction, v0: StepFunction, eps: float) -> FieldState:
    """Enumerate the initial datum: one wave per eps of total variation.

    Waves are numbered left to right; at an upward jump their right states
    fill (before, after] in increasing order, at a downward jump [after,
    before) in decreasing order.  Speeds are not assigned here.
    """
    if w0.final_value != w0.base or (v0.values and v0.final_value != v0.base):
        raise ValueError("initial data must return to the base value (compact support)")
    v_fronts = [
        VFront(id=h + 1, x_a=x, v_left=before, v_right=after)
        for h, (x, before, after) in enumerate(v0.jumps())
    ]
    waves: list[WaveRecord] = []
    for x, before, after in w0.jumps():
        sign = 1 if after > before else -1
        crossed = sum(1 for vf in v_fronts if vf.x_a <= x)
        hats = range(before + 1, after + 1) if sign > 0 else range(before - 1, after - 1, -1)
        for hat in hats:
            waves.append(
                WaveRecord(
                    id=len(waves) + 1,
                    sign=sign,
                    w_hat=hat,
                    x_a=x,
                    speed=None,
                    crossed=crossed,
                )
            )
    return FieldState(eps=eps, waves=waves, v_fronts=v_fronts, w_base=w0.base, v_base=v0.base)


def stack_range(state: FieldState, ids: Sequence[int]) -> tuple[int, int]:
    """(w left state, w right state) in ticks for the stack of waves ``ids``."""
    recs = [state.wave(s) for s in ids]
    signs = {w.sign for w in recs}
    if len(signs) != 1:
        raise ValueError("mixed-sign stack")
    hats = [w.w_hat for w in recs]
    if signs.pop() > 0:
        return min(hats) - 1, max(hats)
    return max(hats) + 1, min(hats)


def speed_groups(
    state: FieldState,
    ids: Sequence[int],
    flux_table: FluxTable,
    v_tick: int | None = None,
) -> list[tuple[tuple[int, ...], float]]:
    """Solve the Riemann problem of a stack of waves; group them by speed.

    Returns ``[(ids, speed), ...]``, one entry per front of the scalar fan
    :func:`~triwave.riemann.solve_scalar` builds over [w(x-), w(x)] with the
    flux at ``v_tick``, ordered left to right (speeds strictly increasing).
    The fan of each ``(w_left, w_right, v_tick)`` is solved once and kept in
    ``flux_table.fans``.  A speed outside (-1, 1) means the flux is not
    hyperbolic there and raises ValueError; a solve that raises stores
    nothing.
    """
    if not ids:
        return []
    recs = [state.wave(s) for s in ids]
    if v_tick is None:
        crossed = {w.crossed for w in recs}
        if len(crossed) != 1:
            raise ValueError("stack with non-uniform crossing count")
        v_tick = state.v_ticks[crossed.pop()]
    w_left, w_right = stack_range(state, ids)
    key = (w_left, w_right, v_tick)
    fronts = flux_table.fans.get(key)
    if fronts is None:
        fronts = solve_scalar(w_left, w_right, flux_table.flux_for_v(v_tick))
        for f in fronts:
            if not -1.0 < f.speed < 1.0:
                raise ValueError(f"second-family speed {f.speed} outside (-1, 1): "
                                 "hyperbolicity violated")
        flux_table.fans[key] = fronts
    by_cell = {w.cell(): w.id for w in recs}
    return [(tuple(sorted(by_cell[c] for c in f.cells)), f.speed) for f in fronts]


def assign_initial_speeds(state: FieldState, flux_table: FluxTable):
    """Solve every initial discontinuity and set the wave speeds in place.

    Returns the groups of each discontinuity, left to right, as produced by
    :func:`speed_groups`.  Any kept fronts, and any collision queue, are
    dropped.
    """
    state._fronts = None
    state._queue = None
    out = []
    stack: list[int] = []

    def flush() -> None:
        groups = speed_groups(state, stack, flux_table)
        for members, speed in groups:
            for s in members:
                state.wave(s).speed = speed
        out.append(groups)

    for w in state.waves:
        if stack and state.wave(stack[-1]).x_a != w.x_a:
            flush()
            stack = []
        stack.append(w.id)
    if stack:
        flush()
    return out


def validate_enumeration(state: FieldState) -> list[str]:
    """Check the enumeration axioms; returns a list of violations (empty = ok).

    Verified: positions nondecreasing in id over alive waves; every stack of
    co-located waves fills (w(x-), w(x)] (or the mirrored range) bijectively
    and monotonically in the right order; signs match the jump direction; the
    signed wave measure telescopes back to the base value (push-forward);
    the kept ``n_alive`` and ``per_crossed`` equal a recount; if the state
    keeps its fronts, they are the runs derived anew from each wave's own
    position (maximal runs of alive waves that share position, speed and
    sign, none mixing crossing counts), and the kept
    ``n_joined`` is the pairs those runs hold.

    One loop over the waves computes each position once and, in the same
    step, tests the order, checks the open stack, counts the alive waves per
    ``crossed`` value, collects the alive ids in one list and notes where
    each run starts in it.  After the loop the kept fronts match the runs
    when their ids, laid end to end, are that list and their sizes add up
    to those starts: two list equalities.  Only on a mismatch are the runs
    built as tuples and the first front that differs looked for.  Every
    call recounts from the waves; nothing is carried from one call to the
    next.
    """
    t = state.time
    waves = state.waves
    top = max((vf.id for vf in state.v_fronts), default=0)
    per_crossed = [0] * (top + 1)
    ids: list[int] = []           # the alive ids, in id order
    starts: list[int] = []        # where each run starts in ids
    disorder: list[str] = []
    stacks: list[str] = []
    no_speed: list[str] = []
    level = state.w_base
    # the open stack: where it starts in ids, its position and sign, the
    # right state its next wave must have, and whether it is bad (mixes
    # signs or misses a state); the open run's first wave; the first run
    # that mixes crossing counts, as its index in starts, and its position
    stack_start = stack_x = sign = expect = bad = lead = None
    mixed = mixed_x = None
    append, new_run = ids.append, starts.append
    for w in waves:
        if w.x_a is None:
            continue
        if w.speed is None:
            no_speed.append(f"alive wave {w.id} without speed")
            x = w.x_a    # taken to stay at its anchor
        else:
            x = position(w, t)
        c = w.crossed
        per_crossed[c if c < top else top] += 1
        if x == stack_x:
            if w.sign != sign or w.w_hat != expect:
                bad = True
            expect += sign
            if w.speed != lead.speed or w.sign != lead.sign:
                new_run(len(ids))
                lead = w
            elif c != lead.crossed and mixed is None:
                mixed, mixed_x = len(starts) - 1, x
        else:
            if ids:
                if stack_x > x:
                    disorder.append(f"positions out of order: wave {ids[-1]} at {stack_x} "
                                    f"after {w.id} at {x}")
                if bad:
                    level = _close_bad_stack(waves, ids[stack_start:], stack_x, level, stacks)
                else:
                    level = expect - sign
            stack_start = len(ids)
            stack_x = x
            sign = w.sign
            expect = level + sign
            bad = w.w_hat != expect
            expect += sign
            new_run(stack_start)
            lead = w
        append(w.id)
    if ids:
        if bad:
            level = _close_bad_stack(waves, ids[stack_start:], stack_x, level, stacks)
        else:
            level = expect - sign

    problems = disorder + stacks
    if level != state.w_base:
        problems.append(f"profile does not return to base: ends at {level}")
    problems += no_speed
    if state.n_alive != len(ids):
        problems.append(f"kept alive count {state.n_alive}, recounted {len(ids)}")
    if state.per_crossed != per_crossed:
        problems.append(f"kept alive counts per crossed value {state.per_crossed}, "
                        f"recounted {per_crossed}")
    if state._fronts is not None:
        n = len(ids)
        if mixed is not None:
            end = starts[mixed + 1] if mixed + 1 < len(starts) else n
            crossed = {waves[s - 1].crossed for s in ids[starts[mixed]:end]}
            problems.append(f"mixed front at x={mixed_x}: crossed={crossed}")
        else:
            kept = [f.ids for f in state._fronts]
            sizes = list(map(len, kept))
            starts.append(n)
            if (list(chain.from_iterable(kept)) != ids
                    or list(accumulate(sizes, initial=0)) != starts):
                runs = [tuple(ids[a:b]) for a, b in pairwise(starts)]
                k, a, b = next((k, a, b) for k, (a, b) in enumerate(zip_longest(kept, runs))
                               if a != b)
                problems.append(f"kept front {k} is {a}, regrouped {b}")
                sizes = list(map(len, runs))
            n_joined = (sum(map(mul, sizes, sizes)) - n) // 2
            if state._n_joined != n_joined:
                problems.append(f"kept count of pairs on one front {state._n_joined}, "
                                f"recounted {n_joined}")
    return problems


def _close_bad_stack(waves: Sequence[WaveRecord], ids: list[int], x: float, before: int,
                 stacks: list[str]) -> int:
    """Append to ``stacks`` the problem of the stack of alive waves ``ids``
    at ``x``, which opens at w level ``before`` and mixes signs or misses a
    right state; return the w level after it (``before`` if it mixes signs)."""
    sign = waves[ids[0] - 1].sign
    if any(waves[s - 1].sign != sign for s in ids):
        stacks.append(f"mixed-sign stack at x={x}")
        return before
    after = before + sign * len(ids)
    hats = [waves[s - 1].w_hat for s in ids]
    span = f"({before}, {after}]" if sign > 0 else f"[{after}, {before})"
    stacks.append(f"stack at x={x}: right states {hats} do not fill {span}")
    return after


def effective_flux(state: FieldState, block: tuple[int, ...],
                   table: FluxTable) -> PiecewiseAffineFlux:
    """Effective flux of one maximal homogeneous block of alive waves, given
    as the tuple of their ids.

    On each wave cell its second derivative is d2f/dw2(., v value of the
    wave); value and slope vanish at the leftmost node (the function is only
    used through affine-invariant differences).
    """
    if not block:
        raise ValueError("empty block")
    signs = {state.wave(s).sign for s in block}
    if len(signs) != 1:
        raise ValueError("block is not homogeneous")
    v_ticks = state.v_ticks
    cells = sorted((state.wave(s).cell(), v_ticks[state.wave(s).crossed]) for s in block)
    return build_effective_flux(cells, table)


class BlockFluxes:
    """The effective flux of each homogeneous block of one state, built once,
    on first use, for the runs of waves that ask for it, from the cell
    increments ``table`` keeps across states.  A block is a maximal run of
    kept fronts of one sign, read from :meth:`FieldState.fronts`; the tuple
    of its alive ids keys its flux."""

    def __init__(self, state: FieldState, table: FluxTable):
        self.state = state
        self.table = table
        self._fluxes: dict[tuple[int, ...], PiecewiseAffineFlux] = {}

    def flux(self, members: Sequence[int]) -> PiecewiseAffineFlux:
        """Effective flux of the block holding the run of waves ``members``."""
        first, last = members[0], members[-1]
        blk = next((b for b in self._fluxes if b[0] <= first <= b[-1]), None) or self._block(first)
        if not blk[0] <= last <= blk[-1]:
            raise ValueError(f"waves {first}..{last} span two homogeneous blocks")
        eff = self._fluxes.get(blk)
        if eff is None:
            eff = self._fluxes[blk] = effective_flux(self.state, blk, self.table)
        return eff

    def _block(self, s: int) -> tuple[int, ...]:
        """The maximal homogeneous block around alive wave ``s``: the kept
        front that holds it and its neighbours in the front list, out to the
        first front of the other sign on either side."""
        fronts = self.state.fronts()
        k = front_index(fronts, s)
        if k is None:
            raise ValueError(f"wave {s} is on no kept front")
        sign = fronts[k].sign
        a = b = k
        while a > 0 and fronts[a - 1].sign == sign:
            a -= 1
        while b + 1 < len(fronts) and fronts[b + 1].sign == sign:
            b += 1
        return tuple(t for f in fronts[a:b + 1] for t in f.ids)

    def rh_speed(self, members: Sequence[int]) -> float:
        """Chord speed of the run ``members`` under its block's effective flux."""
        cells = [self.state.wave(s).cell() for s in members]
        return rh_speed(self.flux(members), min(cells), max(cells) + 1)


def snapshot(state: FieldState) -> dict:
    """JSON-ready snapshot of the full state."""
    return {
        "time": state.time,
        "eps": state.eps,
        "waves": [
            {
                "id": w.id,
                "sign": w.sign,
                "w_hat": w.w_hat,
                "position": position(w, state.time) if w.alive else None,
                "speed": w.speed,
                "v_label": state.v_ticks[w.crossed],
            }
            for w in state.waves
        ],
        "v_fronts": [
            {
                "id": vf.id,
                "position": position(vf, state.time),
                "v_left": vf.v_left,
                "v_right": vf.v_right,
            }
            for vf in state.v_fronts
        ],
    }
