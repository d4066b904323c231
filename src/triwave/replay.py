"""Post-hoc reconstruction of partitions and pi tables, with full tables.

The production history shares one partition record among all pairs divided at
the same event and stores only the pi entry each pair's weight needs.  This
module replays a finished trajectory and rebuilds, with full tables, the
recursively refined partition of the waves of each pair's last meeting and
the complete pi map.  It exists to let the lemma-level checks compare the
shared incremental bookkeeping against a literal reading of the definitions
on small runs.

Pairs divided at one meeting have one history by definition: the same
classes and the same pi table, changed by the same events.  So they share one
``ReplayPair``: ``_meet`` stores one object for all of them, and ``_step``
carries each distinct object across an event once and hands the result to
every pair that held it.  The literal per-pair replay, one object per pair,
is the test double ``tests/doubles.PerPairReplay``.

``Replay.run`` streams the steps: each ``ReplayStep`` is a view of the
replay's live pairs and state, valid until the next step is drawn, so a
reader checks each step as it is made and nothing is copied.  A step visits
only the pairs that can change: the divided ones, kept in ``divided``, which
``_meet`` and ``_step`` update, and the pairs of the waves that died.  The
view sorts the divided keys once, the one order its readers take them in.
``tests/doubles.recorded_steps`` copies each step, as a list of steps.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

from .envelopes import SLOPE_TOL, concave_envelope, convex_envelope
from .flux import FluxTable
from .history import m_value
from .simulator import Trajectory
from .wavefield import BlockFluxes, Event, EventKind, FieldState, apply_event

__all__ = ["ReplayPair", "ReplayStep", "Replay", "MAX_REPLAY_WAVES"]

MAX_REPLAY_WAVES = 12


@dataclass(frozen=True)
class ReplayPair:
    """One pair's reconstructed history at a fixed event time.

    Never edited in place: a step that changes a pair replaces it.  That is
    what lets the pairs divided at one meeting share one object, and steps
    share the objects they leave as is; an edit would reach every pair, at
    every step, that holds the object.  Replace a pair's entry to change
    one pair.
    """

    status: str                                  # "never", "joined", "divided", "dead"
    # divided only: the alive waves of its last meeting, in classes
    classes: list[list[int]] = field(default_factory=list)
    pi: dict[tuple[int, int], float] = field(default_factory=dict)


@dataclass
class ReplayStep:
    """A view of all reconstructed pairs right after one event, not a copy.

    ``pairs`` and ``state`` are the replay's own, live: they hold until the
    next step is drawn, and a reader must not edit them.  ``divided`` and
    ``q_quadratic`` are the step's own, made when it is drawn."""

    index: int
    time: float
    pairs: dict[tuple[int, int], ReplayPair]
    divided: list[tuple[int, int]]               # the keys of the divided pairs, in key order
    state: FieldState                            # the replayed field state
    fluxes: BlockFluxes                          # the block fluxes the step's splits read
    q_quadratic: float


class Replay:
    """Steps through a trajectory rebuilding every pair history from scratch,
    each shared history once."""

    def __init__(self, traj: Trajectory):
        n = len(traj.initial_state.waves)
        if n > MAX_REPLAY_WAVES:
            raise ValueError(f"replay limited to {MAX_REPLAY_WAVES} initial waves, got {n}")
        self.traj = traj
        # the replay's own table: the oracle never reads the run's cached kernels
        self.table = FluxTable(traj.spec, traj.eps)
        self.state: FieldState = traj.initial_state.copy()
        self.pairs: dict[tuple[int, int], ReplayPair] = {
            (a, b): ReplayPair(status="never")
            for a in range(1, n + 1)
            for b in range(a + 1, n + 1)
        }
        self.divided: set[tuple[int, int]] = set()
        for groups in traj.initial_groups:
            ids = sorted(s for members, _ in groups for s in members)
            self._meet(ids, {s: sp for members, sp in groups for s in members})

    # -- driving -------------------------------------------------------------

    def run(self) -> Iterator[ReplayStep]:
        """The initial step, then one step per event, each made as it is
        drawn.  Call once: the steps advance the replay's own state.

        Each step is a view: read it before drawing the next.  Steps kept
        past that, as ``list(run())`` keeps them, all show the final pairs
        and state; ``tests/doubles.recorded_steps`` copies each one."""
        fluxes = BlockFluxes(self.state, self.table)
        yield self._view(0, 0.0, fluxes)
        for event in self.traj.events:
            fluxes = self._step(event)
            yield self._view(event.index, event.time, fluxes)

    def _step(self, event: Event) -> BlockFluxes:
        """Apply ``event`` and carry every pair history across it; return the
        block fluxes its splits read."""
        state = self.state
        apply_event(state, event)
        meeting = event.post_speeds
        fluxes = BlockFluxes(state, self.table)
        pairs, divided = self.pairs, self.divided
        dead = set(event.canceled)
        if dead:
            gone = ReplayPair(status="dead")
            n = len(state.waves)
            for s in dead:
                for t in range(1, n + 1):
                    if t != s:
                        key = (s, t) if s < t else (t, s)
                        pairs[key] = gone
                        divided.discard(key)
        # id of an input pair -> (that pair, its output): the pairs that share
        # a history share it after the event; the reference keeps the id taken
        carried: dict[int, tuple[ReplayPair, ReplayPair]] = {}
        # each distinct history is carried once, whatever the order
        for key in divided:
            s, s2 = key
            if s in meeting and s2 in meeting:
                if meeting[s] == meeting[s2]:
                    continue  # met again joined: _meet marks it so
                raise ValueError(f"pair {key} met again while divided (event {event.index})")
            pair = pairs[key]
            memo = carried.get(id(pair))
            if memo is None:
                memo = carried[id(pair)] = (pair, self._carry(pair, event, dead, fluxes))
            pairs[key] = memo[1]
        self._meet(sorted(meeting), meeting)
        return fluxes

    def _carry(self, pair: ReplayPair, event: Event, dead: set[int],
               fluxes: BlockFluxes) -> ReplayPair:
        """A divided pair's history across ``event``: pi grown at a crossing,
        the dead waves dropped, the classes re-split; ``pair`` itself if
        nothing changed."""
        classes, pi = pair.classes, pair.pi
        if event.kind == EventKind.TRANSVERSAL:
            factor = 2.0 * self.traj.bounds.norm_d3_wwv * event.v_strength
            crossing = event.colliding
            pi = {}
            for pp, val in pair.pi.items():
                m = m_value(classes, crossing[0], crossing[-1], pp[0], pp[1], self.traj.eps)
                pi[pp] = val + factor * m if m > 0.0 else val
        if dead:
            classes = [[p for p in c if p not in dead] for c in classes]
            classes = [c for c in classes if c]
            pi = {pp: val for pp, val in pi.items()
                  if pp[0] not in dead and pp[1] not in dead}
        classes = [piece for cls in classes for piece in self._split(cls, fluxes, event)]
        new = ReplayPair("divided", classes, pi)
        return pair if new == pair else new

    # -- meeting pairs ---------------------------------------------------------

    def _meet(self, ids: list[int], speeds: dict[int, float]) -> None:
        """Pairs sharing the event position: joined or freshly divided, each
        kind one object for all its pairs."""
        if len(ids) < 2:
            return
        classes: list[list[int]] = []
        for s in ids:
            if classes and speeds[s] == speeds[classes[-1][-1]]:
                classes[-1].append(s)
            else:
                classes.append([s])
        group_of = {s: k for k, cls in enumerate(classes) for s in cls}
        table = {(a, b): 0.0 for i, a in enumerate(ids) for b in ids[i + 1:]}
        joined, divided = ReplayPair(status="joined"), ReplayPair("divided", classes, table)
        pairs, index = self.pairs, self.divided
        for i, a in enumerate(ids):
            for b in ids[i + 1:]:
                if group_of[a] == group_of[b]:
                    pairs[(a, b)] = joined
                    index.discard((a, b))
                else:
                    pairs[(a, b)] = divided
                    index.add((a, b))

    # -- partition refinement ----------------------------------------------------

    def _split(self, members: list[int], fluxes: BlockFluxes, event: Event) -> list[list[int]]:
        """Re-solve one class under the current effective flux; split where the
        Riemann problem tells members apart."""
        state = self.state
        if len(members) <= 1:
            return [members]
        if event.kind.is_interaction:
            return [members]  # flux and membership unchanged: provably no split
        if event.kind == EventKind.TRANSVERSAL:
            crossing = event.colliding
            if members[-1] < crossing[0] or crossing[-1] < members[0]:
                return [members]  # no member changed its v value
        eff = fluxes.flux(members)
        sign = state.wave(members[0]).sign
        cells = [state.wave(s).cell() for s in members]
        env = (convex_envelope if sign > 0 else concave_envelope)(eff, min(cells), max(cells) + 1)
        out: list[list[int]] = [[members[0]]]
        for prev, cur in zip(members, members[1:]):
            gap = abs(env.cell_slope(state.wave(cur).cell()) -
                      env.cell_slope(state.wave(prev).cell()))
            if gap > SLOPE_TOL:
                out.append([cur])
            else:
                out[-1].append(cur)
        return out

    # -- bookkeeping -----------------------------------------------------------

    def _view(self, index: int, time: float, fluxes: BlockFluxes) -> ReplayStep:
        """The replay as it stands after the event ``index``: live, no copy."""
        return ReplayStep(index=index, time=time, pairs=self.pairs, divided=sorted(self.divided),
                          state=self.state, fluxes=fluxes, q_quadratic=self._q_quadratic())

    def _q_quadratic(self) -> float:
        """Q: eps^2 times a sum over the alive pairs in id order, to which a
        never-met pair adds ||d2f/dw2|| and a divided pair with right states
        w_hat, w_hat2 its weight pi / ((|w_hat2 - w_hat| + 1) eps)."""
        eps = self.traj.eps
        never = self.traj.bounds.norm_d2_ww
        pairs = self.pairs
        alive = [w for w in self.state.waves if w.alive]
        q = 0.0
        for i, a in enumerate(alive):
            s = a.id
            for b in alive[i + 1:]:
                key = (s, b.id)
                pair = pairs[key]
                if pair.status == "never":
                    q += never
                elif pair.status == "divided":
                    q += pair.pi[key] / ((abs(b.w_hat - a.w_hat) + 1) * eps)
        return q * eps**2
