"""Post-hoc reconstruction of partitions and pi tables, with full tables.

The production history shares one partition record among all pairs divided at
the same event and stores only the pi entry each pair's weight needs.  This
module replays a finished trajectory and rebuilds, with full tables, the
recursively refined partition of the waves of each pair's last meeting and
the complete pi map.  It exists to let the lemma-level checks compare the
shared incremental bookkeeping against a literal reading of the definitions
on small runs.

The replay keeps only what a check reads.  ``Replay.pairs`` maps each divided
pair to its history, a ``ReplayPair``, and ``Replay.joined`` is the set of the
alive pairs whose last meeting left them at one speed.  A pair that never met
is in neither, and a pair with a dead wave is dropped from both.

Pairs divided at one meeting have one history by definition: the same
classes and the same pi table, changed by the same events.  So they share one
``ReplayPair``: ``_meet`` stores one object for all of them, and ``_step``
carries each distinct object across an event once and hands the result to
every pair that held it.  The literal per-pair replay, one object per pair
and a status for every pair, is the test double
``tests/doubles.PerPairReplay``.

``Replay.run`` moves the replay across one event at a time and yields the
event's index and the block fluxes its splits read.  A reader checks
``pairs``, ``state`` and ``q_quadratic()`` before it draws the next event;
``tests/doubles.recorded_steps`` copies them after each one.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from .envelopes import SLOPE_TOL, concave_envelope, convex_envelope
from .flux import FluxTable
from .history import m_value
from .simulator import Trajectory
from .wavefield import BlockFluxes, Event, EventKind, FieldState, apply_event

__all__ = ["ReplayPair", "Replay", "MAX_REPLAY_WAVES"]

MAX_REPLAY_WAVES = 12


@dataclass(frozen=True)
class ReplayPair:
    """One divided pair's reconstructed history at a fixed event time.

    Never edited in place: a step that changes a pair replaces it.  That is
    what lets the pairs divided at one meeting share one object, and steps
    share the objects they leave as is; an edit would reach every pair, at
    every step, that holds the object.  Replace a pair's entry to change
    one pair.
    """

    classes: list[list[int]]                     # the alive waves of its last meeting
    pi: dict[tuple[int, int], float]


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
        self.pairs: dict[tuple[int, int], ReplayPair] = {}
        self.joined: set[tuple[int, int]] = set()
        for groups in traj.initial_groups:
            ids = sorted(s for members, _ in groups for s in members)
            self._meet(ids, {s: sp for members, sp in groups for s in members})

    # -- driving -------------------------------------------------------------

    def run(self) -> Iterator[tuple[int, BlockFluxes]]:
        """Index 0 with the initial block fluxes, then each event's index and
        block fluxes, the replay moved across the event as it is drawn.  Call
        once: it advances the replay's own state."""
        yield 0, BlockFluxes(self.state, self.table)
        for event in self.traj.events:
            yield event.index, self._step(event)

    def _step(self, event: Event) -> BlockFluxes:
        """Apply ``event`` and carry every pair history across it; return the
        block fluxes its splits read."""
        state = self.state
        apply_event(state, event)
        meeting = event.post_speeds
        fluxes = BlockFluxes(state, self.table)
        dead = set(event.canceled)
        if dead:
            self.joined = {key for key in self.joined
                           if key[0] not in dead and key[1] not in dead}
        pairs: dict[tuple[int, int], ReplayPair] = {}
        # id of an input pair -> (that pair, its output): the pairs that share
        # a history share it after the event; the reference keeps the id taken
        carried: dict[int, tuple[ReplayPair, ReplayPair]] = {}
        for key, pair in self.pairs.items():
            s, s2 = key
            if s in dead or s2 in dead:
                continue
            if s in meeting and s2 in meeting:
                if meeting[s] == meeting[s2]:
                    continue  # met again joined: _meet adds it to joined
                raise ValueError(f"pair {key} met again while divided (event {event.index})")
            memo = carried.get(id(pair))
            if memo is None:
                memo = carried[id(pair)] = (pair, self._carry(pair, event, dead, fluxes))
            pairs[key] = memo[1]
        self.pairs = pairs
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
        new = ReplayPair(classes, pi)
        return pair if new == pair else new

    # -- meeting pairs ---------------------------------------------------------

    def _meet(self, ids: list[int], speeds: dict[int, float]) -> None:
        """Pairs sharing the event position: joined, or freshly divided with
        one object for all of them."""
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
        divided = ReplayPair(classes, table)
        pairs, joined = self.pairs, self.joined
        for i, a in enumerate(ids):
            for b in ids[i + 1:]:
                if group_of[a] == group_of[b]:
                    joined.add((a, b))
                else:
                    pairs[(a, b)] = divided
                    joined.discard((a, b))

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

    # -- functionals -----------------------------------------------------------

    def q_quadratic(self) -> float:
        """Q: eps^2 times a sum over the alive pairs in id order, to which a
        never-met pair adds ||d2f/dw2|| and a divided pair with right states
        w_hat, w_hat2 its weight pi / ((|w_hat2 - w_hat| + 1) eps)."""
        eps = self.traj.eps
        never = self.traj.bounds.norm_d2_ww
        pairs, joined = self.pairs, self.joined
        alive = [w for w in self.state.waves if w.alive]
        q = 0.0
        for i, a in enumerate(alive):
            s = a.id
            for b in alive[i + 1:]:
                key = (s, b.id)
                pair = pairs.get(key)
                if pair is not None:
                    q += pair.pi[key] / ((abs(b.w_hat - a.w_hat) + 1) * eps)
                elif key not in joined:
                    q += never
        return q * eps**2
