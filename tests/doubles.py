"""Test doubles shared by the test modules and the CLI runs they start.

A CLI run imports this module with ``tests`` on ``PYTHONPATH``.
"""


class CorruptAfterFirstEvent:
    """Stands in for ``simulator.next_collision``: the first search is the
    real one; the second swaps the positions of the first and last alive
    waves and reports that nothing meets, so the run ends on a state whose
    enumeration is out of order."""

    def __init__(self, real):
        self.real = real
        self.calls = 0

    def __call__(self, state):
        self.calls += 1
        if self.calls == 1:
            return self.real(state)
        alive = [w for w in state.waves if w.alive]
        alive[0].pos, alive[-1].pos = alive[-1].pos, alive[0].pos
        return None
