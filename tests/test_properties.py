"""Hypothesis-driven invariants for the building blocks."""

import numpy as np
from hypothesis import given, settings, strategies as st

from doubles import value_at
from test_envelopes import contact
from triwave.envelopes import concave_envelope, convex_envelope, rh_speed
from triwave.flux import PiecewiseAffineFlux
from triwave.wavefield import StepFunction

values_strategy = st.lists(
    st.floats(min_value=-1.0, max_value=1.0, allow_nan=False, allow_infinity=False),
    min_size=2, max_size=48,
)


def paf(values):
    return PiecewiseAffineFlux(eps=0.125, base_index=0, values=tuple(map(float, values)))


@given(values_strategy)
@settings(max_examples=300, deadline=None)
def test_envelope_is_idempotent(values):
    g = paf(values)
    env = convex_envelope(g, 0, len(values) - 1)
    again = convex_envelope(paf(env.node_values), 0, len(values) - 1)
    assert np.max(np.abs(np.asarray(again.node_values) - env.node_values)) <= 1e-12


@given(values_strategy)
@settings(max_examples=300, deadline=None)
def test_envelope_below_input_with_increasing_slopes(values):
    g = paf(values)
    env = convex_envelope(g, 0, len(values) - 1)
    assert np.all(env.node_values <= np.asarray(values) + 1e-12)
    assert np.all(np.diff(env.cell_slopes) >= -1e-12)
    flags = contact(env)
    assert flags[0] and flags[-1]
    conc = concave_envelope(g, 0, len(values) - 1)
    assert np.all(conc.node_values >= np.asarray(values) - 1e-12)


@given(values_strategy)
@settings(max_examples=200, deadline=None)
def test_rh_speed_is_mean_cell_slope(values):
    g = paf(values)
    n = len(values)
    chord = rh_speed(g, 0, n - 1)
    slopes = np.diff(np.asarray(values)) / 0.125
    assert abs(chord - np.mean(slopes)) <= 1e-9 * max(1.0, abs(chord))


@given(
    st.dictionaries(
        st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
        st.integers(min_value=-8, max_value=8),
        max_size=10,
    )
)
@settings(max_examples=300, deadline=None)
def test_step_function_round_trip(jump_map):
    sf = StepFunction.from_jumps(list(jump_map.items()) + [(11.0, 0)])
    assert sf.final_value == 0
    # value_at reproduces the plateau structure
    for x, _, after in sf.jumps():
        assert value_at(sf, x) == after
    # total variation telescopes the jump sizes
    assert sf.tv_ticks() == sum(abs(a - b) for _, b, a in sf.jumps())
