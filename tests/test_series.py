import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cavity_beats.composite import _max_difference
from cavity_beats.linalg import (
    _hermitian_coordinates,
    hermitian_states,
    lowest_eigenvalues,
    stack_coordinates,
)
from cavity_beats.series import CHANNELS, LEVELS, TimeSeries

# the (e, 1, 2, g) supports a run holds: the excited atom's (the populations and the
# 1-2 coherence), the populations alone (secular_solution), and the 3 x 3 {e, 1, 2}
# block of a state with an e-1 coherence
SUPPORTS = [
    [0, 1, 2, 3, 7, 13],
    [0, 1, 2, 3],
    [0, 1, 2, 3, 4, 5, 7, 10, 11, 13],
]
VALUES = st.one_of(st.floats(-1.0, 1.0), st.sampled_from([0.0, -0.0, 5e-324, -1e-300]))


def _stack_channels(states):
    # the channels as they were read from a stack of states
    return {
        "rho_ee": states[:, 0, 0].real,
        "rho_11": states[:, 1, 1].real,
        "rho_22": states[:, 2, 2].real,
        "rho_gg": states[:, 3, 3].real,
        "re_rho_12": states[:, 1, 2].real,
        "im_rho_12": states[:, 1, 2].imag,
        "abs_rho_12": np.abs(states[:, 1, 2]),
    }


def _stack_lowest(states, keep):
    # lowest_eigenvalues as it was computed on the stack of states, block by block
    d = states.shape[-1]
    rows, cols, _ = _hermitian_coordinates(d)
    label = np.arange(d)
    for r, c in zip(rows[keep], cols[keep]):
        label[label == label[c]] = label[r]
    lowest = np.full(len(states), np.inf)
    for block in (np.flatnonzero(label == b) for b in np.unique(label)):
        if block.size == 1:
            w = states[:, block[0], block[0]].real
        elif block.size == 2:
            i, j = block
            a, c = states[:, i, i].real, states[:, j, j].real
            w = (a + c) / 2 - np.hypot((a - c) / 2, np.abs(states[:, i, j]))
        else:
            w = np.linalg.eigvalsh(states[:, block[:, None], block])[:, 0]
        np.minimum(lowest, w, out=lowest)
    return lowest, max(np.bincount(label))


@st.composite
def _coordinates(draw):
    # a support, with some of its off-diagonal coordinates dropped, and values on it
    support = draw(st.sampled_from(SUPPORTS))
    keep = np.array([k for k in support if k < 4 or draw(st.booleans())])
    n = draw(st.integers(1, 12))
    x = draw(arrays(float, (n, keep.size), elements=VALUES))
    return keep, x


def _states(series):
    # the (n, 4, 4) stack of the series' coordinates
    return hermitian_states(series.keep, series.x, 4)


def _same_bytes(a, b):
    return np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


@settings(max_examples=100, deadline=None)
@given(case=_coordinates())
def test_coordinates_read_as_the_stack_reads(case):
    keep, x = case
    times = np.linspace(0.0, 1.0, len(x))
    series = TimeSeries(times, keep=keep, x=x)
    stack = hermitian_states(keep, x, 4)
    assert _same_bytes(_states(series), stack)
    for level, i in LEVELS.items():
        assert _same_bytes(series.population(level), stack[:, i, i].real)
        for other, j in LEVELS.items():
            assert _same_bytes(series.coherence(level, other), stack[:, i, j])
    got = series.channels()
    assert list(got) == list(CHANNELS)
    assert _same_bytes(got["t"], times)
    for name, values in _stack_channels(stack).items():
        assert _same_bytes(got[name], values), name
    # the stack converted back keeps every coordinate, so the channels keep their signed
    # zeros (the lower triangle it rebuilds may turn a +0.0 there into -0.0)
    again = TimeSeries(times, np.arange(16), stack_coordinates(stack))
    assert np.array_equal(_states(again), stack)
    for name, values in again.channels().items():
        assert _same_bytes(values, got[name]), name


@settings(max_examples=100, deadline=None)
@given(case=_coordinates())
def test_lowest_eigenvalues_on_coordinates_match_the_stack(case):
    keep, x = case
    got = lowest_eigenvalues(keep, x, 4)
    want, largest = _stack_lowest(hermitian_states(keep, x, 4), keep)
    if largest <= 2:
        assert _same_bytes(got, want)
    else:
        assert np.max(np.abs(got - want)) <= 1e-12


@settings(max_examples=100, deadline=None)
@given(a=_coordinates(), b=_coordinates())
def test_max_difference_is_that_of_the_stacks(a, b):
    n = min(len(a[1]), len(b[1]))
    times = np.linspace(0.0, 1.0, n)
    sa = TimeSeries(times, keep=a[0], x=a[1][:n])
    sb = TimeSeries(times, keep=b[0], x=b[1][:n])
    assert _max_difference(sa, sb) == float(np.max(np.abs(_states(sa) - _states(sb))))
