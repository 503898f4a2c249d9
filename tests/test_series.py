import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cavity_beats.composite import build_system, evolve_composite
from cavity_beats.linalg import (
    DriftError,
    _hermitian_coordinates,
    hermitian_states,
    pure_state,
    stack_coordinates,
)
from cavity_beats.model import derive_rates, tuned_configuration
from cavity_beats.reduced import evolve
from cavity_beats.series import CHANNELS, LEVELS, TimeSeries, hermitize_and_check

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
    got = TimeSeries(np.linspace(0.0, 1.0, len(x)), keep, x).lowest_eigenvalues()
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
    assert sa.max_difference(sb) == float(np.max(np.abs(_states(sa) - _states(sb))))


# the 1-2 coherence turns at frequency 2 in the frame the checks undo
PHASES = np.zeros((4, 4))
PHASES[1, 2], PHASES[2, 1] = 2.0, -2.0


def test_trace_check_rotates_and_renormalizes_small_drift():
    # coordinates (rho_11, rho_22, re rho_12, im rho_12) of a state with unit trace and of
    # one whose trace drifted by -1e-9; the frame turns rho_12 by exp(2 i t)
    keep = np.array([1, 2, 7, 13])
    x = np.array([[0.6, 0.4, 0.1, 0.0], [0.6 + 1e-9, 0.4 - 2e-9, 0.1, 0.0]])
    given = x.copy()
    series = hermitize_and_check(np.array([0.0, 1.0]), keep, x, PHASES)
    assert np.array_equal(x, given) and series.x.flags.f_contiguous  # checked on a copy
    assert np.array_equal(series.keep, keep) and series.diagnostics == []
    fixed = _states(series)
    assert series.max_drift_correction == pytest.approx(1e-9, rel=1e-6)
    want = np.zeros((4, 4))
    want[1:3, 1:3] = [[0.6, 0.1], [0.1, 0.4]]
    assert np.array_equal(fixed[0], want)
    assert np.max(np.abs(fixed[1] - fixed[1].conj().T)) == 0.0
    assert abs(fixed[1].trace() - 1.0) < 1e-15
    assert abs(fixed[1][1, 2] - 0.1 * np.exp(2j) / (1.0 - 1e-9)) < 1e-15


def test_trace_check_keeps_a_fortran_ordered_input():
    # the engines' walks return the series' layout, so the check keeps their array as the
    # series' storage and rotates and renormalizes it in place, as it does a copy
    keep = np.array([1, 2, 7, 13])
    x = np.asfortranarray([[0.6, 0.4, 0.1, 0.0], [0.6 + 1e-9, 0.4 - 2e-9, 0.1, 0.0]])
    copied = hermitize_and_check(np.array([0.0, 1.0]), keep, np.ascontiguousarray(x), PHASES)
    series = hermitize_and_check(np.array([0.0, 1.0]), keep, x, PHASES)
    assert np.shares_memory(series.x, x) and not np.shares_memory(copied.x, x)
    assert np.array_equal(series.x, copied.x)
    assert series.max_drift_correction == copied.max_drift_correction


def test_trace_check_raises_beyond_tolerance():
    keep = np.array([1, 2, 7])
    x = np.array([[0.6, 0.4, 0.1]] * 2 + [[0.601, 0.4, 0.1]] * 2)
    t = np.linspace(0, 0.75, 4)
    with pytest.raises(DriftError, match=(
        r"^sample 2 \(t=0\.5\): trace drift 1\.000e-03 exceeds tolerance 1\.0e-06$"
    )):
        hermitize_and_check(t, keep, x, np.zeros((4, 4)))
    # a rotated coherence needs its imaginary coordinate as well
    with pytest.raises(ValueError, match="both its real and imaginary"):
        hermitize_and_check(t, keep, x, PHASES)


def test_trace_check_flags_positivity_excursions():
    # rho_11 = rho_22 = 1/2 with re rho_12 = r has lowest eigenvalue min(0, 1/2 - r), rho_ee
    # and rho_gg being 0: the check records each sample below POSITIVITY_FLOOR (-1e-6)
    # and warns once
    keep = np.array([1, 2, 7])
    r = np.array([0.1, 0.8, 0.5, 0.5 + 2e-6, 0.7])
    x = np.column_stack([np.full(5, 0.5), np.full(5, 0.5), r])
    t = np.linspace(0.0, 2.0, 5)
    with pytest.warns(UserWarning) as record:
        series = hermitize_and_check(t, keep, x, np.zeros((4, 4)))
    lowest = series.lowest_eigenvalues()
    assert np.allclose(lowest, np.minimum(0.5 - r, 0.0), rtol=0.0, atol=1e-15)
    assert series.diagnostics == [
        f"negative eigenvalue {lowest[i]:.3e} at t={t[i]:.6g}" for i in (1, 3, 4)
    ]
    assert [str(w.message) for w in record] == [
        "positivity violated at 3 of 5 samples (worst eigenvalue -3.000e-01)"
    ]


def _reduced_run(t):
    return evolve(pure_state(0, 4), t, derive_rates(*tuned_configuration(1.0, 0.3)))


def _composite_run(t):
    system = build_system(*tuned_configuration(1.0, 0.3))
    return evolve_composite(pure_state(0, system.dim), t, system)


@pytest.mark.filterwarnings("ignore:positivity violated")
@pytest.mark.parametrize("engine,run", [("reduced", _reduced_run), ("composite", _composite_run)])
def test_both_engines_hand_the_check_the_series_layout(monkeypatch, engine, run):
    # each walk's coordinates arrive Fortran-ordered, and the series keeps them uncopied
    handed = []

    def keeping(times, keep, x, phases):
        series = hermitize_and_check(times, keep, x, phases)
        handed.append(x.flags.f_contiguous and np.shares_memory(series.x, x))
        return series

    monkeypatch.setattr(f"cavity_beats.{engine}.hermitize_and_check", keeping)
    run(np.linspace(0.0, 6.0, 31))
    assert handed == [True]


@pytest.mark.parametrize("run", [_reduced_run, _composite_run], ids=["reduced", "composite"])
def test_both_engines_are_judged_by_the_check(monkeypatch, run):
    # every lowest eigenvalue lies below 2, so with the floor there every sample is an
    # excursion: 20 diagnostics and the total, and a warning at the engine's caller
    monkeypatch.setattr("cavity_beats.series.POSITIVITY_FLOOR", 2.0)
    t = np.linspace(0.0, 6.0, 31)
    with pytest.warns(UserWarning, match=r"^positivity violated at 31 of 31 samples") as record:
        series = run(t)
    assert len(record) == 1 and record[0].filename == __file__
    lowest = series.lowest_eigenvalues()
    assert series.diagnostics == [
        f"negative eigenvalue {lowest[i]:.3e} at t={t[i]:.6g}" for i in range(20)
    ] + ["... 31 samples below 2 in total"]
