import numpy as np
import pytest

from cavity_beats.analytic import (
    beat_frequency,
    measure_beats,
    secular_solution,
    symmetric_solution,
)
from cavity_beats.linalg import pure_state
from cavity_beats.model import CavityParams, CouplingSet, LevelScheme, RateSet, derive_rates, midpoint_levels
from cavity_beats.reduced import evolve


def _tuned_rates(omega, g=1.0):
    levels, cavity = midpoint_levels(omega + 1.0, omega, omega)
    return derive_rates(CouplingSet.uniform(g), levels, cavity)


def _asymmetric_rates():
    levels = LevelScheme(4.3, 1.9, 0.4)
    cavity = CavityParams(3.1, 1.2, kappa_a=1.0, kappa_b=1.7)
    couplings = CouplingSet(0.9, 1.1 + 0.2j, 0.8, 1.3 - 0.4j)
    return derive_rates(couplings, levels, cavity)


def _rate_only(g1, g2, g1p, g2p):
    # rate skeleton for the fast-cascade solution; shifts and cross terms unused
    return RateSet(
        Gamma_1=g1, Gamma_2=g2, Gamma_1p=g1p, Gamma_2p=g2p,
        delta_1=0.0, delta_2=0.0, delta_1p=0.0, delta_2p=0.0,
        Omega=0.0, cross_upper=0.0, cross_ground=0.0,
        cross_left=0.0, cross_right=0.0,
    )


# --- fast-cascade (secular) solution -------------------------------------

def test_secular_frozen_point():
    rates = _rate_only(0.5, 0.5, 0.5, 0.5)
    series = secular_solution(np.array([0.0, 1.0]), rates)
    assert series.population("e")[1] == pytest.approx(np.exp(-2.0), rel=1e-12)
    want = np.exp(-1.0) - np.exp(-2.0)
    assert series.population("1")[1] == pytest.approx(want, rel=1e-12)
    assert series.population("2")[1] == pytest.approx(want, rel=1e-12)
    total = sum(series.population(k)[1] for k in "e12g")
    assert total == pytest.approx(1.0, abs=1e-12)


def test_secular_matches_rate_equations():
    # with cross terms off the reduced equation is exactly the rate cascade
    rates = _asymmetric_rates()
    t = np.linspace(0.0, 8.0, 81)
    closed = secular_solution(t, rates)
    numeric = evolve(pure_state(0, 4), t, rates, eta=0.0)
    for k in "e12g":
        dev = np.max(np.abs(closed.population(k) - numeric.population(k)))
        assert dev < 1e-9, f"level {k}: {dev:.3e}"


def test_secular_degenerate_filling_limit():
    # when the top drain equals a branch drain the filling term becomes
    # linear in t; the series branch of expm1(x)/x must take over smoothly
    rates = _rate_only(0.25, 0.25, 0.5, 0.5)
    t = np.array([0.0, 0.5, 2.0])
    series = secular_solution(t, rates)
    want = 2 * 0.25 * t * np.exp(-t)
    assert np.max(np.abs(series.population("1") - want)) < 1e-13


# --- evenly tuned closed form ---------------------------------------------

@pytest.mark.parametrize(
    "omega,eta,t_end",
    [
        (1.0, 1.0, 8.0),     # oscillatory
        (0.5, 1.0, 20.0),    # slow beat
        (3.0, 1.0, 8.0),     # fast beat
        (1.0, 0.6, 8.0),     # partial interference
        (0.3, 1.0, 15.0),    # overdamped, reaches the deep-hyperbolic branch
        (0.0, 1.0, 8.0),     # exactly resonant
        (1.0, 0.0, 8.0),     # no interference
    ],
)
@pytest.mark.filterwarnings("ignore:positivity violated")
def test_symmetric_solution_matches_integration(omega, eta, t_end):
    rates = _tuned_rates(omega)
    t = np.linspace(0.0, t_end, 161)
    closed = symmetric_solution(t, rates, eta=eta)
    numeric = evolve(pure_state(0, 4), t, rates, eta=eta)
    pop_dev = max(
        np.max(np.abs(closed.population(k) - numeric.population(k))) for k in "e12g"
    )
    coh_dev = np.max(np.abs(closed.coherence("1", "2") - numeric.coherence("1", "2")))
    assert pop_dev < 1e-9, f"populations deviate by {pop_dev:.3e}"
    assert coh_dev < 1e-9, f"coherence deviates by {coh_dev:.3e}"


def test_symmetric_solution_near_resonance_continuity():
    # a splitting of 1e-7 lands numerically on the resonant branch; the
    # snapped solution must still track the integrated one
    rates = _tuned_rates(1e-7)
    t = np.linspace(0.0, 8.0, 81)
    closed = symmetric_solution(t, rates)
    numeric = evolve(pure_state(0, 4), t, rates)
    dev = max(np.max(np.abs(closed.population(k) - numeric.population(k))) for k in "e12g")
    assert dev < 1e-4


def test_symmetric_solution_requires_tuned_rates():
    with pytest.raises(ValueError):
        symmetric_solution(np.linspace(0, 1, 5), _asymmetric_rates())


def test_symmetric_trace_is_exact():
    rates = _tuned_rates(1.0)
    t = np.linspace(0.0, 10.0, 101)
    series = symmetric_solution(t, rates)
    total = sum(series.population(k) for k in "e12g")
    assert np.max(np.abs(total - 1.0)) < 1e-12


# --- beat prediction -------------------------------------------------------

def test_beat_prediction_frozen_values():
    pred = beat_frequency(_tuned_rates(1.0))
    assert pred.beats
    assert pred.two_f == pytest.approx(np.sqrt(7.0), rel=1e-12)
    pred = beat_frequency(_tuned_rates(0.5))
    assert pred.beats
    assert pred.two_f == pytest.approx(0.2, rel=1e-9)
    pred = beat_frequency(_tuned_rates(3.0))
    assert pred.beats
    assert pred.two_f == pytest.approx(2 * np.sqrt(10.79), rel=1e-9)


def test_beat_prediction_suppressed_cases():
    pred = beat_frequency(_tuned_rates(1.0), eta=0.0)
    assert not pred.beats and pred.two_f is None
    assert pred.f_squared > 0  # displacement survives, amplitude does not
    pred = beat_frequency(_tuned_rates(0.0))
    assert not pred.beats and pred.two_f is None
    assert pred.f_squared < 0
    with pytest.raises(ValueError):
        beat_frequency(_asymmetric_rates())


def test_eta_moves_the_beat_frequency():
    full = beat_frequency(_tuned_rates(1.0), eta=1.0)
    weak = beat_frequency(_tuned_rates(1.0), eta=0.5)
    assert weak.two_f > full.two_f  # less interference, less frequency pulling


# --- beat measurement ------------------------------------------------------

def test_measure_beats_by_crossings():
    rates = _tuned_rates(3.0)
    t = np.linspace(0.0, 8.0, 1601)
    series = symmetric_solution(t, rates)
    got = measure_beats(series)
    assert got.method == "crossings"
    want = beat_frequency(rates).two_f
    assert got.two_f == pytest.approx(want, rel=0.02)


def test_measure_beats_tone_fit_for_slow_beats():
    rates = _tuned_rates(0.5)
    t = np.linspace(0.0, 20.0, 1601)
    series = symmetric_solution(t, rates)
    # with one visible period there are too few crossings
    assert measure_beats(series).two_f is None
    got = measure_beats(series, allow_tone_fit=True)
    assert got.method == "tone_fit"
    assert got.two_f == pytest.approx(0.2, rel=0.02)


def test_measure_beats_reports_absence():
    rates = _tuned_rates(0.0)
    t = np.linspace(0.0, 8.0, 1601)
    series = symmetric_solution(t, rates)
    got = measure_beats(series, allow_tone_fit=True)
    assert got.two_f is None
    assert got.method == "none"
    assert got.detail


def test_measure_beats_gamma_override():
    rates = _tuned_rates(3.0)
    t = np.linspace(0.0, 8.0, 1601)
    series = symmetric_solution(t, rates)
    a = measure_beats(series)
    b = measure_beats(series, gamma=0.1)  # exact decay rate at this tuning
    assert b.two_f == pytest.approx(a.two_f, rel=1e-3)


def test_measure_beats_other_population_channel():
    rates = _tuned_rates(3.0)
    t = np.linspace(0.0, 8.0, 1601)
    series = symmetric_solution(t, rates)
    got = measure_beats(series, population="rho_22")
    assert got.two_f == pytest.approx(beat_frequency(rates).two_f, rel=0.02)
