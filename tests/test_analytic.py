import json
import tracemalloc

import numpy as np
import pytest

from cavity_beats import linalg
from cavity_beats.analytic import (
    PENCIL_SAMPLES,
    _crossing_times,
    _pencil_poles,
    _tone_fit,
    _tone_sse,
    beat_frequency,
    measure_beats,
    secular_solution,
    symmetric_solution,
)
from cavity_beats.cli import main
from cavity_beats.linalg import hermitian_generator, pure_state
from cavity_beats.model import CavityParams, CouplingSet, LevelScheme, RateSet, derive_rates, midpoint_levels
from cavity_beats.reduced import evolve, rotated_rhs
from cavity_beats.scenario import SAMPLES_MAX
from cavity_beats.series import TimeSeries


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


def _tone_sse_reference(t, y, gamma, ws):
    # one lstsq per frequency on the full five-column design
    e1 = np.exp(-2 * gamma * t)
    base = [np.ones_like(t), e1, np.exp(-4 * gamma * t)]
    sse, amp = [], []
    for w in ws:
        m = np.column_stack(base + [e1 * np.cos(w * t), e1 * np.sin(w * t)])
        c, *_ = np.linalg.lstsq(m, y, rcond=None)
        sse.append(np.sum((y - m @ c) ** 2))
        amp.append(np.hypot(c[3], c[4]))
    return np.array(sse), np.array(amp)


@pytest.mark.parametrize("uniform", [True, False])
@pytest.mark.parametrize("gamma", [0.15, 0.0])  # gamma = 0 leaves a rank-one envelope base
def test_tone_sse_matches_per_frequency_lstsq(uniform, gamma):
    rng = np.random.default_rng(11)
    t = np.linspace(0.0, 30.0, 3001) if uniform else np.sort(rng.uniform(0.0, 30.0, 3001))
    e1 = np.exp(-2 * gamma * t)
    y = 0.4 - 0.3 * e1 + 0.2 * e1**2 + 0.05 * e1 * np.cos(0.7 * t + 0.4)
    # the tone explains all but 1e-7 to 1e-9 of the envelope residual, where an SSE taken
    # as the envelope SSE minus the explained part keeps too few digits
    y += 1e-6 * rng.normal(size=t.size)
    # frequencies around and away from the tone; on the uniform grid sin(w t)
    # vanishes at w = 100 pi and lstsq drops that column
    ws = np.concatenate([np.linspace(0.6, 0.8, 41), [0.1, 2.0, 5.0, 100 * np.pi]])
    sse, amp = _tone_sse(t, y, gamma, ws)
    ref_sse, ref_amp = _tone_sse_reference(t, y, gamma, ws)
    np.testing.assert_allclose(sse, ref_sse, rtol=1e-9, atol=0)
    np.testing.assert_allclose(amp, ref_amp, rtol=1e-9, atol=0)
    assert amp[np.argmin(sse)] == pytest.approx(0.05, rel=0.01)


def test_tone_sse_drops_a_tone_inside_the_envelope():
    # e1 underflows to the unit vector at t = 0, so e1 cos(w t) is e1 itself and e1 sin(w t)
    # is zero: the tone adds nothing, the SSE is the envelope's and the fit reports none
    t = np.linspace(0.0, 30.0, 301)
    y = np.cos(0.7 * t)
    sse, _ = _tone_sse(t, y, 1e5, np.array([0.5, 0.7, 2.0]))
    base = np.column_stack([np.ones_like(t), np.exp(-2e5 * t)])
    c, *_ = np.linalg.lstsq(base, y, rcond=None)
    np.testing.assert_allclose(sse, np.sum((y - base @ c) ** 2), rtol=1e-12)
    got = _tone_fit(t, y, 1e5)
    assert (got.two_f, got.method, got.detail) == (None, "none", "tone explains too little (SSE ratio 1.00)")


def test_tone_fit_memory_stays_flat():
    # the pole fit sees at most PENCIL_SAMPLES samples, so the peak stays flat at the largest grid
    t = np.linspace(0.0, 40.0, SAMPLES_MAX)
    y = 0.5 - 0.5 * np.exp(-0.2 * t) + 0.1 * np.exp(-0.1 * t) * np.cos(0.6 * t)
    tracemalloc.start()
    try:
        got = _tone_fit(t, y, 0.05)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got.two_f == pytest.approx(0.6, rel=1e-6)
    assert peak < 16 * 2**20


def _crossing_times_loop(t, r):
    # _crossing_times written as a per-sample loop: the reference its array form must match bit for bit
    floor = 0.05 * np.max(np.abs(r))
    if floor == 0:
        return np.array([])
    sign = np.sign(r)
    for i in range(1, sign.size):
        if sign[i] == 0:
            sign[i] = sign[i - 1]
    edges = np.flatnonzero(sign[1:] != sign[:-1])
    bounds = np.concatenate([[0], edges + 1, [sign.size]])
    lobe_ok = [np.max(np.abs(r[bounds[j]:bounds[j + 1]])) >= floor for j in range(bounds.size - 1)]
    times = []
    for j, i in enumerate(edges):
        if lobe_ok[j] and lobe_ok[j + 1]:
            times.append(t[i] + (t[i + 1] - t[i]) * r[i] / (r[i] - r[i + 1]))
    return np.asarray(times)


def test_crossing_times_match_the_loop():
    t = np.linspace(0.0, 10.0, 1001)
    r = np.exp(-0.2 * t) * np.sin(3.0 * t) + 0.01 * np.sin(40.0 * t)
    single = r.copy()
    single[[100, 333, 700]] = 0.0  # isolated exact zeros
    runs = r.copy()
    runs[200:230] = 0.0  # a run of zeros inside a lobe and one across a sign change
    runs[500:505] = 0.0
    leading = r.copy()
    leading[:40] = 0.0  # leading zeros have no lobe to continue
    ripple = np.where(np.abs(r) < 0.02, 0.0, r)  # small lobes that do not count
    for y in (r, single, runs, leading, ripple, -leading, np.zeros_like(r)):
        got, want = _crossing_times(t, y), _crossing_times_loop(t, y)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


def _generator_eigenvalues(rates):
    _, gen = hermitian_generator(lambda s: rotated_rhs(s, rates), pure_state(0, 4))
    return np.linalg.eigvals(gen)


@pytest.mark.parametrize("omega,t_end", [(0.5, 20.0), (1.0, 12.0), (3.0, 8.0), (None, 12.0)])
@pytest.mark.filterwarnings("ignore:positivity violated")
def test_pencil_poles_are_generator_eigenvalues(omega, t_end):
    # rho_11 is a sum of exponentials exp(lambda t) over eigenvalues lambda of the rotated
    # generator (the rotation leaves populations alone), so the pencil finds exactly those
    rates = _asymmetric_rates() if omega is None else _tuned_rates(omega)
    t = np.linspace(0.0, t_end, 1601)
    y = evolve(pure_state(0, 4), t, rates).channels()["rho_11"]
    stride = -(-t.size // PENCIL_SAMPLES)
    poles = _pencil_poles(y[::stride], stride * (t[1] - t[0]))
    eig = _generator_eigenvalues(rates)
    assert poles.size >= 4
    for lam in poles:
        assert np.min(np.abs(eig - lam)) < 1e-8, f"pole {lam} is no eigenvalue of {eig}"
    for lam in eig[np.abs(eig.imag) > 1e-6]:  # every oscillating mode reaches rho_11
        assert np.min(np.abs(poles - lam)) < 1e-8
    if omega is not None:
        assert np.max(np.abs(poles.imag)) == pytest.approx(beat_frequency(rates).two_f, rel=1e-8)
        got = measure_beats(evolve(pure_state(0, 4), t, rates), allow_tone_fit=True)
        assert got.two_f == pytest.approx(beat_frequency(rates).two_f, rel=0.02)


@pytest.mark.parametrize("omega", [0.5, 1.0, 3.0])
def test_no_pole_without_interference(omega):
    # at eta = 0 rho_11 has two real poles: the fit reports none, and with the same words
    # whichever rounding produced the samples
    rates = _tuned_rates(omega)
    t = np.linspace(0.0, 20.0, 1601)
    runs = [symmetric_solution(t, rates, eta=0.0)]
    runs += [evolve(pure_state(0, 4), t, rates, eta=0.0, form=form) for form in ("operator", "element")]
    for series in runs:
        got = _tone_fit(t, series.channels()["rho_11"], 0.1)
        assert (got.two_f, got.method, got.detail) == (None, "none", "no oscillating pole above 0.125")
        assert measure_beats(series, allow_tone_fit=True).detail.endswith("; " + got.detail)


def test_tone_fit_ignores_poles_below_the_floor():
    # a beat slower than 2.5/span turns by less than 2.5 rad over the window: not claimed
    t = np.linspace(0.0, 20.0, 1601)
    for w in (0.05, 0.12, 0.2):
        y = 0.3 - 0.3 * np.exp(-0.2 * t) + 0.1 * np.exp(-0.1 * t) * np.cos(w * t + 0.3)
        got = _tone_fit(t, y, 0.05)
        if w < 0.125:
            assert (got.two_f, got.detail) == (None, "no oscillating pole above 0.125")
        else:
            assert got.two_f == pytest.approx(w, rel=1e-9)


@pytest.mark.filterwarnings("ignore:positivity violated")
def test_tone_fit_needs_a_uniform_grid(monkeypatch):
    rates = _tuned_rates(0.5)
    t = np.linspace(0.0, 20.0, 1601)
    t[1:-1] += 1e-9 * np.sin(np.arange(1, t.size - 1))  # off the line by 5e-11 of the span
    series = symmetric_solution(t, rates)
    got = _tone_fit(t, series.channels()["rho_11"], 0.1)
    assert (got.two_f, got.method, got.detail) == (None, "none", "grid not uniform to 1e-12, no pole fit")
    assert measure_beats(series, allow_tone_fit=True).detail.endswith("; " + got.detail)
    # propagate shares the rule: one step matrix per step on this grid
    steps = []
    step_matrix = linalg._step_matrix
    monkeypatch.setattr(linalg, "_step_matrix", lambda gen, h: steps.append(h) or step_matrix(gen, h))
    evolve(pure_state(0, 4), t, rates)
    assert len(steps) == t.size - 1
    # a linspace grid of the largest size is uniform though its steps differ by more than 1e-12
    t = np.linspace(0.0, 40.0, SAMPLES_MAX)
    assert np.ptp(np.diff(t)) > 1e-12 * (t[1] - t[0])
    y = 0.5 - 0.5 * np.exp(-0.2 * t) + 0.1 * np.exp(-0.1 * t) * np.cos(0.6 * t)
    assert _tone_fit(t, y, 0.05).two_f == pytest.approx(0.6, rel=1e-12)


def test_no_tone_from_rounding_noise_near_resonance():
    # the closed form just off resonance carries rounding noise near 1e-9 of the signal, so
    # the pencil returns dozens of noise poles; a tone at one of them explains the smooth
    # envelope residual 38 times better than the envelope alone, but it is not a minimum
    rates = _tuned_rates(1.594e-4)
    assert not beat_frequency(rates).beats
    t = np.linspace(0.0, 14.28, 1601)
    got = measure_beats(symmetric_solution(t, rates), allow_tone_fit=True)
    assert got.two_f is None
    assert "tone fit has no minimum" in got.detail


@pytest.mark.filterwarnings("ignore:positivity violated")
@pytest.mark.parametrize("omega", [0.5, 1.0, 3.0])
def test_no_crossings_timed_in_rounding_noise(omega):
    # at eta = 0 the detrended rho_11 is rounding noise near 1e-15 of a population of 0.25; its
    # sign changes are no beats, and which of them looked significant hung on the last bits
    series = evolve(pure_state(0, 4), np.linspace(0.0, 8.0, 1601), _tuned_rates(omega), eta=0.0)
    assert measure_beats(series).detail == "only 0 significant crossings"


def test_crossings_need_a_residual_above_the_noise_floor():
    # a regular tone at 4e-15 of the population: without the floor it is timed as beats at 4.97
    t = np.linspace(0.0, 8.0, 1601)
    states = np.zeros((t.size, 4, 4), dtype=complex)
    states[:, 1, 1] = 0.25 * (1.0 - np.exp(-t)) + 1e-15 * np.cos(5.0 * t)
    assert measure_beats(TimeSeries(t, states), gamma=0.5).detail == "only 0 significant crossings"
    states[:, 1, 1] += 1e-5 * np.cos(5.0 * t)  # 4e-5 of the population, above the floor
    got = measure_beats(TimeSeries(t, states), gamma=0.5)
    assert got.method == "crossings"
    assert got.two_f == pytest.approx(5.0, rel=0.02)


def test_composite_preset_reports_no_wrong_beats(tmp_path):
    # at g = 1 the full model has several oscillating poles and none of them is the reduced
    # 2f; each run must report none or a frequency within 2% of the prediction
    assert main(["preset", "fig3", "--mode", "composite", "--out-dir", str(tmp_path)]) == 0
    runs = json.loads((tmp_path / "fig3.summary.json").read_text())["runs"]
    assert len(runs) == 3
    for run in runs:
        pred, meas = run["two_f_predicted"], run["two_f_measured"]
        assert meas is None or abs(meas - pred) <= 0.02 * pred, run["name"]
