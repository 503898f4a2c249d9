import cmath
import dataclasses
import json
import re
import tracemalloc
from decimal import Decimal

import numpy as np
import pytest

from cavity_beats import analytic, linalg
from cavity_beats.analytic import (
    PENCIL_SAMPLES,
    _grid_powers,
    _pencil_poles,
    _pole_fit,
    beat_frequency,
    measure_beats,
    secular_solution,
    symmetric_solution,
    tuned_alpha,
)
from cavity_beats.cli import main
from cavity_beats.linalg import hermitian_generator, pure_state, stack_coordinates
from cavity_beats.model import (
    CavityParams,
    CouplingSet,
    LevelScheme,
    RateSet,
    derive_rates,
    midpoint_levels,
    tuned_configuration,
)
from cavity_beats.reduced import evolve, rotated_rhs
from cavity_beats.scenario import SAMPLES_MAX, parse_scenario
from cavity_beats.series import TimeSeries


def _tuned_rates(omega, g=1.0):
    return derive_rates(*tuned_configuration(omega, g))


def _asymmetric_rates():
    levels = LevelScheme(4.3, 1.9, 0.4)
    cavity = CavityParams(3.1, 1.2, kappa_a=1.0, kappa_b=1.7)
    couplings = CouplingSet(0.9, 1.1 + 0.2j, 0.8, 1.3 - 0.4j)
    return derive_rates(couplings, levels, cavity)


# A non-tuned configuration drawn by the benchmark (reduced-scan, seed 91): one pair of
# generator eigenvalues, -0.558 +- 3.5525i, reaches rho_11
XCFG = {
    "name": "xcfg", "mode": "reduced", "eta": 0.931595,
    "levels": {"omega_eg": 3.820748, "omega_1g": 2.820748, "omega_2g": 0.0},
    "cavity": {"omega_a": 2.341867, "omega_b": 1.362028, "kappa_a": 1.0, "kappa_b": 0.919978},
    "couplings": {"G_1e": 1.095952, "G_2e": [0.72047, 0.391763], "G_g1": 0.964739, "G_g2": 0.891104},
    "t_end": 12.0, "samples": 1601,
}


def _rho_11_series(t, y):
    states = np.zeros((t.size, 4, 4), dtype=complex)
    states[:, 1, 1] = y
    return TimeSeries(t, np.arange(16), stack_coordinates(states))


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


def test_secular_solution_refuses_an_overflow():
    # it is analytic mode's eta = 0 path, so it guards its coordinates as the beats do
    rates = _tuned_rates(1.0, 1e152)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
        ValueError, match="^the closed form overflows at these rates$"
    ):
        secular_solution(np.linspace(0.0, 1e6, 11), rates)


# --- evenly tuned closed form ---------------------------------------------

@pytest.mark.parametrize("omega,g", [(0.0, 1.0), (0.5, 0.3), (1.0, 2.0), (3.0, 1.0), (10.0, 1e3)])
def test_closed_form_without_interference_is_the_secular_cascade(monkeypatch, omega, g):
    # at eta alpha = 0 there are no cross terms: the same coordinates and bits as the
    # secular cascade, and no beat term is evaluated
    rates = _tuned_rates(omega, g)
    t = np.linspace(0.0, 8.0, 1601)
    want = secular_solution(t, rates)
    monkeypatch.setattr(analytic, "_symmetric_block", lambda *a: pytest.fail("beats evaluated"))
    got = symmetric_solution(t, rates, eta=0.0)
    assert np.array_equal(got.keep, want.keep) and got.x.tobytes() == want.x.tobytes()


@pytest.mark.parametrize("eta", [0.0, 1.0])
def test_closed_form_refuses_rates_off_the_tuned_configuration(eta):
    # a 1% change of one rate leaves the evenly tuned configuration, with or without the
    # cross terms, and the refusal names the first relation it breaks with its gap; the
    # shifts' gap is taken against |Gamma' + i delta'| (about 0.71), not |delta'| = 0.5
    rates = _tuned_rates(1.0)
    moves = {
        "Gamma_2 = Gamma_1 is off by 0.0099": ("Gamma_2", 1.01),
        "delta_2p = -delta_1p is off by 0.007": ("delta_2p", 1.01),
        r"cross_ground = 2 conj\(cross_left\) is off by 0.0099": ("cross_ground", 1.01),
    }
    for text, (name, factor) in moves.items():
        moved = rates._replace(**{name: factor * getattr(rates, name)})
        with pytest.raises(ValueError, match=rf"^closed-form beats require the evenly tuned "
                                             rf"configuration: {text} relative, beyond 1e-12$"):
            symmetric_solution(np.linspace(0.0, 1.0, 5), moved, eta=eta)


@pytest.mark.parametrize(
    "omega,eta,t_end",
    [
        (1.0, 1.0, 8.0),     # oscillatory
        (0.5, 1.0, 20.0),    # slow beat
        (3.0, 1.0, 8.0),     # fast beat
        (1.0, 0.6, 8.0),     # partial interference
        (0.3, 1.0, 15.0),    # overdamped: real eigenvalues
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
    # a splitting of 1e-7 puts two eigenvalues 2e-7 apart at full interference; the
    # divided differences take such nodes without a branch, to rounding
    rates = _tuned_rates(1e-7)
    t = np.linspace(0.0, 8.0, 81)
    closed = symmetric_solution(t, rates)
    numeric = evolve(pure_state(0, 4), t, rates)
    dev = max(np.max(np.abs(closed.population(k) - numeric.population(k))) for k in "e12g")
    assert dev < 1e-12


@pytest.mark.filterwarnings("ignore:positivity violated")
@pytest.mark.parametrize("g", [0.1, 1.0, 1e2, 1e4, 1e5, 1e6, 1e100])
def test_symmetric_solution_matches_the_exact_engine_at_any_coupling(g):
    # one bound at every coupling, on windows of 8 / Gamma: at full interference and large G
    # the closed form once divided by gamma^2 + f^2, which is O(G^2) against a scale of
    # O(G^4), and near Omega = 0 by 2 (delta' + Omega), and wrote numbers off by up to 3
    for omega in (0.0, 1e-6, 1e-5, 1e-4, 0.5, 1.0, 3.0, 4.0):
        rates = _tuned_rates(omega, g)
        t = np.linspace(0.0, 8.0 / rates.Gamma_1, 401)
        for eta in (0.5, 0.9, 0.99, 1.0):
            closed = symmetric_solution(t, rates, eta=eta).channels()
            exact = evolve(pure_state(0, 4), t, rates, eta=eta).channels()
            dev = max(np.max(np.abs(closed[k] - exact[k])) for k in closed)
            assert dev < 1e-12, (omega, eta, dev)


@pytest.mark.filterwarnings("ignore:positivity violated")
def test_symmetric_solution_rejects_overflowing_rates():
    # in units of one rate the closed form holds at G = 1e77, where gamma^2 and |alpha|^2
    # once overflowed: it matches the exact engine on a window of 8 / Gamma, and far past
    # it the atom has decayed; at G = 1e153 the rates are finite, but over t in [0, 1e6]
    # the closed form overflows, and it refuses
    rates = _tuned_rates(1.0, g=1e77)
    t = np.linspace(0.0, 8.0 / rates.Gamma_1, 41)
    closed = symmetric_solution(t, rates).channels()
    exact = evolve(pure_state(0, 4), t, rates).channels()
    assert max(np.max(np.abs(closed[k] - exact[k])) for k in closed) < 1e-12
    late = symmetric_solution(np.linspace(0.0, 5.0, 41), rates).channels()
    assert np.max(np.abs(late["rho_gg"][1:] - 1.0)) < 1e-15
    assert max(np.max(np.abs(late[k][1:])) for k in late if k not in ("t", "rho_gg")) < 1e-15
    with pytest.raises(ValueError, match="^the closed form overflows at these rates$"), \
            np.errstate(over="ignore", invalid="ignore"):
        symmetric_solution(np.linspace(0.0, 1e6, 41), _tuned_rates(1.0, g=1e153))


@pytest.mark.parametrize("g", [1e12, 1e16, 1e30])
def test_symmetric_solution_holds_over_long_windows_at_large_couplings(g):
    # at full interference the far eigenvalue lies O(1) below 0 while gamma is O(G^2), so
    # rounding of 2 sqrt(-f^2) against 2 gamma could put it above 0, and its exponential
    # overflowed over a long window; the atom has decayed long before t = 1e5
    for omega in (0.5, 3.0):
        late = symmetric_solution(np.linspace(0.0, 1e6, 11), _tuned_rates(omega, g)).channels()
        assert np.max(np.abs(late["rho_gg"][1:] - 1.0)) < 1e-14, omega
        assert max(np.max(np.abs(late[k][1:])) for k in late if k not in ("t", "rho_gg")) < 1e-14


def _block(couplings, omega=1.0, **cavity_changes):
    """(couplings, levels, cavity) of the midpoint layout at splitting omega, cavity changed."""
    levels, cavity = midpoint_levels(omega + 1.0, omega, omega)
    return CouplingSet(*couplings), levels, dataclasses.replace(cavity, **cavity_changes)


def _benchmark_style_blocks(seed, n):
    # as the benchmark draws its explicit blocks: the midpoint layout, modes moved by up to
    # 0.3, kappa_b in [0.8, 1.25], couplings in [0.8, 1.1] and G_2e turned by 0.1 to 0.6 rad
    rng = np.random.default_rng(seed)
    for _ in range(n):
        omega = float(rng.uniform(0.0, 3.0))
        levels, cavity = midpoint_levels(omega + 1.0, omega, omega)
        moved = CavityParams(cavity.omega_a + rng.uniform(-0.3, 0.3),
                             cavity.omega_b + rng.uniform(-0.3, 0.3),
                             kappa_b=float(rng.uniform(0.8, 1.25)))
        g = rng.uniform(0.8, 1.1, 4)
        turned = g[1] * cmath.exp(1j * rng.uniform(0.1, 0.6))
        yield CouplingSet(g[0], turned, g[2], g[3]), levels, moved


_TURN = cmath.exp(0.7j)
_GRID_G = (0.0, 1e-5, 0.3, 1.0, 0.3 - 2j, 1e5, 1e140)
# "shortcut": alpha has the bits of g g* / (kappa + i Omega), which the couplings once
# decided; "closed form": explicit blocks whose couplings differ but whose rates have the
# tuned form, so the closed form must hold on them; None: refused
TUNED_RULE = {
    **{
        f"shortcut-Omega-{omega:g}": ("shortcut", [tuned_configuration(omega, g) for g in _GRID_G])
        for omega in (0.0, 1e-7, 0.5, 1.0, 3.0, 1e3, 1e15)
    },
    "phase-compensated": ("closed form", [_block((1.0, _TURN, 1.0, _TURN.conjugate()))]),
    "kappa-rescaled": ("closed form", [_block((1.0, 1.0, 2**0.5, 2**0.5), omega=0.0, kappa_b=2.0)]),
    "no-coupling": ("closed form", [_block((0.0, 0.0, 0.0, 0.0))]),
    "explicit": (None, [(CouplingSet(0.9, 1.1 + 0.2j, 0.8, 1.3 - 0.4j), LevelScheme(4.3, 1.9, 0.4),
                         CavityParams(3.1, 1.2, kappa_b=1.7))]),
    "unequal-couplings": (None, [_block((1.0, 1.0, 1.0, 0.5))]),
    "unequal-widths": (None, [_block((1.0,) * 4, kappa_b=2.0)]),
    "detuned-mode": (None, [_block((1.0,) * 4, omega_a=2.3)]),
    "benchmark-draws": (None, list(_benchmark_style_blocks(91, 20))),
}


@pytest.mark.filterwarnings("ignore:positivity violated")
@pytest.mark.parametrize("want,configurations", TUNED_RULE.values(), ids=TUNED_RULE.keys())
def test_tuned_alpha_reads_the_tuned_form_off_the_rates(want, configurations):
    for couplings, levels, cavity in configurations:
        rates = derive_rates(couplings, levels, cavity)
        alpha = tuned_alpha(rates)
        if want is None:
            assert alpha is None
            with pytest.raises(ValueError, match="^closed-form beats require the evenly tuned"):
                beat_frequency(rates)
        elif want == "shortcut":
            g = couplings.G_1e
            old = g * np.conj(g) / (cavity.kappa_a + 1j * levels.Omega)
            assert np.complex128(alpha).tobytes() == np.complex128(old).tobytes(), couplings
        else:
            t = np.linspace(0.0, 8.0, 401)
            for eta in (0.5, 1.0):
                closed = symmetric_solution(t, rates, eta=eta).channels()
                exact = evolve(pure_state(0, 4), t, rates, eta=eta).channels()
                assert max(np.max(np.abs(closed[k] - exact[k])) for k in closed) < 1e-12, eta


def _decimal_midpoint_blocks(scale, n=200):
    # evenly tuned as written: decimal levels mid + gap and mid +- Omega, modes at gap and mid,
    # mid near scale; the detunings are differences of those levels, rounded to their ulp
    rng = np.random.default_rng([0, int(scale)])
    for _ in range(n):
        mid, omega, g = (Decimal(f"{rng.uniform(a, b):.6f}") for a, b in
                         ((scale, 2 * scale), (0.0, 3.0), (0.5, 2.0)))
        gap = omega + Decimal(f"{rng.uniform(0.5, 3.0):.6f}")
        levels = LevelScheme(float(mid + gap), float(mid + omega), float(mid - omega))
        yield CouplingSet.uniform(float(g)), levels, CavityParams(float(gap), float(mid))


@pytest.mark.filterwarnings("ignore:positivity violated")
def test_tuned_rule_takes_explicit_blocks_whose_levels_round_their_detunings():
    # near 1e3 every block is accepted, the 2 included whose lower shifts differ by up to
    # 6e-12 of their own size (refused while the shifts were held to it); near 1e4 the
    # linewidths themselves differ by more than TUNED_TOL, and those blocks stay refused;
    # every accepted block keeps the closed form within 1e-12 of the exact engine
    accepted = {}
    for scale in (1e3, 1e4):
        accepted[scale] = 0
        for configuration in _decimal_midpoint_blocks(scale):
            rates = derive_rates(*configuration)
            if tuned_alpha(rates) is None:
                continue
            accepted[scale] += 1
            t = np.linspace(0.0, 8.0 / rates.Gamma_1, 161)
            closed = symmetric_solution(t, rates).channels()
            exact = evolve(pure_state(0, 4), t, rates).channels()
            assert max(np.max(np.abs(closed[k] - exact[k])) for k in closed) < 1e-12, configuration
    assert accepted == {1e3: 200, 1e4: 60}


def test_symmetric_solution_requires_tuned_rates():
    with pytest.raises(ValueError):
        symmetric_solution(np.linspace(0, 1, 5), _asymmetric_rates())


def test_symmetric_trace_is_exact():
    rates = _tuned_rates(1.0)
    t = np.linspace(0.0, 10.0, 101)
    series = symmetric_solution(t, rates)
    total = sum(series.population(k) for k in "e12g")
    assert np.max(np.abs(total - 1.0)) < 1e-12


@pytest.mark.parametrize("omega, eta", [(3.0, 0.7), (0.9, 0.45)])
def test_symmetric_solution_does_not_depend_on_the_grid_length(omega, eta):
    # every channel is computed pointwise, so a prefix of a grid gives the full grid's
    # bits at the common times, also across the 16384 samples where numpy starts to
    # reuse the buffers of large temporaries
    t = np.linspace(0.0, 8.0, 20001)
    full = symmetric_solution(t, _tuned_rates(omega), eta=eta).channels()
    for n in (1000, 16383, 16384, 20001):
        part = symmetric_solution(t[:n], _tuned_rates(omega), eta=eta).channels()
        for name, values in part.items():
            assert values.tobytes() == full[name][:n].tobytes(), (n, name)


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

@pytest.mark.filterwarnings("ignore:positivity violated")
def test_measure_beats_reads_resolved_beats_at_the_default_floor():
    # beats that turn through five half-periods are read without allow_tone_fit, to
    # rounding: from 101 samples, at eta = 0.157, and at Omega = 60, where 2f = 120 lies
    # above the Nyquist frequency 90 of every 7th sample and only the unstrided retry sees it
    cases = [
        (3.0, 1.0, 8.0, 1601, symmetric_solution),
        (1.468, 1.0, 8.0, 101, evolve),
        (1.934, 0.157, 4.36, 1601, symmetric_solution),
        (60.0, 1.0, 8.0, 1601, evolve),
    ]
    for omega, eta, t_end, samples, solve in cases:
        rates = _tuned_rates(omega)
        t = np.linspace(0.0, t_end, samples)
        if solve is evolve:
            series = evolve(pure_state(0, 4), t, rates, eta=eta)
        else:
            series = symmetric_solution(t, rates, eta=eta)
        got = measure_beats(series)
        assert got.method == "pole_fit", (omega, got.detail)
        assert got.two_f == pytest.approx(beat_frequency(rates, eta).two_f, rel=1e-8), omega


def test_slow_beats_need_the_lower_resolution_floor():
    rates = _tuned_rates(0.5)
    t = np.linspace(0.0, 20.0, 1601)
    series = symmetric_solution(t, rates)
    # 2f span = 4 rad: below the five half-periods of the default resolution floor
    assert measure_beats(series).two_f is None
    got = measure_beats(series, allow_tone_fit=True)
    assert got.method == "pole_fit"
    assert got.two_f == pytest.approx(0.2, rel=1e-8)


def test_measure_beats_reports_absence():
    rates = _tuned_rates(0.0)
    t = np.linspace(0.0, 8.0, 1601)
    series = symmetric_solution(t, rates)
    got = measure_beats(series, allow_tone_fit=True)
    assert got.two_f is None
    assert got.method == "none"
    assert got.detail
    # with G_1e = G_2e = 0 the intermediate levels are never fed: rho_11 is 0 throughout
    zero = derive_rates(CouplingSet(0.0, 0.0, 1.0, 1.0), *midpoint_levels(2.0, 1.0, 1.0))
    got = measure_beats(evolve(pure_state(0, 4), t, zero), allow_tone_fit=True)
    assert (got.two_f, got.method, got.detail) == (None, "none", "population is zero throughout")


def test_measure_beats_reads_only_its_channel(monkeypatch):
    # one channel is read, not all eight (abs_rho_12 is a full-length np.abs)
    series = symmetric_solution(np.linspace(0.0, 8.0, 1601), _tuned_rates(3.0))
    want = measure_beats(series)
    for name, values in series.channels().items():
        assert series.channel(name).tobytes() == values.tobytes()
    monkeypatch.setattr(TimeSeries, "channels", lambda self: pytest.fail("all channels built"))
    assert measure_beats(series) == want


def test_pole_fit_memory_stays_flat():
    # the pencil sees at most PENCIL_SAMPLES samples and the fit is summed on the full grid
    # one pole at a time, so the peak stays a few grid-sized arrays at the largest grid
    t = np.linspace(0.0, 40.0, SAMPLES_MAX)
    y = 0.5 - 0.5 * np.exp(-0.2 * t) + 0.1 * np.exp(-0.1 * t) * np.cos(0.6 * t)
    series = _rho_11_series(t, y)
    tracemalloc.start()
    try:
        got = measure_beats(series, allow_tone_fit=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got.two_f == pytest.approx(0.6, rel=1e-6)
    assert peak < 16 * 2**20


@pytest.mark.parametrize("samples", [1601, 20001, SAMPLES_MAX])
@pytest.mark.parametrize("pole", [-0.5 + 3j, 3.5j, -2.0, -0.05 + 40j, 0.3 + 1j])
def test_grid_powers_match_exponentials(samples, pole):
    # the doubling fill stands in for exp(pole * tau) on a uniform grid
    tau = np.linspace(0.0, 40.0, samples)
    got = _grid_powers(pole, linalg.uniform_step(tau), samples)
    want = np.exp(pole * tau)
    assert np.max(np.abs(got - want) / np.abs(want)) < 1e-12


@pytest.mark.parametrize("growth", [0.6, 0.8, 1.5])
@pytest.mark.parametrize("w", [0.0, 3.0])
def test_overflowing_pole_fit_fails(growth, w):
    # a pole fitted on the first samples that grows far past the grid: its powers leave
    # the data far behind or overflow, and the fit fails (finite, inf or nan times the floor)
    tau = np.linspace(0.0, 1000.0, 20001)
    y = np.zeros_like(tau)
    y[:PENCIL_SAMPLES] = np.exp(growth * tau[:PENCIL_SAMPLES]) * np.cos(w * tau[:PENCIL_SAMPLES])
    floor = 1e-5 * np.max(np.abs(y))
    got = _pole_fit(tau, y, slice(PENCIL_SAMPLES), 0.05, floor, -(-tau.size // PENCIL_SAMPLES))
    assert isinstance(got, str) and got.startswith("pole fit off by")


def _generator_eigenvalues(rates, eta=1.0):
    _, gen = hermitian_generator(lambda s: rotated_rhs(s, rates, eta), pure_state(0, 4))
    return np.linalg.eigvals(gen)


@pytest.mark.parametrize("omega,t_end", [(0.5, 20.0), (1.0, 12.0), (3.0, 8.0), (None, 12.0)])
@pytest.mark.filterwarnings("ignore:positivity violated")
def test_pencil_poles_are_generator_eigenvalues(omega, t_end):
    # rho_11 is a sum of exponentials exp(lambda t) over eigenvalues lambda of the rotated
    # generator (the rotation leaves populations alone), so the pencil finds exactly those,
    # and the measured 2f is the imaginary part of the one oscillating pair
    if omega is None:
        xcfg = parse_scenario(XCFG)
        configs = [
            (_asymmetric_rates(), 1.0),
            (derive_rates(xcfg.couplings, xcfg.levels, xcfg.cavity), xcfg.eta),
        ]
    else:
        configs = [(_tuned_rates(omega), 1.0)]
    t = np.linspace(0.0, t_end, 1601)
    for rates, eta in configs:
        series = evolve(pure_state(0, 4), t, rates, eta=eta)
        stride = -(-t.size // PENCIL_SAMPLES)
        poles = _pencil_poles(series.channels()["rho_11"][::stride], stride * (t[1] - t[0]))
        eig = _generator_eigenvalues(rates, eta)
        assert poles.size >= 4
        for lam in poles:
            assert np.min(np.abs(eig - lam)) < 1e-8, f"pole {lam} is no eigenvalue of {eig}"
        for lam in eig[np.abs(eig.imag) > 1e-6]:  # every oscillating mode reaches rho_11
            assert np.min(np.abs(poles - lam)) < 1e-8
        two_f = np.max(eig.imag)
        if omega is not None:
            assert two_f == pytest.approx(beat_frequency(rates).two_f, rel=1e-8)
        got = measure_beats(series, allow_tone_fit=True)
        assert got.two_f == pytest.approx(two_f, rel=1e-8)


@pytest.mark.parametrize("omega", [0.5, 1.0, 3.0])
def test_no_pole_without_interference(omega):
    # at eta = 0 rho_11 has two real poles: the fit reports none, and with the same words
    # whichever rounding produced the samples
    rates = _tuned_rates(omega)
    t = np.linspace(0.0, 20.0, 1601)
    runs = [symmetric_solution(t, rates, eta=0.0)]
    runs += [evolve(pure_state(0, 4), t, rates, eta=0.0, form=form) for form in ("operator", "element")]
    for series in runs:
        got = measure_beats(series, allow_tone_fit=True)
        assert (got.two_f, got.method, got.detail) == (None, "none", "no oscillating pole above 0.125")


def test_pole_fit_ignores_poles_below_the_resolution_floor():
    # a beat slower than 2.5/span turns by less than 2.5 rad over the window: not claimed
    t = np.linspace(0.0, 20.0, 1601)
    for w in (0.05, 0.12, 0.2):
        y = 0.3 - 0.3 * np.exp(-0.2 * t) + 0.1 * np.exp(-0.1 * t) * np.cos(w * t + 0.3)
        got = measure_beats(_rho_11_series(t, y), allow_tone_fit=True)
        if w < 0.125:
            assert (got.two_f, got.detail) == (None, "no oscillating pole above 0.125")
        else:
            assert got.two_f == pytest.approx(w, rel=1e-9)


@pytest.mark.filterwarnings("ignore:positivity violated")
def test_pole_fit_needs_a_uniform_grid(monkeypatch):
    rates = _tuned_rates(0.5)
    t = np.linspace(0.0, 20.0, 1601)
    t[1:-1] += 1e-9 * np.sin(np.arange(1, t.size - 1))  # off the line by 5e-11 of the span
    got = measure_beats(symmetric_solution(t, rates), allow_tone_fit=True)
    assert (got.two_f, got.method, got.detail) == (None, "none", "grid not uniform to 1e-12, no pole fit")
    # propagate_generator shares the rule: one step matrix per step on this grid
    steps = []
    step_matrix = linalg._step_matrix
    monkeypatch.setattr(linalg, "_step_matrix", lambda gen, h: steps.append(h) or step_matrix(gen, h))
    evolve(pure_state(0, 4), t, rates)
    assert len(steps) == t.size - 1
    # a linspace grid of the largest size is uniform though its steps differ by more than 1e-12
    t = np.linspace(0.0, 40.0, SAMPLES_MAX)
    assert np.ptp(np.diff(t)) > 1e-12 * (t[1] - t[0])
    y = 0.5 - 0.5 * np.exp(-0.2 * t) + 0.1 * np.exp(-0.1 * t) * np.cos(0.6 * t)
    got = measure_beats(_rho_11_series(t, y), allow_tone_fit=True)
    assert got.two_f == pytest.approx(0.6, rel=1e-12)


def _noisy_near_resonance():
    # rho_11 just off resonance plus a fixed perturbation at 1e-9 of its peak
    t = np.linspace(0.0, 14.28, 1601)
    y = symmetric_solution(t, _tuned_rates(1.594e-4)).population("1")
    return _rho_11_series(t, y + 1e-9 * np.max(y) * np.random.default_rng(0).standard_normal(t.size))


def test_no_beat_from_rounding_noise_near_resonance():
    # the exact samples hold no beat; with noise near 1e-9 of the signal the pencil returns
    # dozens of noise poles, and their sum does not reproduce the samples
    rates = _tuned_rates(1.594e-4)
    assert not beat_frequency(rates).beats
    got = measure_beats(symmetric_solution(np.linspace(0.0, 14.28, 1601), rates), allow_tone_fit=True)
    assert (got.two_f, got.detail) == (None, "no oscillating pole above 0.175")
    got = measure_beats(_noisy_near_resonance(), allow_tone_fit=True)
    assert got.two_f is None
    assert got.detail.startswith("pole fit off by ")


@pytest.mark.filterwarnings("ignore:positivity violated")
@pytest.mark.parametrize("omega", [0.5, 1.0, 3.0])
def test_no_beat_read_from_rounding_noise(omega):
    # at eta = 0 rho_11 carries no beat, only rounding noise near 1e-15 of a population of 0.25
    series = evolve(pure_state(0, 4), np.linspace(0.0, 8.0, 1601), _tuned_rates(omega), eta=0.0)
    assert measure_beats(series).detail == "no oscillating pole above 1.96"


def test_beats_need_an_amplitude_above_the_noise_floor():
    # a regular tone at 4e-15 of the population is rounding noise, not beats
    t = np.linspace(0.0, 8.0, 1601)
    y = 0.25 * (1.0 - np.exp(-t)) + 1e-15 * np.cos(5.0 * t)
    assert measure_beats(_rho_11_series(t, y)).detail == "no oscillating pole above 1.96"
    y += 1e-5 * np.cos(5.0 * t)  # 4e-5 of the population, above the floor
    got = measure_beats(_rho_11_series(t, y))
    assert got.method == "pole_fit"
    assert got.two_f == pytest.approx(5.0, rel=1e-8)


def test_composite_preset_reports_no_wrong_beats(tmp_path):
    # at g = 1 the full model has several oscillating poles and none of them is the reduced
    # 2f; each run reports none and names the poles
    assert main(["preset", "fig3", "--mode", "composite", "--out-dir", str(tmp_path)]) == 0
    runs = json.loads((tmp_path / "fig3.summary.json").read_text())["runs"]
    assert len(runs) == 3
    for run in runs:
        assert (run["two_f_measured"], run["measure_method"]) == (None, "none"), run["name"]
        assert re.fullmatch(r"[3-9] oscillating poles, at 2f=[\d.]+(, [\d.]+)+", run["measure_detail"])


# --- pencil sizes ------------------------------------------------------------

def _spy_pencils(monkeypatch):
    # (samples, step, saturates, saturated) of every _pencil_poles call
    calls = []
    pencil = analytic._pencil_poles

    def spy(y, dt, saturates):
        poles = pencil(y, dt, saturates)
        calls.append((y.size, dt, saturates, poles is None))
        return poles

    monkeypatch.setattr(analytic, "_pencil_poles", spy)
    return calls


def _measure_256_only(monkeypatch, series, **kwargs):
    # a first pencil as large as the second is never tried: the path without it
    with monkeypatch.context() as m:
        m.setattr(analytic, "PENCIL_FIRST", PENCIL_SAMPLES)
        return measure_beats(series, **kwargs)


def _beat_series(w, samples=1601):
    t = np.linspace(0.0, 8.0, samples)
    return _rho_11_series(t, 0.3 - 0.3 * np.exp(-0.5 * t) + 0.05 * np.exp(-0.2 * t) * np.cos(w * t + 0.3))


def test_short_grids_make_one_pencil_call(monkeypatch):
    # at most PENCIL_FIRST samples both pencils would take every sample, so only one runs;
    # at 65 the first takes every other sample (33, too few columns for 4 poles: saturated)
    calls = _spy_pencils(monkeypatch)
    for samples, want in [(8, [(8, False)]), (64, [(64, False)]), (65, [(33, True), (65, False)])]:
        calls.clear()
        series = _beat_series(10.0, samples)
        got = measure_beats(series, allow_tone_fit=True)
        assert [(n, saturated) for n, _, _, saturated in calls] == want, samples
        assert got == _measure_256_only(monkeypatch, series, allow_tone_fit=True)


@pytest.mark.parametrize("w", [10.0, 30.0, 40.0, 80.0])
def test_beats_above_the_first_pencils_nyquist_go_to_the_second(monkeypatch, w):
    # every 26th of 1601 samples over t = 8 puts the first pencil's Nyquist frequency at
    # 24.2: a faster beat comes back aliased, misses the whole grid and is read by the
    # 256 pencil (every 7th sample, Nyquist 89.8)
    calls = _spy_pencils(monkeypatch)
    got = measure_beats(_beat_series(w), allow_tone_fit=True)
    assert got.two_f == pytest.approx(w, rel=1e-9)
    assert [(n, saturated) for n, _, _, saturated in calls] == (
        [(62, False)] if w < 24 else [(62, False), (229, False)])


def test_saturated_signals_keep_the_256_result(monkeypatch, tmp_path):
    # the full model's rho_11 saturates the first pencil, so its summaries are the 256
    # path's to the last digit; so is a noisy fit just off resonance
    calls = _spy_pencils(monkeypatch)
    assert main(["preset", "fig3", "--mode", "composite", "--out-dir", str(tmp_path / "first")]) == 0
    assert [saturated for n, _, _, saturated in calls if n == 62] == [True] * 3
    with monkeypatch.context() as m:
        m.setattr(analytic, "PENCIL_FIRST", PENCIL_SAMPLES)
        assert main(["preset", "fig3", "--mode", "composite", "--out-dir", str(tmp_path / "only")]) == 0
    summaries = [json.loads((tmp_path / d / "fig3.summary.json").read_text()) for d in ("first", "only")]
    assert summaries[0] == summaries[1]
    series = _noisy_near_resonance()
    want = _measure_256_only(monkeypatch, series, allow_tone_fit=True)
    assert measure_beats(series, allow_tone_fit=True) == want


@pytest.mark.filterwarnings("ignore:positivity violated")
def test_measured_beats_are_generator_eigenvalues(monkeypatch):
    # whether a beat is read is the 256 path's answer, and every 2f read is the imaginary
    # part of a generator eigenvalue
    xcfg = parse_scenario(XCFG)
    runs = [
        (derive_rates(xcfg.couplings, xcfg.levels, xcfg.cavity), xcfg.eta, 12.0),
        (_asymmetric_rates(), 1.0, 12.0),
    ]
    for omega in (0.05, 0.2, 0.7, 1.0, 1.25, 2.0, 3.0, 4.0):
        for eta in (0.3, 0.6, 1.0):
            rates = _tuned_rates(omega)
            pred = beat_frequency(rates, eta)
            runs.append((rates, eta, max(8.0, 3.5 / pred.two_f) if pred.beats else 8.0))
    measured = 0
    for rates, eta, t_end in runs:
        series = evolve(pure_state(0, 4), np.linspace(0.0, t_end, 1601), rates, eta=eta)
        got = measure_beats(series, allow_tone_fit=True)
        only = _measure_256_only(monkeypatch, series, allow_tone_fit=True)
        assert (got.two_f is None) == (only.two_f is None)
        if got.two_f is not None:
            measured += 1
            eig = _generator_eigenvalues(rates, eta)
            assert np.min(np.abs(eig.imag - got.two_f)) <= 1e-9 * got.two_f, (rates, eta)
    assert measured >= 20


@pytest.mark.filterwarnings("ignore:positivity violated")
def test_first_pencil_sizes_its_poles_at_256_spacings():
    # sizes are taken three 256-pencil spacings in whichever pencil found the poles, so the
    # 2 size >= floor filter reads the same sizes on both
    t = np.linspace(0.0, 8.0, 1601)
    runs = [
        evolve(pure_state(0, 4), t, _tuned_rates(1.0), eta=0.8),
        symmetric_solution(np.linspace(0.0, 8.0, 20001), _tuned_rates(3.0), eta=0.7),
    ]
    for series in runs:
        tau = series.times - series.times[0]
        y = series.channel("rho_11")
        dt = linalg.uniform_step(tau)
        floor = analytic.NOISE_FLOOR * np.max(np.abs(y))
        stride = -(-tau.size // PENCIL_SAMPLES)
        first = -(-tau.size // analytic.PENCIL_FIRST)
        small = _pole_fit(tau, y, slice(None, None, first), dt, floor, stride)
        large = _pole_fit(tau, y, slice(None, None, stride), dt, floor, stride)
        assert not isinstance(small, str) and not isinstance(large, str)
        order = [np.lexsort((poles.real, poles.imag)) for poles, _ in (small, large)]
        np.testing.assert_allclose(small[0][order[0]], large[0][order[1]], rtol=1e-9)
        np.testing.assert_allclose(small[1][order[0]], large[1][order[1]], rtol=1e-9)


def test_beats_above_the_strided_nyquist_go_to_the_unstrided_set(monkeypatch):
    # at Omega = 40 over t = 12 the beat (2f = 80.05) lies above both strided Nyquist
    # frequencies (16.1 and 59.8), so both sets fail the whole-grid check and the first
    # 256 samples, unstrided, read it; each set's step and saturates come from its spacing
    t = np.linspace(0.0, 12.0, 1601)
    rates = _tuned_rates(40.0)
    series = symmetric_solution(t, rates)
    dt = linalg.uniform_step(t)
    calls = _spy_pencils(monkeypatch)
    got = measure_beats(series, allow_tone_fit=True)
    assert [c[:3] for c in calls] == [(62, 26 * dt, True), (229, 7 * dt, False), (256, dt, False)]
    assert got.two_f == pytest.approx(beat_frequency(rates).two_f, rel=1e-12)
    # the unstrided set sizes its poles one sample apart, not seven
    y = series.channel("rho_11")
    floor = analytic.NOISE_FLOOR * np.max(np.abs(y))
    poles, sizes = _pole_fit(t, y, slice(PENCIL_SAMPLES), dt, floor, 7)
    amps = np.linalg.lstsq(np.exp(np.outer(t[:PENCIL_SAMPLES], poles)), y[:PENCIL_SAMPLES], rcond=None)[0]
    np.testing.assert_allclose(sizes, np.abs(amps * np.exp(3 * poles * dt)), rtol=1e-12)
    assert np.max(np.abs(sizes / np.abs(amps * np.exp(21 * poles * dt)) - 1)) > 1e-4
