import numpy as np
import pytest

from cavity_beats.integrator import IntegratorConfig, integrate
from cavity_beats.linalg import DriftError, hermitian_generator, pure_state
from cavity_beats.model import CavityParams, CouplingSet, LevelScheme, derive_rates, midpoint_levels
from cavity_beats.reduced import (
    RHS_FORMS,
    evolve,
    rhs_element_form,
    rhs_operator_form,
    rotated_rhs,
)


def _tuned_rates(omega, g=1.0):
    levels, cavity = midpoint_levels(omega + 1.0, omega, omega)
    return derive_rates(CouplingSet.uniform(g), levels, cavity)


def _asymmetric_rates():
    levels = LevelScheme(4.3, 1.9, 0.4)
    cavity = CavityParams(3.1, 1.2, kappa_a=1.0, kappa_b=1.7)
    couplings = CouplingSet(0.9, 1.1 + 0.2j, 0.8, 1.3 - 0.4j)
    return derive_rates(couplings, levels, cavity)


def _random_hermitian(rng):
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    return (m + m.conj().T) / 2


def test_coherence_source_from_excited_state():
    rates = _tuned_rates(1.0)
    rho = pure_state(0, 4)
    out = rhs_operator_form(0.0, rho, rates)
    # the cross coefficient feeds the intermediate coherence directly
    assert out[1, 2] == pytest.approx(1.0 - 1.0j, abs=1e-14)
    assert out[2, 1] == pytest.approx(1.0 + 1.0j, abs=1e-14)
    # top level drains at 2(Gamma_1+Gamma_2), both branches fed at 2 Gamma_j
    assert out[0, 0] == pytest.approx(-2.0, abs=1e-14)
    assert out[1, 1] == pytest.approx(1.0, abs=1e-14)
    assert out[2, 2] == pytest.approx(1.0, abs=1e-14)
    assert out[3, 3] == pytest.approx(0.0, abs=1e-14)


def test_operator_and_element_forms_agree():
    rng = np.random.default_rng(29)
    configs = [_tuned_rates(1.0), _tuned_rates(0.4), _asymmetric_rates()]
    worst = 0.0
    for _ in range(300):
        rates = configs[int(rng.integers(len(configs)))]
        rho = _random_hermitian(rng)
        t = float(rng.uniform(0.0, 5.0))
        eta = float(rng.choice([0.0, 0.37, 1.0]))
        a = rhs_operator_form(t, rho, rates, eta)
        b = rhs_element_form(t, rho, rates, eta)
        worst = max(worst, float(np.max(np.abs(a - b))))
    assert worst < 1e-12, f"forms disagree by {worst:.3e}"


def test_rhs_is_traceless():
    rng = np.random.default_rng(31)
    for rates in (_tuned_rates(1.0), _asymmetric_rates()):
        for _ in range(50):
            rho = _random_hermitian(rng)
            out = rhs_operator_form(float(rng.uniform(0, 4)), rho, rates)
            assert abs(out.trace()) < 1e-13


def test_rhs_forms_registry():
    assert set(RHS_FORMS) == {"operator", "element"}
    with pytest.raises(ValueError, match="unknown rhs form"):
        evolve(pure_state(0, 4), np.linspace(0, 1, 5), _tuned_rates(1.0), form="fancy")


@pytest.mark.filterwarnings("ignore:positivity violated")
def test_evolve_reports_tiny_drift():
    rates = _tuned_rates(1.0)
    series = evolve(pure_state(0, 4), np.linspace(0.0, 6.0, 61), rates)
    assert series.max_drift_correction < 1e-9
    for i in (0, 30, 60):
        rho = series.states[i]
        assert np.max(np.abs(rho - rho.conj().T)) == 0.0
        assert abs(rho.trace() - 1.0) < 1e-14


@pytest.mark.filterwarnings("ignore:positivity violated")
def test_populations_relax_to_ground():
    rates = _tuned_rates(1.0)
    series = evolve(pure_state(0, 4), np.linspace(0.0, 40.0, 81), rates)
    assert series.population("e")[-1] < 1e-10
    assert series.population("g")[-1] == pytest.approx(1.0, abs=1e-6)


def test_eta_zero_coherence_stays_identically_zero():
    rates = _tuned_rates(1.0)
    series = evolve(pure_state(0, 4), np.linspace(0.0, 6.0, 121), rates, eta=0.0)
    # every term feeding rho_12 carries eta, so the zero is exact, not approximate
    assert np.max(np.abs(series.coherence("1", "2"))) == 0.0


def test_eta_interpolates_cross_terms():
    rates = _tuned_rates(1.0)
    rho = pure_state(0, 4)
    full = rhs_operator_form(0.0, rho, rates, eta=1.0)
    half = rhs_operator_form(0.0, rho, rates, eta=0.5)
    none = rhs_operator_form(0.0, rho, rates, eta=0.0)
    assert half[1, 2] == pytest.approx(0.5 * full[1, 2], abs=1e-14)
    assert none[1, 2] == 0.0
    # diagonal drain terms carry no eta
    assert half[0, 0] == full[0, 0] == none[0, 0]


def test_drift_error_carries_sample_position():
    rates = _tuned_rates(1.0)
    with pytest.raises(DriftError, match=r"sample \d+ \(t="):
        evolve(pure_state(0, 4), np.linspace(0.0, 6.0, 61), rates, drift_tol=0.0)


def test_positivity_violation_is_flagged():
    # at G = kappa the reduced equation transiently leaves the state space;
    # that must surface as a warning plus diagnostics, never silently, and
    # the batched check must report what a per-sample loop finds
    rates = _tuned_rates(1.0)
    t = np.linspace(0.0, 12.0, 1201)
    with pytest.warns(UserWarning, match="positivity violated") as record:
        series = evolve(pure_state(0, 4), t, rates)
    assert series.diagnostics
    assert "negative eigenvalue" in series.diagnostics[0]
    lowest = [(float(np.linalg.eigvalsh(rho)[0]), ti) for rho, ti in zip(series.states, t)]
    neg = [(lo, ti) for lo, ti in lowest if lo < -1e-6]
    assert len(neg) > 20
    want = [f"negative eigenvalue {lo:.3e} at t={ti:.6g}" for lo, ti in neg[:20]]
    assert series.diagnostics == want + [f"... {len(neg)} samples below -1e-06 in total"]
    worst = min(lo for lo, _ in neg)
    assert str(record[0].message) == (
        f"positivity violated at {len(neg)} of {t.size} samples (worst eigenvalue {worst:.3e})"
    )


def test_positivity_floor_is_adjustable():
    rates = _tuned_rates(1.0)
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        series = evolve(
            pure_state(0, 4), np.linspace(0.0, 12.0, 241), rates, positivity_floor=-1.0
        )
    assert not series.diagnostics


def test_evolve_validates_initial_state():
    rates = _tuned_rates(1.0)
    with pytest.raises(ValueError):
        evolve(np.diag([0.7, 0.7, 0.0, 0.0]).astype(complex), np.linspace(0, 1, 3), rates)


@pytest.mark.filterwarnings("ignore:positivity violated")
def test_tight_config_is_accepted():
    # the exact propagation against the Runge-Kutta reference at a tight
    # tolerance: both statements of the rhs at every eta on a uniform grid,
    # and a generic configuration on a non-uniform grid that starts after 0
    cfg = IntegratorConfig(rel_tol=1e-11, abs_tol=1e-13)
    uniform = np.linspace(0.0, 6.0, 61)
    cases = [(_tuned_rates(1.0), eta, uniform) for eta in (0.0, 0.5, 1.0)]
    cases.append((_asymmetric_rates(), 1.0, np.array([0.2, 0.35, 1.0, 2.2, 4.0, 6.5])))
    rho0 = pure_state(0, 4)
    worst = 0.0
    for rates, eta, t in cases:
        for form, rhs in RHS_FORMS.items():
            series = evolve(rho0, t, rates, eta=eta, form=form)
            assert series.max_drift_correction < 1e-11
            ref = integrate(
                lambda s, y: rhs(s, y.reshape(4, 4), rates, eta).ravel(), rho0.ravel(), t, cfg
            )
            worst = max(worst, float(np.max(np.abs(series.states.reshape(-1, 16) - ref))))
    assert worst < 1e-9, f"exact and Runge-Kutta evolution differ by {worst:.3e}"


@pytest.mark.parametrize(
    "omega,eta,stationary",
    [
        (0.5, 1.0, 1),
        (1.0, 1.0, 1),
        (3.0, 1.0, 1),
        (0.0, 0.5, 1),
        # exact resonance at full interference: the antisymmetric
        # superposition of the intermediate levels is dark to the ground
        # transition, so its populations and coherences never decay
        (0.0, 1.0, 4),
        (None, 1.0, 1),  # the asymmetric configuration
    ],
)
def test_rotated_generator_spectrum(omega, eta, stationary):
    # the zero eigenvalues are the stationary states; every other mode decays
    rates = _asymmetric_rates() if omega is None else _tuned_rates(omega)
    full_support = _random_hermitian(np.random.default_rng(5))
    for form in RHS_FORMS:
        keep, gen = hermitian_generator(lambda s: rotated_rhs(s, rates, eta, form), full_support)
        assert keep.size == 16
        lam = np.linalg.eigvals(gen)
        zero = np.abs(lam) < 1e-12
        assert zero.sum() == stationary, f"{form}: eigenvalues {np.sort_complex(lam)}"
        assert np.max(lam[~zero].real) < 0
