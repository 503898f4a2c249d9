import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cavity_beats import linalg
from cavity_beats.integrator import IntegratorConfig, integrate
from cavity_beats.linalg import (
    DriftError,
    hermitian_generator,
    hermitian_states,
    lowest_eigenvalues,
    pure_state,
)
from cavity_beats.model import (
    CavityParams,
    CouplingSet,
    LevelScheme,
    derive_rates,
    midpoint_levels,
    tuned_configuration,
)
from cavity_beats.reduced import (
    RHS_FORMS,
    evolve,
    rhs_element_form,
    rhs_operator_form,
    rotated_rhs,
)


def _tuned_rates(omega, g=1.0):
    return derive_rates(*tuned_configuration(omega, g))


def _asymmetric_rates():
    levels = LevelScheme(4.3, 1.9, 0.4)
    cavity = CavityParams(3.1, 1.2, kappa_a=1.0, kappa_b=1.7)
    couplings = CouplingSet(0.9, 1.1 + 0.2j, 0.8, 1.3 - 0.4j)
    return derive_rates(couplings, levels, cavity)


def _states(series):
    # the (n, 4, 4) stack of the series' coordinates
    return hermitian_states(series.keep, series.x, 4)


def _random_hermitian(rng):
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    return (m + m.conj().T) / 2


def _random_hermitian_stack(rng, k):
    m = rng.standard_normal((k, 4, 4)) + 1j * rng.standard_normal((k, 4, 4))
    return (m + m.conj().swapaxes(1, 2)) / 2


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
    # the same comparison on one stack of 300 matrices
    stack = _random_hermitian_stack(rng, 300)
    for rates in configs:
        for eta in (0.0, 0.37, 1.0):
            t = float(rng.uniform(0.0, 5.0))
            a = rhs_operator_form(t, stack, rates, eta)
            b = rhs_element_form(t, stack, rates, eta)
            worst = max(worst, float(np.max(np.abs(a - b))))
    assert worst < 1e-12, f"forms disagree by {worst:.3e}"


def test_rhs_on_a_stack_matches_a_per_matrix_loop():
    # every rhs takes a stack (k, 4, 4) in one call and must give, byte for byte, what it
    # gives one matrix at a time
    rng = np.random.default_rng(43)
    stack = _random_hermitian_stack(rng, 40)
    for rates in (_tuned_rates(1.0), _asymmetric_rates()):
        for eta in (0.0, 0.37, 1.0):
            t = float(rng.uniform(0.0, 5.0))
            for form, rhs in RHS_FORMS.items():
                got = rhs(t, stack, rates, eta)
                want = np.array([rhs(t, m, rates, eta) for m in stack])
                assert got.shape == stack.shape and got.tobytes() == want.tobytes(), form
                got = rotated_rhs(stack, rates, eta, form)
                want = np.array([rotated_rhs(m, rates, eta, form) for m in stack])
                assert got.shape == stack.shape and got.tobytes() == want.tobytes(), form


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
        rho = _states(series)[i]
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


def test_drift_error_carries_sample_position(monkeypatch):
    monkeypatch.setattr(linalg, "DRIFT_TOL", 0.0)
    rates = _tuned_rates(1.0)
    with pytest.raises(DriftError, match=r"sample \d+ \(t="):
        evolve(pure_state(0, 4), np.linspace(0.0, 6.0, 61), rates)


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
    lowest = [(float(np.linalg.eigvalsh(rho)[0]), ti) for rho, ti in zip(_states(series), t)]
    neg = [(lo, ti) for lo, ti in lowest if lo < -1e-6]
    assert len(neg) > 20
    want = [f"negative eigenvalue {lo:.3e} at t={ti:.6g}" for lo, ti in neg[:20]]
    assert series.diagnostics == want + [f"... {len(neg)} samples below -1e-06 in total"]
    worst = min(lo for lo, _ in neg)
    assert str(record[0].message) == (
        f"positivity violated at {len(neg)} of {t.size} samples (worst eigenvalue {worst:.3e})"
    )


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
            worst = max(worst, float(np.max(np.abs(_states(series).reshape(-1, 16) - ref))))
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


@st.composite
def _explicit_configs(draw):
    # drawn as the benchmark draws its non-tuned runs: the midpoint layout at a splitting
    # Omega, detuned modes, unequal linewidths and couplings, a complex G_2e
    omega = draw(st.floats(0.6, 4.0))
    levels, cavity = midpoint_levels(omega + 1.0, omega, omega)
    u = lambda a, b: draw(st.floats(a, b))  # noqa: E731
    cavity = CavityParams(
        cavity.omega_a + u(-0.3, 0.3), cavity.omega_b + u(-0.3, 0.3), 1.0, u(0.8, 1.25)
    )
    g2e = u(0.8, 1.1) * np.exp(1j * u(0.1, 0.6))
    couplings = CouplingSet(u(0.8, 1.1), g2e, u(0.8, 1.1), u(0.8, 1.1))
    return derive_rates(couplings, levels, cavity), draw(st.floats(0.0, 1.0))


# the excited atom, and a state with an e-1 coherence, which the cross terms carry on to
# e-2: its {e, 1, 2} block is 3 x 3 and takes the eigvalsh fallback of lowest_eigenvalues
_E1_COHERENCE = np.array(
    [[0.6, 0.2 + 0.1j, 0, 0], [0.2 - 0.1j, 0.4, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
)
# the real and the imaginary unit of the e-1 coherence, the matrices that reach e-2
_E1_BASIS = np.array([[[0, 1, 0, 0], [1, 0, 0, 0], [0] * 4, [0] * 4],
                      [[0, 1j, 0, 0], [-1j, 0, 0, 0], [0] * 4, [0] * 4]])
_SUPPORTS = [
    (pure_state(0, 4), [[0], [1, 2], [3]]),
    (_E1_COHERENCE, [[0, 1, 2], [3]]),
]


@pytest.mark.filterwarnings("ignore:positivity violated")
@settings(max_examples=30, deadline=None)
@given(config=_explicit_configs())
def test_evolution_keeps_hermiticity_trace_and_support(config):
    rates, eta = config
    t = np.linspace(0.0, 12.0, 401)
    for rho0, blocks in _SUPPORTS:
        series = evolve(rho0, t, rates, eta=eta)
        states = _states(series)
        assert np.array_equal(states, states.conj().transpose(0, 2, 1))
        inside = np.zeros((4, 4), dtype=bool)
        for block in blocks:
            inside[np.ix_(block, block)] = True
        assert np.all(states[:, ~inside] == 0.0)
        assert series.max_drift_correction <= 1e-12
        keep, _ = hermitian_generator(lambda s: rotated_rhs(s, rates, eta), rho0)
        lowest = lowest_eigenvalues(keep, series.x, 4)
        assert np.max(np.abs(lowest - np.linalg.eigvalsh(states)[:, 0])) <= 1e-14
    # where the rhs carries the e-1 coherence on to e-2, the 3 x 3 block is really there
    # (at eta = 5e-324, say, eta times a cross coefficient underflows to zero, and it is not)
    if np.any(rotated_rhs(_E1_BASIS, rates, eta)[:, 0, 2] != 0.0):
        assert hermitian_states(keep, np.ones((1, keep.size)), 4)[0, 0, 2] != 0.0
