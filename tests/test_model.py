import numpy as np
import pytest

from cavity_beats.model import (
    CavityParams,
    CouplingSet,
    LevelScheme,
    derive_rates,
    detunings,
    interference_condition,
    midpoint_levels,
    preselected_product,
    sigma_dipoles,
    summed_product,
    transverse_basis,
    tuned_configuration,
)

XHAT = np.array([1.0, 0.0, 0.0])
YHAT = np.array([0.0, 1.0, 0.0])
ZHAT = np.array([0.0, 0.0, 1.0])


def test_level_scheme_ordering():
    levels = LevelScheme(3.0, 2.0, 0.0)
    assert levels.Omega == 1.0
    assert levels.omega_e1 == 1.0 and levels.omega_e2 == 3.0
    # swapping the intermediate labels is legal and flips the splitting sign
    assert LevelScheme(3.0, 0.0, 2.0).Omega == -1.0
    with pytest.raises(ValueError):
        LevelScheme(1.0, 2.0, 0.0)  # top below an intermediate


def test_cavity_params_validation():
    with pytest.raises(ValueError):
        CavityParams(2.0, 1.0, kappa_a=0.0)
    with pytest.raises(ValueError):
        CavityParams(2.0, 1.0, kappa_b=-1.0)


def test_midpoint_levels_detunings():
    for omega in (0.0, 0.5, 1.0, 3.0):
        levels, cavity = midpoint_levels(omega + 1.0, omega, omega)
        d1, d2, d1p, d2p = detunings(levels, cavity)
        assert d1 == -omega and d2 == omega
        assert d1p == omega and d2p == -omega


def test_sigma_dipoles_are_orthogonal_circular():
    d_g1, d_g2 = sigma_dipoles(2.0)
    assert np.array_equal(d_g1, -2.0 * np.array([1.0, 1.0j, 0.0]))
    assert np.array_equal(d_g2, 2.0 * np.array([1.0, -1.0j, 0.0]))
    assert np.sum(d_g1 * np.conj(d_g2)) == 0.0
    assert not interference_condition(d_g1, d_g2)
    with pytest.raises(ValueError):
        sigma_dipoles(0.0)


def test_preselected_product_revives_orthogonal_dipoles():
    d_g1, d_g2 = sigma_dipoles(1.0)
    # along x both projections are real: product is -|d|^2, exactly
    assert preselected_product(d_g1, d_g2, XHAT) == -1.0
    # along y the i factors flip the sign
    assert preselected_product(d_g1, d_g2, YHAT) == 1.0


def test_summed_product_vanishes_for_sigma_pair():
    d_g1, d_g2 = sigma_dipoles(1.0)
    assert abs(summed_product(d_g1, d_g2, ZHAT)) < 1e-12
    # parallel dipoles do interfere without selection
    assert abs(summed_product(XHAT, XHAT, ZHAT) - 1.0) < 1e-12
    assert interference_condition(XHAT, XHAT)


def test_summed_product_is_projector_contraction():
    # sum over any transverse basis equals d1 . P . d2* with P = 1 - kk^T
    rng = np.random.default_rng(21)
    for _ in range(25):
        d1 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        d2 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        k = rng.standard_normal(3)
        k /= np.linalg.norm(k)
        proj = np.eye(3) - np.outer(k, k)
        want = complex(d1 @ proj @ np.conj(d2))
        got = summed_product(d1, d2, k)
        assert abs(got - want) < 1e-12


def test_transverse_basis_orthonormal_right_handed():
    e1, e2 = transverse_basis(ZHAT)
    assert np.allclose(e1, XHAT) and np.allclose(e2, YHAT)
    rng = np.random.default_rng(5)
    for _ in range(25):
        k = rng.standard_normal(3)
        k /= np.linalg.norm(k)
        e1, e2 = transverse_basis(k)
        assert abs(np.dot(e1, e1) - 1.0) < 1e-12
        assert abs(np.dot(e2, e2) - 1.0) < 1e-12
        assert abs(np.dot(e1, e2)) < 1e-12
        assert abs(np.dot(e1, k)) < 1e-12
        assert abs(np.dot(e2, k)) < 1e-12
        assert np.allclose(np.cross(e1, e2), k)
    with pytest.raises(ValueError):
        transverse_basis(np.array([1.0, 1.0, 0.0]))  # not unit


def test_transverse_basis_deterministic_on_ties():
    k = np.ones(3) / np.sqrt(3.0)
    e1, e2 = transverse_basis(k)
    assert np.allclose(e1, np.array([2.0, -1.0, -1.0]) / np.sqrt(6.0))
    a1, a2 = transverse_basis(k)
    assert np.array_equal(e1, a1) and np.array_equal(e2, a2)


def _tuned_rates(omega, g=1.0):
    return derive_rates(*tuned_configuration(omega, g))


@pytest.mark.parametrize("omega", [0.0, 0.5, 1.0, 3.0])
def test_tuned_configuration_is_the_uniform_midpoint_layout(omega):
    # couplings first, in the order derive_rates and build_system take them
    got = tuned_configuration(omega, 0.7)
    assert got == (CouplingSet.uniform(0.7), *midpoint_levels(omega + 1.0, omega, omega))
    assert derive_rates(*got).alpha is not None


def test_derive_rates_symmetric_point():
    r = _tuned_rates(1.0)
    assert r.Gamma_1 == pytest.approx(0.5, abs=1e-15)
    assert r.Gamma_2 == pytest.approx(0.5, abs=1e-15)
    assert r.Gamma_1p == pytest.approx(0.5, abs=1e-15)
    assert r.Gamma_2p == pytest.approx(0.5, abs=1e-15)
    assert r.delta_1 == pytest.approx(-0.5, abs=1e-15)
    assert r.delta_2 == pytest.approx(0.5, abs=1e-15)
    assert r.delta_1p == pytest.approx(0.5, abs=1e-15)
    assert r.delta_2p == pytest.approx(-0.5, abs=1e-15)
    assert r.Omega == 1.0
    assert r.alpha == pytest.approx(0.5 - 0.5j, abs=1e-15)
    assert r.cross_upper == pytest.approx(1.0 - 1.0j, abs=1e-14)
    assert r.cross_ground == pytest.approx(1.0 + 1.0j, abs=1e-14)
    assert r.cross_left == pytest.approx(0.5 - 0.5j, abs=1e-14)
    assert r.cross_right == pytest.approx(0.5 - 0.5j, abs=1e-14)


def test_cross_terms_conserve_trace_generally():
    # cross_left + cross_right must equal cross_ground* for any parameters,
    # otherwise the ground-state feeding terms would leak probability
    rng = np.random.default_rng(17)
    for _ in range(40):
        om = float(rng.uniform(0.1, 3.0))
        levels = LevelScheme(2 * om + rng.uniform(0.5, 2.0), 2 * om, 0.0)
        cavity = CavityParams(
            levels.omega_eg - om + rng.uniform(-0.5, 0.5),
            om + rng.uniform(-0.5, 0.5),
            kappa_a=float(rng.uniform(0.5, 2.0)),
            kappa_b=float(rng.uniform(0.5, 2.0)),
        )
        c = CouplingSet(
            *(complex(rng.standard_normal(), rng.standard_normal()) for _ in range(4))
        )
        r = derive_rates(c, levels, cavity)
        assert abs(r.cross_left + r.cross_right - np.conj(r.cross_ground)) < 1e-12
        assert r.alpha is None  # generic parameters are not the tuned case


def test_alpha_requires_full_symmetry():
    assert _tuned_rates(1.0).alpha is not None
    levels, cavity = midpoint_levels(2.0, 1.0, 1.0)
    # unequal couplings
    r = derive_rates(CouplingSet(1.0, 1.0, 1.0, 0.5), levels, cavity)
    assert r.alpha is None
    # unequal cavity widths
    cavity2 = CavityParams(cavity.omega_a, cavity.omega_b, kappa_a=1.0, kappa_b=2.0)
    r = derive_rates(CouplingSet.uniform(1.0), levels, cavity2)
    assert r.alpha is None
    # detuned mode
    cavity3 = CavityParams(cavity.omega_a + 0.3, cavity.omega_b)
    r = derive_rates(CouplingSet.uniform(1.0), levels, cavity3)
    assert r.alpha is None


def test_rates_scale_with_coupling_squared():
    r1 = _tuned_rates(1.0, g=1.0)
    r2 = _tuned_rates(1.0, g=0.5)
    assert r2.Gamma_1 == pytest.approx(r1.Gamma_1 / 4)
    assert r2.alpha == pytest.approx(r1.alpha / 4)
    assert r2.cross_upper == pytest.approx(r1.cross_upper / 4)
