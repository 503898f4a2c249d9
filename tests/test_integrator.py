import numpy as np
import pytest

from cavity_beats.integrator import IntegrationError, IntegratorConfig, integrate


def test_exponential_decay_matches_exact():
    lam = -(1.0 + 2.0j)
    t = np.linspace(0.0, 4.0, 41)
    out = integrate(lambda s, y: lam * y, np.array([1.0 + 0j]), t)
    exact = np.exp(lam * t)
    assert np.max(np.abs(out[:, 0] - exact)) < 1e-8


def test_dense_output_between_steps():
    # force long steps so most grid points are filled by interpolation
    cfg = IntegratorConfig(max_step=0.5)
    t = np.linspace(0.0, 6.0, 121)
    out = integrate(lambda s, y: np.cos(s) * y, np.array([1.0 + 0j]), t, cfg)
    exact = np.exp(np.sin(t))
    # interpolation error dominates the step error when steps are this long
    assert np.max(np.abs(out[:, 0] - exact)) < 1e-7


def test_matrix_valued_state():
    h = np.array([[1.0, 0.5], [0.5, -1.0]], dtype=complex)
    y0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)

    def rhs(s, rho):
        return -1j * (h @ rho - rho @ h)

    t = np.linspace(0.0, 3.0, 31)
    out = integrate(rhs, y0, t)
    assert out.shape == (31, 2, 2)
    # unitary evolution preserves trace and purity
    traces = np.einsum("nii->n", out)
    assert np.max(np.abs(traces - 1.0)) < 1e-9
    purity = np.einsum("nij,nji->n", out, out)
    assert np.max(np.abs(purity - 1.0)) < 1e-8


def test_determinism_bit_identical():
    def rhs(s, y):
        return np.array([y[1], -np.sin(y[0])], dtype=complex)

    t = np.linspace(0.0, 10.0, 101)
    y0 = np.array([1.0 + 0j, 0.0 + 0j])
    a = integrate(rhs, y0, t)
    b = integrate(rhs, y0, t)
    assert a.tobytes() == b.tobytes()


def test_fifth_order_error_scaling():
    # fixed step size h via max_step with acceptance forced by huge tolerances
    def rhs(s, y):
        return np.cos(s) * y

    y0 = np.array([1.0 + 0j])
    t_grid = np.array([0.0, 2.0])
    errs = []
    for h in (0.1, 0.05):
        cfg = IntegratorConfig(
            rel_tol=0.9, abs_tol=1e6, max_step=h, initial_step=h
        )
        out = integrate(rhs, y0, t_grid, cfg)
        errs.append(abs(out[-1, 0] - np.exp(np.sin(2.0))))
    ratio = errs[0] / errs[1]
    assert 20.0 < ratio < 48.0, f"halving h changed error by {ratio:.1f}, expected ~32"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_singularity_raises():
    # y = 1/(1 - t) blows up at t=1, so the step size underflows before it
    def rhs(s, y):
        with np.errstate(over="ignore", invalid="ignore"):
            return y * y

    with pytest.raises(IntegrationError, match="step size underflow"):
        integrate(rhs, np.array([1.0 + 0j]), np.linspace(0.0, 1.5, 16))


def test_max_steps_exhaustion():
    cfg = IntegratorConfig(max_step=1e-3, max_steps=10)
    with pytest.raises(IntegrationError, match="max_steps"):
        integrate(lambda s, y: -y, np.array([1.0 + 0j]), np.array([0.0, 1.0]), cfg)


def test_grid_validation():
    y0 = np.array([1.0 + 0j])
    with pytest.raises(ValueError):
        integrate(lambda s, y: -y, y0, np.array([0.0, 2.0, 1.0]))
    with pytest.raises(ValueError):
        integrate(lambda s, y: -y, y0, np.array([]))


def test_single_point_grid_returns_initial_state():
    y0 = np.array([2.0 + 1.0j])
    out = integrate(lambda s, y: -y, y0, np.array([0.5]))
    assert out.shape == (1, 1)
    assert out[0, 0] == y0[0]


def test_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(rel_tol=-1.0)
    with pytest.raises(ValueError):
        IntegratorConfig(max_step=0.0)
    with pytest.raises(ValueError):
        IntegratorConfig(max_steps=0)
