import numpy as np
import pytest
import scipy.linalg

from cavity_beats.linalg import (
    THETA13,
    DriftError,
    commutator,
    density_matrix,
    expm,
    hermitize_and_check,
    kron,
    partial_trace_field,
    propagate,
    pure_state,
)


def test_commutator_of_basis_operators():
    a_ee = np.zeros((4, 4), complex)
    a_ee[0, 0] = 1.0
    a_e1 = np.zeros((4, 4), complex)
    a_e1[0, 1] = 1.0
    assert np.array_equal(commutator(a_ee, a_e1), a_e1)


def test_commutator_antisymmetry():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        b = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        assert np.max(np.abs(commutator(a, b) + commutator(b, a))) < 1e-12


def test_commutator_rejects_mismatched_shapes():
    with pytest.raises(ValueError):
        commutator(np.eye(2), np.eye(3))


def test_kron_block_structure():
    a = np.array([[1, 2], [3, 4]], dtype=complex)
    out = kron(a, np.eye(2))
    expected = np.array(
        [[1, 0, 2, 0], [0, 1, 0, 2], [3, 0, 4, 0], [0, 3, 0, 4]], dtype=complex
    )
    assert np.array_equal(out, expected)


def test_density_matrix_accepts_and_freezes():
    rho = density_matrix(np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex))
    assert not rho.flags.writeable
    with pytest.raises(ValueError):
        rho[0, 0] = 2.0


def test_density_matrix_is_a_copy():
    src = np.diag([1.0, 0.0]).astype(complex)
    rho = density_matrix(src)
    src[0, 0] = 5.0
    assert rho[0, 0] == 1.0


def test_density_matrix_rejections():
    bad_herm = np.array([[0.5, 1e-6], [0.0, 0.5]], dtype=complex)
    with pytest.raises(ValueError, match="Hermitian"):
        density_matrix(bad_herm)
    with pytest.raises(ValueError, match="trace"):
        density_matrix(np.diag([0.7, 0.7]).astype(complex))
    with pytest.raises(ValueError, match="eigenvalue"):
        density_matrix(np.diag([1.5, -0.5]).astype(complex))
    with pytest.raises(ValueError, match="square"):
        density_matrix(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="finite"):
        density_matrix(np.diag([np.nan, 1.0]).astype(complex))


def test_density_matrix_tolerances_are_adjustable():
    rho = np.diag([1.002, -0.002]).astype(complex)
    with pytest.raises(ValueError):
        density_matrix(rho)
    out = density_matrix(rho, trace_tol=1e-2, eig_floor=-1e-2)
    assert out[1, 1] == -0.002


def test_pure_state():
    rho = pure_state(2, 4)
    assert rho[2, 2] == 1.0 and rho.trace() == 1.0
    with pytest.raises(ValueError):
        pure_state(4, 4)


def _partial_trace_loops(rho, dims):
    # Independent reference: explicit index summation.
    d, na, nb = dims
    out = np.zeros((d, d), dtype=complex)
    for i in range(d):
        for j in range(d):
            for p in range(na):
                for q in range(nb):
                    row = (i * na + p) * nb + q
                    col = (j * na + p) * nb + q
                    out[i, j] += rho[row, col]
    return out


def test_partial_trace_against_index_summation():
    rng = np.random.default_rng(11)
    for _ in range(20):
        dims = (int(rng.integers(2, 5)), int(rng.integers(2, 4)), int(rng.integers(2, 4)))
        n = dims[0] * dims[1] * dims[2]
        rho = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        got = partial_trace_field(rho, dims)
        want = _partial_trace_loops(rho, dims)
        assert np.max(np.abs(got - want)) < 1e-12


def test_partial_trace_of_product_state():
    rng = np.random.default_rng(4)
    atom = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    atom = atom @ atom.conj().T
    atom /= atom.trace()
    field_a = np.diag([0.25, 0.75]).astype(complex)
    field_b = np.diag([0.9, 0.1]).astype(complex)
    rho = np.kron(np.kron(atom, field_a), field_b)
    assert np.max(np.abs(partial_trace_field(rho, (4, 2, 2)) - atom)) < 1e-13


def test_partial_trace_dimension_mismatch():
    with pytest.raises(ValueError):
        partial_trace_field(np.eye(10), (4, 2, 2))


def test_hermitize_repairs_small_drift():
    rho = np.diag([0.6, 0.4]).astype(complex)
    drift = rho + np.array([[1e-9, 1e-9j], [0, -2e-9]])
    fixed, corr = hermitize_and_check(np.stack([rho, drift]), np.array([0.0, 1.0]), tol=1e-6)
    assert 1e-9 <= corr < 1e-8
    assert np.array_equal(fixed[0], rho)
    assert np.max(np.abs(fixed[1] - fixed[1].conj().T)) == 0.0
    assert abs(fixed[1].trace() - 1.0) < 1e-15


def test_hermitize_raises_beyond_tolerance():
    rho = np.diag([0.6, 0.4]).astype(complex)
    bad = rho + np.array([[0, 1e-3], [0, 0]])
    with pytest.raises(DriftError, match=r"^sample 2 \(t=0\.5\): drift 1\.000e-03"):
        hermitize_and_check(np.stack([rho, rho, bad, bad]), np.linspace(0, 0.75, 4), tol=1e-6)


@pytest.mark.parametrize("norm", [0.0, 1e-3, 1.0, THETA13, 40.0, 200.0])
def test_expm_matches_scipy(norm):
    # norms above THETA13 take the scaling and squaring path
    rng = np.random.default_rng(17)
    a = rng.standard_normal((12, 12))
    a *= norm / np.max(np.sum(np.abs(a), axis=0))
    want = scipy.linalg.expm(a)
    assert np.max(np.abs(expm(a) - want)) <= 1e-13 * max(1.0, np.max(np.abs(want)))


def test_propagate_decay_of_a_coherence():
    # d(rho)/dt = -i[H, rho] with H = diag(0, w): rho_01 picks up exp(i w t)
    w = 2.5
    rho0 = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    t = np.array([0.0, 0.3, 1.1, 4.0])
    h = np.diag([0.0, w]).astype(complex)
    out = propagate(lambda rho: -1j * (h @ rho - rho @ h), rho0, t)
    assert np.max(np.abs(out[:, 0, 1] - 0.5 * np.exp(1j * w * t))) < 1e-14
    assert np.max(np.abs(out[:, 0, 0] - 0.5)) < 1e-15
    with pytest.raises(ValueError, match="ascending"):
        propagate(lambda rho: rho, rho0, t[::-1])
    with pytest.raises(ValueError, match="Hermitian"):
        propagate(lambda rho: rho, np.array([[0.5, 1.0], [0.0, 0.5]]), t)
