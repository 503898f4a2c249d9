import numpy as np
import pytest
import scipy.linalg

from cavity_beats import linalg
from cavity_beats.composite import build_system, lindblad_rhs
from cavity_beats.linalg import (
    MAX_SQUARINGS,
    THETA13,
    _hermitian_coordinates,
    _squarings,
    _step_matrix,
    density_matrix,
    element_coordinates,
    expm,
    hermitian_basis,
    hermitian_generator,
    hermitian_states,
    partial_trace_field,
    propagate_generator,
    pure_state,
    stack_coordinates,
)
from cavity_beats.model import CouplingSet, derive_rates, midpoint_levels
from cavity_beats.reduced import RHS_FORMS, rotated_rhs


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


def test_pure_state(monkeypatch):
    # |i><i| is a density matrix by construction: pure_state does not validate it again
    def refuse(m):
        raise AssertionError("pure_state passed its state through density_matrix")

    monkeypatch.setattr(linalg, "density_matrix", refuse)
    rho = pure_state(2, 4)
    want = np.zeros((4, 4), dtype=complex)
    want[2, 2] = 1.0
    assert rho.dtype == complex and np.array_equal(rho, want)
    assert not rho.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        rho[0, 0] = 1.0
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
    keep, gen = hermitian_generator(lambda rho: -1j * (h @ rho - rho @ h), rho0)
    x0 = stack_coordinates(rho0)[keep]
    out = hermitian_states(keep, propagate_generator(gen, x0, t), 2)
    assert np.max(np.abs(out[:, 0, 1] - 0.5 * np.exp(1j * w * t))) < 1e-14
    assert np.max(np.abs(out[:, 0, 0] - 0.5)) < 1e-15
    with pytest.raises(ValueError, match="ascending"):
        propagate_generator(gen, x0, t[::-1])
    with pytest.raises(ValueError, match="Hermitian"):
        hermitian_generator(lambda rho: rho, np.array([[0.5, 1.0], [0.0, 0.5]]))


def test_coordinate_tables_are_shared_and_read_only():
    tables = _hermitian_coordinates(16)
    assert _hermitian_coordinates(16) is tables
    for a in tables:
        with pytest.raises(ValueError, match="read-only"):
            a[0] = a[1]
    rng = np.random.default_rng(23)
    for d in (1, 2, 4, 16):
        element = element_coordinates(d)
        assert element_coordinates(d) is element and element.shape == (d, d)
        with pytest.raises(ValueError, match="read-only"):
            element[0, 0] = 0
        m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        x = stack_coordinates(m)
        for j in range(d):
            for k in range(j, d):
                assert x[element[j, k]] == m[j, k].real
                if j < k:
                    assert x[element[k, j]] == m[j, k].imag


def test_stack_coordinates_are_the_bits_of_the_upper_triangle():
    # one gather from the float view reads each coordinate's bits as they are: signed zeros
    # stay signed, a strided or real-dtype stack reads like its contiguous complex copy,
    # and a lower triangle that is not the conjugate of the upper one is never read
    d = 4
    element = element_coordinates(d)

    def reference(m):
        out = np.empty(m.shape[:-2] + (d * d,))
        for j in range(d):
            for k in range(j, d):
                out[..., element[j, k]] = m[..., j, k].real
                if j < k:
                    out[..., element[k, j]] = m[..., j, k].imag
        return out

    rng = np.random.default_rng(29)
    big = rng.standard_normal((3, 8, 8)) + 1j * rng.standard_normal((3, 8, 8))
    big[0, :4, :4] = complex(-0.0, -0.0)
    big[1, 0, 2] = complex(0.0, -0.0)
    big[1, 2, 0] = complex(-0.0, 0.0)
    real = rng.standard_normal((2, 4, 4))
    real[0, 1, 3] = -0.0
    cases = [
        big[:, :4, :4],  # strided rows
        big[:, ::2, 1::2],  # strided rows and columns
        big[:, :4, :4].transpose(0, 2, 1),  # the lower triangle read as the upper
        big[1, :4, :4],  # one matrix
        real,
        real[1].T,
    ]
    for m in cases:
        got = stack_coordinates(m)
        assert got.dtype == np.float64 and got.shape == m.shape[:-2] + (d * d,)
        assert got.tobytes() == reference(m).tobytes()
    assert np.signbit(stack_coordinates(big[0, :4, :4])).all()


def _tuned_problem(model):
    levels, cavity = midpoint_levels(2.0, 1.0, 1.0)
    if model == "reduced":
        rates = derive_rates(CouplingSet.uniform(1.0), levels, cavity)
        return (lambda s: rotated_rhs(s, rates)), pure_state(0, 4)
    system = build_system(CouplingSet.uniform(0.3), levels, cavity, n_max=1)
    return (lambda rho: lindblad_rhs(rho, system)), pure_state(0, system.dim)


@pytest.mark.parametrize("model", ["reduced", "composite"])
@pytest.mark.parametrize("samples", [2, 3, 1000, 1601])
def test_propagate_by_doubling_matches_scipy_expm(model, samples):
    # a uniform grid is filled by doubling, x[n:2n] = S^n x[:n]; at 1000 and 1601 samples the
    # last block is partial. Each sample against the exponential taken at its own time: the
    # error grows like N eps, as with N matrix-vector steps (1.7e-13 at 1601 samples for both)
    rhs, rho0 = _tuned_problem(model)
    tol = 1e-14 + samples * np.finfo(float).eps
    t = np.linspace(0.0, 12.0, samples)
    keep, gen = hermitian_generator(rhs, rho0)
    x0 = stack_coordinates(rho0)[keep]
    out = hermitian_states(keep, propagate_generator(gen, x0, t), rho0.shape[0])
    want = np.array([scipy.linalg.expm(gen * tk) @ x0 for tk in t])
    got = stack_coordinates(out)
    assert np.max(np.abs(got[:, keep] - want)) <= tol
    assert not np.any(np.delete(got, keep, axis=1))  # unreachable coordinates stay zero
    assert np.array_equal(out, out.conj().transpose(0, 2, 1))
    assert np.max(np.abs(np.einsum("nii->n", out) - 1.0)) <= tol


def _per_matrix_generator(rhs, rho0):
    # the reference for hermitian_generator: rhs on one basis matrix at a time, the reached
    # coordinates in a dict; returns (keep, gen)
    d = rho0.shape[0]
    columns = {}
    new = np.flatnonzero(stack_coordinates(rho0))
    while new.size:
        for k, basis in zip(new, hermitian_basis(d, new)):
            columns[k] = stack_coordinates(np.asarray(rhs(basis), dtype=complex))
        reached = np.flatnonzero(np.any([columns[k] for k in new], axis=0))
        new = np.setdiff1d(reached, list(columns))
    keep = np.array(sorted(columns), dtype=int)
    return keep, np.array([columns[k][keep] for k in keep]).T


def _counted(rhs, calls):
    def counted(m):
        calls.append(m.shape)
        return rhs(m)
    return counted


def _generator_cases():
    levels, cavity = midpoint_levels(2.0, 1.0, 1.0)
    rates = derive_rates(CouplingSet.uniform(1.0), levels, cavity)
    rng = np.random.default_rng(41)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    full_support = (m + m.conj().T) / 2
    for eta in (0.0, 0.37, 1.0):
        for form in RHS_FORMS:
            for rho0 in (pure_state(0, 4), full_support):
                yield (lambda s, eta=eta, form=form: rotated_rhs(s, rates, eta, form)), rho0
    for n_max in (1, 2):
        system = build_system(CouplingSet.uniform(0.3), levels, cavity, n_max=n_max)
        yield (lambda rho, system=system: lindblad_rhs(rho, system)), pure_state(0, system.dim)


@pytest.mark.parametrize("grid", ["uniform", "non-uniform"])
def test_propagate_returns_the_series_layout(grid):
    # one row per sample and each coordinate contiguous, as a TimeSeries keeps its x, so
    # the check keeps the walk's array instead of copying it
    rhs, rho0 = _tuned_problem("composite")
    t = np.linspace(0.0, 12.0, 101) if grid == "uniform" else np.geomspace(0.1, 12.0, 101)
    keep, gen = hermitian_generator(rhs, rho0)
    x = propagate_generator(gen, stack_coordinates(rho0)[keep], t)
    assert x.shape == (t.size, keep.size) and x.dtype == np.float64
    assert x.flags.f_contiguous and not x.flags.c_contiguous


def test_hermitian_generator_matches_the_per_matrix_build():
    # one rhs call on the whole basis gives the same coordinates and the same generator
    # bytes, in the same (Fortran) layout, as one call per basis matrix: expm and the
    # doubling walk follow the memory layout
    for rhs, rho0 in _generator_cases():
        d = rho0.shape[0]
        calls = []
        keep, gen = hermitian_generator(_counted(rhs, calls), rho0)
        want_keep, want = _per_matrix_generator(rhs, rho0)
        assert np.array_equal(keep, want_keep)
        assert gen.tobytes() == want.tobytes()
        assert gen.flags.f_contiguous and not gen.flags.c_contiguous
        assert calls == [(d * d, d, d)]


def test_hermitian_generator_calls_rhs_once():
    levels, cavity = midpoint_levels(2.0, 1.0, 1.0)
    system = build_system(CouplingSet.uniform(0.3), levels, cavity, n_max=1)
    calls = []
    keep, _ = hermitian_generator(_counted(lambda rho: lindblad_rhs(rho, system), calls),
                                  pure_state(0, system.dim))
    assert keep.size == 27 and calls == [(256, 16, 16)]  # 27 of the 256 coordinates reached
    rates = derive_rates(CouplingSet.uniform(1.0), levels, cavity)
    calls = []
    keep, _ = hermitian_generator(_counted(lambda s: rotated_rhs(s, rates), calls), pure_state(0, 4))
    # e, then 1, 2 and the 1-2 coherence, then g
    assert keep.tolist() == [0, 1, 2, 3, 7, 13]
    assert calls == [(16, 4, 4)]  # the whole 4 x 4 basis in one call


def test_hermitian_generator_needs_an_rhs_on_stacks():
    # an rhs written for one matrix fails on a stack: transposing swaps the stack axis
    # into the matrix, a fixed 4 x 4 output drops it
    levels, cavity = midpoint_levels(2.0, 1.0, 1.0)
    rates = derive_rates(CouplingSet.uniform(1.0), levels, cavity)

    def one_matrix(rho):
        out = rotated_rhs(rho, rates)
        return out + out.conj().T

    def fixed_output(rho):
        out = np.zeros((4, 4), dtype=complex)
        out[0, 0] = -2.0 * rho[..., 0, 0].sum()
        return out

    for rhs in (one_matrix, fixed_output):
        with pytest.raises(ValueError, match="stack"):
            hermitian_generator(rhs, pure_state(0, 4))


def test_step_matrix_takes_eigenvectors_only_for_huge_steps():
    # coordinate 0 decays into the stationary coordinate 1; 2 and 3 rotate and decay
    gen = np.array([
        [-1.0, 0.0, 0.0, 0.0],
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, -0.5, 3.0],
        [0.0, 0.0, -3.0, -0.5],
    ])
    lam, vec = np.linalg.eig(gen)
    for h in (0.1, 1e3, 1e6, 2e6):
        if _squarings(gen * h) <= MAX_SQUARINGS:  # Pade, bit for bit
            assert np.array_equal(_step_matrix(gen, h), expm(gen * h))
        else:
            assert np.array_equal(_step_matrix(gen, h), ((vec * np.exp(lam * h)) @ np.linalg.inv(vec)).real)
    assert _squarings(gen * 1e6) == MAX_SQUARINGS < _squarings(gen * 2e6)
    stationary = np.zeros((4, 4))
    stationary[1, :2] = 1.0
    assert np.max(np.abs(_step_matrix(gen, 1e12) - stationary)) < 1e-14
    # a Jordan block has no basis of eigenvectors: Pade stays
    jordan = np.array([[-1.0, 1.0], [0.0, -1.0]])
    assert np.array_equal(_step_matrix(jordan, 1e9), expm(jordan * 1e9))
