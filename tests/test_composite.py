import functools

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import cavity_beats.composite as composite
from cavity_beats.composite import (
    EliminationCheck,
    _lift,
    _rhs_images,
    annihilation,
    build_system,
    evolve_composite,
    lindblad_rhs,
    validate_elimination,
)
from cavity_beats.linalg import (
    hermitian_basis,
    hermitian_generator,
    hermitian_states,
    partial_trace_field,
    propagate_generator,
    pure_state,
    reachable_generator,
    stack_coordinates,
)
from cavity_beats.model import CavityParams, CouplingSet, LevelScheme, tuned_configuration


def _tuned_system(omega=1.0, g=0.3, n_max=1):
    couplings, levels, cavity = tuned_configuration(omega, g)
    system = build_system(couplings, levels, cavity, n_max=n_max)
    return system, levels, couplings


def test_annihilation_ladder():
    a = annihilation(2)
    want = np.array([[0, 1, 0], [0, 0, np.sqrt(2)], [0, 0, 0]], dtype=complex)
    assert np.allclose(a, want, atol=1e-15)
    n = a.conj().T @ a
    assert np.allclose(np.diag(n), [0.0, 1.0, 2.0])


def test_hamiltonian_matrix_elements():
    system, levels, couplings = _tuned_system(omega=1.0, g=0.3)
    h = system.hamiltonian
    assert np.max(np.abs(h - h.conj().T)) == 0.0
    # basis index is (atom * 2 + n_a) * 2 + n_b for single-photon truncation
    assert h[6, 0] == -1j * couplings.G_1e   # |1,1,0> <- |e,0,0>
    assert h[10, 0] == -1j * couplings.G_2e  # |2,1,0> <- |e,0,0>
    assert h[13, 4] == -1j * couplings.G_g1  # |g,0,1> <- |1,0,0>
    assert h[13, 8] == -1j * couplings.G_g2  # |g,0,1> <- |2,0,0>
    assert h[0, 0] == levels.omega_eg
    assert h[6, 6] == levels.omega_1g + 2.0  # bare level plus one a photon
    assert h[13, 13] == 1.0                  # one b photon over the ground state


def test_excitation_number_is_conserved_by_h():
    system, _, _ = _tuned_system()
    ia = np.eye(2, dtype=complex)
    n_atom = np.kron(np.kron(np.diag([2.0, 1.0, 1.0, 0.0]).astype(complex), ia), ia)
    n_exc = n_atom + system.a_op.conj().T @ system.a_op + system.b_op.conj().T @ system.b_op
    h = system.hamiltonian
    assert np.max(np.abs(h @ n_exc - n_exc @ h)) == 0.0


def _liouvillian_matrix(system):
    # row-major vectorization: vec(A rho B) = (A kron B^T) vec(rho)
    d = system.dim
    eye = np.eye(d, dtype=complex)
    h = system.hamiltonian
    out = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for op, kappa in ((system.a_op, system.kappa_a), (system.b_op, system.kappa_b)):
        n = op.conj().T @ op
        out -= kappa * (np.kron(n, eye) + np.kron(eye, n.T) - 2 * np.kron(op, op.conj()))
    return out


def test_lindblad_rhs_matches_liouvillian_matrix():
    # non-Hermitian rho: the effective-Hamiltonian form must not lean on rho = rho^dag
    rng = np.random.default_rng(13)
    for n_max in (1, 2):
        system, _, _ = _tuned_system(n_max=n_max)
        lio = _liouvillian_matrix(system)
        d = system.dim
        for _ in range(10):
            rho = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            got = lindblad_rhs(rho, system)
            want = (lio @ rho.ravel()).reshape(d, d)
            assert np.max(np.abs(got - want)) < 1e-12


@pytest.mark.parametrize("n_max", [1, 2])
def test_lindblad_rhs_on_a_stack_matches_a_per_matrix_loop(n_max):
    system, _, _ = _tuned_system(n_max=n_max)
    rng = np.random.default_rng(17)
    shape = (30, system.dim, system.dim)
    m = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    stack = (m + m.conj().swapaxes(1, 2)) / 2
    got = lindblad_rhs(stack, system)
    want = np.array([lindblad_rhs(rho, system) for rho in stack])
    assert got.shape == stack.shape and got.tobytes() == want.tobytes()


def test_lift_is_the_nested_kronecker_product():
    rng = np.random.default_rng(19)
    a, b, c = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for n in (4, 2, 3))
    assert _lift(a, b, c).tobytes() == np.kron(np.kron(a, b), c).tobytes()


def _explicit_system(n_max=1):
    # complex couplings, unequal linewidths, detuned modes
    return build_system(CouplingSet(0.9, 1.1 + 0.2j, 0.8, 1.3 - 0.4j), LevelScheme(4.3, 1.9, 0.4),
                        CavityParams(3.1, 1.2, 1.0, 1.7), n_max=n_max)


def _rank_one_and_reference(system):
    # the rank-one images of all d^2 basis matrices, and lindblad_rhs's on the same stack
    coords = np.arange(system.dim ** 2)
    want = stack_coordinates(lindblad_rhs(hermitian_basis(system.dim, coords), system))
    return _rhs_images(system)(coords), want


@pytest.mark.parametrize(
    "system",
    [_tuned_system(omega, g)[0] for g in (1.0, 0.05) for omega in (0.0, 0.5, 1.0, 3.0)]
    + [_explicit_system()],
)
def test_rank_one_images_hold_the_bits_of_lindblad_rhs(system):
    # at n_max = 1 every product with a basis matrix is exact, 2 kappa folded into a included
    got, want = _rank_one_and_reference(system)
    assert got.tobytes() == want.tobytes()


def test_rank_one_images_agree_to_rounding_at_two_photons():
    # sqrt(2) entries make the folded 2 kappa round differently
    for system in (_tuned_system(1.0, 0.3, n_max=2)[0], _explicit_system(n_max=2)):
        got, want = _rank_one_and_reference(system)
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


def test_rank_one_generator_is_the_generator_of_lindblad_rhs():
    for system in (_tuned_system(1.0, 0.05)[0], _tuned_system(3.0, 1.0)[0], _explicit_system()):
        rho0 = pure_state(0, system.dim)
        keep, gen = reachable_generator(_rhs_images(system), rho0)
        want_keep, want = hermitian_generator(lambda rho: lindblad_rhs(rho, system), rho0)
        assert np.array_equal(keep, want_keep) and gen.tobytes() == want.tobytes()
        assert gen.flags.f_contiguous and not gen.flags.c_contiguous


def test_evolve_composite_calls_no_rhs(monkeypatch):
    # the run through rank-one images against the run through lindblad_rhs, frontier by frontier
    system = _explicit_system()
    t = np.linspace(0.0, 6.0, 151)
    with monkeypatch.context() as patch:
        patch.setattr(composite, "_rhs_images", lambda system: lambda coords: stack_coordinates(
            lindblad_rhs(hermitian_basis(system.dim, coords), system)))
        want = evolve_composite(pure_state(0, system.dim), t, system)

    def refuse(rho, system):
        raise AssertionError("lindblad_rhs called")

    monkeypatch.setattr(composite, "lindblad_rhs", refuse)
    got = evolve_composite(pure_state(0, system.dim), t, system)
    assert np.array_equal(got.keep, want.keep) and got.x.tobytes() == want.x.tobytes()
    assert got.max_drift_correction == want.max_drift_correction


@pytest.mark.parametrize("start,message", [
    ("half-trace", r"^trace deviates from 1 by 5\.000e-01"),
    ("negative", r"^negative eigenvalue -5\.000e-01"),
    ("atom-only", r"^rho0 must be 16x16 for this truncation$"),
], ids=["half-trace", "negative", "atom-only"])
def test_evolve_composite_validates_its_start(monkeypatch, start, message):
    # the start is checked by linalg.density_matrix, as reduced.evolve checks its own,
    # before any generator is built: not left to end in DriftError, nor run unjudged; an
    # atom-only 4x4 start is a density matrix, but not of the 16-state model
    system, _, _ = _tuned_system()
    if start == "half-trace":
        rho0 = pure_state(0, system.dim) / 2
    elif start == "atom-only":
        rho0 = pure_state(0, 4)
    else:
        rho0 = np.diag(np.r_[1.5, -0.5, np.zeros(system.dim - 2)]).astype(complex)
    monkeypatch.setattr(composite, "_rhs_images", lambda system: pytest.fail("generator built"))
    with pytest.raises(ValueError, match=message):
        evolve_composite(rho0, np.linspace(0.0, 1.0, 5), system)


@st.composite
def _explicit_configurations(draw):
    phases = [draw(st.floats(0.0, 2 * np.pi)) for _ in range(4)]
    couplings = CouplingSet(*(draw(st.floats(0.2, 2.0)) * np.exp(1j * p) for p in phases))
    # intermediate levels split by at least 0.05: degenerate ones keep a dark state
    # (test_generator_has_one_stationary_state, Omega = 0)
    omega_1g = draw(st.floats(1.0, 3.0))
    omega_2g = omega_1g + draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(0.05, 1.5))
    levels = LevelScheme(draw(st.floats(5.0, 7.0)), omega_1g, omega_2g)
    cavity = CavityParams(draw(st.floats(1.0, 5.0)), draw(st.floats(0.2, 3.0)),
                          draw(st.floats(0.3, 3.0)), draw(st.floats(0.3, 3.0)))
    return build_system(couplings, levels, cavity)


@settings(max_examples=40, deadline=None)
@given(system=_explicit_configurations())
def test_rank_one_generator_of_explicit_configurations(system):
    # bitwise the generator of lindblad_rhs, mapped one basis matrix at a time, and it has
    # one stationary state while every other mode decays
    rho0 = pure_state(0, system.dim)
    keep, gen = reachable_generator(_rhs_images(system), rho0)
    images = np.array([stack_coordinates(lindblad_rhs(m, system))
                       for m in hermitian_basis(system.dim, keep)])
    assert gen.tobytes() == images[:, keep].T.tobytes()
    assert not np.any(np.delete(images, keep, axis=1))  # keep is closed under the generator
    lam = np.linalg.eigvals(gen)
    zero = np.abs(lam) < 1e-10
    assert np.count_nonzero(zero) == 1
    assert np.all(lam[~zero].real < 0.0)


@settings(max_examples=20, deadline=None)
@given(system=_explicit_configurations())
def test_full_model_keeps_positivity(system):
    # the full model is a Lindblad equation, so its states stay positive; the dips below
    # zero of the reduced equation come from the elimination, and none shows here
    series = evolve_composite(pure_state(0, system.dim), np.linspace(0.0, 12.0, 801), system)
    assert series.lowest_eigenvalues().min() >= -1e-12
    assert series.max_drift_correction <= 1e-12


@functools.cache
def _full_generator(n_max):
    # lindblad_rhs's generator from the excited atom in _tuned_system(n_max=n_max), built
    # once per truncation: its one call maps all 256 (1296 at n_max = 2) basis matrices
    system, _, _ = _tuned_system(n_max=n_max)
    rho0 = pure_state(0, system.dim)
    keep, gen = hermitian_generator(lambda rho: lindblad_rhs(rho, system), rho0)
    return system.dim, keep, gen, stack_coordinates(rho0)[keep]


def _full_states(t, n_max=1):
    # the composite states of _tuned_system(n_max=n_max), which evolve_composite traces
    # down to the atom
    dim, keep, gen, x0 = _full_generator(n_max)
    return hermitian_states(keep, propagate_generator(gen, x0, t), dim)


def _atom_states(series):
    return hermitian_states(series.keep, series.x, 4)


def test_evolution_matches_matrix_exponential():
    # the propagation restricted to the coordinates reachable from rho0
    # against the exponential of the full 256 x 256 Liouvillian, on a
    # uniform and a non-uniform grid
    system, _, _ = _tuned_system()
    rho0 = pure_state(0, system.dim)
    lio = _liouvillian_matrix(system)
    for t in (np.array([0.0, 0.85, 1.7]), np.array([0.0, 0.3, 1.7, 5.0])):
        states = _full_states(t)
        for i, ti in enumerate(t):
            want = (scipy.linalg.expm(lio * ti) @ rho0.ravel()).reshape(16, 16)
            assert np.max(np.abs(states[i] - want)) < 1e-12


def test_trace_kept_and_excitations_drain():
    system, _, _ = _tuned_system()
    t = np.linspace(0.0, 10.0, 101)
    states = _full_states(t)
    traces = np.einsum("nii->n", states)
    assert np.max(np.abs(traces - 1.0)) < 1e-12
    n_exc_atom = np.kron(
        np.kron(np.diag([2.0, 1.0, 1.0, 0.0]).astype(complex), np.eye(2)), np.eye(2)
    )
    n_op = (
        n_exc_atom
        + system.a_op.conj().T @ system.a_op
        + system.b_op.conj().T @ system.b_op
    )
    n_mean = np.einsum("nij,ji->n", states, n_op).real
    assert np.all(np.diff(n_mean) < 1e-9)
    assert n_mean[0] == pytest.approx(2.0, abs=1e-12)


def test_single_photon_truncation_is_complete():
    # from the singly excited initial state the two-photon sectors are dark
    sys1, _, _ = _tuned_system(n_max=1)
    sys2, _, _ = _tuned_system(n_max=2)
    t = np.linspace(0.0, 5.0, 26)
    red1 = evolve_composite(pure_state(0, sys1.dim), t, sys1)
    red2 = evolve_composite(pure_state(0, sys2.dim), t, sys2)
    assert np.max(np.abs(_atom_states(red1) - _atom_states(red2))) < 1e-12


@pytest.mark.parametrize("n_max", [1, 2])
@pytest.mark.parametrize(
    "t", [np.linspace(0.0, 12.0, 1601), np.array([0.0, 0.3, 1.7, 5.0])], ids=["uniform", "non-uniform"]
)
def test_evolve_composite_traces_the_propagated_states(n_max, t):
    # the field traced out of the coordinates' matrices equals the trace of the full states,
    # turned to the atom's interaction picture and divided by its trace
    system, levels, _ = _tuned_system(n_max=n_max)
    series = evolve_composite(pure_state(0, system.dim), t, system)
    atom = partial_trace_field(_full_states(t, n_max), system.dims)
    omega = np.array([levels.omega_eg, levels.omega_1g, levels.omega_2g, 0.0])
    want = atom * np.exp(1j * (omega[:, None] - omega[None, :]) * t[:, None, None])
    want /= np.einsum("nii->n", want)[:, None, None]
    states = _atom_states(series)
    assert states.shape == (t.size, 4, 4)
    assert np.max(np.abs(states - want)) <= 1e-15


def test_evolve_composite_applies_rotation():
    system, levels, _ = _tuned_system()
    t = np.array([0.0, 1.3])
    series = evolve_composite(pure_state(0, system.dim), t, system)
    atom = partial_trace_field(_full_states(t)[1], system.dims)
    phase = np.exp(1j * (levels.omega_1g - levels.omega_2g) * t[1])
    states = _atom_states(series)
    assert states[1][1, 2] == pytest.approx(atom[1, 2] * phase, abs=1e-12)
    # populations are phase-free
    assert states[1][0, 0] == pytest.approx(atom[0, 0], abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    omega=st.one_of(st.just(0.0), st.floats(1e-3, 4.0)),
    g=st.floats(0.05, 1.0),
    n_max=st.sampled_from([1, 2]),
)
def test_generator_has_one_stationary_state(omega, g, n_max):
    # the generator that runs use (rank-one images), on the coordinates reachable from the
    # excited atom: one zero eigenvalue, every other mode decays. The slowest rate goes like Omega^2 (1e-8 at
    # Omega = 1e-4, g = 1), so Omega is drawn from 1e-3 up, where it stays far above the
    # zero threshold. Omega = 0 is the dark case: the two intermediate levels coincide and
    # a second state survives.
    system, _, _ = _tuned_system(omega=omega, g=g, n_max=n_max)
    _, gen = reachable_generator(_rhs_images(system), pure_state(0, system.dim))
    lam = np.linalg.eigvals(gen)
    zero = np.abs(lam) < 1e-10
    assert np.count_nonzero(zero) == (2 if omega == 0.0 else 1)
    assert np.all(lam[~zero].real < 0.0)


@pytest.mark.filterwarnings("ignore:positivity violated")
def test_validate_elimination_shrinks_with_coupling():
    check = validate_elimination(g_values=(0.3, 0.15), samples=101)
    assert check.g_values == (0.3, 0.15)
    assert check.monotone
    assert all(d > 0 for d in check.deviations)
    # deviation scales like g^2: a factor 2 in g buys about a factor 4
    ratio = check.deviations[0] / check.deviations[1]
    assert 2.0 < ratio < 8.0


def test_validate_elimination_input_checks():
    with pytest.raises(ValueError):
        validate_elimination(g_values=(0.2,))
    with pytest.raises(ValueError):
        validate_elimination(g_values=(0.2, -0.1))


def test_elimination_check_monotone_property():
    good = EliminationCheck(g_values=(0.2, 0.1), deviations=(1e-2, 1e-3))
    bad = EliminationCheck(g_values=(0.2, 0.1), deviations=(1e-3, 1e-2))
    assert good.monotone and not bad.monotone
