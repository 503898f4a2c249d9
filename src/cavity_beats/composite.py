"""Full atom plus two-mode field dynamics, and the elimination check.

The composite state lives on atom x mode_a x mode_b with atom-major
ordering and truncated photon numbers. Starting from the bare excited
atom the cascade emits at most one photon into each mode, so the default
n_max = 1 photons per mode is exact for every quantity computed here; a
larger n_max exists to demonstrate that, not to fix accuracy.

validate_elimination solves the same physical configuration both ways
(full model here, reduced equation in the interaction picture of the bare
atom) and reports how the difference shrinks as the couplings get small
against the cavity linewidths.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from .linalg import (
    element_coordinates,
    hermitize_and_check,
    linear_readout,
    partial_trace_field,
    propagate_generator,
    pure_state,
    rank_one_images,
    reachable_generator,
    stack_coordinates,
)
from .model import CavityParams, CouplingSet, LevelScheme, derive_rates, tuned_configuration
from .reduced import evolve as evolve_reduced
from .series import D, TimeSeries

_UPPER = np.triu_indices(D, 1)  # the (j, k) of every element above the diagonal


def annihilation(n_max: int) -> np.ndarray:
    if n_max < 1:
        raise ValueError("need at least one photon level")
    a = np.zeros((n_max + 1, n_max + 1), dtype=complex)
    for n in range(n_max):
        a[n, n + 1] = np.sqrt(n + 1)
    return a


def _lift(op_atom, op_a, op_b) -> np.ndarray:
    """op_atom (x) op_a (x) op_b, each entry formed as (atom * a) * b, as nested np.kron does."""
    (p, q), (r, s), (u, v) = op_atom.shape, op_a.shape, op_b.shape
    product = (op_atom[:, None, None, :, None, None] * op_a[None, :, None, None, :, None]
               * op_b[None, None, :, None, None, :])
    return product.reshape(p * r * u, q * s * v)


class CompositeSystem(NamedTuple):
    """Hamiltonian, mode operators and decay rates on the composite space, and the atom's levels.

    levels is the scheme the Hamiltonian was built from; evolve_composite reads the
    interaction picture of the atom from it. rhs_operators holds K, K^dag, a^dag and
    b^dag, the operators of lindblad_rhs and of the rank-one factors (_rhs_images).
    """

    hamiltonian: np.ndarray
    a_op: np.ndarray
    b_op: np.ndarray
    kappa_a: float
    kappa_b: float
    levels: LevelScheme
    dims: tuple[int, int, int]
    rhs_operators: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]

    @property
    def dim(self) -> int:
        d, na, nb = self.dims
        return d * na * nb


def build_system(
    couplings: CouplingSet, levels: LevelScheme, cavity: CavityParams, n_max: int = 1
) -> CompositeSystem:
    """The composite system with up to n_max photons in each mode.

    The Hamiltonian holds the bare atom, the bare modes and the exchange terms
    -i G_1e a^dag |1><e| - i G_2e a^dag |2><e| - i G_g1 b^dag |g><1|
    - i G_g2 b^dag |g><2| plus conjugates: lowering the atom one rung creates
    the corresponding photon.
    """
    i4, i_n = np.eye(4, dtype=complex), np.eye(n_max + 1, dtype=complex)
    a = annihilation(n_max)
    ad = a.conj().T

    h_atom = np.diag(
        np.array([levels.omega_eg, levels.omega_1g, levels.omega_2g, 0.0], dtype=complex)
    )
    h = _lift(h_atom, i_n, i_n)
    h += cavity.omega_a * _lift(i4, ad @ a, i_n)
    h += cavity.omega_b * _lift(i4, i_n, ad @ a)

    def drop(i: int, j: int) -> np.ndarray:
        m = np.zeros((4, 4), dtype=complex)
        m[i, j] = 1.0
        return m

    hx = -1j * couplings.G_1e * _lift(drop(1, 0), ad, i_n)
    hx += -1j * couplings.G_2e * _lift(drop(2, 0), ad, i_n)
    hx += -1j * couplings.G_g1 * _lift(drop(3, 1), i_n, ad)
    hx += -1j * couplings.G_g2 * _lift(drop(3, 2), i_n, ad)
    h = h + hx + hx.conj().T
    a_op, b_op = _lift(i4, a, i_n), _lift(i4, i_n, a)
    # K = -i H - kappa_a a^dag a - kappa_b b^dag b is the effective Hamiltonian
    # times -i: the coherent part and the decay of both modes in one operator.
    a_dag, b_dag = a_op.conj().T, b_op.conj().T
    k = -1j * h - cavity.kappa_a * (a_dag @ a_op) - cavity.kappa_b * (b_dag @ b_op)
    return CompositeSystem(
        h, a_op, b_op, cavity.kappa_a, cavity.kappa_b, levels,
        dims=(4, n_max + 1, n_max + 1), rhs_operators=(k, k.conj().T, a_dag, b_dag),
    )


def lindblad_rhs(rho: np.ndarray, system: CompositeSystem) -> np.ndarray:
    """Coherent evolution plus photon leakage at amplitude rate kappa.

    The damping convention is
    -kappa (a^dag a rho - 2 a rho a^dag + rho a^dag a) per mode, so photon
    number decays at 2 kappa. With K from rhs_operators the whole right-hand
    side is K rho + rho K^dag + 2 kappa_a a rho a^dag + 2 kappa_b b rho b^dag:
    six matrix products. rho need not be Hermitian, so rho K^dag is not taken
    as (K rho)^dag. No run calls it: evolve_composite builds the generator from
    rank-one factors (_rhs_images), and the tests compare those with this reference.
    """
    k, kd, ad, bd = system.rhs_operators
    out = k @ rho + rho @ kd
    out += (2 * system.kappa_a) * (system.a_op @ rho @ ad)
    out += (2 * system.kappa_b) * (system.b_op @ rho @ bd)
    return out


def _rhs_images(system: CompositeSystem) -> Callable[[np.ndarray], np.ndarray]:
    """lindblad_rhs as an image map of Hermitian basis matrices, from rank-one factors.

    Its right-hand side is sum_t L_t rho R_t, with (L_t, R_t) = (K, I), (I, K^dag),
    (2 kappa_a a, a^dag) and (2 kappa_b b, b^dag); linalg.rank_one_images turns each
    frontier into one batched product. While the entries of a and b are 0 or 1
    (n_max = 1), folding 2 kappa into them is exact, so is every product of entries,
    and no entry of an image sums more than two nonzero terms: the images hold
    lindblad_rhs's bits. At a larger n_max they agree to rounding.
    """
    k, kd, ad, bd = system.rhs_operators
    eye = np.eye(system.dim, dtype=complex)
    left = np.stack([k, eye, 2 * system.kappa_a * system.a_op, 2 * system.kappa_b * system.b_op])
    return rank_one_images(left, np.stack([eye, kd, ad, bd]))


def evolve_composite(
    rho0: np.ndarray, t_grid: np.ndarray, system: CompositeSystem
) -> TimeSeries:
    """Solve the composite equation exactly and return the atom's TimeSeries.

    The generator is constant: it is built on the coordinates the state reaches from
    the rank-one factors of the right-hand side (_rhs_images), with no call of
    lindblad_rhs, and linalg.propagate_generator walks the grid with it. Both modes
    are traced out of the matrix of each reachable coordinate (linear_readout), never
    out of a state. The reduced equation is written in the interaction picture of the
    bare atom, so its element (j, k) carries the extra phase exp(i (omega_j - omega_k) t)
    relative to the traced-out state: hermitize_and_check applies it on the atom's
    coordinates and checks and renormalizes the trace of every sample. No state of
    either space is built.
    """
    t = np.asarray(t_grid, dtype=float)
    dim = system.dim
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.shape != (dim, dim):
        raise ValueError(f"rho0 must be {dim}x{dim} for this truncation")
    keep, gen = reachable_generator(_rhs_images(system), rho0)
    x = propagate_generator(gen, stack_coordinates(rho0)[keep], t)
    atom_keep, trace = linear_readout(lambda m: partial_trace_field(m, system.dims), keep, dim)
    lv = system.levels
    omega = np.array([lv.omega_eg, lv.omega_1g, lv.omega_2g, 0.0])
    x, max_corr = hermitize_and_check(atom_keep, x @ trace, omega[:, None] - omega, t)
    return TimeSeries(t, max_drift_correction=max_corr, keep=atom_keep, x=x)


class EliminationCheck(NamedTuple):
    """Reduced-versus-full deviations for a ladder of coupling strengths."""

    g_values: tuple[float, ...]
    deviations: tuple[float, ...]

    @property
    def monotone(self) -> bool:
        return all(b < a for a, b in zip(self.deviations, self.deviations[1:]))


def validate_elimination(
    g_values: tuple[float, ...] = (0.2, 0.1, 0.05),
    Omega: float = 1.0,
    samples: int = 151,
) -> EliminationCheck:
    """Compare full and reduced dynamics as the couplings shrink.

    Each rung uses the evenly tuned configuration with all couplings g and
    unit linewidths, runs both descriptions from the excited atom over
    about one and a half effective lifetimes (the lifetime is 1/g^2 there)
    and records the largest matrix-element difference. The deviation must
    shrink as g does; callers assert on .monotone.
    """
    gs = tuple(sorted(g_values, reverse=True))
    if any(g <= 0 for g in gs) or len(gs) < 2:
        raise ValueError("need at least two positive couplings, decreasing")
    devs = []
    rho0 = pure_state(0, 4)
    for g in gs:
        config = tuned_configuration(Omega, g)
        system = build_system(*config)
        t_end = 1.5 / (g * g)
        t = np.linspace(0.0, t_end, samples)
        full = evolve_composite(pure_state(0, system.dim), t, system)
        rates = derive_rates(*config)
        reduced = evolve_reduced(rho0, t, rates, eta=1.0)
        devs.append(_max_difference(full, reduced))
    return EliminationCheck(g_values=gs, deviations=tuple(devs))


def _max_difference(a: TimeSeries, b: TimeSeries) -> float:
    """The largest modulus of an element of a's matrix minus b's, over every sample.

    Read from the coordinates, without building a matrix: the difference of each one,
    the diagonal's modulus, and np.abs of each upper element's complex difference,
    which its conjugate element shares.
    """
    element = element_coordinates(D)
    j, k = _UPPER
    diff = np.zeros((len(a), D * D))
    diff[:, a.keep] = a.x
    diff[:, b.keep] -= b.x
    upper = np.empty((len(a), j.size), dtype=complex)
    upper.real, upper.imag = diff[:, element[j, k]], diff[:, element[k, j]]
    return float(max(np.max(np.abs(diff[:, np.diag(element)])), np.max(np.abs(upper))))
