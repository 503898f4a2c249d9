"""Full atom plus two-mode field dynamics, and the elimination check.

The composite state lives on atom x mode_a x mode_b with atom-major
ordering and truncated photon numbers. Starting from the bare excited
atom the cascade emits at most one photon into each mode, so a one-photon
truncation is exact for every quantity computed here; the truncation knob
exists to demonstrate that, not to fix accuracy.

validate_elimination solves the same physical configuration both ways
(full model here, reduced equation in the interaction picture of the bare
atom) and reports how the difference shrinks as the couplings get small
against the cavity linewidths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import hermitize_and_check, partial_trace_field, propagate, pure_state
from .model import CavityParams, CouplingSet, LevelScheme, derive_rates, midpoint_levels
from .reduced import DRIFT_TOL
from .reduced import evolve as evolve_reduced
from .series import TimeSeries


def annihilation(n_max: int) -> np.ndarray:
    if n_max < 1:
        raise ValueError("need at least one photon level")
    a = np.zeros((n_max + 1, n_max + 1), dtype=complex)
    for n in range(n_max):
        a[n, n + 1] = np.sqrt(n + 1)
    return a


def _lift(op_atom, op_a, op_b) -> np.ndarray:
    return np.kron(np.kron(op_atom, op_a), op_b)


@dataclass(frozen=True)
class CompositeSystem:
    """Hamiltonian, mode operators and decay rates on the composite space."""

    hamiltonian: np.ndarray
    a_op: np.ndarray
    b_op: np.ndarray
    kappa_a: float
    kappa_b: float
    dims: tuple[int, int, int]

    @property
    def dim(self) -> int:
        d, na, nb = self.dims
        return d * na * nb


def build_hamiltonian(
    couplings: CouplingSet,
    levels: LevelScheme,
    cavity: CavityParams,
    n_max_a: int = 1,
    n_max_b: int = 1,
) -> np.ndarray:
    """Composite Hamiltonian: bare atom, bare modes, and the exchange terms.

    The exchange part is -i G_1e a^dag |1><e| - i G_2e a^dag |2><e|
    - i G_g1 b^dag |g><1| - i G_g2 b^dag |g><2| plus conjugates: lowering
    the atom one rung creates the corresponding photon.
    """
    ia = np.eye(n_max_a + 1, dtype=complex)
    ib = np.eye(n_max_b + 1, dtype=complex)
    i4 = np.eye(4, dtype=complex)
    a = annihilation(n_max_a)
    b = annihilation(n_max_b)

    h_atom = np.diag(
        np.array([levels.omega_eg, levels.omega_1g, levels.omega_2g, 0.0], dtype=complex)
    )
    h = _lift(h_atom, ia, ib)
    h += cavity.omega_a * _lift(i4, a.conj().T @ a, ib)
    h += cavity.omega_b * _lift(i4, ia, b.conj().T @ b)

    def drop(i: int, j: int) -> np.ndarray:
        m = np.zeros((4, 4), dtype=complex)
        m[i, j] = 1.0
        return m

    hx = -1j * couplings.G_1e * _lift(drop(1, 0), a.conj().T, ib)
    hx += -1j * couplings.G_2e * _lift(drop(2, 0), a.conj().T, ib)
    hx += -1j * couplings.G_g1 * _lift(drop(3, 1), ia, b.conj().T)
    hx += -1j * couplings.G_g2 * _lift(drop(3, 2), ia, b.conj().T)
    return h + hx + hx.conj().T


def build_system(
    couplings: CouplingSet,
    levels: LevelScheme,
    cavity: CavityParams,
    n_max_a: int = 1,
    n_max_b: int = 1,
) -> CompositeSystem:
    h = build_hamiltonian(couplings, levels, cavity, n_max_a, n_max_b)
    ia = np.eye(n_max_a + 1, dtype=complex)
    ib = np.eye(n_max_b + 1, dtype=complex)
    i4 = np.eye(4, dtype=complex)
    return CompositeSystem(
        hamiltonian=h,
        a_op=_lift(i4, annihilation(n_max_a), ib),
        b_op=_lift(i4, ia, annihilation(n_max_b)),
        kappa_a=cavity.kappa_a,
        kappa_b=cavity.kappa_b,
        dims=(4, n_max_a + 1, n_max_b + 1),
    )


def lindblad_rhs(rho: np.ndarray, system: CompositeSystem) -> np.ndarray:
    """Coherent evolution plus photon leakage at amplitude rate kappa.

    The damping convention is
    -kappa (a^dag a rho - 2 a rho a^dag + rho a^dag a) per mode, so photon
    number decays at 2 kappa.
    """
    h = system.hamiltonian
    a, b = system.a_op, system.b_op
    ad, bd = a.conj().T, b.conj().T
    na, nb = ad @ a, bd @ b
    out = -1j * (h @ rho - rho @ h)
    out -= system.kappa_a * (na @ rho + rho @ na - 2 * a @ rho @ ad)
    out -= system.kappa_b * (nb @ rho + rho @ nb - 2 * b @ rho @ bd)
    return out


def excited_vacuum(system: CompositeSystem) -> np.ndarray:
    """Excited atom, both modes empty."""
    return pure_state(0, system.dim)


def evolve_composite(rho0: np.ndarray, t_grid: np.ndarray, system: CompositeSystem) -> np.ndarray:
    """Solve the composite equation exactly and return the atom's state on the grid.

    The generator is constant, so linalg.propagate solves it; both modes are
    traced out of the matrix of each reachable coordinate rather than out of
    each state, so only the (len(t_grid), 4, 4) atom states are built.
    """
    dim = system.dim
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.shape != (dim, dim):
        raise ValueError(f"rho0 must be {dim}x{dim} for this truncation")
    return propagate(
        lambda rho: lindblad_rhs(rho, system),
        rho0,
        t_grid,
        lambda m: partial_trace_field(m, system.dims),
    )


def reduced_from_composite(atom: np.ndarray, t_grid: np.ndarray, levels: LevelScheme) -> TimeSeries:
    """Move the atom states of evolve_composite to the interaction picture of the atom.

    The reduced equation is written in that picture, so its element (j, k)
    carries the extra phase exp(i (omega_j - omega_k) t) relative to the
    traced-out state.
    """
    t = np.asarray(t_grid, dtype=float)
    omega = np.array([levels.omega_eg, levels.omega_1g, levels.omega_2g, 0.0])
    phase_diff = omega[:, None] - omega[None, :]
    rotated = atom * np.exp(1j * phase_diff * t[:, None, None])
    out, max_corr = hermitize_and_check(rotated, t, DRIFT_TOL)
    return TimeSeries(times=t, states=out, max_drift_correction=max_corr)


@dataclass(frozen=True)
class EliminationCheck:
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
    for g in gs:
        levels, cavity = midpoint_levels(Omega + 1.0, Omega, Omega)
        couplings = CouplingSet.uniform(g)
        system = build_system(couplings, levels, cavity)
        t_end = 1.5 / (g * g)
        t = np.linspace(0.0, t_end, samples)
        atom = evolve_composite(excited_vacuum(system), t, system)
        full = reduced_from_composite(atom, t, levels)
        rates = derive_rates(couplings, levels, cavity)
        rho0 = np.zeros((4, 4), dtype=complex)
        rho0[0, 0] = 1.0
        reduced = evolve_reduced(rho0, t, rates, eta=1.0)
        devs.append(float(np.max(np.abs(full.states - reduced.states))))
    return EliminationCheck(g_values=gs, deviations=tuple(devs))
