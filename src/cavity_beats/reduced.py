"""Reduced atomic master equation after adiabatic elimination of the cavity.

Both cavity modes are heavily damped, so the field follows the atom and the
atomic density matrix obeys a closed equation with effective decay rates,
level shifts and explicitly time-dependent cross terms oscillating at twice
the intermediate-level splitting. The equation is written in the interaction
picture of the bare atom. Rotating the intermediate levels by
theta = (0, Omega, -Omega, 0) removes the time dependence, so evolve solves
it exactly with a matrix exponential.

Two implementations of the right-hand side are kept deliberately separate:
an operator form built from commutators and jump contributions, and an
element form that spells out all sixteen matrix entries. They are developed
independently and cross-checked against each other in the tests; do not
"simplify" one into a call of the other. Both take one 4x4 matrix or a
stack of them, shape (k, 4, 4), and give a matrix the same bytes alone as
in a stack. So evolve builds the generator from one call on all 16 basis
matrices (linalg.hermitian_generator) and walks the grid with it
(linalg.propagate_generator), the two steps that composite.evolve_composite
takes from its rank-one images.
"""

from __future__ import annotations

import warnings

import numpy as np

from .linalg import (
    density_matrix,
    hermitian_generator,
    hermitize_and_check,
    lowest_eigenvalues,
    propagate_generator,
    stack_coordinates,
)
from .model import RateSet
from .series import TimeSeries

POSITIVITY_FLOOR = -1e-6


def _proj(i: int, j: int) -> np.ndarray:
    m = np.zeros((4, 4), dtype=complex)
    m[i, j] = 1.0
    return m


# Atomic basis operators |i><j| in the (e, 1, 2, g) ordering.
A_EE = _proj(0, 0)
A_11 = _proj(1, 1)
A_22 = _proj(2, 2)
A_GG = _proj(3, 3)
A_12 = _proj(1, 2)


def rhs_operator_form(t: float, rho: np.ndarray, rates: RateSet, eta: float = 1.0) -> np.ndarray:
    """Master-equation right-hand side assembled from operator products.

    eta scales only the cross terms that exist because one polarization
    couples to both intermediate levels; eta = 0 removes the interference
    while keeping every single-transition rate.
    """
    r = rates
    e_plus = np.exp(2j * r.Omega * t)
    e_minus = np.conj(e_plus)

    shift = (r.delta_1 + r.delta_2) * A_EE + r.delta_1p * A_11 + r.delta_2p * A_22
    out = -1j * (shift @ rho - rho @ shift)

    # Independent decay channels e -> 1, e -> 2, 1 -> g, 2 -> g.
    out += r.Gamma_1 * (2 * rho[..., 0, 0, None, None] * A_11 - A_EE @ rho - rho @ A_EE)
    out += r.Gamma_2 * (2 * rho[..., 0, 0, None, None] * A_22 - A_EE @ rho - rho @ A_EE)
    out += r.Gamma_1p * (2 * rho[..., 1, 1, None, None] * A_GG - A_11 @ rho - rho @ A_11)
    out += r.Gamma_2p * (2 * rho[..., 2, 2, None, None] * A_GG - A_22 @ rho - rho @ A_22)

    # Cross terms: upper feeding of the 1-2 coherence, coherence feeding of
    # the ground state, and the one-sided couplings that mix the coherence
    # into the intermediate populations. Each enters with its conjugate
    # transpose.
    cross = (eta * r.cross_upper * rho[..., 0, 0, None, None] * e_plus) * A_12
    cross += (eta * r.cross_ground * rho[..., 1, 2, None, None] * e_minus) * A_GG
    cross -= eta * e_plus * (r.cross_left * (A_12 @ rho) + r.cross_right * (rho @ A_12))
    out += cross + cross.conj().swapaxes(-1, -2)
    return out


def rhs_element_form(t: float, rho: np.ndarray, rates: RateSet, eta: float = 1.0) -> np.ndarray:
    """Master-equation right-hand side with every matrix element written out.

    Valid for Hermitian rho (the conjugate elements are spelled out under
    that assumption). Kept as an independent derivation of
    rhs_operator_form.
    """
    r = rates
    ep = np.exp(2j * r.Omega * t)
    em = np.conj(ep)
    G = r.Gamma_1 + r.Gamma_2
    dsum = r.delta_1 + r.delta_2
    B1 = r.cross_right
    B2 = r.cross_left

    # One matrix is taken as a stack of one: numpy rounds products of complex scalars
    # differently from its array loops, and a matrix must give the same bytes alone as
    # in a stack.
    shape = np.shape(rho)
    rho = np.reshape(rho, (-1, 4, 4))
    out = np.empty(rho.shape, dtype=complex)

    out[..., 0, 0] = -2 * G * rho[..., 0, 0]
    out[..., 0, 1] = (-1j * dsum + 1j * r.delta_1p - (G + r.Gamma_1p)) * rho[..., 0, 1] \
        - eta * np.conj(B2) * em * rho[..., 0, 2]
    out[..., 0, 2] = (-1j * dsum + 1j * r.delta_2p - (G + r.Gamma_2p)) * rho[..., 0, 2] \
        - eta * B1 * ep * rho[..., 0, 1]
    out[..., 0, 3] = (-1j * dsum - G) * rho[..., 0, 3]

    out[..., 1, 0] = (1j * dsum - 1j * r.delta_1p - (G + r.Gamma_1p)) * rho[..., 1, 0] \
        - eta * B2 * ep * rho[..., 2, 0]
    out[..., 1, 1] = 2 * r.Gamma_1 * rho[..., 0, 0] - 2 * r.Gamma_1p * rho[..., 1, 1] \
        - eta * B2 * ep * rho[..., 2, 1] - eta * np.conj(B2) * em * rho[..., 1, 2]
    out[..., 1, 2] = -(r.Gamma_1p + r.Gamma_2p + 1j * (r.delta_1p - r.delta_2p)) \
        * rho[..., 1, 2] \
        + eta * r.cross_upper * ep * rho[..., 0, 0] \
        - eta * ep * (B2 * rho[..., 2, 2] + B1 * rho[..., 1, 1])
    out[..., 1, 3] = -(r.Gamma_1p + 1j * r.delta_1p) * rho[..., 1, 3] \
        - eta * B2 * ep * rho[..., 2, 3]

    out[..., 2, 0] = (1j * dsum - 1j * r.delta_2p - (G + r.Gamma_2p)) * rho[..., 2, 0] \
        - eta * np.conj(B1) * em * rho[..., 1, 0]
    out[..., 2, 1] = -(r.Gamma_1p + r.Gamma_2p - 1j * (r.delta_1p - r.delta_2p)) \
        * rho[..., 2, 1] \
        + eta * np.conj(r.cross_upper) * em * rho[..., 0, 0] \
        - eta * em * (np.conj(B2) * rho[..., 2, 2] + np.conj(B1) * rho[..., 1, 1])
    out[..., 2, 2] = 2 * r.Gamma_2 * rho[..., 0, 0] - 2 * r.Gamma_2p * rho[..., 2, 2] \
        - eta * B1 * ep * rho[..., 2, 1] - eta * np.conj(B1) * em * rho[..., 1, 2]
    out[..., 2, 3] = -(r.Gamma_2p + 1j * r.delta_2p) * rho[..., 2, 3] \
        - eta * np.conj(B1) * em * rho[..., 1, 3]

    out[..., 3, 0] = (1j * dsum - G) * rho[..., 3, 0]
    out[..., 3, 1] = -(r.Gamma_1p - 1j * r.delta_1p) * rho[..., 3, 1] \
        - eta * np.conj(B2) * em * rho[..., 3, 2]
    out[..., 3, 2] = -(r.Gamma_2p - 1j * r.delta_2p) * rho[..., 3, 2] \
        - eta * B1 * ep * rho[..., 3, 1]
    out[..., 3, 3] = 2 * r.Gamma_1p * rho[..., 1, 1] + 2 * r.Gamma_2p * rho[..., 2, 2] \
        + eta * r.cross_ground * em * rho[..., 1, 2] \
        + eta * np.conj(r.cross_ground) * ep * rho[..., 2, 1]

    return out.reshape(shape)


RHS_FORMS = {"operator": rhs_operator_form, "element": rhs_element_form}


def _frame_phases(rates: RateSet) -> np.ndarray:
    """theta_j - theta_k for theta = (0, Omega, -Omega, 0), the frame of rotated_rhs."""
    theta = np.array([0.0, rates.Omega, -rates.Omega, 0.0])
    return theta[:, None] - theta[None, :]


def rotated_rhs(
    sigma: np.ndarray, rates: RateSet, eta: float = 1.0, form: str = "operator"
) -> np.ndarray:
    """The right-hand side for sigma_jk = rho_jk exp(-i (theta_j - theta_k) t): no term depends on t."""
    return RHS_FORMS[form](0.0, sigma, rates, eta) - 1j * _frame_phases(rates) * sigma


def evolve(
    rho0: np.ndarray,
    t_grid: np.ndarray,
    rates: RateSet,
    eta: float = 1.0,
    form: str = "operator",
) -> TimeSeries:
    """Solve the reduced master equation exactly on t_grid.

    Every sample is validated on the propagated coordinates: the frame is
    rotated back on the reachable coherences only, the trace is checked and
    renormalized when its deviation stays below linalg.DRIFT_TOL, and the largest
    correction is reported on the returned series; larger drift raises
    DriftError. The series holds the checked coordinates, which describe
    Hermitian states by construction; no 4x4 state is built. A negative
    eigenvalue beyond POSITIVITY_FLOOR, found block by block
    (lowest_eigenvalues), is recorded as a diagnostic and warned about, never
    silently accepted.
    """
    if form not in RHS_FORMS:
        raise ValueError(f"unknown rhs form {form!r}")
    rho0 = density_matrix(rho0)
    t = np.asarray(t_grid, dtype=float)
    dtheta = _frame_phases(rates)
    t0 = t[0] if t.size else 0.0  # propagate_generator rejects an empty grid
    sigma0 = rho0 * np.exp(-1j * dtheta * t0)
    keep, gen = hermitian_generator(lambda s: rotated_rhs(s, rates, eta, form), sigma0)
    x = propagate_generator(gen, stack_coordinates(sigma0)[keep], t)
    x, max_corr = hermitize_and_check(keep, x, dtheta, t)

    lowest = lowest_eigenvalues(keep, x, 4)
    negative = np.flatnonzero(lowest < POSITIVITY_FLOOR)
    diagnostics = [f"negative eigenvalue {lowest[i]:.3e} at t={t[i]:.6g}" for i in negative[:20]]
    if negative.size:
        worst_eig = min(0.0, float(np.min(lowest[negative])))
        warnings.warn(
            f"positivity violated at {negative.size} of {t.size} samples "
            f"(worst eigenvalue {worst_eig:.3e})",
            stacklevel=2,
        )
        if negative.size > len(diagnostics):
            diagnostics.append(f"... {negative.size} samples below {POSITIVITY_FLOOR:g} in total")

    return TimeSeries(t, diagnostics=diagnostics, max_drift_correction=max_corr, keep=keep, x=x)
