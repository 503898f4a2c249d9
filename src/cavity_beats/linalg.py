"""Dense complex matrix helpers and density-matrix validation.

Everything here works on plain numpy arrays. Validated density matrices
are returned as read-only views so downstream code cannot mutate them by
accident. All Hilbert spaces in this package are tiny (at most a few tens
of dimensions), so dense algebra is used throughout.
"""

from __future__ import annotations

import functools
import math
from typing import Callable

import numpy as np

HERM_TOL = 1e-12
TRACE_TOL = 1e-10
EIG_FLOOR = -1e-9


class DriftError(RuntimeError):
    """The Hermiticity or trace of an evolved state drifted beyond the allowed tolerance."""


def _as_square(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    if not np.all(np.isfinite(m.view(float))):
        raise ValueError(f"{name} contains non-finite entries")
    return m


def density_matrix(
    m: np.ndarray,
    herm_tol: float = HERM_TOL,
    trace_tol: float = TRACE_TOL,
    eig_floor: float = EIG_FLOOR,
) -> np.ndarray:
    """Validate m as a density matrix and return it read-only.

    Checks Hermiticity, unit trace and positivity (smallest eigenvalue not
    below eig_floor). Raises ValueError describing the first violation.
    """
    m = _as_square(m, "density matrix")
    herm_dev = np.max(np.abs(m - m.conj().T))
    if herm_dev > herm_tol:
        raise ValueError(f"not Hermitian: max deviation {herm_dev:.3e} > {herm_tol:.1e}")
    trace_dev = abs(m.trace() - 1.0)
    if trace_dev > trace_tol:
        raise ValueError(f"trace deviates from 1 by {trace_dev:.3e} > {trace_tol:.1e}")
    # eigvalsh on the symmetrized matrix; the anti-Hermitian part is below herm_tol
    w = np.linalg.eigvalsh((m + m.conj().T) / 2)
    if w[0] < eig_floor:
        raise ValueError(f"negative eigenvalue {w[0]:.3e} below {eig_floor:.1e}")
    out = m.copy()
    out.flags.writeable = False
    return out


def pure_state(index: int, dim: int) -> np.ndarray:
    """Density matrix |i><i| on a dim-dimensional space."""
    if not 0 <= index < dim:
        raise ValueError(f"index {index} outside [0, {dim})")
    m = np.zeros((dim, dim), dtype=complex)
    m[index, index] = 1.0
    return density_matrix(m)


def partial_trace_field(rho: np.ndarray, dims: tuple[int, int, int]) -> np.ndarray:
    """Trace out both field modes of an atom (x) mode-a (x) mode-b state.

    dims is (atom_dim, n_a, n_b) with the composite index ordered
    atom-major: i = atom*n_a*n_b + photons_a*n_b + photons_b. rho may be one
    matrix or a stack of them along the leading axes.
    """
    rho = np.asarray(rho, dtype=complex)
    d_atom, n_a, n_b = dims
    if d_atom <= 0 or n_a <= 0 or n_b <= 0:
        raise ValueError(f"dims must be positive, got {dims}")
    dim = d_atom * n_a * n_b
    if rho.shape[-2:] != (dim, dim):
        raise ValueError(f"shape {rho.shape} does not end in {dim}x{dim} = {d_atom}*{n_a}*{n_b}")
    if not np.all(np.isfinite(rho.view(float))):
        raise ValueError("rho contains non-finite entries")
    r = rho.reshape(rho.shape[:-2] + (d_atom, n_a, n_b, d_atom, n_a, n_b))
    return np.einsum("...ipqjpq->...ij", r)


def hermitize_and_check(states: np.ndarray, times: np.ndarray, tol: float) -> tuple[np.ndarray, float]:
    """Symmetrize and renormalize states[k], sampled at times[k].

    Returns the repaired stack and the largest correction, which per sample
    is the larger of the anti-Hermitian and the trace deviation. Beyond tol
    the state is corrupted, not blipped: DriftError names the first such
    sample.
    """
    m = np.asarray(states, dtype=complex)
    if m.ndim != 3 or m.shape[1] != m.shape[2] or m.shape[0] != np.size(times):
        raise ValueError(f"need one square matrix per time, got shape {m.shape}")
    if not np.all(np.isfinite(m.view(float))):
        raise ValueError("states contain non-finite entries")
    mh = m.conj().transpose(0, 2, 1)
    herm_dev = np.max(np.abs(m - mh), axis=(1, 2))
    trace_dev = np.abs(np.einsum("nii->n", m) - 1.0)
    correction = np.maximum(herm_dev, trace_dev)
    if np.any(correction > tol):
        i = int(np.argmax(correction > tol))
        raise DriftError(
            f"sample {i} (t={times[i]:.6g}): drift {correction[i]:.3e} exceeds tolerance "
            f"{tol:.1e} (hermiticity {herm_dev[i]:.3e}, trace {trace_dev[i]:.3e})"
        )
    out = (m + mh) / 2
    out /= np.einsum("nii->n", out).real[:, None, None]
    return out, float(np.max(correction, initial=0.0))


# [13/13] Pade coefficients, and the largest 1-norm at which that approximant
# is accurate to double precision unscaled (Higham, SIAM J. Matrix Anal.
# Appl. 26:1179, 2005).
PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
THETA13 = 5.371920351148152
# A step whose Pade exponential needs more squarings than this loses digits in each
# one (the stationary eigenvalue 1 drifts); such a step is taken through the
# generator's eigenvectors instead when their condition number stays below EIG_COND_MAX.
MAX_SQUARINGS = 20
EIG_COND_MAX = 1e6


def _squarings(a: np.ndarray) -> int:
    """The number of squarings expm takes for a."""
    norm = float(np.max(np.sum(np.abs(a), axis=0), initial=0.0))
    if not np.isfinite(norm):  # a non-finite entry, or a 1-norm beyond the float range
        raise ValueError("expm needs a matrix with a finite 1-norm")
    return int(np.ceil(np.log2(norm / THETA13))) if norm > THETA13 else 0


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring of a [13/13] Pade approximant."""
    a = np.asarray(a, dtype=complex if np.iscomplexobj(a) else float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expm needs a square matrix, got shape {a.shape}")
    s = _squarings(a)
    a = a / 2.0**s
    b = PADE13
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    eye = np.eye(a.shape[0], dtype=a.dtype)
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2) + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
    v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


@functools.cache
def _hermitian_coordinates(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row, column and is_imag of the real coordinates of a d x d Hermitian matrix.

    Cached per d and read-only, since every coordinate map of a run asks for them.
    """
    iu, ju = np.triu_indices(d, 1)
    rows = np.concatenate([np.arange(d), iu, iu])
    cols = np.concatenate([np.arange(d), ju, ju])
    tables = (rows, cols, np.arange(d * d) >= d + iu.size)
    for a in tables:
        a.flags.writeable = False
    return tables


def _coordinates(m: np.ndarray) -> np.ndarray:
    rows, cols, is_imag = _hermitian_coordinates(m.shape[-1])
    v = m[..., rows, cols]
    return np.where(is_imag, v.imag, v.real)


def _hermitian_basis(d: int, coords: np.ndarray) -> np.ndarray:
    """The d x d Hermitian matrix of each coordinate in coords, shape (len(coords), d, d)."""
    rows, cols, is_imag = _hermitian_coordinates(d)
    r, c, unit = rows[coords], cols[coords], np.where(is_imag[coords], 1j, 1.0)
    k = np.arange(len(coords))
    basis = np.zeros((len(coords), d, d), dtype=complex)
    basis[k, r, c] = unit
    basis[k, c, r] = unit.conj()
    return basis


def hermitian_generator(
    rhs: Callable[[np.ndarray], np.ndarray], rho0: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The real matrix of rhs on the Hermitian coordinates that rho0 can reach.

    The coordinates are the diagonal, then the real and the imaginary parts of
    the upper triangle; rhs must map Hermitian matrices to Hermitian ones
    real-linearly, as every master equation here does. Returns (keep, gen):
    the coordinates reached from the support of rho0 through nonzero entries,
    ascending, and the generator on them.
    """
    columns: dict[int, np.ndarray] = {}
    new = np.flatnonzero(_coordinates(rho0))
    while new.size:  # one frontier of newly reached coordinates at a time
        for k, basis in zip(new, _hermitian_basis(rho0.shape[0], new)):
            columns[k] = _coordinates(np.asarray(rhs(basis), dtype=complex))
        reached = np.flatnonzero(np.any([columns[k] for k in new], axis=0))
        new = np.setdiff1d(reached, list(columns))
    keep = np.array(sorted(columns), dtype=int)
    return keep, np.array([columns[k][keep] for k in keep]).T.reshape(keep.size, keep.size)


def _step_matrix(gen: np.ndarray, h: float, squarings_after: int = 0) -> np.ndarray:
    """e^{gen h} for a real generator gen, to be squared squarings_after more times.

    Pade through expm, unless its own squarings plus squarings_after exceed
    MAX_SQUARINGS and gen has eigenvectors V with cond(V) <= EIG_COND_MAX: then
    V e^{lambda h} V^-1. Every squaring of a Pade step doubles its error, those of
    the caller's walk as much as expm's own, so the budget covers the whole walk.
    """
    a = gen * h
    if _squarings(a) + squarings_after > MAX_SQUARINGS:
        lam, vec = np.linalg.eig(gen)
        if np.linalg.cond(vec) <= EIG_COND_MAX:
            return ((vec * np.exp(lam * h)) @ np.linalg.inv(vec)).real
    return expm(a)


def uniform_step(t: np.ndarray) -> float | None:
    """The mean step of the ascending grid t if the grid is uniform, else None.

    Uniform means every time within 1e-12 of the span from t[0] + i * step. Steps
    compared with each other would not do: on a linspace grid of 20001 samples they
    differ by several 1e-12 through the rounding of the times themselves.
    """
    if t.size < 2:
        return None
    step = float(np.diff(t).mean())
    off = np.max(np.abs(t - (t[0] + step * np.arange(t.size))))
    return step if off <= 1e-12 * (t[-1] - t[0]) else None


def propagate(
    rhs: Callable[[np.ndarray], np.ndarray],
    rho0: np.ndarray,
    t_grid: np.ndarray,
    observe: Callable[[np.ndarray], np.ndarray] = lambda m: m,
) -> np.ndarray:
    """Solve d(rho)/dt = rhs(rho) exactly on t_grid and return observe(rho) at each time.

    t_grid ascends from the time of rho0. rhs is time-independent and meets the
    conditions of hermitian_generator; coordinates rho0 cannot reach stay exactly
    zero. A uniform grid (uniform_step) takes one step matrix S and fills the
    samples by doubling: with P = S^n, x[n:2n] = P x[:n], then P is squared, so N
    samples cost about log2(N) matrix products and floor(log2(N - 1)) squarings of
    S, which count against S's squaring budget (_step_matrix). Any other grid takes
    one step matrix per step.

    observe is a linear map that works on a stack of matrices, such as a partial
    trace; by default the state itself. It is applied to the matrix of each
    reachable coordinate, never to a state, so the output is x @ observe(basis):
    shape (len(t_grid),) + observe(rho0).shape, and no (len(t_grid), d, d) stack is
    built unless observe keeps the state whole.
    """
    rho0 = _as_square(rho0, "rho0")
    if np.max(np.abs(rho0 - rho0.conj().T)) > HERM_TOL:
        raise ValueError("rho0 must be Hermitian")
    t = np.asarray(t_grid, dtype=float)
    steps = np.diff(t)
    if t.ndim != 1 or t.size == 0 or not np.all(steps > 0):
        raise ValueError("t_grid must be a nonempty, strictly ascending 1-D array")
    keep, gen = hermitian_generator(rhs, rho0)
    x = np.empty((t.size, keep.size))
    x[0] = _coordinates(rho0)[keep]
    uniform = uniform_step(t)
    if uniform is None:
        for i, h in enumerate(steps):
            x[i + 1] = _step_matrix(gen, h) @ x[i]
    else:
        walk = (t.size - 1).bit_length() - 1  # squarings up to the largest power of S used
        power = _step_matrix(gen, uniform, walk)
        n = 1
        while n < t.size:
            m = min(n, t.size - n)
            np.matmul(x[:m], power.T, out=x[n:n + m])
            n += m
            if n < t.size:
                power = power @ power

    readout = np.asarray(observe(_hermitian_basis(rho0.shape[0], keep)), dtype=complex)
    shape = readout.shape[1:]
    # one real product, with the real and imaginary parts of the readout interleaved
    flat = np.ascontiguousarray(readout.reshape(keep.size, math.prod(shape))).view(float)
    return (x @ flat).view(complex).reshape((t.size,) + shape)
