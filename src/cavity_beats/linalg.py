"""Dense complex matrix helpers and density-matrix validation.

Everything here works on plain numpy arrays. Validated density matrices
are returned as read-only views so downstream code cannot mutate them by
accident. All Hilbert spaces in this package are tiny (at most a few tens
of dimensions), so dense algebra is used throughout.
"""

from __future__ import annotations

import functools
from typing import Callable

import numpy as np

HERM_TOL = 1e-12
TRACE_TOL = 1e-10
EIG_FLOOR = -1e-9
ROTATION_BLOCK = 2048  # samples hermitize_and_check turns to its frame at a time


class DriftError(RuntimeError):
    """The trace of an evolved state drifted beyond the allowed tolerance."""


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


def stack_coordinates(m: np.ndarray) -> np.ndarray:
    """The Hermitian coordinates of each d x d matrix in m, shape m.shape[:-2] + (d * d,).

    The diagonal and the upper triangle are read; the lower triangle is taken as
    their conjugate, whatever it holds.
    """
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


def hermitian_states(keep: np.ndarray, x: np.ndarray, d: int) -> np.ndarray:
    """The d x d Hermitian matrices with coordinates x[n] on keep and 0 elsewhere.

    Returns shape (len(x), d, d). Each entry is copied from one coordinate, so the
    matrices are exactly Hermitian.
    """
    rows, cols, is_imag = _hermitian_coordinates(d)
    imag = is_imag[keep]
    re, im, x_re, x_im = keep[~imag], keep[imag], x[:, ~imag], x[:, imag]
    out = np.zeros((len(x), d, d), dtype=complex)
    out.real[:, rows[re], cols[re]] = x_re
    out.real[:, cols[re], rows[re]] = x_re
    out.imag[:, rows[im], cols[im]] = x_im
    out.imag[:, cols[im], rows[im]] = -x_im
    return out


def lowest_eigenvalues(keep: np.ndarray, x: np.ndarray, d: int) -> np.ndarray:
    """The lowest eigenvalue of each d x d Hermitian matrix with coordinates x[n] on keep.

    x has shape (n, keep.size), as hermitize_and_check returns it. Every coordinate
    outside keep is zero, so the matrices are block diagonal: a block is a connected
    component of the levels, linked by the off-diagonal coordinates in keep. A 1 x 1
    block gives its diagonal, a 2 x 2 block [[a, b], [b*, c]] the closed form
    (a + c)/2 - hypot((a - c)/2, |b|), with |b| the np.abs of the complex b, and a
    larger one eigvalsh.
    """
    rows, cols, _ = _hermitian_coordinates(d)
    column = {k: i for i, k in enumerate(keep.tolist())}

    def value(k: int) -> np.ndarray:
        return x[:, column[k]] if k in column else np.zeros(len(x))

    label = np.arange(d)
    for r, c in zip(rows[keep], cols[keep]):
        label[label == label[c]] = label[r]
    lowest = np.full(len(x), np.inf)
    for block in (np.flatnonzero(label == b) for b in np.unique(label)):
        if block.size == 1:
            w = value(block[0])
        elif block.size == 2:
            i, j = block
            a, c = value(i), value(j)
            k = int(np.flatnonzero((rows == i) & (cols == j))[0])  # the real coordinate of (i, j)
            b = np.zeros(len(x), dtype=complex)
            b.real, b.imag = value(k), value(k + (d * d - d) // 2)
            w = (a + c) / 2 - np.hypot((a - c) / 2, np.abs(b))
        else:
            w = np.linalg.eigvalsh(hermitian_states(keep, x, d)[:, block[:, None], block])[:, 0]
        np.minimum(lowest, w, out=lowest)
    return lowest


def hermitize_and_check(
    keep: np.ndarray, x: np.ndarray, phases: np.ndarray, times: np.ndarray, tol: float
) -> tuple[np.ndarray, float]:
    """Validate the states with coordinates x[n] on keep, sampled at times[n], in a rotated frame.

    phases[j, k] is the frame frequency of element (j, k): each reachable off-diagonal
    element with a nonzero one is multiplied by exp(i phases[j, k] t), on its real and
    imaginary coordinates. Then the trace of each sample, summed over the diagonal
    coordinates in index order, is checked and divided out. Returns the checked and
    renormalized coordinates, a new Fortran-ordered (n, keep.size) array, so the
    values of each coordinate lie contiguous in memory; and the largest correction, the
    largest deviation of a trace from 1. Coordinates describe Hermitian states by
    construction, so nothing needs repair, and no 4x4 state is built here. Beyond tol
    the state is corrupted, not blipped: DriftError names the first such sample.
    """
    phases = np.asarray(phases, dtype=float)
    t = np.asarray(times, dtype=float)
    x = np.array(x, dtype=float, order="F")
    d = phases.shape[0]
    if phases.shape != (d, d) or x.shape != (t.size, keep.size):
        raise ValueError(f"need {d} x {d} phases and one row of {keep.size} coordinates "
                         f"per time, got {phases.shape} and {x.shape}")
    rows, cols, is_imag = _hermitian_coordinates(d)
    n_off = (d * d - d) // 2  # the imaginary coordinate of element k is k + n_off
    rotated = keep[(rows[keep] != cols[keep]) & (phases[rows[keep], cols[keep]] != 0.0)]
    column = {k: i for i, k in enumerate(keep.tolist())}
    for k in np.unique(np.where(is_imag[rotated], rotated - n_off, rotated)).tolist():
        if k not in column or k + n_off not in column:
            raise ValueError("a rotated element needs both its real and imaginary coordinates")
        a, b = column[k], column[k + n_off]
        for s in range(0, t.size, ROTATION_BLOCK):  # pointwise, so blocks keep temporaries small
            n = slice(s, s + ROTATION_BLOCK)
            z = (x[n, a] + 1j * x[n, b]) * np.exp(1j * phases[rows[k], cols[k]] * t[n])
            x[n, a], x[n, b] = z.real, z.imag
    if not np.all(np.isfinite(x)):
        raise ValueError("states contain non-finite entries")
    diagonal = np.flatnonzero(keep < d)
    trace = np.zeros(t.size)
    for j in diagonal:
        trace += x[:, j]
    trace_dev = trace - 1.0
    np.abs(trace_dev, out=trace_dev)
    if np.any(trace_dev > tol):
        i = int(np.argmax(trace_dev > tol))
        raise DriftError(
            f"sample {i} (t={t[i]:.6g}): trace drift {trace_dev[i]:.3e} exceeds tolerance {tol:.1e}"
        )
    np.divide(1.0, trace, out=trace)
    x *= trace[:, None]
    return x, float(np.max(trace_dev, initial=0.0))


def hermitian_generator(
    rhs: Callable[[np.ndarray], np.ndarray], rho0: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The real matrix of rhs on the Hermitian coordinates that rho0 can reach.

    The coordinates are the diagonal, then the real and the imaginary parts of
    the upper triangle. rhs maps a stack of Hermitian matrices, shape (k, d, d),
    to the stack of their images, real-linearly, as every master equation here
    does; it is called once per frontier of newly reached coordinates, on the
    basis matrices of that frontier, and ValueError is raised when it returns
    another shape. Returns (keep, gen): the coordinates reached from the support
    of rho0 through nonzero entries, ascending, and the generator on them.
    """
    d = rho0.shape[0]
    seen = np.zeros(d * d, dtype=bool)
    frontiers, images = [], []  # each frontier, and the coordinates of rhs on its basis
    new = np.flatnonzero(stack_coordinates(rho0))
    while new.size:
        basis = _hermitian_basis(d, new)
        image = np.asarray(rhs(basis), dtype=complex)
        if image.shape != basis.shape:
            raise ValueError(f"rhs must map a stack of shape {basis.shape} to one of the "
                             f"same shape, got {image.shape}")
        frontiers.append(new)
        images.append(stack_coordinates(image))
        seen[new] = True
        new = np.flatnonzero(np.any(images[-1], axis=0) & ~seen)
    keep = np.flatnonzero(seen)
    # The frontiers are disjoint and cover keep, so sorting them puts the rows in keep
    # order. Indexing the rows last leaves them C-ordered, so gen is F-ordered: expm and
    # the doubling walk follow the memory layout, and with it the bits of every output.
    rows = np.concatenate(images)[:, keep][np.argsort(np.concatenate(frontiers))]
    return keep, rows.T


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


def propagate_coordinates(
    rhs: Callable[[np.ndarray], np.ndarray], rho0: np.ndarray, t_grid: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Solve d(rho)/dt = rhs(rho) exactly on t_grid, on the coordinates rho0 can reach.

    Returns (keep, x): the reachable coordinates (hermitian_generator) and x[n], their
    values at t_grid[n]; every other coordinate stays exactly zero. t_grid ascends
    from the time of rho0, and rhs is time-independent: it maps a stack of Hermitian
    matrices, shape (k, d, d), to the stack of their images, real-linearly
    (hermitian_generator). A uniform grid (uniform_step) takes one step matrix S and
    fills the samples by doubling: with P = S^n, x[n:2n] = P x[:n], then P is
    squared, so N samples cost about log2(N) matrix products and floor(log2(N - 1))
    squarings of S, which count against S's squaring budget (_step_matrix). Any
    other grid takes one step matrix per step.
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
    x[0] = stack_coordinates(rho0)[keep]
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
    return keep, x


def linear_readout(
    observe: Callable[[np.ndarray], np.ndarray], keep: np.ndarray, d: int
) -> tuple[np.ndarray, np.ndarray]:
    """A linear map of d x d Hermitian matrices, on the coordinates keep.

    observe works on a stack of matrices and maps Hermitian ones to Hermitian ones,
    such as a partial trace. It is applied to the matrix of each coordinate in keep,
    never to a state. Returns (keep_out, c): the output coordinates the map reaches
    and their real matrix, so observe takes the states with coordinates x on keep to
    those with coordinates x @ c on keep_out.
    """
    c = stack_coordinates(np.asarray(observe(_hermitian_basis(d, keep)), dtype=complex))
    keep_out = np.flatnonzero(np.any(c, axis=0))
    return keep_out, c[:, keep_out]


def propagate(
    rhs: Callable[[np.ndarray], np.ndarray], rho0: np.ndarray, t_grid: np.ndarray
) -> np.ndarray:
    """The states of propagate_coordinates, shape (len(t_grid),) + rho0.shape.

    A run never builds them: it validates the coordinates themselves
    (hermitize_and_check) and keeps them in its series.TimeSeries, which reads every
    output from them. This builds the stack, for callers that want the matrices.
    """
    keep, x = propagate_coordinates(rhs, rho0, t_grid)
    return hermitian_states(keep, x, np.shape(rho0)[0])
