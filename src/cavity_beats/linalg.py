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


class DriftError(RuntimeError):
    """The trace of an evolved state drifted beyond the allowed tolerance."""


def _as_square(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    if not np.all(np.isfinite(m.view(float))):
        raise ValueError(f"{name} contains non-finite entries")
    return m


def density_matrix(m: np.ndarray) -> np.ndarray:
    """Validate m as a density matrix and return it read-only.

    Checks Hermiticity to HERM_TOL, unit trace to TRACE_TOL and positivity
    (smallest eigenvalue not below EIG_FLOOR). Raises ValueError describing
    the first violation.
    """
    m = _as_square(m, "density matrix")
    herm_dev = np.max(np.abs(m - m.conj().T))
    if herm_dev > HERM_TOL:
        raise ValueError(f"not Hermitian: max deviation {herm_dev:.3e} > {HERM_TOL:.1e}")
    trace_dev = abs(m.trace() - 1.0)
    if trace_dev > TRACE_TOL:
        raise ValueError(f"trace deviates from 1 by {trace_dev:.3e} > {TRACE_TOL:.1e}")
    # eigvalsh on the symmetrized matrix; the anti-Hermitian part is below HERM_TOL
    w = np.linalg.eigvalsh((m + m.conj().T) / 2)
    if w[0] < EIG_FLOOR:
        raise ValueError(f"negative eigenvalue {w[0]:.3e} below {EIG_FLOOR:.1e}")
    out = m.copy()
    out.flags.writeable = False
    return out


def pure_state(index: int, dim: int) -> np.ndarray:
    """Density matrix |i><i| on a dim-dimensional space, read-only.

    A density matrix by construction, so density_matrix's checks are skipped.
    """
    if not 0 <= index < dim:
        raise ValueError(f"index {index} outside [0, {dim})")
    m = np.zeros((dim, dim), dtype=complex)
    m[index, index] = 1.0
    m.flags.writeable = False
    return m


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


@functools.cache
def element_coordinates(d: int) -> np.ndarray:
    """The coordinate that holds each element of a d x d Hermitian matrix, a (d, d) table.

    [j, j] holds the diagonal element, [j, k] with j < k the real part of element
    (j, k), and [k, j] its imaginary part. Cached per d and read-only.
    """
    rows, cols, is_imag = _hermitian_coordinates(d)
    table = np.empty((d, d), dtype=np.intp)
    table[np.where(is_imag, cols, rows), np.where(is_imag, rows, cols)] = np.arange(d * d)
    table.flags.writeable = False
    return table


@functools.cache
def _coordinate_slots(d: int) -> np.ndarray:
    """Where each real coordinate of a d x d Hermitian matrix lies in its float view.

    The view of a C-ordered complex matrix holds element (j, k) at 2 (j d + k), its
    real part, and 2 (j d + k) + 1, its imaginary part. Cached per d and read-only.
    """
    rows, cols, is_imag = _hermitian_coordinates(d)
    slots = 2 * (rows * d + cols) + is_imag
    slots.flags.writeable = False
    return slots


def stack_coordinates(m: np.ndarray) -> np.ndarray:
    """The Hermitian coordinates of each d x d matrix in m, shape m.shape[:-2] + (d * d,).

    The diagonal and the upper triangle are read; the lower triangle is taken as
    their conjugate, whatever it holds. One gather from the float view of m, taken
    as a C-ordered complex array.
    """
    m = np.ascontiguousarray(m, dtype=complex)
    d = m.shape[-1]
    return m.view(float).reshape(m.shape[:-2] + (2 * d * d,)).take(_coordinate_slots(d), axis=-1)


def hermitian_basis(d: int, coords: np.ndarray) -> np.ndarray:
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


def hermitian_generator(
    rhs: Callable[[np.ndarray], np.ndarray], rho0: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The real matrix of rhs on the Hermitian coordinates that rho0 can reach.

    rhs maps a stack of Hermitian matrices, shape (k, d, d), to the stack of their
    images, real-linearly, as every master equation here does, and gives each matrix
    the same bytes whatever the stack. It is called once, on all d * d basis matrices,
    and reachable_generator reads the reached ones off their images. ValueError is
    raised when rhs fails on the stack or returns another shape. Returns (keep, gen)
    as reachable_generator does.
    """
    d = rho0.shape[0]
    basis = hermitian_basis(d, np.arange(d * d))
    try:
        image = np.asarray(rhs(basis), dtype=complex)
    except ValueError as exc:  # an rhs for one matrix can fail in numpy's broadcasting
        raise ValueError(f"rhs failed on a stack of shape {basis.shape}: {exc}") from exc
    if image.shape != basis.shape:
        raise ValueError(f"rhs must map a stack of shape {basis.shape} to one of the "
                         f"same shape, got {image.shape}")
    return reachable_generator(stack_coordinates(image).__getitem__, rho0)


def reachable_generator(
    images: Callable[[np.ndarray], np.ndarray], rho0: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The real generator on the Hermitian coordinates that rho0 can reach, from its images.

    The coordinates are the diagonal, then the real and the imaginary parts of the
    upper triangle. images(coords) gives, one row each, the coordinates of the
    generator's image of the basis matrix of each coordinate in coords (the matrix
    with that coordinate 1 and every other 0). It is called once per frontier of
    newly reached coordinates, starting from the support of rho0, which must be
    Hermitian. Returns (keep, gen): the coordinates reached through nonzero entries,
    ascending, and the generator on them.
    """
    rho0 = _as_square(rho0, "rho0")
    if np.max(np.abs(rho0 - rho0.conj().T)) > HERM_TOL:
        raise ValueError("rho0 must be Hermitian")
    d = rho0.shape[0]
    seen = np.zeros(d * d, dtype=bool)
    new = np.flatnonzero(stack_coordinates(rho0))
    reached, rows = [], []
    while new.size:
        image = images(new)
        reached.append(new)
        rows.append(image)
        seen[new] = True
        new = np.flatnonzero(np.any(image, axis=0) & ~seen)
    keep = np.flatnonzero(seen)
    order = np.argsort(np.concatenate(reached))  # the rows of keep, ascending
    # One np.ix_ gather leaves the rows C-ordered, so gen is F-ordered: expm and the
    # doubling walk follow the memory layout, and with it the bits of every output.
    return keep, np.concatenate(rows)[np.ix_(order, keep)].T


def rank_one_images(left: np.ndarray, right: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """The images of the basis matrices of coordinates under rho -> sum_t left[t] rho right[t].

    The map it returns takes coordinates to their images' coordinates, one row each, as
    reachable_generator asks. left and right are stacks of T d x d matrices. The basis
    matrix of a coordinate is E = u e_j e_k^T + conj(u) e_k e_j^T: u = 1 for the
    diagonal and the real parts, u = i for the imaginary parts, and the second term
    only off the diagonal. So left[t] E right[t] = [left[t] e_j] u [e_k^T right[t]]
    + [left[t] e_k] conj(u) [e_j^T right[t]], and the images of m coordinates are one
    (m, d, 2T) @ (m, 2T, d) product of columns of left, times their unit, and rows of
    right, gathered from tables built here once. They agree with the dense products to
    rounding, and bit for bit where every product of an entry of left and one of right
    is exact and no entry of an image sums more than two nonzero terms.
    """
    n, d, _ = left.shape
    rows, cols, is_imag = _hermitian_coordinates(d)
    # Row (unit * d + j) of the left table holds column j of every left[t] times
    # (1, i, -i, 0)[unit]: the unit of the first term, then that of the second, which is
    # 0 on the diagonal, where E has one term only.
    columns = left.transpose(2, 0, 1)
    left_table = np.concatenate([columns, 1j * columns, -1j * columns, np.zeros_like(columns)])
    right_table = right.transpose(1, 0, 2)  # row k holds row k of every right[t]
    second_unit = np.where(rows == cols, 3, 2 * is_imag)
    left_rows = np.stack([is_imag * d + rows, second_unit * d + cols], axis=1)
    right_rows = np.stack([cols, rows], axis=1)

    def images(coords: np.ndarray) -> np.ndarray:
        m = len(coords)
        lf = left_table[left_rows[coords]].reshape(m, 2 * n, d).transpose(0, 2, 1)
        rf = right_table[right_rows[coords]].reshape(m, 2 * n, d)
        return stack_coordinates(lf @ rf)

    return images


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


def propagate_generator(gen: np.ndarray, x0: np.ndarray, t_grid: np.ndarray) -> np.ndarray:
    """Solve dx/dt = gen x exactly on t_grid, from x0 at t_grid[0]; x[n] at t_grid[n].

    gen is a real generator, such as reachable_generator returns. A uniform grid
    (uniform_step) takes one step matrix S and fills the samples by doubling: with
    P = S^n, x[n:2n] = P x[:n], then P is squared, so N samples cost about log2(N)
    matrix products and floor(log2(N - 1)) squarings of S, which count against S's
    squaring budget (_step_matrix). Any other grid takes one step matrix per step.
    The result is a transposed (coordinates, samples) array, the layout a TimeSeries keeps.
    """
    t = np.asarray(t_grid, dtype=float)
    steps = np.diff(t)
    if t.ndim != 1 or t.size == 0 or not np.all(steps > 0):
        raise ValueError("t_grid must be a nonempty, strictly ascending 1-D array")
    x = np.empty((x0.size, t.size))
    x[:, 0] = x0
    uniform = uniform_step(t)
    if uniform is None:
        for i, h in enumerate(steps):
            x[:, i + 1] = _step_matrix(gen, h) @ x[:, i]
    else:
        walk = (t.size - 1).bit_length() - 1  # squarings up to the largest power of S used
        power = _step_matrix(gen, uniform, walk)
        n = 1
        while n < t.size:
            m = min(n, t.size - n)
            # P goes in Fortran-ordered: each sample gets the bits of the sample-major x[:m] @ P.T
            np.matmul(np.asfortranarray(power), x[:, :m], out=x[:, n:n + m])
            n += m
            if n < t.size:
                power = power @ power
    return x.T

