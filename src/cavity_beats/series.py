"""Sampled atomic density-matrix trajectories, and every reader of their coordinates.

A run ends the same way in both engines: the real coordinates of the atom's 4x4
matrix at each sample are turned back from the engine's frame, their trace is
checked and divided out, and their positivity is judged. hermitize_and_check does
all three, the one place that judges a propagated run, and the series it returns
keeps the engine's array as its storage. Which column of a series holds which
coordinate is known here only, through TimeSeries.coordinate; the channels, the
positivity check and the comparison of two runs all read through it.
"""

from __future__ import annotations

import warnings

import numpy as np

from .linalg import DriftError, element_coordinates, hermitian_states

LEVELS = {"e": 0, "1": 1, "2": 2, "g": 3}
D = len(LEVELS)
_ELEMENT = element_coordinates(D).tolist()  # [j][k]: the coordinate that holds element (j, k)
_UPPER = [(j, k) for j in range(D) for k in range(j + 1, D)]  # every element above the diagonal
DRIFT_TOL = 1e-6  # trace deviation hermitize_and_check renormalizes; beyond it, DriftError
POSITIVITY_FLOOR = -1e-6  # a lowest eigenvalue below it is a positivity excursion
POINTWISE_BLOCK = 2048  # samples per pointwise pass: small temporaries, so long runs peak low

# the standard output channels by column name
CHANNELS = {
    "t": lambda s: s.times,
    "rho_ee": lambda s: s.population("e"),
    "rho_11": lambda s: s.population("1"),
    "rho_22": lambda s: s.population("2"),
    "rho_gg": lambda s: s.population("g"),
    "re_rho_12": lambda s: s.coordinate(_ELEMENT[1][2]),
    "im_rho_12": lambda s: s.coordinate(_ELEMENT[2][1]),
    "abs_rho_12": lambda s: np.abs(s.coherence("1", "2")),
}


class TimeSeries:
    """Atomic density matrices sampled on a time grid, held as their real coordinates.

    x[n] holds the Hermitian coordinates keep (linalg.element_coordinates
    says which element each one holds) of the 4x4 matrix at times[n] in the
    (e, 1, 2, g) basis; every other coordinate is zero. x is Fortran-ordered,
    so the values of each coordinate, x[:, i], lie contiguous in memory, and
    the channels read them without a copy.
    diagnostics collects non-fatal anomalies seen while producing the run,
    the positivity excursions, and max_drift_correction is the largest trace
    renormalization applied; hermitize_and_check sets both. Both are empty on
    a series built directly.
    """

    def __init__(self, times: np.ndarray, keep: np.ndarray, x: np.ndarray) -> None:
        self.times = np.asarray(times, dtype=float)
        if self.times.ndim != 1:
            raise ValueError("times must be one-dimensional")
        self.keep = np.asarray(keep, dtype=np.intp)
        self.x = np.asfortranarray(x, dtype=float)
        if self.x.shape != (self.times.size, self.keep.size):
            raise ValueError("x must have one row of len(keep) coordinates per time")
        self._column = {k: i for i, k in enumerate(self.keep.tolist())}
        self.diagnostics: list[str] = []
        self.max_drift_correction = 0.0

    def __len__(self) -> int:
        return self.times.size

    def coordinate(self, k: int) -> np.ndarray:
        """The values of coordinate k on the grid: a view of x, or zeros outside keep."""
        i = self._column.get(k)
        return np.zeros(self.times.size) if i is None else self.x[:, i]

    def population(self, level: str) -> np.ndarray:
        i = LEVELS[level]
        return self.coordinate(_ELEMENT[i][i])

    def coherence(self, upper: str, lower: str) -> np.ndarray:
        """Element (upper, lower) of every matrix, by level name, as _element fills it."""
        return self._element(LEVELS[upper], LEVELS[lower])

    def _element(self, i: int, j: int) -> np.ndarray:
        """Element (i, j) of every matrix, complex, filled part by part.

        Assigning the real and imaginary parts keeps the sign of each zero, which
        re + 1j * im would not; a part outside keep stays +0.0.
        """
        a, b = min(i, j), max(i, j)
        re, im = _ELEMENT[a][b], (None if a == b else _ELEMENT[b][a])
        out = np.zeros(self.times.size, dtype=complex)
        if re in self._column:
            out.real = self.coordinate(re)
        if im in self._column:
            out.imag = self.coordinate(im) if i < j else -self.coordinate(im)
        return out

    def channel(self, name: str) -> np.ndarray:
        """One standard output channel by column name."""
        return CHANNELS[name](self)

    def channels(self) -> dict[str, np.ndarray]:
        """The standard output channels keyed by column name."""
        return {name: self.channel(name) for name in CHANNELS}

    def lowest_eigenvalues(self) -> np.ndarray:
        """The lowest eigenvalue of the matrix at each sample.

        Every coordinate outside keep is zero, so the matrices are block diagonal: a
        block is a connected component of the levels, linked by the off-diagonal
        elements with a coordinate in keep. A 1 x 1 block gives its diagonal, a 2 x 2
        block [[a, b], [b*, c]] the closed form (a + c)/2 - hypot((a - c)/2, |b|), with
        |b| the np.abs of the complex b, and a larger one eigvalsh.
        """
        label = np.arange(D)
        for j, k in _UPPER:
            if _ELEMENT[j][k] in self._column or _ELEMENT[k][j] in self._column:
                label[label == label[k]] = label[j]
        lowest = np.full(len(self), np.inf)
        for block in (np.flatnonzero(label == b) for b in dict.fromkeys(label.tolist())):
            if block.size == 1:
                w = self.coordinate(_ELEMENT[block[0]][block[0]])
            elif block.size == 2:
                i, j = block
                a, c = self.coordinate(_ELEMENT[i][i]), self.coordinate(_ELEMENT[j][j])
                w = (a + c) / 2 - np.hypot((a - c) / 2, np.abs(self._element(i, j)))
            else:
                w = np.linalg.eigvalsh(
                    hermitian_states(self.keep, self.x, D)[:, block[:, None], block])[:, 0]
            np.minimum(lowest, w, out=lowest)
        return lowest

    def max_difference(self, other: TimeSeries) -> float:
        """The largest modulus of an element of self's matrix minus other's, over every sample.

        Read element by element, without building a matrix: np.abs of the complex
        difference of each element on or above the diagonal that either series holds,
        which its conjugate element shares; every other element differs by zero.
        Samples are compared by index, so both series must share one grid.
        """
        if not np.array_equal(self.times, other.times):
            raise ValueError("the series are sampled on different grids")
        held = self._column.keys() | other._column.keys()
        return float(np.max([np.abs(self._element(j, k) - other._element(j, k))
                             for j in range(D) for k in range(j, D)
                             if _ELEMENT[j][k] in held or _ELEMENT[k][j] in held], initial=0.0))


def hermitize_and_check(
    times: np.ndarray, keep: np.ndarray, x: np.ndarray, phases: np.ndarray
) -> TimeSeries:
    """The checked series of the states with coordinates x[n] on keep at times[n], in a rotated frame.

    phases[j, k] is the frame frequency of element (j, k): each reachable off-diagonal
    element with a nonzero one is multiplied by exp(i phases[j, k] t), on its real and
    imaginary coordinates, POINTWISE_BLOCK samples at a time. Then the trace of each
    sample, summed over the diagonal coordinates in index order, is checked and divided
    out. A Fortran-ordered float64 x is kept as the series' storage and changed in place;
    TimeSeries copies any other x first. The series' max_drift_correction is the largest
    deviation of a trace from 1. Beyond DRIFT_TOL the state is corrupted,
    not blipped: DriftError names the first such sample. Last, each renormalized
    sample's lowest eigenvalue (TimeSeries.lowest_eigenvalues) is compared with
    POSITIVITY_FLOOR: the series' diagnostics name the first 20 samples below it and
    their total, and one warning, at the engine's caller, gives their number and the
    worst, so an excursion is never silently accepted. Coordinates describe Hermitian
    states by construction, so nothing needs repair, and no 4x4 state is built here.
    The name no longer says what it does; it stays because the benchmark looks it up
    in reduced and composite, which call it through their module globals.
    """
    phases = np.asarray(phases, dtype=float)
    if phases.shape != (D, D):
        raise ValueError(f"need {D} x {D} phases, got {phases.shape}")
    series = TimeSeries(times, keep, x)
    t, column = series.times, series._column
    for j, k in _UPPER:
        a, b = column.get(_ELEMENT[j][k]), column.get(_ELEMENT[k][j])
        if phases[j, k] == 0.0 or (a is None and b is None):
            continue
        if a is None or b is None:
            raise ValueError("a rotated element needs both its real and imaginary coordinates")
        re, im = series.x[:, a], series.x[:, b]
        for s in range(0, t.size, POINTWISE_BLOCK):
            n = slice(s, s + POINTWISE_BLOCK)
            z = (re[n] + 1j * im[n]) * np.exp(1j * phases[j, k] * t[n])
            re[n], im[n] = z.real, z.imag
    if not np.all(np.isfinite(series.x)):
        raise ValueError("states contain non-finite entries")
    trace = np.zeros(t.size)
    for j in range(D):
        trace += series.coordinate(_ELEMENT[j][j])
    trace_dev = trace - 1.0
    np.abs(trace_dev, out=trace_dev)
    if np.any(trace_dev > DRIFT_TOL):
        i = int(np.argmax(trace_dev > DRIFT_TOL))
        raise DriftError(f"sample {i} (t={t[i]:.6g}): trace drift {trace_dev[i]:.3e} "
                         f"exceeds tolerance {DRIFT_TOL:.1e}")
    np.divide(1.0, trace, out=trace)
    series.x *= trace[:, None]
    series.max_drift_correction = float(np.max(trace_dev, initial=0.0))

    lowest = series.lowest_eigenvalues()
    negative = np.flatnonzero(lowest < POSITIVITY_FLOOR)
    diagnostics = [f"negative eigenvalue {lowest[i]:.3e} at t={t[i]:.6g}" for i in negative[:20]]
    if negative.size:
        worst_eig = min(0.0, float(np.min(lowest[negative])))
        warnings.warn(
            f"positivity violated at {negative.size} of {t.size} samples "
            f"(worst eigenvalue {worst_eig:.3e})",
            stacklevel=3,  # the engine's caller
        )
        if negative.size > len(diagnostics):
            diagnostics.append(f"... {negative.size} samples below {POSITIVITY_FLOOR:g} in total")
    series.diagnostics = diagnostics
    return series
