"""Container for sampled atomic density-matrix trajectories."""

from __future__ import annotations

import itertools

import numpy as np

from .linalg import hermitian_states, stack_coordinates

LEVELS = {"e": 0, "1": 1, "2": 2, "g": 3}
D = len(LEVELS)
N_UPPER = D * (D - 1) // 2
# the real coordinate of each upper element (j, k), in the order of np.triu_indices; its
# imaginary one is N_UPPER further on
UPPER = {pair: D + n for n, pair in enumerate(itertools.combinations(range(D), 2))}

# the standard output channels by column name
CHANNELS = {
    "t": lambda s: s.times,
    "rho_ee": lambda s: s.population("e"),
    "rho_11": lambda s: s.population("1"),
    "rho_22": lambda s: s.population("2"),
    "rho_gg": lambda s: s.population("g"),
    "re_rho_12": lambda s: s.coordinate(UPPER[1, 2]),
    "im_rho_12": lambda s: s.coordinate(UPPER[1, 2] + N_UPPER),
    "abs_rho_12": lambda s: np.abs(s.coherence("1", "2")),
}


class TimeSeries:
    """Atomic density matrices sampled on a time grid, held as their real coordinates.

    x[n] holds the Hermitian coordinates keep (linalg.hermitian_states: the
    diagonal, then the real and the imaginary parts of the upper triangle) of
    the 4x4 matrix at times[n] in the (e, 1, 2, g) basis; every other
    coordinate is zero. x is Fortran-ordered, so the values of each
    coordinate, x[:, i], lie contiguous in memory, and the channels read them
    without a copy.
    TimeSeries(times, states) converts an (n, 4, 4) stack once and keeps all
    16 coordinates, its upper triangle read as the Hermitian matrix's.
    diagnostics collects non-fatal anomalies seen while producing the run,
    e.g. positivity excursions; max_drift_correction is the largest
    trace renormalization that was applied.
    """

    def __init__(
        self,
        times: np.ndarray,
        states: np.ndarray | None = None,
        diagnostics: list[str] | None = None,
        max_drift_correction: float = 0.0,
        *,
        keep: np.ndarray | None = None,
        x: np.ndarray | None = None,
    ) -> None:
        self.times = np.asarray(times, dtype=float)
        if self.times.ndim != 1:
            raise ValueError("times must be one-dimensional")
        if (states is None) == (x is None):
            raise ValueError("give either states or the coordinates keep and x")
        if states is not None:
            states = np.asarray(states, dtype=complex)
            if states.shape != (self.times.size, D, D):
                raise ValueError(f"states must have shape (len(times), {D}, {D})")
            keep, x = np.arange(D * D), stack_coordinates(states)
        self.keep = np.asarray(keep, dtype=np.intp)
        self.x = np.asfortranarray(x, dtype=float)
        if self.x.shape != (self.times.size, self.keep.size):
            raise ValueError("x must have one row of len(keep) coordinates per time")
        self._column = {k: i for i, k in enumerate(self.keep.tolist())}
        self.diagnostics = [] if diagnostics is None else diagnostics
        self.max_drift_correction = max_drift_correction

    def __len__(self) -> int:
        return self.times.size

    @property
    def states(self) -> np.ndarray:
        """The (n, 4, 4) complex stack, built anew on every access."""
        return hermitian_states(self.keep, self.x, D)

    def coordinate(self, k: int) -> np.ndarray:
        """The values of coordinate k on the grid: a view of x, or zeros outside keep."""
        i = self._column.get(k)
        return np.zeros(self.times.size) if i is None else self.x[:, i]

    def population(self, level: str) -> np.ndarray:
        return self.coordinate(LEVELS[level])

    def coherence(self, upper: str, lower: str) -> np.ndarray:
        """Element (upper, lower) of every matrix, complex, filled part by part.

        Assigning the real and imaginary parts keeps the sign of each zero, which
        re + 1j * im would not; a part outside keep stays +0.0.
        """
        i, j = LEVELS[upper], LEVELS[lower]
        a, b = min(i, j), max(i, j)
        re, im = (a, None) if a == b else (UPPER[a, b], UPPER[a, b] + N_UPPER)
        out = np.zeros(self.times.size, dtype=complex)
        if re in self._column:
            out.real = self.x[:, self._column[re]]
        if im in self._column:
            out.imag = self.x[:, self._column[im]] if i < j else -self.x[:, self._column[im]]
        return out

    def channel(self, name: str) -> np.ndarray:
        """One standard output channel by column name."""
        return CHANNELS[name](self)

    def channels(self) -> dict[str, np.ndarray]:
        """The standard output channels keyed by column name."""
        return {name: self.channel(name) for name in CHANNELS}
