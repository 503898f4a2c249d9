"""Container for sampled atomic density-matrix trajectories."""

from __future__ import annotations

import numpy as np

from .linalg import element_coordinates

LEVELS = {"e": 0, "1": 1, "2": 2, "g": 3}
D = len(LEVELS)
_ELEMENT = element_coordinates(D)

# the standard output channels by column name
CHANNELS = {
    "t": lambda s: s.times,
    "rho_ee": lambda s: s.population("e"),
    "rho_11": lambda s: s.population("1"),
    "rho_22": lambda s: s.population("2"),
    "rho_gg": lambda s: s.population("g"),
    "re_rho_12": lambda s: s.coordinate(_ELEMENT[1, 2]),
    "im_rho_12": lambda s: s.coordinate(_ELEMENT[2, 1]),
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
    e.g. positivity excursions; max_drift_correction is the largest
    trace renormalization that was applied.
    """

    def __init__(
        self,
        times: np.ndarray,
        keep: np.ndarray,
        x: np.ndarray,
        diagnostics: list[str] | None = None,
        max_drift_correction: float = 0.0,
    ) -> None:
        self.times = np.asarray(times, dtype=float)
        if self.times.ndim != 1:
            raise ValueError("times must be one-dimensional")
        self.keep = np.asarray(keep, dtype=np.intp)
        self.x = np.asfortranarray(x, dtype=float)
        if self.x.shape != (self.times.size, self.keep.size):
            raise ValueError("x must have one row of len(keep) coordinates per time")
        self._column = {k: i for i, k in enumerate(self.keep.tolist())}
        self.diagnostics = [] if diagnostics is None else diagnostics
        self.max_drift_correction = max_drift_correction

    def __len__(self) -> int:
        return self.times.size

    def coordinate(self, k: int) -> np.ndarray:
        """The values of coordinate k on the grid: a view of x, or zeros outside keep."""
        i = self._column.get(k)
        return np.zeros(self.times.size) if i is None else self.x[:, i]

    def population(self, level: str) -> np.ndarray:
        i = LEVELS[level]
        return self.coordinate(_ELEMENT[i, i])

    def coherence(self, upper: str, lower: str) -> np.ndarray:
        """Element (upper, lower) of every matrix, complex, filled part by part.

        Assigning the real and imaginary parts keeps the sign of each zero, which
        re + 1j * im would not; a part outside keep stays +0.0.
        """
        i, j = LEVELS[upper], LEVELS[lower]
        a, b = min(i, j), max(i, j)
        re, im = _ELEMENT[a, b], (None if a == b else _ELEMENT[b, a])
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
