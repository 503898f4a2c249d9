"""Container for sampled atomic density-matrix trajectories."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

LEVELS = {"e": 0, "1": 1, "2": 2, "g": 3}

# the standard output channels by column name
CHANNELS = {
    "t": lambda s: s.times,
    "rho_ee": lambda s: s.population("e"),
    "rho_11": lambda s: s.population("1"),
    "rho_22": lambda s: s.population("2"),
    "rho_gg": lambda s: s.population("g"),
    "re_rho_12": lambda s: s.coherence("1", "2").real,
    "im_rho_12": lambda s: s.coherence("1", "2").imag,
    "abs_rho_12": lambda s: np.abs(s.coherence("1", "2")),
}


@dataclass
class TimeSeries:
    """Atomic density matrices sampled on a time grid.

    states[k] is the 4x4 matrix at times[k] in the (e, 1, 2, g) basis.
    diagnostics collects non-fatal anomalies seen while producing the run,
    e.g. positivity excursions; max_drift_correction is the largest
    trace renormalization that was applied.
    """

    times: np.ndarray
    states: np.ndarray
    diagnostics: list[str] = field(default_factory=list)
    max_drift_correction: float = 0.0

    def __post_init__(self) -> None:
        self.times = np.asarray(self.times, dtype=float)
        self.states = np.asarray(self.states, dtype=complex)
        if self.times.ndim != 1:
            raise ValueError("times must be one-dimensional")
        if self.states.shape != (self.times.size, 4, 4):
            raise ValueError("states must have shape (len(times), 4, 4)")

    def __len__(self) -> int:
        return self.times.size

    def population(self, level: str) -> np.ndarray:
        i = LEVELS[level]
        return self.states[:, i, i].real

    def coherence(self, upper: str, lower: str) -> np.ndarray:
        return self.states[:, LEVELS[upper], LEVELS[lower]]

    def channel(self, name: str) -> np.ndarray:
        """One standard output channel by column name."""
        return CHANNELS[name](self)

    def channels(self) -> dict[str, np.ndarray]:
        """The standard output channels keyed by column name."""
        return {name: self.channel(name) for name in CHANNELS}
