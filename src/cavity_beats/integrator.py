"""Adaptive Dormand-Prince 5(4) integration for complex matrix ODEs.

Integrates dY/dt = F(t, Y) where Y is any complex ndarray (the dynamics
modules pass density matrices). Embedded error control with proportional
step adjustment; every step ends on or before the next requested grid time,
so each sample is the accepted state of a step that ends exactly there.
Everything is deterministic: identical inputs give bit-identical outputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

# Dormand-Prince coefficients. The first-same-as-last property makes the
# seventh stage of an accepted step the first stage of the next one.
C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
B = A[6]  # fifth-order solution weights
# Difference between the fifth- and embedded fourth-order weights.
E = np.array(
    [71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40]
)
SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 5.0
MAX_STEPS = 1_000_000  # steps tried, accepted or not, before integrate gives up


@dataclass(frozen=True)
class IntegratorConfig:
    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    max_step: float = np.inf
    initial_step: float | None = None

    def __post_init__(self) -> None:
        # written so that NaN fails every comparison
        if not (0 < self.rel_tol < np.inf and 0 < self.abs_tol < np.inf):
            raise ValueError("tolerances must be finite and positive")
        if not self.max_step > 0:
            raise ValueError("max_step must be positive")
        if self.initial_step is not None and not 0 < self.initial_step < np.inf:
            raise ValueError("initial_step must be finite and positive")


class IntegrationError(RuntimeError):
    """Step-size underflow or step budget exhausted."""


def _error_norm(err: np.ndarray, y0: np.ndarray, y1: np.ndarray, cfg: IntegratorConfig) -> float:
    scale = cfg.abs_tol + cfg.rel_tol * np.maximum(np.abs(y0), np.abs(y1))
    return float(np.max(np.abs(err) / scale))


def integrate(
    f: Callable[[float, np.ndarray], np.ndarray],
    y0: np.ndarray,
    t_grid: np.ndarray,
    cfg: IntegratorConfig | None = None,
) -> np.ndarray:
    """Integrate dY/dt = f(t, Y) and sample at every point of t_grid.

    t_grid must be finite and ascending; the first entry is the initial time.
    Returns an array of shape (len(t_grid),) + y0.shape. A step that would pass
    the next grid time is clipped to end on it, and the sample there is that
    step's accepted state. The first trial step is cfg.initial_step, or else
    the first grid interval, capped by max_step.
    """
    if cfg is None:
        cfg = IntegratorConfig()
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size == 0:
        raise ValueError("t_grid must be a nonempty 1-D array")
    if not np.all(np.isfinite(t_grid)):
        raise ValueError("t_grid must be finite")
    if t_grid.size > 1 and not np.all(np.diff(t_grid) > 0):
        raise ValueError("t_grid must be strictly ascending")

    y0 = np.asarray(y0, dtype=complex)
    out = np.empty((t_grid.size,) + y0.shape, dtype=complex)
    out[0] = y0
    if t_grid.size == 1:
        return out

    span = float(t_grid[-1] - t_grid[0])
    t, y = float(t_grid[0]), y0.copy()
    k = [np.empty_like(y0) for _ in range(7)]
    k[0] = np.asarray(f(t, y), dtype=complex)
    # the proposed step, which each step is clipped from
    h = min(cfg.initial_step or float(t_grid[1] - t_grid[0]), cfg.max_step)

    next_out, n_steps = 1, 0  # the first grid index still to fill; steps tried
    while next_out < t_grid.size:
        if n_steps >= MAX_STEPS:
            raise IntegrationError(f"exceeded MAX_STEPS={MAX_STEPS} at t={t:.6g}")
        if h < 1e-12 * span:
            raise IntegrationError(f"step size underflow at t={t:.6g} (h={h:.3e})")
        gap = float(t_grid[next_out]) - t
        clipped = h >= gap
        step = gap if clipped else h

        for i in range(1, 7):
            yi = y + step * sum(A[i][j] * k[j] for j in range(i))
            k[i] = np.asarray(f(t + C[i] * step, yi), dtype=complex)
        # k[6] was evaluated at y_new, so yi of the last stage is y_new
        y_new = y + step * sum(B[j] * k[j] for j in range(6))
        err = step * sum(E[j] * k[j] for j in range(7))
        norm = _error_norm(err, y, y_new, cfg)
        n_steps += 1

        if not np.isfinite(norm):
            h = step * MIN_FACTOR  # non-finite right-hand side: retry much smaller
            continue
        if norm > 1.0:
            h = step * max(MIN_FACTOR, SAFETY * norm ** -0.2)
            continue

        y = y_new
        k[0] = k[6].copy()
        if clipped:
            # Landing on the grid time exactly keeps it reachable when t + gap
            # rounds below it. The proposal stands: a clipped step, however
            # short, says nothing of how long the next one may be.
            t = float(t_grid[next_out])
            out[next_out] = y
            next_out += 1
            continue
        t += step
        factor = MAX_FACTOR if norm == 0.0 else min(MAX_FACTOR, max(MIN_FACTOR, SAFETY * norm ** -0.2))
        h = min(factor * step, cfg.max_step)

    return out
