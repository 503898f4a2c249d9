"""Adaptive Dormand-Prince 5(4) integration for complex matrix ODEs.

Integrates dY/dt = F(t, Y) where Y is any complex ndarray (the dynamics
modules pass density matrices). Embedded error control with proportional
step adjustment, plus a quartic dense-output interpolant so results are
reported exactly at the requested grid times. Everything is deterministic:
identical inputs give bit-identical outputs.
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
# Dense-output constants for the quartic interpolant.
D = np.array(
    [
        -12715105075 / 11282082432,
        0.0,
        87487479700 / 32700410799,
        -10690763975 / 1880347072,
        701980252875 / 199316789632,
        -1453857185 / 822651844,
        69997945 / 29380423,
    ]
)

SAFETY = 0.9
MIN_FACTOR = 0.2
MAX_FACTOR = 5.0


@dataclass(frozen=True)
class IntegratorConfig:
    rel_tol: float = 1e-9
    abs_tol: float = 1e-12
    max_step: float = np.inf
    initial_step: float | None = None
    max_steps: int = 1_000_000

    def __post_init__(self) -> None:
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_step <= 0:
            raise ValueError("max_step must be positive")
        if self.max_steps < 1:
            raise ValueError("max_steps must be at least 1")


class IntegrationError(RuntimeError):
    """Step-size underflow or step budget exhausted."""


def _error_norm(err: np.ndarray, y0: np.ndarray, y1: np.ndarray, cfg: IntegratorConfig) -> float:
    scale = cfg.abs_tol + cfg.rel_tol * np.maximum(np.abs(y0), np.abs(y1))
    return float(np.max(np.abs(err) / scale))


def _initial_step(f, t0, y0, f0, direction_span, cfg: IntegratorConfig) -> float:
    # Standard two-trial heuristic: probe the solution scale, then bound the
    # step by the observed derivative variation.
    scale = cfg.abs_tol + cfg.rel_tol * np.abs(y0)
    d0 = float(np.max(np.abs(y0) / scale))
    d1 = float(np.max(np.abs(f0) / scale))
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    h0 = min(h0, direction_span)
    f1 = np.asarray(f(t0 + h0, y0 + h0 * f0), dtype=complex)
    d2 = float(np.max(np.abs(f1 - f0) / scale)) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, cfg.max_step, direction_span)


def integrate(
    f: Callable[[float, np.ndarray], np.ndarray],
    y0: np.ndarray,
    t_grid: np.ndarray,
    cfg: IntegratorConfig | None = None,
) -> np.ndarray:
    """Integrate dY/dt = f(t, Y) and sample at every point of t_grid.

    t_grid must be ascending; the first entry is the initial time. Returns
    an array of shape (len(t_grid),) + y0.shape. Grid times are honored
    exactly; interior points of a step come from the dense interpolant.
    """
    if cfg is None:
        cfg = IntegratorConfig()
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.ndim != 1 or t_grid.size == 0:
        raise ValueError("t_grid must be a nonempty 1-D array")
    if t_grid.size > 1 and not np.all(np.diff(t_grid) > 0):
        raise ValueError("t_grid must be strictly ascending")

    y0 = np.asarray(y0, dtype=complex)
    out = np.empty((t_grid.size,) + y0.shape, dtype=complex)
    out[0] = y0
    if t_grid.size == 1:
        return out

    t0, t_end = float(t_grid[0]), float(t_grid[-1])
    span = t_end - t0
    t = t0
    y = y0.copy()
    k = [np.empty_like(y0) for _ in range(7)]
    k[0] = np.asarray(f(t, y), dtype=complex)
    h = cfg.initial_step
    if h is None:
        h = _initial_step(f, t, y, k[0], span, cfg)
    h = min(h, cfg.max_step, span)

    next_out = 1  # first grid index still to fill
    n_steps = 0
    while next_out < t_grid.size:
        if n_steps >= cfg.max_steps:
            raise IntegrationError(f"exceeded max_steps={cfg.max_steps} at t={t:.6g}")
        if h < 1e-12 * span:
            raise IntegrationError(f"step size underflow at t={t:.6g} (h={h:.3e})")
        h_rem = t_end - t
        last = h >= h_rem
        if last:
            h = h_rem

        for i in range(1, 7):
            yi = y + h * sum(A[i][j] * k[j] for j in range(i))
            k[i] = np.asarray(f(t + C[i] * h, yi), dtype=complex)
        # k[6] was evaluated at y_new, so yi of the last stage is y_new
        y_new = y + h * sum(B[j] * k[j] for j in range(6))
        err = h * sum(E[j] * k[j] for j in range(7))
        norm = _error_norm(err, y, y_new, cfg)
        n_steps += 1

        if not np.isfinite(norm):
            # Non-finite right-hand side; retry on a much smaller step.
            h *= MIN_FACTOR
            continue
        if norm > 1.0:
            h *= max(MIN_FACTOR, SAFETY * norm ** -0.2)
            continue

        # Accepted: fill every requested grid point inside (t, t+h]. Pinning
        # the last step to t_end keeps the final grid point reachable even
        # when t + h rounds below it.
        t_new = t_end if last else t + h
        if next_out < t_grid.size and t_grid[next_out] <= t_new:
            dy = y_new - y
            r3 = h * k[0] - dy
            r4 = dy - h * k[6] - r3
            r5 = h * (
                D[0] * k[0] + D[2] * k[2] + D[3] * k[3]
                + D[4] * k[4] + D[5] * k[5] + D[6] * k[6]
            )
            while next_out < t_grid.size and t_grid[next_out] <= t_new:
                theta = (t_grid[next_out] - t) / h
                om = 1.0 - theta
                out[next_out] = y + theta * (dy + om * (r3 + theta * (r4 + om * r5)))
                next_out += 1

        t = t_new
        y = y_new
        k[0] = k[6].copy()
        if norm == 0.0:
            factor = MAX_FACTOR
        else:
            factor = min(MAX_FACTOR, max(MIN_FACTOR, SAFETY * norm ** -0.2))
        h = min(factor * h, cfg.max_step)

    return out
