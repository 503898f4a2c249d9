"""Timings scaled to a reference host speed, for use on a shared machine.

On a small share of a busy host the speed of the same code moves by 30% or
more within minutes, and CPU time moves with wall time, so neither clock
repeats from one run to the next. The host clock samples that speed while
the program runs: a SIGALRM interval timer runs a fixed reference kernel
every INTERVAL_S seconds and records how long it took. The kernel is the
benchmark's own code and mimics the program's mix (interpreted Python
loops, 4x4 complex matmuls and eigvalsh, a 16x16 Lindblad right-hand side
with Runge-Kutta stage sums, a tall tone-fit least squares and float
formatting), so it slows down with the host as the program does, but no
change to the program moves it. The interpreted loop is there because the
program's time is mostly interpreter time around small numpy calls, and
interpreter time suffers more from a busy host than time inside numpy.

A timed window is then reported as

    (wall - tick time inside the window) * REF_TICK_S / mean tick inside the window

that is, the seconds the window would take on a host where one tick takes
REF_TICK_S. A program that gets faster or slower moves this figure exactly
as it moves wall time; a host that gets faster or slower moves the ticks too
and cancels out. Ticks run in the main thread between bytecodes, so they
never interleave with the program's own numpy calls.
"""

from __future__ import annotations

import signal
import time
from array import array

import numpy as np

INTERVAL_S = 0.03
# A mean tick, inside the program, on a 2-vCPU Intel Xeon VM (Python 3.11,
# numpy 2.4, BLAS pinned to one thread). Only a scale: it makes the
# reported figures read about as that machine's wall seconds in a quiet minute.
REF_TICK_S = 1.6e-3
# A window with fewer ticks than this is scaled by the ticks of the window
# that encloses it (see Window.scaled).
MIN_TICKS = 5

_rng = np.random.default_rng(0)
_H = _rng.normal(size=(16, 16)) + 1j * _rng.normal(size=(16, 16))
_H = _H + _H.conj().T
_A = np.diag(np.ones(15), 1).astype(complex)
_AD = _A.conj().T
_NA = _AD @ _A
_RHO = np.eye(16, dtype=complex) / 16
_STAGE = (0.2, 0.3, 0.8, 0.9, 1.0, 1.0)
_SMALL = np.eye(4, dtype=complex) * 0.5 + 0.1j
_T = np.linspace(0.0, 8.0, 2000)
_E1 = np.exp(-_T)
_BASE = np.column_stack([np.ones_like(_T), _E1, np.exp(-2 * _T)])
_Y = np.cos(3 * _T) * _E1
_FLOATS = [0.37 * k for k in range(3000)]


def reference_kernel() -> float:
    """A fixed slice of work shaped like the program's; returns a checksum."""
    acc = 0.0
    bins: dict[int, float] = {}
    for k, x in enumerate(_FLOATS):
        bins[k % 37] = bins.get(k % 37, 0.0) + x * 1.0001 - acc * 1e-9
    acc += sum(bins.values())
    for _ in range(5):
        acc += float(np.linalg.eigvalsh(_SMALL @ _SMALL.conj().T)[0])
    ks: list[np.ndarray] = []
    y = _RHO
    for _ in range(7):
        yi = y + 0.01 * sum(c * k for c, k in zip(_STAGE, ks))
        out = -1j * (_H @ yi - yi @ _H)
        out -= 0.5 * (_NA @ yi + yi @ _NA - 2 * _A @ yi @ _AD)
        ks.append(out)
    acc += float(np.max(np.abs(ks[-1])))
    m = np.column_stack([_BASE, _E1 * np.cos(2.9 * _T), _E1 * np.sin(2.9 * _T)])
    coef, *_ = np.linalg.lstsq(m, _Y, rcond=None)
    acc += float(np.sum((_Y - m @ coef) ** 2))
    text = "\n".join(f"{a:.17g},{b:.17g},{c:.17g}" for a, b, c in zip(_T[:40], _E1[:40], _Y[:40]))
    return acc + len(text)


def scale(wall: float, ticks: int, tick_s: float) -> float:
    """Seconds at the reference host speed of a wall time that held these ticks."""
    if ticks == 0:
        return wall
    return (wall - tick_s) * REF_TICK_S / (tick_s / ticks)


class HostClock:
    """Runs the reference kernel on a timer and keeps every tick's duration."""

    def __init__(self) -> None:
        self.ticks = array("d")
        self.tick_total = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        reference_kernel()
        dt = time.perf_counter() - t0
        self.ticks.append(dt)
        self.tick_total += dt

    def start(self) -> None:
        reference_kernel()  # warm the kernel's code paths before the first tick
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def window(self) -> "Window":
        return Window(self)


class Window:
    """A timed span of wall time together with the ticks that fell inside it."""

    def __init__(self, clock: HostClock) -> None:
        self.clock = clock
        self.wall = 0.0
        self.ticks = 0
        self.tick_s = 0.0

    # SIGALRM is held while the clock and the tick counters are read, so that
    # a tick is either wholly inside the window or wholly outside it.

    def __enter__(self) -> "Window":
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        self._n0, self._k0 = len(self.clock.ticks), self.clock.tick_total
        self._t0 = time.perf_counter()
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})
        return self

    def __exit__(self, *exc) -> None:
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        self.wall = time.perf_counter() - self._t0
        self.ticks = len(self.clock.ticks) - self._n0
        self.tick_s = self.clock.tick_total - self._k0
        signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    @property
    def work_s(self) -> float:
        """Wall time without the ticks."""
        return self.wall - self.tick_s

    def scaled(self, outer: "Window | None" = None) -> float:
        """Seconds at the reference host speed.

        The speed comes from this window's own ticks or, when it has fewer
        than MIN_TICKS and an outer window is given, from the outer window's.
        """
        source = self if self.ticks >= MIN_TICKS or outer is None else outer
        if source.ticks == 0:
            return self.work_s
        return self.work_s * REF_TICK_S / (source.tick_s / source.ticks)
