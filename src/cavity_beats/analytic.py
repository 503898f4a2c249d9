"""Closed-form population and coherence dynamics, beat prediction and pole-fit measurement.

Two analytic routes are provided. secular_solution drops the oscillating
cross terms entirely and holds for any rate configuration; it shows the
plain cascade without interference. symmetric_solution is the full
solution of the evenly tuned configuration (equal couplings and
linewidths, modes at the midpoints), where the cross terms close on the
intermediate populations and produce damped beats at 2f,
f^2 = (delta' + Omega)^2 - |alpha|^2.

All formulas are evaluated in numerically stable branches: power series
where arguments are small, trigonometric or hyperbolic forms in the
ordinary range, and explicit exponential splits where hyperbolic growth
would otherwise cancel against the decaying envelope.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .linalg import element_coordinates, uniform_step
from .model import RateSet
from .series import TimeSeries

RESONANCE_TOL = 1e-10
DEEP_HYPERBOLIC = -225.0  # x2 below this switches to the exponential split
PENCIL_SAMPLES = 256  # the pole fit takes every k-th sample, leaving at most this many
PENCIL_FIRST = 64  # samples of the smaller pencil tried first
PENCIL_RANK_TOL = 1e-10  # singular values of the Hankel matrix kept, relative to the largest
NOISE_FLOOR = 1e-5  # pole fit tolerance and smallest beat amplitude, as fractions of the peak
CLOSED_FORM_BLOCK = 2048  # samples a closed form evaluates at a time


def _expm1_over(w: np.ndarray) -> np.ndarray:
    """expm1(w)/w with the w -> 0 limit filled in."""
    w = np.asarray(w, dtype=float)
    out = np.empty_like(w)
    small = np.abs(w) < 1e-8
    ws = w[small]
    out[small] = 1.0 + ws / 2 + ws * ws / 6
    wb = w[~small]
    out[~small] = np.expm1(wb) / wb
    return out


def _sin_cos(x2: np.ndarray, cosine: bool = True) -> tuple[np.ndarray, np.ndarray | None]:
    """sin(sqrt(x2))/sqrt(x2) and cos(sqrt(x2)), continued through x2 <= 0 (sinh, cosh).

    Without cosine the second is not computed, and None is returned in its place.
    """
    x2 = np.asarray(x2, dtype=float)
    su = np.empty_like(x2)
    small = np.abs(x2) < 1e-2
    xs = x2[small]
    su[small] = 1.0 + xs * (-1 / 6 + xs * (1 / 120 + xs * (-1 / 5040 + xs / 362880)))
    pos = ~small & (x2 > 0)
    sp = np.sqrt(x2[pos])
    su[pos] = np.sin(sp) / sp
    neg = ~small & (x2 < 0)
    sn = np.sqrt(-x2[neg])
    su[neg] = np.sinh(sn) / sn
    if not cosine:
        return su, None
    cu = np.empty_like(x2)
    cu[small] = 1.0 + xs * (-1 / 2 + xs * (1 / 24 + xs * (-1 / 720 + xs / 40320)))
    cu[pos] = np.cos(sp)
    cu[neg] = np.cosh(sn)
    return su, cu


def secular_solution(t_grid: np.ndarray, rates: RateSet) -> TimeSeries:
    """Interference-free cascade populations from the excited state.

    The intermediate populations rise with their feeding and fall with
    their drain:

        rho_jj = Gamma_j (exp(-2 Gamma_j' t) - exp(-2 s t)) / (s - Gamma_j')

    with s = Gamma_1 + Gamma_2, the drain of the top level. Coherences are
    zero throughout, so the series holds the four populations only.
    """
    t = np.asarray(t_grid, dtype=float)
    r = rates
    s = r.Gamma_1 + r.Gamma_2

    x = np.empty((t.size, 4), order="F")
    x[:, 0] = np.exp(-2 * s * t)
    # Divided-difference form keeps the s -> Gamma_j' limit smooth.
    x[:, 1] = (2 * r.Gamma_1 * t * np.exp(-2 * r.Gamma_1p * t)
               * _expm1_over(-2 * (s - r.Gamma_1p) * t))
    x[:, 2] = (2 * r.Gamma_2 * t * np.exp(-2 * r.Gamma_2p * t)
               * _expm1_over(-2 * (s - r.Gamma_2p) * t))
    x[:, 3] = 1.0 - x[:, 0] - x[:, 1] - x[:, 2]
    return TimeSeries(t, keep=np.diag(element_coordinates(4)), x=x)


def _require_symmetric(rates: RateSet) -> tuple[float, float, complex]:
    if rates.alpha is None:
        raise ValueError("closed-form beats require the evenly tuned configuration "
                         "(use the Omega shortcut)")
    g = rates.Gamma_1
    tol = 1e-9 * max(1.0, g)
    if (
        abs(rates.Gamma_2 - g) > tol
        or abs(rates.Gamma_1p - g) > tol
        or abs(rates.Gamma_2p - g) > tol
        or abs(rates.delta_1p + rates.delta_2p) > tol
    ):
        raise ValueError("rates are not those of the evenly tuned configuration")
    return g, rates.delta_1p + rates.Omega, rates.alpha


def symmetric_solution(t_grid: np.ndarray, rates: RateSet, eta: float = 1.0) -> TimeSeries:
    """Full dynamics of the evenly tuned configuration from the excited state.

    Returns the complete atomic density matrix on the grid: top population
    exp(-4 Gamma t), equal intermediate populations, their coherence (in
    the same interaction picture as the integrated equation), and the
    ground population by trace. eta scales the interference terms exactly
    as in the master equation; it enters only through alpha -> eta alpha.

    Every channel is pointwise in t, so the solution is evaluated
    CLOSED_FORM_BLOCK samples at a time, straight into the series'
    coordinate rows: the temporaries stay small however long the grid, and
    no 4x4 state is built. Raises ValueError when a coordinate is not finite.
    """
    t = np.asarray(t_grid, dtype=float)
    gamma, w, alpha = _require_symmetric(rates)
    # the coordinates of rho_ee, rho_11, rho_22, rho_gg, and of re and im rho_12
    keep = element_coordinates(4)[[0, 1, 2, 3, 1, 2], [0, 1, 2, 3, 2, 1]]
    x = np.empty((t.size, keep.size), order="F")
    for a in range(0, t.size, CLOSED_FORM_BLOCK):
        b = slice(a, a + CLOSED_FORM_BLOCK)
        x[b, 0], x[b, 1], x[b, 4], x[b, 5] = _symmetric_block(t[b], gamma, w, eta * alpha, rates.Omega)
    x[:, 2] = x[:, 1]
    x[:, 3] = 1.0 - x[:, 0] - x[:, 1] - x[:, 2]
    if not np.isfinite(x.sum()):  # one reduction, no grid-sized temporary
        raise ValueError("the closed form overflows at these rates")
    return TimeSeries(t, keep=keep, x=x)


def _symmetric_block(t: np.ndarray, gamma: float, w: float, alpha: complex, omega: float):
    """rho_ee, rho_ii and the real and imaginary parts of rho_12 of symmetric_solution on t.

    alpha is eta alpha, and rho_12 = (u + i v) / (2 alpha*) exp(2 i Omega t).
    """
    aa = abs(alpha) ** 2
    f2 = w * w - aa
    s = gamma * gamma + f2
    scale = gamma * gamma + abs(f2) + aa

    e1 = np.exp(-2 * gamma * t)
    e2 = np.exp(-4 * gamma * t)

    if abs(s) <= RESONANCE_TOL * scale:
        # Degenerate levels at full interference: the beat frequency and
        # the amplitude denominator vanish together (removable limit).
        rho_ii = 2 * gamma * t * e2
        u = 4 * gamma * gamma * t * e2
        v = np.zeros_like(t)
    else:
        a_amp = aa / s
        x2 = 4 * f2 * t * t
        deep = x2 < DEEP_HYPERBOLIC
        x2_safe = np.where(deep, 0.0, x2)
        su, cu = _sin_cos(x2_safe)
        suh, _ = _sin_cos(np.where(deep, 0.0, f2 * t * t), cosine=False)

        bracket = 1.0 + cu + 2 * (gamma * t * suh) ** 2 - 4 * gamma * t * su
        rho_ii = -(1 + 2 * a_amp) * e2 + e1 * (1.0 + a_amp * bracket)
        q = gamma * cu - (gamma * gamma - f2) * t * su
        u = 4 * a_amp * (-gamma * e2 + e1 * q)
        qp = -4 * gamma * f2 * t * su - (gamma * gamma - f2) * cu
        wv2 = 4 * a_amp * (2 * gamma * gamma * e2 + e1 * qp - s * e2 + s * rho_ii)

        if np.any(deep):
            # Far in the overdamped tail the hyperbolic functions overflow;
            # regroup envelope times growth into plain decaying exponentials.
            phi = np.sqrt(-f2)
            td = t[deep]
            em = np.exp(-2 * (gamma - phi) * td)
            ep = np.exp(-2 * (gamma + phi) * td)
            e2d = np.exp(-4 * gamma * td)
            rho_ii[deep] = (
                -(1 + 2 * a_amp) * e2d
                + (1 - aa / (phi * phi)) * np.exp(-2 * gamma * td)
                + (a_amp / 2) * (gamma / phi - 1) ** 2 * em
                + (a_amp / 2) * (gamma / phi + 1) ** 2 * ep
            )
            e1q = (gamma / 2) * (em + ep) - (gamma * gamma + phi * phi) / (4 * phi) * (em - ep)
            u[deep] = 4 * a_amp * (-gamma * e2d + e1q)
            e1qp = gamma * phi * (em - ep) - (gamma * gamma + phi * phi) * (em + ep) / 2
            wv2[deep] = 4 * a_amp * (2 * gamma * gamma * e2d + e1qp - s * e2d + s * rho_ii[deep])

        v = wv2 / (2 * w) if w != 0.0 else np.zeros_like(t)

    if alpha == 0:
        return e2, rho_ii, 0.0, 0.0
    sigma = (u + 1j * v) / (2 * np.conj(alpha))
    # np.multiply keeps the operand order: sigma * np.exp(...) lets numpy compute the
    # product in the exponential's buffer, operands swapped, once the arrays reach
    # 256 KB, and a complex product can round differently in the last bit when they are
    rho_12 = np.multiply(sigma, np.exp(2j * omega * t))
    return e2, rho_ii, rho_12.real, rho_12.imag


class BeatPrediction(NamedTuple):
    """Whether populations oscillate, and at what angular frequency."""

    beats: bool
    two_f: float | None
    f_squared: float


def beat_frequency(rates: RateSet, eta: float = 1.0) -> BeatPrediction:
    """Predicted beat frequency 2f of the evenly tuned configuration.

    Beats exist when the coherent displacement outruns the cross damping,
    f^2 = (delta' + Omega)^2 - eta^2 |alpha|^2 > 0, and the interference
    amplitude is nonzero.
    """
    _, w, alpha = _require_symmetric(rates)
    aa = abs(eta * alpha) ** 2
    f2 = float(w * w - aa)
    beats = bool(f2 > 0 and aa > 0)
    return BeatPrediction(beats=beats, two_f=2 * float(np.sqrt(f2)) if beats else None, f_squared=f2)


class BeatMeasurement(NamedTuple):
    """Beat frequency extracted from a sampled trajectory.

    two_f is None when no single beat was found; method is "pole_fit" or
    "none"; detail says why.
    """

    two_f: float | None
    method: str
    detail: str


def _pencil_poles(y: np.ndarray, dt: float, saturates: bool = False) -> np.ndarray | None:
    """The poles lambda of y, sampled every dt, as a sum of damped exponentials exp(lambda t).

    Matrix pencil (Hua and Sarkar, IEEE Trans. ASSP 38:814, 1990): one SVD of
    the Hankel matrix of y with y.size // 3 + 1 columns, the singular values
    above PENCIL_RANK_TOL times the largest kept, and the poles read off the
    shift invariance of the kept right singular vectors. Poles beyond the
    Nyquist frequency pi/dt come back aliased. With saturates, None instead
    when the kept rank reaches a third of the columns: y may hold more poles
    than so few samples resolve, and nothing past the SVD is spent on it.
    """
    hankel = np.lib.stride_tricks.sliding_window_view(y, y.size // 3 + 1)
    _, sv, vh = np.linalg.svd(hankel, full_matrices=False)
    rank = np.count_nonzero(sv > PENCIL_RANK_TOL * sv[0])
    if saturates and 3 * rank >= sv.size:
        return None
    v = vh[:rank].T
    z = np.linalg.eigvals(np.linalg.lstsq(v[:-1], v[1:], rcond=None)[0])
    z = z[z != 0]  # a zero root is a pole at -inf, which no sample after the first shows
    return np.log(np.abs(z)) / dt + 1j * (np.angle(z) / dt)


def _grid_powers(pole: complex, dt: float, n: int) -> np.ndarray:
    """exp(pole * k * dt) for k = 0, ..., n - 1, filled by doubling.

    With w[:k] known, w[k:2k] = w[:k] exp(pole k dt), so n samples cost about
    log2(n) complex exponentials and n products, not n exponentials. Each
    multiplier is its own exponential rather than the last one squared, so the
    error stays at a few ulps instead of growing with k.
    """
    w = np.empty(n, dtype=complex)
    w[0] = 1.0
    k = 1
    while k < n:
        m = min(k, n - k)
        np.multiply(w[:m], np.exp(pole * (k * dt)), out=w[k:k + m])
        k += m
    return w


def _pole_fit(
    tau: np.ndarray, y: np.ndarray, part: slice, dt: float, floor: float,
    h: float | None = None, saturates: bool = False,
) -> tuple[np.ndarray, np.ndarray] | str:
    """The poles lambda of y[part] and their sizes 3h in, |c exp(3 lambda h)| for the
    amplitudes c fitted on y[part]; or why they do not count. y is sampled on the
    uniform grid tau, dt apart, and h defaults to the spacing of y[part], part.step * dt.
    saturates is handed to _pencil_poles, and a saturated pencil does not count.

    The set counts when the samples of y[part] above floor outnumber its two real
    parameters per pole, and when sum c exp(lambda tau) reproduces y on the whole grid
    to within floor. A damped oscillation has four real parameters, so it must stand
    above the floor on four samples: a transient that dies within one takes any angle.
    """
    ys = y[part]
    step = (part.step or 1) * dt
    poles = _pencil_poles(ys, step, saturates)
    if poles is None:
        return f"pencil of {ys.size} samples saturated"
    seen = np.count_nonzero(np.abs(ys) >= floor)
    if seen <= 2 * poles.size:
        return f"{poles.size} poles from {seen} samples above the noise floor"
    with np.errstate(over="ignore", invalid="ignore"):
        amps = np.linalg.lstsq(np.exp(np.outer(tau[part], poles)), ys, rcond=None)[0]
        fit = np.zeros(tau.size, dtype=complex)
        for p, c in zip(poles, amps):  # one pole at a time keeps the memory O(N)
            # exp(p tau_n) = exp(p dt)^n on the uniform grid, filled by doubling
            fit += c * _grid_powers(p, dt, tau.size)
        miss = np.max(np.abs(y - fit))
        if not miss <= floor:
            return f"pole fit off by {miss / floor:.3g} times the noise floor"
        return poles, np.abs(amps * np.exp(3 * poles * (step if h is None else h)))


def measure_beats(series: TimeSeries, allow_tone_fit: bool = False) -> BeatMeasurement:
    """Extract the beat frequency 2f from the sampled population rho_11.

    The populations are finite sums of damped exponentials c exp(lambda t)
    over eigenvalues lambda of the generator, so 2f is read off the poles.
    They come from a matrix pencil of every k-th sample of a uniform grid, and
    their amplitudes c from one least-squares fit on the same samples
    (_pole_fit). Three pole sets are tried in turn, and the first that counts
    is read:
    - every k-th sample, at most PENCIL_FIRST of them. Its pencil is
      saturated, and the set skipped after the SVD, when the kept rank reaches
      a third of its columns (the full model's spectra). It is not tried when
      it would take the same samples as the next one (grids of at most
      PENCIL_FIRST samples);
    - every k-th sample, at most PENCIL_SAMPLES of them, for signals of more
      poles or of beats above the first set's Nyquist frequency, which fail
      its whole-grid check;
    - the first PENCIL_SAMPLES samples, unstrided, when the grid holds more,
      which resolves beats above the strided Nyquist frequency.
    2f = Im lambda is reported when exactly one oscillating pole pair still
    stands above NOISE_FLOOR of the population's peak three steps of a
    PENCIL_SAMPLES set in: of the strided one when the first or second set
    counts, so the first moves no size, and of dt when the third does.
    Otherwise the result is none, and the detail says why: no oscillating
    pole, several (with their 2f), no pole set that fits, a grid that is not
    uniform, or a population that is zero throughout.

    allow_tone_fit sets the resolution floor. Without it a beat must turn
    through five half-periods over the window (2f span >= 5 pi); with it,
    through more than 2.5 rad (2f span > 2.5).
    """
    t = series.times
    y = series.population("1")
    peak = np.max(np.abs(y))
    if peak == 0:
        return BeatMeasurement(None, "none", "population is zero throughout")
    dt = uniform_step(t)
    if dt is None:
        return BeatMeasurement(None, "none", "grid not uniform to 1e-12, no pole fit")
    floor = NOISE_FLOOR * peak
    tau = t - t[0]
    stride = -(-t.size // PENCIL_SAMPLES)
    first = -(-t.size // PENCIL_FIRST)
    fit = "not tried"
    if first > stride:
        fit = _pole_fit(tau, y, slice(None, None, first), dt, floor, stride * dt, saturates=True)
    if isinstance(fit, str):
        fit = _pole_fit(tau, y, slice(None, None, stride), dt, floor)
    if isinstance(fit, str) and stride > 1:
        fit = _pole_fit(tau, y, slice(PENCIL_SAMPLES), dt, floor)
    if isinstance(fit, str):
        return BeatMeasurement(None, "none", fit)
    poles, sizes = fit
    lo = (2.5 if allow_tone_fit else 5 * np.pi) / tau[-1]
    # one pole of each conjugate pair, whose size is half the pair's
    beats = poles[(poles.imag > lo) & (2 * sizes >= floor)]
    if beats.size == 0:
        return BeatMeasurement(None, "none", f"no oscillating pole above {lo:.3g}")
    if beats.size > 1:
        found = ", ".join(f"{w:.6g}" for w in np.sort(beats.imag))
        return BeatMeasurement(None, "none", f"{beats.size} oscillating poles, at 2f={found}")
    two_f = float(beats[0].imag)
    detail = f"{poles.size} poles, one oscillating at 2f={two_f:.6g}"
    return BeatMeasurement(two_f, "pole_fit", detail)
