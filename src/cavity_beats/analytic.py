"""Closed-form population and coherence dynamics, and beat detection.

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

from dataclasses import dataclass

import numpy as np

from .linalg import uniform_step
from .model import RateSet
from .series import TimeSeries

RESONANCE_TOL = 1e-10
DEEP_HYPERBOLIC = -225.0  # x2 below this switches to the exponential split
PENCIL_SAMPLES = 256  # the pole fit takes every k-th sample, leaving at most this many
PENCIL_RANK_TOL = 1e-10  # singular values of the Hankel matrix kept, relative to the largest
NOISE_FLOOR = 1e-5  # an oscillation below this fraction of the population's peak is rounding noise


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


def _su(x2: np.ndarray) -> np.ndarray:
    """sin(sqrt(x2))/sqrt(x2), continued through x2 <= 0 (sinh branch)."""
    x2 = np.asarray(x2, dtype=float)
    out = np.empty_like(x2)
    small = np.abs(x2) < 1e-2
    xs = x2[small]
    out[small] = 1.0 + xs * (-1 / 6 + xs * (1 / 120 + xs * (-1 / 5040 + xs / 362880)))
    pos = ~small & (x2 > 0)
    sp = np.sqrt(x2[pos])
    out[pos] = np.sin(sp) / sp
    neg = ~small & (x2 < 0)
    sn = np.sqrt(-x2[neg])
    out[neg] = np.sinh(sn) / sn
    return out


def _cu(x2: np.ndarray) -> np.ndarray:
    """cos(sqrt(x2)), continued through x2 <= 0 (cosh branch)."""
    x2 = np.asarray(x2, dtype=float)
    out = np.empty_like(x2)
    small = np.abs(x2) < 1e-2
    xs = x2[small]
    out[small] = 1.0 + xs * (-1 / 2 + xs * (1 / 24 + xs * (-1 / 720 + xs / 40320)))
    pos = ~small & (x2 > 0)
    out[pos] = np.cos(np.sqrt(x2[pos]))
    neg = ~small & (x2 < 0)
    out[neg] = np.cosh(np.sqrt(-x2[neg]))
    return out


def _diagonal_series(t, rho_ee, rho_11, rho_22, rho_12=None) -> TimeSeries:
    n = t.size
    states = np.zeros((n, 4, 4), dtype=complex)
    states[:, 0, 0] = rho_ee
    states[:, 1, 1] = rho_11
    states[:, 2, 2] = rho_22
    states[:, 3, 3] = 1.0 - rho_ee - rho_11 - rho_22
    if rho_12 is not None:
        states[:, 1, 2] = rho_12
        states[:, 2, 1] = np.conj(rho_12)
    return TimeSeries(times=t, states=states)


def secular_solution(t_grid: np.ndarray, rates: RateSet) -> TimeSeries:
    """Interference-free cascade populations from the excited state.

    The intermediate populations rise with their feeding and fall with
    their drain:

        rho_jj = Gamma_j (exp(-2 Gamma_j' t) - exp(-2 s t)) / (s - Gamma_j')

    with s = Gamma_1 + Gamma_2, the drain of the top level. Coherences are
    zero throughout.
    """
    t = np.asarray(t_grid, dtype=float)
    r = rates
    s = r.Gamma_1 + r.Gamma_2

    rho_ee = np.exp(-2 * s * t)
    # Divided-difference form keeps the s -> Gamma_j' limit smooth.
    rho_11 = 2 * r.Gamma_1 * t * np.exp(-2 * r.Gamma_1p * t) * _expm1_over(-2 * (s - r.Gamma_1p) * t)
    rho_22 = 2 * r.Gamma_2 * t * np.exp(-2 * r.Gamma_2p * t) * _expm1_over(-2 * (s - r.Gamma_2p) * t)
    return _diagonal_series(t, rho_ee, rho_11, rho_22)


def _require_symmetric(rates: RateSet) -> tuple[float, float, complex]:
    if rates.alpha is None:
        raise ValueError("closed-form beats require the evenly tuned configuration (alpha is unset)")
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
    """
    t = np.asarray(t_grid, dtype=float)
    gamma, w, alpha = _require_symmetric(rates)
    alpha_eff = eta * alpha
    aa = abs(alpha_eff) ** 2
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
        su = _su(x2_safe)
        cu = _cu(x2_safe)
        suh = _su(np.where(deep, 0.0, f2 * t * t))

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

    if alpha_eff == 0:
        rho_12 = np.zeros(t.size, dtype=complex)
    else:
        sigma = (u + 1j * v) / (2 * np.conj(alpha_eff))
        rho_12 = sigma * np.exp(2j * rates.Omega * t)

    return _diagonal_series(t, e2, rho_ii, rho_ii.copy(), rho_12)


@dataclass(frozen=True)
class BeatPrediction:
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


@dataclass(frozen=True)
class BeatMeasurement:
    """Beat frequency extracted from a sampled trajectory.

    two_f is None when no reliable oscillation was found; method is
    "crossings", "tone_fit" or "none"; detail says why.
    """

    two_f: float | None
    method: str
    detail: str


def _estimate_gamma(series: TimeSeries) -> float:
    pe = series.population("e")
    t = series.times
    mask = pe > max(pe.max() * 1e-14, 1e-280)
    if mask.sum() < 2:
        raise ValueError("cannot estimate decay rate: top population is empty")
    slope = np.polyfit(t[mask], np.log(pe[mask]), 1)[0]
    return -slope / 4


def _detrended(t: np.ndarray, y: np.ndarray, gamma: float) -> np.ndarray:
    basis = np.column_stack([np.ones_like(t), np.exp(-2 * gamma * t), np.exp(-4 * gamma * t)])
    coef, *_ = np.linalg.lstsq(basis, y, rcond=None)
    return y - basis @ coef


def _crossing_times(t: np.ndarray, r: np.ndarray) -> np.ndarray:
    floor = 0.05 * np.max(np.abs(r))
    if floor == 0:
        return np.array([])
    sign = np.sign(r)
    # Exact zeros continue the current lobe: each takes the sign of the last nonzero
    # sample before it (leading zeros keep sign 0).
    last = np.maximum.accumulate(np.where(sign != 0, np.arange(sign.size), 0))
    sign = sign[last]
    # Lobe boundaries; a crossing counts only between two significant lobes,
    # which rejects least-squares detrending ripple.
    edges = np.flatnonzero(sign[1:] != sign[:-1])
    lobe_ok = np.maximum.reduceat(np.abs(r), np.concatenate([[0], edges + 1])) >= floor
    i = edges[lobe_ok[:-1] & lobe_ok[1:]]
    return t[i] + (t[i + 1] - t[i]) * r[i] / (r[i] - r[i + 1])


def _tone_sse(
    t: np.ndarray, y: np.ndarray, gamma: float, ws: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """SSE and tone amplitude of the least-squares fit of y to
    {1, e1, e1^2, e1 cos(w t), e1 sin(w t)} at each w in ws, e1 = exp(-2 gamma t).

    One lstsq per frequency, which cuts the directions of the design below its
    default rank tolerance (gamma = 0, or a sine column that vanishes on the grid).
    Each SSE is summed from the explicit residual: the envelope SSE minus the
    explained part would lose every digit when the tone explains nearly all of it.
    """
    e1 = np.exp(-2 * gamma * t)
    base = [np.ones_like(t), e1, np.exp(-4 * gamma * t)]
    sse = np.empty(ws.size)
    amp = np.empty(ws.size)
    for i, w in enumerate(ws):
        design = np.column_stack(base + [e1 * np.cos(w * t), e1 * np.sin(w * t)])
        coef, *_ = np.linalg.lstsq(design, y, rcond=None)
        res = y - design @ coef
        sse[i] = res @ res
        amp[i] = np.hypot(coef[3], coef[4])
    return sse, amp


def _pencil_poles(y: np.ndarray, dt: float) -> np.ndarray:
    """The poles lambda of y, sampled every dt, as a sum of damped exponentials exp(lambda t).

    Matrix pencil (Hua and Sarkar, IEEE Trans. ASSP 38:814, 1990): one SVD of
    the Hankel matrix of y with y.size // 3 + 1 columns, the singular values
    above PENCIL_RANK_TOL times the largest kept, and the poles read off the
    shift invariance of the kept right singular vectors. Poles beyond the
    Nyquist frequency pi/dt come back aliased.
    """
    hankel = np.lib.stride_tricks.sliding_window_view(y, y.size // 3 + 1)
    _, sv, vh = np.linalg.svd(hankel, full_matrices=False)
    v = vh[:np.count_nonzero(sv > PENCIL_RANK_TOL * sv[0])].T
    z = np.linalg.eigvals(np.linalg.lstsq(v[:-1], v[1:], rcond=None)[0])
    with np.errstate(divide="ignore"):  # a zero root is a pole at -inf
        return np.log(np.abs(z)) / dt + 1j * (np.angle(z) / dt)


def _tone_fit(t: np.ndarray, r_target: np.ndarray, gamma: float) -> BeatMeasurement:
    """Read 2f off the poles of r_target and keep it only if a damped tone fits.

    The populations are sums of a few damped exponentials, so their poles
    come from _pencil_poles on every k-th sample of a uniform grid, at most
    PENCIL_SAMPLES of them. Each oscillating pole, |Im lambda| above 2.5/span,
    is a candidate 2f. The candidates are scored on the full grid by the
    envelope {1, e1, e1^2} plus one damped tone e1 cos, e1 sin, and the best
    is accepted only when the tone clearly dominates the envelope residual
    and the fit is at a minimum there: an aliased pole from the stride, or a
    pole of a signal with several beats that no single tone describes, fails
    those gates.
    """
    if t.size < 3:
        return BeatMeasurement(None, "none", "grid too short for a resolvable tone")
    dt = uniform_step(t)
    if dt is None:
        return BeatMeasurement(None, "none", "grid not uniform to 1e-12, no pole fit")
    span = t[-1] - t[0]
    stride = -(-t.size // PENCIL_SAMPLES)
    ws = np.unique(np.abs(_pencil_poles(r_target[::stride], stride * dt).imag))
    lo = 2.5 / span
    ws = ws[ws > lo]
    if ws.size == 0:
        return BeatMeasurement(None, "none", f"no oscillating pole above {lo:.3g}")

    # At w = 0 the tone lies inside the envelope, so the first SSE is the envelope's.
    sse, amp = _tone_sse(t, r_target, gamma, np.concatenate([[0.0], ws]))
    j = 1 + int(np.argmin(sse[1:]))
    w_best = ws[j - 1]
    ratio = sse[0] / sse[j] if sse[j] > 0 else np.inf
    if ratio < 9.0:
        return BeatMeasurement(None, "none", f"tone explains too little (SSE ratio {ratio:.2f})")
    if amp[j] < NOISE_FLOOR * np.max(np.abs(r_target)):
        # A tone this weak is fitting integration noise, not beats.
        return BeatMeasurement(None, "none", f"tone amplitude negligible ({amp[j]:.2e})")
    # At a pole of the signal the fit is best: detuned by 0.1/span, the tone's phase is off
    # by up to 0.1 at the end and the SSE rises on both sides. Rounding noise above the rank
    # cut (the closed form near resonance) gives noise poles, and a smooth residual can fit
    # a tone at one of them; there the SSE keeps falling to one side.
    side, _ = _tone_sse(t, r_target, gamma, w_best + np.array([-0.1, 0.1]) / span)
    if np.min(side) <= sse[j]:
        return BeatMeasurement(None, "none", f"tone fit has no minimum at 2f={w_best:.6g}")
    return BeatMeasurement(float(w_best), "tone_fit", f"SSE ratio {ratio:.3g} at 2f={w_best:.6g}")


def measure_beats(
    series: TimeSeries,
    population: str = "rho_11",
    gamma: float | None = None,
    allow_tone_fit: bool = False,
) -> BeatMeasurement:
    """Extract the beat frequency 2f from a sampled population.

    The population is detrended against the non-oscillating envelope
    {1, exp(-2 Gamma t), exp(-4 Gamma t)} (Gamma estimated from the top
    population unless given), then timed through the zero crossings of the
    residual; a residual below NOISE_FLOOR of the population's peak is
    rounding noise and has none. With fewer than five clean crossings the
    method reports no beats, unless allow_tone_fit is set. Then the poles
    of the population are read off a matrix pencil of its samples (the grid
    must be uniform), and each oscillating pole is tried as a damped tone on
    the full grid; the best is accepted only when it clearly dominates the
    residual and the fit is at a minimum there. Without an oscillating pole
    the result is none at once.
    """
    if gamma is None:
        gamma = _estimate_gamma(series)
    y = series.channels()[population]
    r = _detrended(series.times, y, gamma)
    # Without beats the residual is rounding noise, whose sign changes would be timed
    noise = np.max(np.abs(r)) < NOISE_FLOOR * np.max(np.abs(y))
    times = np.array([]) if noise else _crossing_times(series.times, r)
    if times.size >= 5:
        gaps = np.diff(times)
        spread = float(np.std(gaps) / np.mean(gaps))
        if spread <= 0.2:
            return BeatMeasurement(
                float(np.pi / np.mean(gaps)),
                "crossings",
                f"{times.size} crossings, interval spread {spread:.3f}",
            )
        detail = f"crossing intervals too uneven (spread {spread:.3f})"
    else:
        detail = f"only {times.size} significant crossings"
    if allow_tone_fit:
        fit = _tone_fit(series.times, y, gamma)
        if fit.two_f is not None:
            return fit
        detail = f"{detail}; {fit.detail}"
    return BeatMeasurement(None, "none", detail)
