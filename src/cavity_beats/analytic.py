"""Closed-form population and coherence dynamics, beat prediction and pole-fit measurement.

Two analytic routes are provided. secular_solution drops the oscillating
cross terms entirely and holds for any rate configuration; it shows the
plain cascade without interference. symmetric_solution is the full
solution of the evenly tuned configuration, where the cross terms close on
the intermediate populations and produce damped beats at 2f,
f^2 = (delta' + Omega)^2 - |alpha|^2. Whether rates have that form is
decided here alone, by tuned_alpha: the shortcut's rates have it, and so do
those of any explicit block that reduces to it.

Both are sums of exponentials over the generator's eigenvalues, written as
divided differences of the exponential: a pair exp[a, b] comes from expm1
of the gap b - a, and symmetric_solution builds the longer ones by Newton's
recursion in units of one rate. So nothing cancels near coincident
eigenvalues or overflows at large couplings, and the one choice left is
real arithmetic where the eigenvalues are real.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .linalg import element_coordinates, uniform_step
from .model import RateSet
from .series import POINTWISE_BLOCK, TimeSeries

PENCIL_SAMPLES = 256  # the pole fit takes every k-th sample, leaving at most this many
PENCIL_FIRST = 64  # samples of the smaller pencil tried first
PENCIL_RANK_TOL = 1e-10  # singular values of the Hankel matrix kept, relative to the largest
NOISE_FLOOR = 1e-5  # pole fit tolerance and smallest beat amplitude, as fractions of the peak
# Relative tolerance of the tuned form. Rounding in derive_rates leaves a few ulps (at most 2.5e-16
# over the shortcut's splittings and couplings), an explicit block's level arithmetic more where
# its levels lie far above its detunings: the detunings are differences of the levels, rounded to
# their ulp. That rounding is small next to kappa - i Delta, so next to the complex rate
# Gamma' + i delta' = |G|^2 / (kappa - i Delta') the lower shifts come from, though not next to a
# shift itself where Delta' is small; so the shifts are held to that rate's size. Rates this close
# keep the closed form within 1e-12 of the exact engine.
TUNED_TOL = 1e-12


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


def secular_solution(t_grid: np.ndarray, rates: RateSet) -> TimeSeries:
    """Interference-free cascade populations from the excited state.

    The intermediate populations rise with their feeding and fall with
    their drain:

        rho_jj = Gamma_j (exp(-2 Gamma_j' t) - exp(-2 s t)) / (s - Gamma_j')

    with s = Gamma_1 + Gamma_2, the drain of the top level. No coherences: the series holds
    the four populations. Analytic mode at eta = 0; raises ValueError if one is not finite.
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
    if not np.isfinite(x.sum()):
        raise ValueError("the closed form overflows at these rates")
    return TimeSeries(t, keep=np.diag(element_coordinates(4)), x=x)


def tuned_alpha(rates: RateSet) -> complex | None:
    """The cross parameter alpha = cross_left when the rates have the evenly tuned form, else None.

    The form is the relations of _tuned_break. The shortcut has it, and so does any explicit
    block whose rates reduce to it.
    """
    return None if _tuned_break(rates) else rates.cross_left


def _tuned_break(rates: RateSet) -> tuple[str, float] | None:
    """The first relation of the evenly tuned form the rates break, with its relative gap.

    The relations: Gamma_2, Gamma_1p and Gamma_2p equal Gamma_1, delta_2p = -delta_1p,
    cross_right = alpha, cross_upper = 2 alpha and cross_ground = 2 alpha* with alpha =
    cross_left, each to TUNED_TOL of its larger side; the shifts to TUNED_TOL of the larger of
    |Gamma_1p + i delta_1p| and |Gamma_2p + i delta_2p|. None when every relation holds.
    """
    r = rates
    alpha = r.cross_left
    lower = max(abs(complex(r.Gamma_1p, r.delta_1p)), abs(complex(r.Gamma_2p, r.delta_2p)))
    relations = (
        ("Gamma_2 = Gamma_1", r.Gamma_2, r.Gamma_1, 0.0),
        ("Gamma_1p = Gamma_1", r.Gamma_1p, r.Gamma_1, 0.0),
        ("Gamma_2p = Gamma_1", r.Gamma_2p, r.Gamma_1, 0.0),
        ("delta_2p = -delta_1p", r.delta_2p, -r.delta_1p, lower),
        ("cross_right = cross_left", r.cross_right, alpha, 0.0),
        ("cross_upper = 2 cross_left", r.cross_upper, 2 * alpha, 0.0),
        ("cross_ground = 2 conj(cross_left)", r.cross_ground, 2 * np.conj(alpha), 0.0),
    )
    for relation, a, b, floor in relations:
        size = max(abs(a), abs(b), floor)
        if not abs(a - b) <= TUNED_TOL * size:
            return relation, abs(a - b) / size
    return None


def _require_symmetric(rates: RateSet) -> tuple[float, float, complex]:
    broken = _tuned_break(rates)
    if broken:
        relation, gap = broken
        raise ValueError(f"closed-form beats require the evenly tuned configuration: {relation} "
                         f"is off by {gap:.2g} relative, beyond {TUNED_TOL:g}")
    return rates.Gamma_1, rates.delta_1p + rates.Omega, rates.cross_left


def symmetric_solution(t_grid: np.ndarray, rates: RateSet, eta: float = 1.0) -> TimeSeries:
    """Full dynamics of the evenly tuned configuration from the excited state.

    rates must have the tuned form (tuned_alpha), whether they come from the
    shortcut or from explicit blocks; otherwise ValueError. Returns the
    complete atomic density matrix on the grid: top population
    exp(-4 Gamma t), equal intermediate populations, their coherence (in
    the same interaction picture as the integrated equation), and the
    ground population by trace. eta scales the interference terms exactly
    as in the master equation; it enters only through alpha -> eta alpha.

    At eta alpha = 0 this is secular_solution. Otherwise every channel is pointwise in t and is
    evaluated POINTWISE_BLOCK samples at a time into the series' coordinate rows: temporaries
    stay small, and no 4x4 state is built. Either path raises ValueError on a non-finite value.
    """
    t = np.asarray(t_grid, dtype=float)
    gamma, w, alpha = _require_symmetric(rates)
    if eta * alpha == 0:
        return secular_solution(t, rates)
    # the coordinates of rho_ee, rho_11, rho_22, rho_gg, and of re and im rho_12
    keep = element_coordinates(4)[[0, 1, 2, 3, 1, 2], [0, 1, 2, 3, 2, 1]]
    x = np.empty((t.size, keep.size), order="F")
    for a in range(0, t.size, POINTWISE_BLOCK):
        b = slice(a, a + POINTWISE_BLOCK)
        x[b, 0], x[b, 1], x[b, 4], x[b, 5] = _symmetric_block(t[b], gamma, w, eta * alpha, rates.Omega)
    x[:, 2] = x[:, 1]
    x[:, 3] = 1.0 - x[:, 0] - x[:, 1] - x[:, 2]
    if not np.isfinite(x.sum()):  # one reduction, no grid-sized temporary
        raise ValueError("the closed form overflows at these rates")
    return TimeSeries(t, keep=keep, x=x)


def _symmetric_block(t: np.ndarray, gamma: float, w: float, alpha: complex, omega: float):
    """rho_ee, rho_ii and the real and imaginary parts of rho_12 of symmetric_solution on t.

    alpha is eta alpha, never 0. y = (rho_ee, rho_ii, u, v), with u + i v = 2 alpha* sigma_12
    and rho_12 = sigma_12 exp(2 i Omega t), obeys y' = M y from y(0) = e_0, where (g = gamma)

        M = [[-4g, 0, 0, 0], [2g, -2g, -1, 0], [4|alpha|^2, -4|alpha|^2, -2g, 2w], [0, 0, -2w, -2g]]

    is rhs_element_form in the tuned configuration. Its eigenvalues, in the node order
    lambda = (-4g, near, -2g, far) with near, far = -2g -+ h and h = 2 sqrt(-f^2), give
    y(t) = sum_k d_k c_k in Newton's form: c_k = prod_{j<k} (M - lambda_j) e_0 and
    d_k = t^k exp[t lambda_0, ..., t lambda_k], divided differences of the exponential
    (McCurdy, Ng and Parlett, Math. Comp. 43:501, 1984). A pair of nodes is
    t exp(t hi) expm1(t (lo - hi)) / (t (lo - hi)), hi the node of larger real part, which
    neither cancels nor overflows; the triple (near, -2g, far) is a product of two pairs; and
    the longer differences divide only by the gaps 2g and 2g + h, each at least 2g. Rates and
    t are taken in units of r = 2g + 2|w| + 4|alpha|, so that every c_k is of order one at any
    coupling.
    """
    r = 2 * gamma + 2 * abs(w) + 4 * abs(alpha)
    g, w, a, tr = gamma / r, w / r, alpha / r, t * r
    aa = abs(a) ** 2
    f2 = w * w - aa
    e_mid = np.exp(-2 * g * tr)
    if f2 > 0:
        # near and far are conjugate: one phase z = exp(-i f t) gives both exponentials, and
        # the pairs' expm1 follow from real functions, expm1(-h t) = -2i sin(ft) z and
        # expm1(t (h - 2g)) = conj(z) (expm1(-2gt) conj(z) + 2i sin(ft)); |h - 2g| >= 2g
        f = np.sqrt(f2)
        h = 2j * f
        z = np.exp(-1j * f * tr)
        sin = -z.imag
        e_near = e_mid * (z * z)
        e_far = np.conj(e_near)
        q = z * (sin / f)
        d1 = e_mid * z * (np.expm1(-2 * g * tr) * z.real + 1j * sin * (1 + e_mid)) / (h - 2 * g)
    else:
        # real arithmetic; h <= 2g, which rounding can break where f^2 is close to -g^2
        h = 2 * min(np.sqrt(-f2), g)
        e_near = np.exp((-2 * g - h) * tr)
        e_far = np.exp((h - 2 * g) * tr)
        q = tr * _expm1_over(-h * tr)
        d1 = tr * e_near * _expm1_over((h - 2 * g) * tr)
    # q = t expm1(-h t) / (-h t): the pairs (near, -2g) and (-2g, far) are e_mid q and
    # e_far q, the triple is q e_far q / 2, and d1 is the pair (-4g, near)
    d2 = (e_mid * q - d1) / (2 * g)
    d3 = (0.5 * q * (e_far * q) - d2) / (2 * g + h)
    # every c_k past c_0 lies on the last three coordinates, where M + 2g is k, so
    # c_2 = (M - near) c_1 = (k + h) c_1 and c_3 = (M + 2g) c_2 = k c_2
    k = np.array([[0.0, -1.0, 0.0], [-4 * aa, 0.0, 2 * w], [0.0, -2 * w, 0.0]])
    c1 = np.array([2 * g, 4 * aa, 0.0])
    c2 = k @ c1 + h * c1
    y = np.multiply.outer(c1, d1) + np.multiply.outer(c2, d2) + np.multiply.outer(k @ c2, d3)
    rho_ii, u, v = y.real

    sigma = (u + 1j * v) / (2 * np.conj(a))
    # np.multiply keeps the operand order: sigma * np.exp(...) lets numpy compute the
    # product in the exponential's buffer, operands swapped, once the arrays reach
    # 256 KB, and a complex product can round differently in the last bit when they are
    rho_12 = np.multiply(sigma, np.exp(2j * omega * t))
    return np.exp(-4 * gamma * t), rho_ii, rho_12.real, rho_12.imag


class BeatPrediction(NamedTuple):
    """Whether populations oscillate, and at what angular frequency."""

    beats: bool
    two_f: float | None
    f_squared: float


def beat_frequency(rates: RateSet, eta: float = 1.0) -> BeatPrediction:
    """Predicted beat frequency 2f of the evenly tuned configuration.

    Beats exist when the coherent displacement outruns the cross damping,
    f^2 = (delta' + Omega)^2 - eta^2 |alpha|^2 > 0, and the interference
    amplitude is nonzero. Like symmetric_solution it takes any rates of the
    tuned form (tuned_alpha), explicit blocks' included, and raises
    ValueError on others.
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
    tau: np.ndarray, y: np.ndarray, part: slice, dt: float, floor: float, stride: int,
) -> tuple[np.ndarray, np.ndarray] | str:
    """The poles lambda of y[part] and their sizes 3h in, |c exp(3 lambda h)| for the
    amplitudes c fitted on y[part]; or why they do not count. y is sampled on the uniform
    grid tau, dt apart, and y[part] every k-th sample, k = part.step or 1. A set sparser
    than the PENCIL_SAMPLES one, k > stride, may saturate its pencil, which does not count;
    h = min(k, stride) dt, so such a set moves no size against the strided one.

    The set counts when the samples of y[part] above floor outnumber its two real
    parameters per pole, and when sum c exp(lambda tau) reproduces y on the whole grid
    to within floor. A damped oscillation has four real parameters, so it must stand
    above the floor on four samples: a transient that dies within one takes any angle.
    """
    ys = y[part]
    k = part.step or 1
    poles = _pencil_poles(ys, k * dt, saturates=k > stride)
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
        return poles, np.abs(amps * np.exp(3 * poles * (min(k, stride) * dt)))


def measure_beats(series: TimeSeries, allow_tone_fit: bool = False) -> BeatMeasurement:
    """Extract the beat frequency 2f from the sampled population rho_11.

    The populations are finite sums of damped exponentials c exp(lambda t)
    over eigenvalues lambda of the generator, so 2f is read off the poles.
    They come from a matrix pencil of every k-th sample of a uniform grid, and
    their amplitudes c from one least-squares fit on the same samples
    (_pole_fit). The pole sets are tried in this order, and the first that
    counts is read:
    - every k-th sample, at most PENCIL_FIRST of them, when that takes fewer
      samples than the next set (grids of more than PENCIL_FIRST samples);
    - every stride-th sample, at most PENCIL_SAMPLES of them, for signals of
      more poles or of beats above the first set's Nyquist frequency, which
      fail its whole-grid check;
    - the first PENCIL_SAMPLES samples, unstrided, when the grid holds more,
      which resolves beats above the strided Nyquist frequency.
    A set's spacing decides the rest. Only the first set is sparser than the
    strided one, so only its pencil may saturate: the set is skipped after the
    SVD when the kept rank reaches a third of its columns (the full model's
    spectra). Each set sizes its poles at the smaller of its spacing and the
    stride, so the first moves no size against the second. 2f = Im lambda is
    reported when exactly one oscillating pole pair still stands above
    NOISE_FLOOR of the population's peak three such spacings in.
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
    sets = ([slice(None, None, first)] * (first > stride) + [slice(None, None, stride)]
            + [slice(PENCIL_SAMPLES)] * (stride > 1))
    for part in sets:
        fit = _pole_fit(tau, y, part, dt, floor, stride)
        if not isinstance(fit, str):
            break
    else:
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
