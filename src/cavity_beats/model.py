"""Level scheme, cavity couplings, dipole products and derived rates.

The atom is a four-level cascade e -> {1, 2} -> g with two near-degenerate
intermediate levels split by 2*Omega. Mode a couples the upper transitions,
mode b the lower ones. All frequencies and rates are expressed in units of
a reference cavity linewidth kappa; the electromagnetic prefactor of the
coupling constants is collapsed into a single scale so configurations can
specify G directly.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

DOT_TOL = 1e-12


@dataclass(frozen=True)
class LevelScheme:
    """Atomic level energies relative to the ground state."""

    omega_eg: float
    omega_1g: float
    omega_2g: float

    def __post_init__(self) -> None:
        if not (self.omega_eg > self.omega_1g and self.omega_eg > self.omega_2g):
            raise ValueError("cascade ordering requires omega_eg above both intermediate levels")
        if not np.isfinite(self.Omega):
            raise ValueError("level splitting must be finite")

    @property
    def Omega(self) -> float:
        """Half the splitting of the intermediate levels."""
        return (self.omega_1g - self.omega_2g) / 2

    @property
    def omega_e1(self) -> float:
        return self.omega_eg - self.omega_1g

    @property
    def omega_e2(self) -> float:
        return self.omega_eg - self.omega_2g


@dataclass(frozen=True)
class CavityParams:
    """Mode frequencies and photon leakage rates of the two-mode cavity."""

    omega_a: float
    omega_b: float
    kappa_a: float = 1.0
    kappa_b: float = 1.0

    def __post_init__(self) -> None:
        if self.kappa_a <= 0 or self.kappa_b <= 0:
            raise ValueError("cavity decay rates must be positive")


def detunings(levels: LevelScheme, cavity: CavityParams) -> tuple[float, float, float, float]:
    """(Delta_1, Delta_2, Delta_1p, Delta_2p): upper and lower detunings."""
    return (
        levels.omega_e1 - cavity.omega_a,
        levels.omega_e2 - cavity.omega_a,
        levels.omega_1g - cavity.omega_b,
        levels.omega_2g - cavity.omega_b,
    )


@dataclass(frozen=True)
class CouplingSet:
    """Atom-cavity coupling constants for the four transitions."""

    G_1e: complex
    G_2e: complex
    G_g1: complex
    G_g2: complex

    def __post_init__(self) -> None:
        for name in ("G_1e", "G_2e", "G_g1", "G_g2"):
            z = complex(getattr(self, name))
            if not np.isfinite(z.real) or not np.isfinite(z.imag):
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, z)

    @classmethod
    def uniform(cls, g: complex) -> "CouplingSet":
        return cls(g, g, g, g)


class RateSet(NamedTuple):
    """Decay rates, level shifts and the cross-coupling coefficients.

    Gamma_j / delta_j come from the upper transitions through mode a,
    the primed ones from the lower transitions through mode b. The cross
    coefficients are the complex prefactors of the interference terms:
    cross_upper multiplies the rho_ee source of the 1-2 coherence,
    cross_ground the rho_12 source of the ground population, cross_left
    and cross_right the two one-sided coherence couplings. Whether they
    have the evenly tuned form, which the closed form solves, is read off
    them alone (analytic.tuned_alpha): the shortcut's rates have it, and so
    do those of any explicit block that reduces to it.
    """

    Gamma_1: float
    Gamma_2: float
    Gamma_1p: float
    Gamma_2p: float
    delta_1: float
    delta_2: float
    delta_1p: float
    delta_2p: float
    Omega: float
    cross_upper: complex
    cross_ground: complex
    cross_left: complex
    cross_right: complex


def sigma_dipoles(reduced_d: float) -> tuple[np.ndarray, np.ndarray]:
    """Circular dipole vectors of the two lower transitions.

    d_g1 = -|d| (x + iy), d_g2 = |d| (x - iy); mutually orthogonal, so they
    cannot interfere in free space.
    """
    if reduced_d <= 0:
        raise ValueError("reduced dipole moment must be positive")
    d_g1 = -reduced_d * np.array([1.0, 1.0j, 0.0])
    d_g2 = reduced_d * np.array([1.0, -1.0j, 0.0])
    return d_g1, d_g2


def preselected_product(d1, d2, pol) -> complex:
    """Coupling product (d1 . e)(d2* . e*) for one fixed polarization.

    This is the quantity that survives when the cavity admits a single
    polarization: it can be nonzero even for orthogonal dipoles.
    """
    d1 = np.asarray(d1, dtype=complex)
    d2 = np.asarray(d2, dtype=complex)
    e = np.asarray(pol, dtype=complex)
    return complex(np.sum(d1 * e)) * np.conj(complex(np.sum(d2 * e)))


def summed_product(d1, d2, k_hat) -> complex:
    """Coupling product summed over both polarizations transverse to k_hat.

    The sum over any transverse basis is the contraction with the
    transverse projector, d1 . (1 - k k^T) . d2*. For dipoles transverse to
    k_hat this equals d1 . d2*: the free-space interference criterion,
    which vanishes for orthogonal dipoles.
    """
    k = np.asarray(k_hat, dtype=float)
    if k.shape != (3,) or abs(np.linalg.norm(k) - 1.0) > DOT_TOL:
        raise ValueError("k_hat must be a real unit 3-vector")
    d1 = np.asarray(d1, dtype=complex)
    d2c = np.conj(np.asarray(d2, dtype=complex))
    return complex(d1 @ d2c - (d1 @ k) * (k @ d2c))


def interference_condition(d1, d2) -> bool:
    """Whether the two dipoles can interfere without polarization selection."""
    d1 = np.asarray(d1, dtype=complex)
    d2 = np.asarray(d2, dtype=complex)
    return bool(abs(np.sum(d1 * np.conj(d2))) > DOT_TOL)


@np.errstate(over="ignore", invalid="ignore")  # numpy's complex products overflow quietly
def derive_rates(
    couplings: CouplingSet, levels: LevelScheme, cavity: CavityParams
) -> RateSet:
    """Effective decay rates, shifts and cross coefficients of the bad-cavity limit.

    Gamma_j = |G_je|^2 kappa_a / (kappa_a^2 + Delta_j^2) and its primed
    partner; delta_j carries Delta_j in place of kappa_a in the numerator.
    Raises ValueError when a rate or coefficient is not finite. The closed
    form takes these rates when they have the evenly tuned form
    (analytic.tuned_alpha): the shortcut's do, and so do those of an
    explicit block that reduces to it.
    """
    d1, d2, d1p, d2p = detunings(levels, cavity)
    ka, kb = cavity.kappa_a, cavity.kappa_b
    om = levels.Omega
    try:
        den_1 = ka**2 + d1**2
        den_2 = ka**2 + d2**2
        den_1p = kb**2 + d1p**2
        den_2p = kb**2 + d2p**2

        g1e, g2e = couplings.G_1e, couplings.G_2e
        gg1, gg2 = couplings.G_g1, couplings.G_g2

        rates = RateSet(
            Gamma_1=abs(g1e) ** 2 * ka / den_1,
            Gamma_2=abs(g2e) ** 2 * ka / den_2,
            Gamma_1p=abs(gg1) ** 2 * kb / den_1p,
            Gamma_2p=abs(gg2) ** 2 * kb / den_2p,
            delta_1=abs(g1e) ** 2 * d1 / den_1,
            delta_2=abs(g2e) ** 2 * d2 / den_2,
            delta_1p=abs(gg1) ** 2 * d1p / den_1p,
            delta_2p=abs(gg2) ** 2 * d2p / den_2p,
            Omega=om,
            cross_upper=2 * g1e * np.conj(g2e) * (ka + 1j * om) / ((ka + 1j * d2) * (ka - 1j * d1)),
            cross_ground=2 * gg1 * np.conj(gg2) * (kb - 1j * om) / ((kb + 1j * d2p) * (kb - 1j * d1p)),
            cross_left=np.conj(gg1) * gg2 / (kb - 1j * d2p),
            cross_right=np.conj(gg1) * gg2 / (kb + 1j * d1p),
        )
        if all(map(cmath.isfinite, rates)):
            return rates
    except OverflowError:  # a Python float squared past the float range
        pass
    raise ValueError("the rates overflow at these couplings, linewidths or detunings")


def midpoint_levels(upper_gap: float, mid: float, Omega: float) -> tuple[LevelScheme, CavityParams]:
    """Convenience builder for the midpoint-tuned configuration.

    Places the intermediate levels at mid +/- Omega, mode b at their center
    and mode a at the e -> midpoint distance, which realizes
    Delta_1 = -Omega = -Delta_2 and Delta_1p = Omega = -Delta_2p.
    """
    levels = LevelScheme(
        omega_eg=mid + upper_gap,
        omega_1g=mid + Omega,
        omega_2g=mid - Omega,
    )
    cavity = CavityParams(omega_a=upper_gap, omega_b=mid)
    return levels, cavity


def tuned_configuration(Omega: float, g: complex) -> tuple[CouplingSet, LevelScheme, CavityParams]:
    """The evenly tuned (couplings, levels, cavity), in derive_rates' order: every coupling g."""
    return CouplingSet.uniform(g), *midpoint_levels(Omega + 1.0, Omega, Omega)
