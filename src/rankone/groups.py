"""Structural data of the rank-one families and their exceptional spectral parameters.

A spectral parameter mu lives on the one-dimensional split torus and is stored
through its value mu(H), where H is normalized by alpha(H) = 1 for the simple
positive restricted root alpha.  All values are exact rationals.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

VARIANTS = ("SO", "SU", "Sp", "F4")


class UnsupportedFamilyError(ValueError):
    """Operation not available for the requested family instance."""


@dataclass(frozen=True, order=True)
class GroupFamily:
    """One of SO(n,1), SU(n,1), Sp(n,1) or F4(-20), tagged by variant and n."""

    variant: str
    n: Optional[int] = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}, expected one of {VARIANTS}")
        if self.variant == "F4":
            if self.n is not None:
                raise ValueError("F4 carries no free parameter n")
        else:
            if not isinstance(self.n, int) or self.n < 2:
                raise ValueError(f"{self.variant} requires an integer n >= 2, got {self.n!r}")

    def __str__(self) -> str:
        if self.variant == "F4":
            return "F4"
        return f"{self.variant}({self.n},1)"


def so(n: int) -> GroupFamily:
    return GroupFamily("SO", n)


def su(n: int) -> GroupFamily:
    return GroupFamily("SU", n)


def sp(n: int) -> GroupFamily:
    return GroupFamily("Sp", n)


def f4() -> GroupFamily:
    return GroupFamily("F4")


@dataclass(frozen=True)
class StructuralData:
    """Multiplicities of the restricted roots and derived constants.

    rho_H is the half-sum of positive restricted roots (with multiplicity)
    evaluated at H; dim_p the dimension of the -1 Cartan eigenspace; K/M is
    a round sphere of dimension sphere_dim.
    """

    m_alpha: int
    m_2alpha: int
    rho_H: Fraction
    dim_p: int
    sphere_dim: int


@dataclass(frozen=True)
class FamilySpec:
    """Per-variant constants: m_alpha = a n + b, m_2alpha, and the shift c ell + d
    of the exceptional parameters mu_ell(H) = -rho(H) - (c ell + d)."""

    m_alpha: tuple[int, int]  # (a, b)
    m_2alpha: int
    shift: tuple[int, int]  # (c, d)


FAMILY_SPECS = {
    "SO": FamilySpec((1, -1), 0, (1, 0)),
    "SU": FamilySpec((2, -2), 1, (2, 0)),
    "Sp": FamilySpec((4, -4), 3, (2, -2)),
    "F4": FamilySpec((0, 8), 7, (2, -6)),
}


@dataclass(frozen=True)
class SpectralParam:
    """mu in a*, stored as the exact rational mu(H)."""

    mu_H: Fraction

    def __str__(self) -> str:
        return str(self.mu_H)


def structural_data(family: GroupFamily) -> StructuralData:
    """Root multiplicities and derived constants for one family instance."""
    spec = FAMILY_SPECS[family.variant]
    a, b = spec.m_alpha
    m_alpha, m_2alpha = a * (family.n or 0) + b, spec.m_2alpha
    rho = Fraction(m_alpha, 2) + m_2alpha
    dim_p = m_alpha + m_2alpha + 1
    return StructuralData(m_alpha, m_2alpha, rho, dim_p, dim_p - 1)


def rho_H(family: GroupFamily) -> Fraction:
    return structural_data(family).rho_H


def e_inverse_gamma_args(family: GroupFamily, mu: SpectralParam) -> tuple[Fraction, Fraction]:
    """Arguments of the two Gamma factors of 1/e at the simple restricted root.

    The reciprocal of the Harish-Chandra e-function is a product of Gamma
    values; its zeros (poles of Gamma) are exactly the exceptional parameters.
    """
    sd = structural_data(family)
    half_m = Fraction(sd.m_alpha, 2)
    return (
        Fraction(half_m + 1 + mu.mu_H, 2),
        Fraction(half_m + sd.m_2alpha + mu.mu_H, 2),
    )


def _is_nonpositive_integer(q: Fraction) -> bool:
    return q.denominator == 1 and q <= 0


def is_exceptional(family: GroupFamily, mu: SpectralParam) -> bool:
    """True iff mu is a zero of the e-function (a Gamma argument hits a pole)."""
    a1, a2 = e_inverse_gamma_args(family, mu)
    return _is_nonpositive_integer(a1) or _is_nonpositive_integer(a2)


def exceptional_mu(family: GroupFamily, ell: int) -> SpectralParam:
    """The ell-th exceptional parameter mu_ell(H) = -rho(H) - (c ell + d), from the closed form.

    (c, d) is the family's `FamilySpec.shift`.
    """
    if ell < 0:
        raise ValueError("ell must be nonnegative")
    c, d = FAMILY_SPECS[family.variant].shift
    return SpectralParam(-rho_H(family) - (c * ell + d))


def exceptional_params(family: GroupFamily, count: int) -> list[SpectralParam]:
    """First `count` exceptional parameters in decreasing order of mu(H)."""
    if count < 1:
        raise ValueError("count must be positive")
    return [exceptional_mu(family, ell) for ell in range(count)]


def exceptional_in_interval(family: GroupFamily, lower: Fraction, upper: Fraction = Fraction(0)) -> list[Fraction]:
    """All mu(H) in [lower, upper] flagged by the Gamma-pole predicate.

    Scans the half-integer grid, which contains every possible zero: a Gamma
    argument (m_alpha/2 + c + mu(H))/2 is integral only for mu(H) in a coset
    of 2Z shifted by an integer or half-integer.
    """
    out = []
    mu2 = 2 * Fraction(lower)  # scan in half-integer steps
    while mu2 <= 2 * Fraction(upper):
        mu = SpectralParam(Fraction(mu2, 2))
        if is_exceptional(family, mu):
            out.append(mu.mu_H)
        mu2 += 1
    return out
