"""Structural data of the rank-one families and their exceptional spectral parameters.

A spectral parameter mu lives on the one-dimensional split torus and is stored
through its value mu(H), where H is normalized by alpha(H) = 1 for the simple
positive restricted root alpha.  All values are exact rationals; both routes
to the exceptional parameters work on the integers t = 2 mu(H).
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain
from typing import NamedTuple, Optional

VARIANTS = ("SO", "SU", "Sp", "F4")


class UnsupportedFamilyError(ValueError):
    """Operation not available for the requested family instance."""


class _GroupFamilyFields(NamedTuple):
    variant: str
    n: Optional[int] = None


class GroupFamily(_GroupFamilyFields):
    """One of SO(n,1), SU(n,1), Sp(n,1) or F4(-20), tagged by variant and n.

    A value type: a tuple of its fields, validated when built.  `_make` and
    `_replace` build through tuple alone and skip the validation.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        variant, n = self
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}, expected one of {VARIANTS}")
        if variant == "F4":
            if n is not None:
                raise ValueError("F4 carries no free parameter n")
        else:
            if not isinstance(n, int) or n < 2:
                raise ValueError(f"{variant} requires an integer n >= 2, got {n!r}")
        return self

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


class StructuralData(NamedTuple):
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


class FamilySpec(NamedTuple):
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


class SpectralParam(NamedTuple):
    """mu in a*, stored as the exact rational mu(H)."""

    mu_H: Fraction

    def __str__(self) -> str:
        return str(self.mu_H)


@lru_cache(maxsize=None)
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


def two_rho_H(family: GroupFamily) -> int:
    """2rho(H) = m_alpha + 2 m_2alpha, the integer that the doubled scalar rows read."""
    sd = structural_data(family)
    return sd.m_alpha + 2 * sd.m_2alpha


def _gamma_numerators(sd: StructuralData, t):
    """Numerators over 4 of the two Gamma arguments of 1/e at mu(H) = t/2.

    Integers when t is: m_alpha + 2 + t and m_alpha + 2 m_2alpha + t.
    """
    return sd.m_alpha + 2 + t, sd.m_alpha + 2 * sd.m_2alpha + t


def _exceptional_t(family: GroupFamily, ell: int) -> int:
    """2 mu_ell(H) = -2 rho(H) - 2 (c ell + d), an integer since 2 rho(H) = m_alpha + 2 m_2alpha is."""
    sd = structural_data(family)
    c, d = FAMILY_SPECS[family.variant].shift
    return -(sd.m_alpha + 2 * sd.m_2alpha) - 2 * (c * ell + d)


def exceptional_mu(family: GroupFamily, ell: int) -> SpectralParam:
    """The ell-th exceptional parameter mu_ell(H) = -rho(H) - (c ell + d), from the closed form.

    (c, d) is the family's `FamilySpec.shift`.
    """
    if ell < 0:
        raise ValueError("ell must be nonnegative")
    return SpectralParam(Fraction(_exceptional_t(family, ell), 2))


def exceptional_doubled(family: GroupFamily, count: int) -> list[int]:
    """The integers 2 mu_ell(H) of the first `count` exceptional parameters, decreasing.

    They step by -2c from the ell = 0 value, c from the family's `FamilySpec.shift`.
    """
    if count < 1:
        raise ValueError("count must be positive")
    step = 2 * FAMILY_SPECS[family.variant].shift[0]
    first = _exceptional_t(family, 0)
    return list(range(first, first - step * count, -step))


def exceptional_in_interval(family: GroupFamily, lo: int) -> list[int]:
    """The integers t = 2 mu(H) in [lo, 0], ascending, where 1/e has a Gamma pole.

    Gamma has its poles at the nonpositive integers, so a Gamma argument
    (a0 + t)/4, with a0 + t one of the `_gamma_numerators`, is a pole exactly
    at t = -a0, -a0 - 4, -a0 - 8, ...  Both a0 are positive (m_alpha >= 1), so
    each numerator's poles in [lo, 0] are one progression of step -4 from
    t = -a0, and the scan costs what its output costs.  Two numerators of one
    residue mod 4 have nested progressions (SU's coincide, Sp's and F4's
    overlap), so only the lower is kept, each pole is listed once, and the
    union is a merge of at most two ascending runs.
    """
    low, high = sorted(_gamma_numerators(structural_data(family), 0))
    runs = [range(-low, lo - 1, -4)[::-1]]
    if (high - low) % 4:
        runs.append(range(-high, lo - 1, -4)[::-1])
    return sorted(chain(*runs))
