"""Zonal M-spherical functions, the omega(H)-multiplication recurrences and lambda scalars.

Each spherical function factors into a radial part cos^p(xi) F(a,b,c,-tan^2 xi)
and, for SU / Sp / F4, an azimuthal factor (a circle character, a Chebyshev
ratio sin((q+1)t)/sin(t), or a second hypergeometric factor).  Multiplying by
omega(H) re-expands in neighbouring K-types with rational coefficients; all
recurrence identities are verified by exact polynomial algebra after the
substitution u = tan^2, which turns every 1/cos^2 into (1 + u).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Optional

from .groups import GroupFamily, UnsupportedFamilyError
from .hypergeom import F21Poly, f21
from .ktypes import KTypeLabel, label
from .poly import Poly, padd, peq, pmul, ppow, pscale, trim


def _check_supported(family: GroupFamily):
    if family.variant == "SO" and family.n == 2:
        raise UnsupportedFamilyError("spherical recurrences are not defined for SO(2,1)")


@dataclass(frozen=True)
class RadialFactor:
    """cos^cos_power(xi) * F(a, b, c, -tan^2 xi)."""

    cos_power: int
    series: F21Poly

    def poly_in_u(self) -> Poly:
        """Coefficients of F(.., -u) as a polynomial in u = tan^2 xi."""
        return trim([(-1) ** j * c for j, c in enumerate(self.series.coeffs)])


@dataclass(frozen=True)
class PhiSpec:
    """Symbolic description of the normalized M-spherical function of a K-type."""

    family: GroupFamily
    label: KTypeLabel
    radial: RadialFactor
    azimuthal: str  # "none" | "circle:<m>" | "chebyshev:<q>" | "gegenbauer:<l>"
    azimuthal_radial: Optional[RadialFactor] = None  # F4 only
    normalization: Fraction = Fraction(1)

    def base_point_value(self) -> Fraction:
        value = self.radial.series.coeffs[0] * self.normalization
        if self.azimuthal.startswith("chebyshev:"):
            value *= int(self.azimuthal.split(":")[1]) + 1
        if self.azimuthal_radial is not None:
            value *= self.azimuthal_radial.series.coeffs[0]
        return value


def radial_factor(family: GroupFamily, lab: KTypeLabel) -> RadialFactor:
    """The xi-dependent hypergeometric factor of the spherical function."""
    _check_supported(family)
    return _radial(family, lab.coords)


def _radial(family: GroupFamily, coords: tuple[int, ...]) -> RadialFactor:
    """radial_factor as a formula in the label coordinates.

    The ingredient identities also evaluate it just outside the lattice, at
    Sp (a, a+1) and (a-1, a) and at F4 (m+-1, -1), so it takes coordinates
    rather than a label.
    """
    n = family.n
    if family.variant == "SO":
        (k,) = coords
        return RadialFactor(k, f21(Fraction(-k, 2), Fraction(1 - k, 2), Fraction(n - 1, 2)))
    if family.variant == "SU":
        p, q = coords
        return RadialFactor(p + q, f21(-p, -q, n - 1))
    if family.variant == "Sp":
        a, b = coords
        return RadialFactor(a + b, f21(-b, -(a + 1), 2 * (n - 1)))
    m, k = coords
    return RadialFactor(m, f21(Fraction(k - m, 2), Fraction(-m - k - 6, 2), 4))


def f4_azimuthal_factor(ell: int) -> RadialFactor:
    """cos^ell(phi) F(-ell/2, (1-ell)/2, 7/2, -tan^2 phi), the sphere-of-angles factor."""
    return RadialFactor(ell, f21(Fraction(-ell, 2), Fraction(1 - ell, 2), Fraction(7, 2)))


def chebyshev_u(q: int) -> Poly:
    """U_q(c) = sin((q+1)t)/sin(t) with c = cos t, from the explicit closed form."""
    if q < 0:
        return []
    out = [Fraction(0)] * (q + 1)
    for j in range(q // 2 + 1):
        out[q - 2 * j] += Fraction((-1) ** j * comb(q - j, j) * 2 ** (q - 2 * j))
    return trim(out)


def phi(family: GroupFamily, lab: KTypeLabel) -> PhiSpec:
    """Symbolic spherical function, normalized to 1 at the base point."""
    _check_supported(family)
    rad = radial_factor(family, lab)
    if family.variant == "SO":
        spec = PhiSpec(family, lab, rad, "none")
    elif family.variant == "SU":
        p, q = lab.coords
        spec = PhiSpec(family, lab, rad, f"circle:{p - q}")
    elif family.variant == "Sp":
        a, b = lab.coords
        spec = PhiSpec(family, lab, rad, f"chebyshev:{a - b}",
                       normalization=Fraction(1, a - b + 1))
    else:
        m, k = lab.coords
        spec = PhiSpec(family, lab, rad, f"gegenbauer:{k}",
                       azimuthal_radial=f4_azimuthal_factor(k))
    if spec.base_point_value() != 1:
        raise AssertionError("spherical function must equal 1 at the base point")
    return spec


# -- the omega(H) recurrence rows ---------------------------------------------


@dataclass(frozen=True)
class RecurrenceRow:
    source: KTypeLabel
    terms: tuple[tuple[KTypeLabel, Fraction], ...]

    def coefficient(self, target: KTypeLabel) -> Fraction:
        for lab, c in self.terms:
            if lab == target:
                return c
        return Fraction(0)


def _raw_row(family: GroupFamily, coords: tuple[int, ...]):
    """Target offsets and coefficients before dropping the vanishing ones."""
    n = family.n
    if family.variant == "SO":
        (k,) = coords
        den = n + 2 * k - 2
        return [((k - 1,), Fraction(k, den)), ((k + 1,), Fraction(n + k - 2, den))]
    if family.variant == "SU":
        p, q = coords
        den = 2 * (p + q + n - 1)
        return [((p + 1, q), Fraction(p + n - 1, den)),
                ((p, q - 1), Fraction(q, den)),
                ((p, q + 1), Fraction(q + n - 1, den)),
                ((p - 1, q), Fraction(p, den))]
    if family.variant == "Sp":
        a, b = coords
        den = 2 * (a - b + 1) * (2 * n - 1 + a + b)
        return [((a + 1, b), Fraction((a - b + 2) * (2 * n - 1 + a), den)),
                ((a, b - 1), Fraction(b * (a - b + 2), den)),
                ((a, b + 1), Fraction((a - b) * (2 * n - 2 + b), den)),
                ((a - 1, b), Fraction((a - b) * (a + 1), den))]
    m, k = coords
    den = (6 + 2 * k) * (14 + 2 * m)
    return [((m + 1, k + 1), Fraction((6 + k) * (14 + m + k), den)),
            ((m - 1, k + 1), Fraction((6 + k) * (m - k), den)),
            ((m + 1, k - 1), Fraction(k * (8 + m - k), den)),
            ((m - 1, k - 1), Fraction(k * (m + k + 6), den))]


def _valid_coords(family: GroupFamily, coords: tuple[int, ...]) -> bool:
    try:
        label(family, *coords)
        return True
    except ValueError:
        return False


def omega_h_expand(family: GroupFamily, lab: KTypeLabel) -> RecurrenceRow:
    """Expansion of omega(H) * phi_lab over the neighbouring spherical functions.

    A coefficient vanishes exactly when its target label leaves the lattice;
    the surviving coefficients are nonnegative and sum to 1.  Each coefficient
    equals lambda(source, target).
    """
    _check_supported(family)
    terms = []
    for coords, coeff in _raw_row(family, lab.coords):
        valid = _valid_coords(family, coords)
        if (coeff == 0) != (not valid):
            raise AssertionError(f"coefficient/validity mismatch at {lab} -> {coords}")
        if coeff != 0:
            terms.append((label(family, *coords), coeff))
    row = RecurrenceRow(lab, tuple(terms))
    if any(c < 0 for _, c in row.terms) or sum(c for _, c in row.terms) != 1:
        raise AssertionError(f"row at {lab} is not a convex combination")
    return row


def lambda_scalar(family: GroupFamily, v: KTypeLabel, y: KTypeLabel) -> Fraction:
    """lambda(V, Y): the Y-coefficient of omega(H) phi_V; zero when unrelated."""
    return omega_h_expand(family, v).coefficient(y)


def omega_related(family: GroupFamily, v: KTypeLabel, y: KTypeLabel) -> bool:
    return lambda_scalar(family, v, y) != 0


# -- exact verification of the recurrence identities --------------------------


def _clear_cos(terms: list[tuple[int, Fraction, Poly]]) -> Poly:
    """Sum coeff * cos^p * F(u) terms as one polynomial in u.

    Each term is multiplied by (1+u)^((P - p)/2), P the maximal cos power;
    powers must share parity for the identity to make sense.
    """
    top = max(p for p, _, _ in terms)
    if any((top - p) % 2 for p, _, _ in terms):
        raise ValueError("cosine powers of different parity cannot be cleared")
    one_plus_u: Poly = [Fraction(1), Fraction(1)]
    acc: Poly = []
    for p, coeff, f_of_u in terms:
        acc = padd(acc, pscale(pmul(ppow(one_plus_u, (top - p) // 2), f_of_u), coeff))
    return acc


def _radial_identity(lhs: RadialFactor, rhs: list[tuple[Fraction, RadialFactor]]) -> bool:
    """cos * lhs == sum coeff * rhs_i, as an exact identity in u = tan^2."""
    terms = [(lhs.cos_power + 1, Fraction(-1), lhs.poly_in_u())]
    terms += [(r.cos_power, c, r.poly_in_u()) for c, r in rhs]
    return peq(_clear_cos(terms), [])


def chebyshev_three_term(q: int) -> bool:
    """2 cos(t) U_q = U_{q+1} + U_{q-1} as exact polynomials in cos t."""
    two_c: Poly = [Fraction(0), Fraction(2)]
    return peq(pmul(two_c, chebyshev_u(q)), padd(chebyshev_u(q + 1), chebyshev_u(q - 1)))


def ingredient_identities(family: GroupFamily, lab: KTypeLabel) -> dict[str, bool]:
    """The per-factor identities whose combination yields the omega(H) row."""
    _check_supported(family)
    n = family.n
    v = family.variant
    out: dict[str, bool] = {}
    if v == "SO":
        (k,) = lab.coords
        den = n + 2 * k - 2
        rhs = [(Fraction(n + k - 2, den), _radial(family, (k + 1,)))]
        if k >= 1:
            rhs.append((Fraction(k, den), _radial(family, (k - 1,))))
        out["radial"] = _radial_identity(_radial(family, lab.coords), rhs)
        return out
    if v == "SU":
        p, q = lab.coords
        den = p + q + n - 1
        rhs2 = [(Fraction(p + n - 1, den), _radial(family, (p + 1, q)))]
        if q >= 1:
            rhs2.append((Fraction(q, den), _radial(family, (p, q - 1))))
        out["raise_p"] = _radial_identity(_radial(family, (p, q)), rhs2)
        rhs3 = [(Fraction(q + n - 1, den), _radial(family, (p, q + 1)))]
        if p >= 1:
            rhs3.append((Fraction(p, den), _radial(family, (p - 1, q))))
        out["raise_q"] = _radial_identity(_radial(family, (p, q)), rhs3)
        return out
    if v == "Sp":
        # The two radial splittings hold as formulas for every a >= b, also on
        # the boundary labels where one Chebyshev branch vanishes.
        a, b = lab.coords
        den = 2 * n + a + b - 1
        out["chebyshev"] = chebyshev_three_term(a - b)
        rhs2 = [(Fraction(2 * n - 2 + b, den), _radial(family, (a, b + 1))),
                (Fraction(a + 1, den), _radial(family, (a - 1, b)))]
        out["lower_pair"] = _radial_identity(_radial(family, (a, b)), rhs2)
        rhs3 = [(Fraction(2 * n - 1 + a, den), _radial(family, (a + 1, b)))]
        if b >= 1:
            rhs3.append((Fraction(b, den), _radial(family, (a, b - 1))))
        out["raise_pair"] = _radial_identity(_radial(family, (a, b)), rhs3)
        return out
    m, k = lab.coords
    den_phi = 6 + 2 * k
    den_xi = 14 + 2 * m
    rhs1 = [(Fraction(6 + k, den_phi), f4_azimuthal_factor(k + 1))]
    if k >= 1:
        rhs1.append((Fraction(k, den_phi), f4_azimuthal_factor(k - 1)))
    out["azimuthal"] = _radial_identity(f4_azimuthal_factor(k), rhs1)
    rhs2 = [(Fraction(8 + m - k, den_xi), _radial(family, (m + 1, k - 1))),
            (Fraction(m + k + 6, den_xi), _radial(family, (m - 1, k - 1)))]
    out["lower_pair"] = _radial_identity(_radial(family, (m, k)), rhs2)
    rhs3 = [(Fraction(14 + m + k, den_xi), _radial(family, (m + 1, k + 1)))]
    if m > k:
        rhs3.append((Fraction(m - k, den_xi), _radial(family, (m - 1, k + 1))))
    out["raise_pair"] = _radial_identity(_radial(family, (m, k)), rhs3)
    return out


def _assembled_row(family: GroupFamily, lab: KTypeLabel) -> dict[tuple[int, ...], Fraction]:
    """Recurrence coefficients rebuilt from the ingredient factorizations."""
    n = family.n
    v = family.variant
    out: dict[tuple[int, ...], Fraction] = {}
    if v == "SO":
        (k,) = lab.coords
        den = n + 2 * k - 2
        if k >= 1:
            out[(k - 1,)] = Fraction(k, den)
        out[(k + 1,)] = Fraction(n + k - 2, den)
        return out
    if v == "SU":
        # omega(H) = cos(xi) cos(phi); cos(phi) splits the circle character in
        # half onto the two neighbouring frequencies, each refined radially.
        p, q = lab.coords
        den = p + q + n - 1
        half = Fraction(1, 2)
        out[(p + 1, q)] = half * Fraction(p + n - 1, den)
        if q >= 1:
            out[(p, q - 1)] = half * Fraction(q, den)
        out[(p, q + 1)] = half * Fraction(q + n - 1, den)
        if p >= 1:
            out[(p - 1, q)] = half * Fraction(p, den)
        return out
    if v == "Sp":
        # 2 cos(t) U_q = U_{q+1} + U_{q-1}; track the 1/(q+1) normalizations.
        a, b = lab.coords
        q = a - b
        den = 2 * n + a + b - 1
        up = Fraction(q + 2, 2 * (q + 1))
        out[(a + 1, b)] = up * Fraction(2 * n - 1 + a, den)
        if b >= 1:
            out[(a, b - 1)] = up * Fraction(b, den)
        if q >= 1:
            down = Fraction(q, 2 * (q + 1))
            out[(a, b + 1)] = down * Fraction(2 * n - 2 + b, den)
            out[(a - 1, b)] = down * Fraction(a + 1, den)
        return out
    m, k = lab.coords
    den_phi = 6 + 2 * k
    den_xi = 14 + 2 * m
    out[(m + 1, k + 1)] = Fraction(6 + k, den_phi) * Fraction(14 + m + k, den_xi)
    if m > k:
        out[(m - 1, k + 1)] = Fraction(6 + k, den_phi) * Fraction(m - k, den_xi)
    if k >= 1:
        out[(m + 1, k - 1)] = Fraction(k, den_phi) * Fraction(8 + m - k, den_xi)
        out[(m - 1, k - 1)] = Fraction(k, den_phi) * Fraction(m + k + 6, den_xi)
    return out


def verify_omega_identity(family: GroupFamily, lab: KTypeLabel) -> bool:
    """Exact check of the full omega(H) recurrence for one label.

    True iff every ingredient identity holds as a polynomial identity and the
    assembled coefficients reproduce the stated recurrence row.
    """
    _check_supported(family)
    if not all(ingredient_identities(family, lab).values()):
        return False
    row = omega_h_expand(family, lab)
    assembled = _assembled_row(family, lab)
    stated = {t.coords: c for t, c in row.terms}
    return assembled == stated


__all__ = [
    "PhiSpec", "RadialFactor", "RecurrenceRow",
    "phi", "radial_factor", "f4_azimuthal_factor", "chebyshev_u",
    "chebyshev_three_term", "omega_h_expand", "lambda_scalar", "omega_related",
    "ingredient_identities", "verify_omega_identity",
]
