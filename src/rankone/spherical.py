"""Zonal M-spherical functions, the omega(H)-multiplication recurrences and lambda scalars.

Each spherical function factors into a radial part cos^p(xi) F(a,b,c,-tan^2 xi)
and, for SU / Sp / F4, an azimuthal factor: a circle character, or the
zonal function of a smaller sphere (S^3 for Sp, whose degree-q zonal function
is the Chebyshev ratio sin((q+1)t)/((q+1) sin t); S^7 for F4).  Multiplying by
omega(H) re-expands in neighbouring K-types with rational coefficients.  The
row is stated once as a formula (`_raw_row`) and once as a factorisation
(`_factorisation`): per label, the azimuthal split weights and, per split,
the terms of one radial identity.  The ingredient identities and the
assembled row are both read from that one factorisation, so the assembled
row uses exactly the coefficients whose identities were checked, and it must
reproduce the stated row.  All identities are verified by exact polynomial
algebra after the substitution z = -tan^2, the argument of every series,
which turns every 1/cos^2 into (1 - z).  The algebra runs in Z[z]: a radial
factor is its series' integer numerators over one denominator, (1 - z)^k is a
signed binomial row, and each identity clears its denominators once.  The rows and the factorisation are integer numerators
over their denominators too, and the assembled row meets the stated one by
cross-multiplication; `RecurrenceRow.coefficient` and `lambda_scalar` are the
only places where a coefficient becomes a `Fraction`, for the callers that
want lambda itself.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .groups import GroupFamily, UnsupportedFamilyError, so
from .hypergeom import F21Poly, f21
from .ktypes import KTypeLabel, lattice
from .poly import Poly, binomial_row, pclear, pmul


def _check_supported(family: GroupFamily):
    if family.variant == "SO" and family.n == 2:
        raise UnsupportedFamilyError("spherical recurrences are not defined for SO(2,1)")


class RadialFactor(NamedTuple):
    """cos^cos_power(xi) * F(a, b, c, -tan^2 xi)."""

    cos_power: int
    series: F21Poly


@lru_cache(maxsize=None)
def radial_factor(family: GroupFamily, coords: tuple[int, ...]) -> RadialFactor:
    """The xi-dependent hypergeometric factor of the spherical function at label coordinates.

    The ingredient identities also evaluate it just outside the lattice, at
    Sp (a, a+1) and (a-1, a) and at F4 (m+-1, -1), so it takes coordinates
    rather than a label.  Neighbouring labels share most factors, so each is
    built once per process; a factor is frozen, so sharing it is safe.
    """
    _check_supported(family)
    n = family.n
    if family.variant == "SO":
        (k,) = coords
        return zonal_factor(n, k)
    if family.variant == "SU":
        p, q = coords
        return RadialFactor(p + q, f21(-p, -q, n - 1))
    if family.variant == "Sp":
        a, b = coords
        return RadialFactor(a + b, f21(-b, -(a + 1), 2 * (n - 1)))
    m, k = coords
    return RadialFactor(m, f21(Fraction(k - m, 2), Fraction(-m - k - 6, 2), 4))


def zonal_factor(n: int, k: int) -> RadialFactor:
    """cos^k F(-k/2, (1-k)/2, (n-1)/2, -tan^2), the degree-k zonal function on S^(n-1).

    It is the SO(n,1) radial factor, F4's azimuthal factor at n = 8 and the
    series under `so_model.zonal_coeffs`.
    """
    return RadialFactor(k, f21(Fraction(-k, 2), Fraction(1 - k, 2), Fraction(n - 1, 2)))


# The azimuthal factor of Sp and F4 is a zonal function on a smaller sphere:
# the SO(4,1) radial factor of degree a - b (U_q/(q+1) on S^3) and the SO(8,1)
# radial factor of degree k (on S^7).  Its omega(H) split is that family's
# radial split.  Per variant: the sphere's family and the degree as the form
# x * c[0] + y * c[-1] in the label coordinates c.
_AZIMUTHS = {"Sp": (so(4), (1, -1)), "F4": (so(8), (0, 1))}


def _azimuth(family: GroupFamily, coords: tuple[int, ...]) -> tuple[GroupFamily, tuple[int]]:
    """The sphere family and coordinates of the azimuthal factor at coords."""
    sphere, (x, y) = _AZIMUTHS[family.variant]
    return sphere, (x * coords[0] + y * coords[-1],)


# -- the omega(H) recurrence rows ---------------------------------------------


class RecurrenceRow(NamedTuple):
    """omega(H) phi_source = sum num / den phi_target over the (target, num) pairs
    of `nums`, each num nonzero: lambda(source, target) = num / den."""

    source: KTypeLabel
    den: int
    nums: tuple[tuple[KTypeLabel, int], ...]

    def numerator(self, target: KTypeLabel) -> int:
        """The numerator of lambda(source, target) over den; 0 when unrelated."""
        for t, num in self.nums:
            if t == target:
                return num
        return 0

    def coefficient(self, target: KTypeLabel) -> Fraction:
        return Fraction(self.numerator(target), self.den)


def _raw_row(family: GroupFamily, coords: tuple[int, ...]):
    """(den, [(target offsets, numerator)]) before dropping the vanishing terms."""
    n = family.n
    if family.variant == "SO":
        (k,) = coords
        return n + 2 * k - 2, [((k - 1,), k), ((k + 1,), n + k - 2)]
    if family.variant == "SU":
        p, q = coords
        return 2 * (p + q + n - 1), [((p + 1, q), p + n - 1), ((p, q - 1), q),
                                     ((p, q + 1), q + n - 1), ((p - 1, q), p)]
    if family.variant == "Sp":
        a, b = coords
        return 2 * (a - b + 1) * (2 * n - 1 + a + b), [
            ((a + 1, b), (a - b + 2) * (2 * n - 1 + a)),
            ((a, b - 1), b * (a - b + 2)),
            ((a, b + 1), (a - b) * (2 * n - 2 + b)),
            ((a - 1, b), (a - b) * (a + 1))]
    m, k = coords
    return (6 + 2 * k) * (14 + 2 * m), [((m + 1, k + 1), (6 + k) * (14 + m + k)),
                                        ((m - 1, k + 1), (6 + k) * (m - k)),
                                        ((m + 1, k - 1), k * (8 + m - k)),
                                        ((m - 1, k - 1), k * (m + k + 6))]


@lru_cache(maxsize=None)
def omega_h_expand(family: GroupFamily, lab: KTypeLabel) -> RecurrenceRow:
    """Expansion of omega(H) * phi_lab over the neighbouring spherical functions.

    A coefficient vanishes exactly when its target label leaves the lattice;
    the surviving coefficients are nonnegative and sum to 1.  Each coefficient
    equals lambda(source, target).  The one row memo: every caller shares a frozen row.
    """
    _check_supported(family)
    den, raw = _raw_row(family, lab.coords)
    spec = lattice(family).spec
    nums = []
    for coords, num in raw:
        target = None if spec.error(coords) else KTypeLabel._make((family, coords))
        if (num == 0) != (target is None):
            raise AssertionError(f"coefficient/validity mismatch at {lab} -> {coords}")
        if num:
            nums.append((target, num))
    if den <= 0 or any(num < 0 for _, num in raw) or sum(num for _, num in raw) != den:
        raise AssertionError(f"row at {lab} is not a convex combination")
    return RecurrenceRow(lab, den, tuple(nums))


def lambda_scalar(family: GroupFamily, v: KTypeLabel, y: KTypeLabel) -> Fraction:
    """lambda(V, Y): the Y-coefficient of omega(H) phi_V; zero when unrelated."""
    return omega_h_expand(family, v).coefficient(y)


def row_is_convex(row: RecurrenceRow) -> bool:
    """lambda >= 0 along the row and sums to 1: the numerators are nonnegative
    and sum to the denominator."""
    return sum(num for _, num in row.nums) == row.den and all(num >= 0 for _, num in row.nums)


def lambda_dim_reciprocal(row_v: RecurrenceRow, row_y: RecurrenceRow, dim_v: int, dim_y: int) -> bool:
    """lambda(V, Y) dim V == lambda(Y, V) dim Y for V and Y the sources of the rows,
    cross-multiplied over the two denominators."""
    return (row_v.numerator(row_y.source) * row_y.den * dim_v
            == row_y.numerator(row_v.source) * row_v.den * dim_y)


# -- exact verification of the recurrence identities --------------------------


def _clear_cos(terms: list[tuple[int, int, int, Poly]]) -> Poly:
    """Sum num/den * cos^p * F(z) terms, F in Z[z] and z = -tan^2, as one
    polynomial in Z[z].

    Each term is multiplied by cos^(p - P) = (1 - z)^((P - p)/2), P the maximal
    cos power, and the denominators are cleared once; powers must share parity
    for the identity to make sense.
    """
    top = max(p for p, _, _, _ in terms)
    if any((top - p) % 2 for p, _, _, _ in terms):
        raise ValueError("cosine powers of different parity cannot be cleared")
    return pclear([(num, den, f_of_z if p == top else pmul(binomial_row((top - p) // 2), f_of_z))
                   for p, num, den, f_of_z in terms])


def _radial_identity(lhs: RadialFactor, den: int, rhs: list[tuple[int, RadialFactor]]) -> bool:
    """cos * lhs == sum num / den * rhs_i, as an exact identity in z = -tan^2."""
    terms = [(lhs.cos_power + 1, -1, lhs.series.den, lhs.series.nums)]
    terms += [(r.cos_power, num, den * r.series.den, r.series.nums) for num, r in rhs]
    return not _clear_cos(terms)


# (identity name, azimuthal weight w as (num, den), den, {target coordinates: num});
# the radial coefficient at a target is num / den
Split = tuple[str, tuple[int, int], int, dict[tuple[int, ...], int]]


def _terms(*terms: tuple[int, tuple[int, ...]]) -> dict[tuple[int, ...], int]:
    """{target: num} over the (num, target) pairs with a nonzero numerator."""
    return {target: num for num, target in terms if num}


def _factorisation(family: GroupFamily, coords: tuple[int, ...]) -> list[Split]:
    """omega(H) phi at coords, split azimuthally and then radially.

    omega(H) is cos(xi) times a cosine on the azimuthal factor (none for SO).
    That cosine splits the azimuthal factor onto its neighbours with weights
    w, and on each split cos(xi) R(coords) = sum c R(target) is one radial
    identity.  Returns one (identity name, w, den, {target: num}) per split,
    with c = num / den and zero terms dropped.  Different splits never share a
    target, so the omega(H) coefficient at a target is w * c.
    """
    n = family.n
    if family.variant == "SO":
        (k,) = coords
        return [("radial", (1, 1), n + 2 * k - 2, _terms((n + k - 2, (k + 1,)), (k, (k - 1,))))]
    if family.variant == "SU":
        # cos(phi) splits the circle character in half onto the two
        # neighbouring frequencies
        p, q = coords
        den = p + q + n - 1
        return [("raise_p", (1, 2), den, _terms((p + n - 1, (p + 1, q)), (q, (p, q - 1)))),
                ("raise_q", (1, 2), den, _terms((q + n - 1, (p, q + 1)), (p, (p - 1, q))))]
    if family.variant == "Sp":
        # Both radial splittings hold as formulas for every a >= b, also on
        # the boundary labels where the lower azimuthal branch has weight 0.
        a, b = coords
        den = 2 * n + a + b - 1
        lower = _terms((2 * n - 2 + b, (a, b + 1)), (a + 1, (a - 1, b)))
        upper = _terms((2 * n - 1 + a, (a + 1, b)), (b, (a, b - 1)))
    else:
        m, k = coords
        den = 14 + 2 * m
        lower = _terms((8 + m - k, (m + 1, k - 1)), (m + k + 6, (m - 1, k - 1)))
        upper = _terms((14 + m + k, (m + 1, k + 1)), (m - k, (m - 1, k + 1)))
    # the azimuthal weights are the sphere's radial coefficients
    sphere, (q,) = _azimuth(family, coords)
    ((_, _, sphere_den, weights),) = _factorisation(sphere, (q,))
    return [("lower_pair", (weights.get((q - 1,), 0), sphere_den), den, lower),
            ("raise_pair", (weights[(q + 1,)], sphere_den), den, upper)]


def _checked_splits(family: GroupFamily,
                    coords: tuple[int, ...]) -> tuple[list[Split], dict[str, bool]]:
    """_factorisation(family, coords) and the identities of its factors.

    For Sp and F4 the "azimuthal" identity is the sphere's radial identity at
    the azimuthal degree; each split adds its own radial identity.
    """
    splits = _factorisation(family, coords)
    out: dict[str, bool] = {}
    if family.variant in _AZIMUTHS:
        out["azimuthal"] = ingredient_identities(*_azimuth(family, coords))["radial"]
    lhs = radial_factor(family, coords)
    for name, _, den, terms in splits:
        out[name] = _radial_identity(lhs, den, [(num, radial_factor(family, t))
                                                for t, num in terms.items()])
    return splits, out


def ingredient_identities(family: GroupFamily, coords: tuple[int, ...]) -> dict[str, bool]:
    """The per-factor identities whose combination yields the omega(H) row at coords."""
    return _checked_splits(family, coords)[1]


def verify_omega_identity(family: GroupFamily, lab: KTypeLabel, row: RecurrenceRow) -> bool:
    """Exact check of the full omega(H) recurrence for one label.

    True iff every ingredient identity holds as a polynomial identity and the
    assembled coefficients reproduce `row`, the stated recurrence row of lab
    (`omega_h_expand`), which a sweep already holds.
    """
    splits, identities = _checked_splits(family, lab.coords)
    return all(identities.values()) and _assembles_to(splits, row)


def _assembles_to(splits: list[Split], row: RecurrenceRow) -> bool:
    """The splits assemble `row`: the same targets, and at each one w * num / den
    equals the stated num / row.den, cross-multiplied."""
    assembled = {}
    for _, (w_num, w_den), den, terms in splits:
        if w_num:
            assembled.update({t: (w_num * num, w_den * den) for t, num in terms.items()})
    stated = {t.coords: num for t, num in row.nums}
    return (assembled.keys() == stated.keys()
            and all(num * row.den == stated[t] * den for t, (num, den) in assembled.items()))


__all__ = [
    "RadialFactor", "RecurrenceRow",
    "radial_factor", "zonal_factor", "omega_h_expand", "lambda_scalar",
    "row_is_convex", "lambda_dim_reciprocal", "ingredient_identities", "verify_omega_identity",
]
