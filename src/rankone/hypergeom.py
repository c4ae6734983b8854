"""Terminating Gauss hypergeometric polynomials and their contiguous relations.

Only the polynomial regime is supported: F(a,b,c,z) with a or b a nonpositive
integer.  A series is stored as integer numerators over one common
denominator, built by an integer Pochhammer recursion.  The contiguous
relations are verified as polynomial identities in Z[z] after clearing
denominators once, never numerically.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import NamedTuple

from .poly import Poly, pclear, pderiv, pmul


def _terminating_degree(a: Fraction, b: Fraction) -> int:
    degrees = [-x.numerator for x in (a, b) if x.denominator == 1 and x.numerator <= 0]
    if not degrees:
        raise ValueError(f"F({a},{b},...) does not terminate: neither parameter is a nonpositive integer")
    return min(degrees)


class F21Poly(NamedTuple):
    """F(a,b,c,z) as a polynomial: coeffs[j] = (a)_j (b)_j / ((c)_j j!) = nums[j] / den.

    The numerators and the positive denominator share no common factor, and
    nums[0] == den.
    """

    a: Fraction
    b: Fraction
    c: Fraction
    nums: tuple[int, ...]
    den: int

    def negated_nums(self) -> list[int]:
        """Numerators of F(a,b,c,-z) over the same denominator: (-1)^j nums[j]."""
        return [-x if j % 2 else x for j, x in enumerate(self.nums)]


def f21(a, b, c) -> F21Poly:
    """Build the terminating series; rejects parameters hitting a (c)_j zero."""
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    deg = _terminating_degree(a, b)
    an, ad = a.numerator, a.denominator
    bn, bd = b.numerator, b.denominator
    cn, cd = c.numerator, c.denominator
    if cd == 1 and -deg < cn <= 0:
        raise ValueError(f"invalid c={c}: (c)_j vanishes before the series terminates")
    # coeffs[j+1] / coeffs[j] = up[j] / down[j], both integers once the
    # denominators of a, b and c are multiplied through
    up = [(an + j * ad) * (bn + j * bd) * cd for j in range(deg)]
    down = [(cn + j * cd) * (j + 1) * ad * bd for j in range(deg)]
    # nums[j] = up[0] ... up[j-1] * down[j] ... down[deg-1]; nums[0] is the denominator
    nums = [1] * (deg + 1)
    for j in range(deg - 1, -1, -1):
        nums[j] = nums[j + 1] * down[j]
    head = 1
    for j in range(1, deg + 1):
        head *= up[j - 1]
        nums[j] *= head
    g = gcd(*nums)
    if nums[0] < 0:
        g = -g
    nums = tuple(x // g for x in nums)
    return F21Poly(a, b, c, nums, nums[0])


_Z_MINUS_1: Poly = [-1, 1]
_Z: Poly = [0, 1]

RELATION_IDS = ("i", "ii", "iii", "iv", "v")


def _term(coeff: Fraction | int, series: F21Poly, factor: Poly | None = None) -> tuple[int, int, Poly]:
    """coeff * factor * series as a (numerator, denominator, Z[z] polynomial) term of `pclear`."""
    nums = series.nums if factor is None else pmul(factor, series.nums)
    return coeff.numerator, coeff.denominator * series.den, nums


def check_contiguous(relation_id: str, a, b, c) -> bool:
    """Exact polynomial check of one contiguous relation of F(a,b,c,z).

    i:   d/dz F(a,b,c)            = (ab/c) F(a+1,b+1,c+1)
    ii:  (c-b-a) F(a,b,c)         = (c-b) F(a,b-1,c) + a (z-1) F(a+1,b,c)
    iii: (c-b-a) F(a,b,c)         = (c-a) F(a-1,b,c) + b (z-1) F(a,b+1,c)
    iv:  F(a,b+1,c) - F(a,b,c)    = (az/c) F(a+1,b+1,c+1)
    v:   F(a+1,b,c) - F(a,b,c)    = (bz/c) F(a+1,b+1,c+1)

    Each relation is moved to one side and checked to vanish in Z[z].
    """
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    if relation_id == "i":
        f = f21(a, b, c)
        terms = [(1, f.den, pderiv(f.nums)),
                 _term(-a * b / c, f21(a + 1, b + 1, c + 1))]
    elif relation_id == "ii":
        terms = [_term(c - b - a, f21(a, b, c)), _term(b - c, f21(a, b - 1, c)),
                 _term(-a, f21(a + 1, b, c), _Z_MINUS_1)]
    elif relation_id == "iii":
        terms = [_term(c - b - a, f21(a, b, c)), _term(a - c, f21(a - 1, b, c)),
                 _term(-b, f21(a, b + 1, c), _Z_MINUS_1)]
    elif relation_id == "iv":
        terms = [_term(1, f21(a, b + 1, c)), _term(-1, f21(a, b, c)),
                 _term(-a / c, f21(a + 1, b + 1, c + 1), _Z)]
    elif relation_id == "v":
        terms = [_term(1, f21(a + 1, b, c)), _term(-1, f21(a, b, c)),
                 _term(-b / c, f21(a + 1, b + 1, c + 1), _Z)]
    else:
        raise ValueError(f"unknown relation {relation_id!r}, expected one of {RELATION_IDS}")
    return not pclear(terms)


__all__ = ["F21Poly", "f21", "check_contiguous", "RELATION_IDS"]
