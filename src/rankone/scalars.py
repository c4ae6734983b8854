"""Intertwining scalars between vector valued Poisson transforms.

For an omega-related pair (V, Y) the gradient from V-sections to Y-sections
rescales Poisson transforms by T(V, Y, mu) = (mu + rho)(H) lambda(V, Y) +
nu(V, Y).  nu = r lambda is tabulated per direction; its defining property is
that T(V, Y, .) vanishes exactly at the parameter whose principal series has
an invariant subspace containing Y but not V.  `edges` states the K-type
graph once, as (V, Y, lambda's numerator and denominator, 2r) per edge.  The
tables are rows of doubled integers, and the sweep checks compare them as
integers; nu_scalar, t_scalar and t_root halve once, and the first two take
lambda from a caller who holds the omega row of V.  The growth
products reproduce the norm-recursion estimates used for the Fourier-series
convergence of the SU, Sp and F4 cases.
"""
from __future__ import annotations

from fractions import Fraction
from math import factorial, perm

from .groups import GroupFamily, SpectralParam, UnsupportedFamilyError, rho_H, two_rho_H
from .ktypes import KTypeLabel, label, labels, weyl_dim
from .spherical import omega_h_expand


class NotOmegaRelatedError(ValueError):
    """The requested pair of K-types is not omega-related."""


def _direction(v: KTypeLabel, y: KTypeLabel) -> tuple[int, ...]:
    return tuple(b - a for a, b in zip(v.coords, y.coords))


# Rows (c_rho, c_1, ..., c_k, c_0) keyed by (variant, direction V -> Y); twice
# the value is c_rho 2rho(H) + sum_i c_i V_i + c_0.  nu table: 2r with
# nu(V, Y) = r lambda(V, Y); Sp reads 4n through 2rho(H) = 4n + 2.
NU_ROWS = {
    ("SO", (1,)): (0, 2, 0), ("SO", (-1,)): (-2, -2, 2),
    ("SU", (1, 0)): (0, 4, 0, 0), ("SU", (0, -1)): (-2, 0, -4, 4),
    ("SU", (0, 1)): (0, 0, 4, 0), ("SU", (-1, 0)): (-2, -4, 0, 4),
    ("Sp", (1, 0)): (0, 4, 0, 0), ("Sp", (0, -1)): (-2, 0, -4, 8),
    ("Sp", (0, 1)): (0, 0, 4, -4), ("Sp", (-1, 0)): (-2, -4, 0, 4),
    ("F4", (1, 1)): (0, 2, 2, 0), ("F4", (-1, 1)): (0, -2, 2, -28),
    ("F4", (1, -1)): (0, 2, -2, -12), ("F4", (-1, -1)): (0, -2, -2, -40),
}

# Vanishing table: 2mu(H) of the reducibility parameter for the direction.
VANISHING_ROWS = {
    ("SO", (1,)): (-1, -2, 0), ("SO", (-1,)): (1, 2, -2),
    ("SU", (1, 0)): (-1, -4, 0, 0), ("SU", (0, -1)): (1, 0, 4, -4),
    ("SU", (0, 1)): (-1, 0, -4, 0), ("SU", (-1, 0)): (1, 4, 0, -4),
    ("Sp", (1, 0)): (-1, -4, 0, 0), ("Sp", (0, -1)): (1, 0, 4, -8),
    ("Sp", (0, 1)): (-1, 0, -4, 4), ("Sp", (-1, 0)): (1, 4, 0, -4),
    ("F4", (1, 1)): (-1, -2, -2, 0), ("F4", (-1, 1)): (1, 2, -2, -16),
    ("F4", (1, -1)): (-1, -2, 2, 12), ("F4", (-1, -1)): (1, 2, 2, -4),
}


def _row_value(rows: dict, family: GroupFamily, v: KTypeLabel, y: KTypeLabel, two_rho: int) -> int:
    """The row of (variant, direction V -> Y) evaluated at two_rho = 2rho(H) and V:
    twice the tabulated value."""
    row = rows.get((family.variant, _direction(v, y)))
    if row is None:
        raise NotOmegaRelatedError(f"{v} and {y} are not neighbours in {family}")
    c_rho, *coefs, c_0 = row
    total = c_rho * two_rho + c_0
    for c, x in zip(coefs, v.coords):
        total += c * x
    return total


def _two_r(family: GroupFamily, v: KTypeLabel, y: KTypeLabel) -> int:
    """2r, with nu(V, Y) = r * lambda(V, Y), from NU_ROWS."""
    return _row_value(NU_ROWS, family, v, y, two_rho_H(family))


def nu_scalar(family: GroupFamily, v: KTypeLabel, y: KTypeLabel, lam: Fraction) -> Fraction:
    """nu(V, Y), the Poisson-transform scalar at mu = -rho, from lam = lambda(V, Y)."""
    if lam == 0:
        raise NotOmegaRelatedError(f"{v} and {y} are not omega-related in {family}")
    return _two_r(family, v, y) * lam / 2


def t_scalar(family: GroupFamily, v: KTypeLabel, y: KTypeLabel, mu: SpectralParam,
             lam: Fraction) -> Fraction:
    """T(V, Y, mu) = (mu + rho)(H) lambda(V, Y) + nu(V, Y), from lam = lambda(V, Y)."""
    return (mu.mu_H + rho_H(family)) * lam + nu_scalar(family, v, y, lam)


def t_root(family: GroupFamily, v: KTypeLabel, y: KTypeLabel) -> Fraction:
    """The unique mu(H) where T(V, Y, .) vanishes: -rho - r."""
    return Fraction(-two_rho_H(family) - _two_r(family, v, y), 2)


def edges(family: GroupFamily, bound: int) -> list[tuple[KTypeLabel, KTypeLabel, int, int, int]]:
    """(V, Y, num, den, 2r) for V in labels(family, bound) and (Y, num) in V's omega
    row over den, so lambda(V, Y) = num / den, with 2r = 2 nu / lambda from NU_ROWS:
    T = lambda (mu + rho + r)."""
    two_rho = two_rho_H(family)
    out = []
    for v in labels(family, bound):
        row = omega_h_expand(family, v)
        out += [(v, y, num, row.den, _row_value(NU_ROWS, family, v, y, two_rho))
                for y, num in row.nums]
    return out


def vanishing_table_check(family: GroupFamily, bound: int) -> bool:
    """The tabulated reducibility parameter is the T-root -rho - r on every edge
    within bound (a row keeps only lambda != 0, so T vanishing there is this
    same equation).

    VANISHING_ROWS gives 2mu(H) of the parameter for the direction V -> Y: at
    it the principal series has an invariant subspace containing Y but not V,
    forcing T(V, Y, mu) = 0.
    """
    two_rho = two_rho_H(family)
    return all(_vanishes_at_t_root(family, v, y, two_r, two_rho)
               for v, y, _, _, two_r in edges(family, bound))


def _vanishes_at_t_root(family: GroupFamily, v: KTypeLabel, y: KTypeLabel, two_r: int,
                        two_rho: int) -> bool:
    """The VANISHING_ROWS value of V -> Y is -2rho(H) - 2r, in integers, with
    two_rho = 2rho(H) read once per family by the caller."""
    return _row_value(VANISHING_ROWS, family, v, y, two_rho) == -two_rho - two_r


# -- norm-recursion growth products -------------------------------------------


# The stated growth order a n + b ell + c as its row (a, b, c); F4 has no n.
GROWTH_ORDERS = {"SU": (2, 1, 0), "Sp": (2, 2, -1), "F4": (0, 2, 5)}


def growth_order_stated(family: GroupFamily, ell: int) -> int:
    if family.variant not in GROWTH_ORDERS:
        raise UnsupportedFamilyError("growth products exist for SU, Sp and F4 only")
    a, b, c = GROWTH_ORDERS[family.variant]
    return a * (family.n or 0) + b * ell + c


def _sp_factorial_part(n: int, ell: int, m: int) -> Fraction:
    """The factorial factor (2n-1+2ell+m)! / (m! (2n+2ell)!) of the Sp closed form,
    without its dimension ratio; m! cancels into the falling factorial."""
    return Fraction(perm(2 * n - 1 + 2 * ell + m, 2 * n - 1 + 2 * ell), factorial(2 * n + 2 * ell))


def growth_step_ratio(family: GroupFamily, ell: int, r: int, fixed: int) -> Fraction:
    """One multiplicative step of the norm recursion, at step index r >= 2.

    SU (fixed = q): the squared-norm ratio from (p-1, q) to (p, q) at p = ell+r.
    Sp (fixed = b): from (a-1, b) to (a, b) at a = ell+r, including the
    dimension ratio.  F4: the pure ratio at level a = ell+r along the chain
    that shifts both coordinates by one (fixed is ignored).
    """
    n = family.n
    if family.variant == "SU":
        p, q = ell + r, fixed
        return (Fraction((n + p - 2) * (n + p + q - 1), p * (n + p + q - 2))
                * Fraction(n + p, p - 1 - ell))
    if family.variant == "Sp":
        a, b = ell + r, fixed
        if a - ell <= 0:
            raise ZeroDivisionError("step ratio hit a nonpositive denominator")
        dims = Fraction(weyl_dim(family, label(family, a, b)),
                        weyl_dim(family, label(family, a - 1, b)))
        return Fraction(2 * n - 1 + a + ell, a - ell) * dims
    if family.variant == "F4":
        a = ell + r
        return Fraction(7 + ell + a, 2 - ell + a)
    raise UnsupportedFamilyError("growth products exist for SU, Sp and F4 only")


def growth_closed_form(family: GroupFamily, ell: int, steps: int, fixed: int) -> Fraction:
    """Factorial closed form of the iterated product after `steps` steps (ell, steps >= 0).

    Quotients of factorials are cancelled into falling factorials
    perm(x, k) = x! / (x - k)!, so no factorial of the step count is formed.
    """
    if ell < 0 or steps < 0:
        raise ValueError("ell and steps must be nonnegative")
    n = family.n
    m = steps + 1
    if family.variant == "SU":
        q = fixed
        num = (n + ell + m + q - 1) * perm(n + ell + m - 2, n + ell - 1) * perm(n + ell + m, n)
        den = (n + ell + q) * factorial(n + ell - 1) * perm(n + ell + 1, n)
        return Fraction(num, den)
    if family.variant == "Sp":
        b = fixed
        fact = _sp_factorial_part(n, ell, m)
        dims = Fraction(weyl_dim(family, label(family, ell + m, b)),
                        weyl_dim(family, label(family, ell + 1, b)))
        return fact * dims
    if family.variant == "F4":
        p = steps + 1
        return Fraction(6 * perm(7 + 2 * ell + p, 5 + 2 * ell), factorial(8 + 2 * ell))
    raise UnsupportedFamilyError("growth products exist for SU, Sp and F4 only")


def growth_product(family: GroupFamily, ell: int, steps: int) -> tuple[Fraction, Fraction]:
    """(iterated step-ratio product, factorial closed form); both must agree.

    `steps` counts multiplicative steps; the frozen second label coordinate
    is ell + 1 (F4 has none).
    """
    if steps < 1:
        raise ValueError("steps must be positive")
    product = Fraction(1)
    for r in range(2, steps + 2):
        product *= growth_step_ratio(family, ell, r, ell + 1)
    return product, growth_closed_form(family, ell, steps, ell + 1)


def growth_order(family: GroupFamily, ell: int) -> int:
    """Exact degree in m of the growth product after m - 1 steps, never read from
    GROWTH_ORDERS.  SU's closed form and Sp's and F4's factorial factor (their
    dimension ratios are stated apart) are falling factorials perm(x + m, k) over
    constants, of total length 2n + ell (SU), 2n - 1 + 2ell (Sp) or 5 + 2ell (F4),
    so the degree d is at most K = 2n + 2ell + 8.  At m = 1 .. K + 2 the d-th
    finite differences are a nonzero constant and the (d + 1)-th vanish.
    """
    if ell < 0:
        raise ValueError("ell must be nonnegative")
    bound = 2 * (family.n or 0) + 2 * ell + 8
    row = [_sp_factorial_part(family.n, ell, m) if family.variant == "Sp"
           else growth_closed_form(family, ell, m - 1, ell + 1) for m in range(1, bound + 3)]
    for degree in range(-1, bound + 1):
        if not any(row):
            return degree
        row = [b - a for a, b in zip(row, row[1:])]
    raise AssertionError(f"growth of {family} at ell={ell} has degree above {bound}")


growth_order_estimate = growth_order  # the former name, which bench/tracing.py wraps


__all__ = [
    "NotOmegaRelatedError",
    "edges", "nu_scalar", "t_scalar", "t_root",
    "vanishing_table_check", "growth_product", "growth_step_ratio",
    "growth_closed_form", "growth_order", "growth_order_stated",
]
