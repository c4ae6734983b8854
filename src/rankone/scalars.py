"""Intertwining scalars between vector valued Poisson transforms.

For an omega-related pair (V, Y) the gradient from V-sections to Y-sections
rescales Poisson transforms by T(V, Y, mu) = (mu + rho)(H) lambda(V, Y) +
nu(V, Y).  nu is tabulated per direction; its defining property is that
T(V, Y, .) vanishes exactly at the parameter whose principal series has an
invariant subspace containing Y but not V.  The growth products reproduce the
norm-recursion estimates used for the Fourier-series convergence of the SU,
Sp and F4 cases.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .groups import GroupFamily, SpectralParam, UnsupportedFamilyError, rho_H
from .ktypes import KTypeLabel, label, labels, weyl_dim
from .spherical import lambda_scalar, omega_h_expand


class NotOmegaRelatedError(ValueError):
    """The requested pair of K-types is not omega-related."""


@dataclass(frozen=True)
class ScalarPair:
    lam: Fraction
    nu: Fraction

    def __post_init__(self):
        if self.lam == 0 and self.nu != 0:
            raise ValueError("nu must vanish with lambda")


def _direction(v: KTypeLabel, y: KTypeLabel) -> tuple[int, ...]:
    return tuple(b - a for a, b in zip(v.coords, y.coords))


def _nu_factor(family: GroupFamily, v: KTypeLabel, y: KTypeLabel) -> Fraction:
    """The rational multiple r with nu(V, Y) = r * lambda(V, Y)."""
    rho = rho_H(family)
    d = _direction(v, y)
    fam = family.variant
    if fam == "SO":
        (ell,) = v.coords
        if d == (1,):
            return Fraction(ell)
        if d == (-1,):
            return -(2 * rho + ell - 1)
    elif fam == "SU":
        p, q = v.coords
        table = {(1, 0): Fraction(2 * p), (0, -1): -2 * (rho + q - 1),
                 (0, 1): Fraction(2 * q), (-1, 0): -2 * (rho + p - 1)}
        if d in table:
            return table[d]
    elif fam == "Sp":
        a, b = v.coords
        n = family.n
        table = {(1, 0): Fraction(2 * a), (0, -1): Fraction(-(4 * n - 2 + 2 * b)),
                 (0, 1): Fraction(2 * (b - 1)), (-1, 0): Fraction(-(4 * n + 2 * a))}
        if d in table:
            return table[d]
    else:
        m, k = v.coords
        table = {(1, 1): Fraction(m + k), (-1, 1): Fraction(-(14 + m - k)),
                 (1, -1): Fraction(m - k - 6), (-1, -1): Fraction(-(20 + m + k))}
        if d in table:
            return table[d]
    raise NotOmegaRelatedError(f"{v} and {y} are not neighbours in {family}")


def nu_scalar(family: GroupFamily, v: KTypeLabel, y: KTypeLabel) -> Fraction:
    """nu(V, Y), the Poisson-transform scalar at mu = -rho."""
    lam = lambda_scalar(family, v, y)
    if lam == 0:
        raise NotOmegaRelatedError(f"{v} and {y} are not omega-related in {family}")
    return _nu_factor(family, v, y) * lam


def scalar_pair(family: GroupFamily, v: KTypeLabel, y: KTypeLabel) -> ScalarPair:
    return ScalarPair(lambda_scalar(family, v, y), nu_scalar(family, v, y))


def t_scalar(family: GroupFamily, v: KTypeLabel, y: KTypeLabel, mu: SpectralParam) -> Fraction:
    """T(V, Y, mu) = (mu + rho)(H) lambda(V, Y) + nu(V, Y)."""
    lam = lambda_scalar(family, v, y)
    if lam == 0:
        raise NotOmegaRelatedError(f"{v} and {y} are not omega-related in {family}")
    return (mu.mu_H + rho_H(family)) * lam + _nu_factor(family, v, y) * lam


def t_root(family: GroupFamily, v: KTypeLabel, y: KTypeLabel) -> Fraction:
    """The unique mu(H) where T(V, Y, .) vanishes."""
    return -rho_H(family) - _nu_factor(family, v, y)


def vanishing_mu(family: GroupFamily, v: KTypeLabel, y: KTypeLabel) -> Fraction:
    """Tabulated reducibility parameter for the direction V -> Y.

    At this mu the principal series has an invariant subspace containing Y
    but not V, forcing T(V, Y, mu) = 0.
    """
    rho = rho_H(family)
    d = _direction(v, y)
    fam = family.variant
    if fam == "SO":
        (ell,) = v.coords
        if d == (1,):
            return -rho - ell
        if d == (-1,):
            return rho + ell - 1
    elif fam == "SU":
        p, q = v.coords
        table = {(1, 0): -2 * p - rho, (0, -1): rho + 2 * (q - 1),
                 (0, 1): -2 * q - rho, (-1, 0): rho + 2 * (p - 1)}
        if d in table:
            return table[d]
    elif fam == "Sp":
        a, b = v.coords
        table = {(1, 0): -(rho + 2 * a), (0, -1): rho + 2 * b - 4,
                 (0, 1): -(rho - 2 + 2 * b), (-1, 0): rho - 2 + 2 * a}
        if d in table:
            return table[d]
    else:
        m, k = v.coords
        table = {(1, 1): -(rho + m + k), (-1, 1): rho + m - k - 8,
                 (1, -1): -(rho - 6 + m - k), (-1, -1): rho - 2 + m + k}
        if d in table:
            return table[d]
    raise NotOmegaRelatedError(f"{v} and {y} are not neighbours in {family}")


def vanishing_table_check(family: GroupFamily, bound: int) -> bool:
    """T(V, Y, mu_row) = 0 exactly for every direction and label within bound."""
    for v in labels(family, bound):
        for y, _ in omega_h_expand(family, v).terms:
            if t_scalar(family, v, y, SpectralParam(vanishing_mu(family, v, y))) != 0:
                return False
            if t_root(family, v, y) != vanishing_mu(family, v, y):
                return False
    return True


# -- norm-recursion growth products -------------------------------------------


@dataclass(frozen=True)
class GrowthSpec:
    """Norm-recursion growth data: per-step ratio, closed form, stated order."""

    family: GroupFamily
    ell: int
    order: int  # stated polynomial growth exponent of the closed form

    def ratio(self, r: int, fixed: int) -> Fraction:
        return growth_step_ratio(self.family, self.ell, r, fixed)

    def closed_form(self, steps: int, fixed: int) -> Fraction:
        return growth_closed_form(self.family, self.ell, steps, fixed)


def growth_spec(family: GroupFamily, ell: int) -> GrowthSpec:
    return GrowthSpec(family, ell, growth_order_stated(family, ell))


def growth_order_stated(family: GroupFamily, ell: int) -> int:
    n = family.n
    if family.variant == "SU":
        return 2 * n + ell
    if family.variant == "Sp":
        return 2 * n - 1 + 2 * ell
    if family.variant == "F4":
        return 7 + 2 * ell - 2
    raise UnsupportedFamilyError("growth products exist for SU, Sp and F4 only")


def _ffrac(num_from: int, num_to: int) -> Fraction:
    """Product num_from * (num_from+1) * ... * num_to as an exact Fraction."""
    out = Fraction(1)
    for j in range(num_from, num_to + 1):
        out *= j
    return out


def _sp_factorial_part(n: int, ell: int, m: int) -> Fraction:
    """The factorial factor of the Sp closed form, without its dimension ratio."""
    return _ffrac(1, 2 * n - 1 + 2 * ell + m) / (_ffrac(1, m) * _ffrac(1, 2 * n + 2 * ell))


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
    """Factorial closed form of the iterated product after `steps` steps."""
    n = family.n
    m = steps + 1
    if family.variant == "SU":
        q = fixed
        num = ((n + ell + m + q - 1) * _ffrac(1, n + ell + m - 2) * _ffrac(1, ell + 1)
               * _ffrac(1, n + ell + m))
        den = ((n + ell + q) * _ffrac(1, n + ell - 1) * _ffrac(1, ell + m)
               * _ffrac(1, m - 1) * _ffrac(1, n + ell + 1))
        return num / den
    if family.variant == "Sp":
        b = fixed
        fact = _sp_factorial_part(n, ell, m)
        dims = Fraction(weyl_dim(family, label(family, ell + m, b)),
                        weyl_dim(family, label(family, ell + 1, b)))
        return fact * dims
    if family.variant == "F4":
        p = steps + 1
        return 6 * _ffrac(1, 7 + 2 * ell + p) / (_ffrac(1, 8 + 2 * ell) * _ffrac(1, 2 + p))
    raise UnsupportedFamilyError("growth products exist for SU, Sp and F4 only")


def growth_product(family: GroupFamily, ell: int, steps: int,
                   fixed_coord: int | None = None) -> tuple[Fraction, Fraction]:
    """(iterated step-ratio product, factorial closed form); both must agree.

    `steps` counts multiplicative steps; fixed_coord is the frozen second
    label coordinate (default ell + 1), ignored for F4.
    """
    if steps < 1:
        raise ValueError("steps must be positive")
    fixed = ell + 1 if fixed_coord is None else fixed_coord
    product = Fraction(1)
    for r in range(2, steps + 2):
        product *= growth_step_ratio(family, ell, r, fixed)
    return product, growth_closed_form(family, ell, steps, fixed)


def growth_order_estimate(family: GroupFamily, ell: int, max_steps: int = 512) -> int:
    """Rounded log-log slope of the growth product over the top half of the range.

    SU uses the full closed form; Sp and F4 use the factorial factor alone
    (their dimension ratios are reported separately by the stated orders).
    This is the single place the package touches floating point outside the
    Lorentz model.
    """
    if max_steps < 64:
        raise ValueError("max_steps must be at least 64")
    ys = []
    xs = []
    for m in range(max_steps // 2, max_steps + 1):
        if family.variant == "Sp":
            val = _sp_factorial_part(family.n, ell, m)
        else:
            val = growth_closed_form(family, ell, m - 1, ell + 1)
        xs.append(math.log(m))
        # factorial numerators overflow float: take logs of the integer parts
        ys.append(math.log(val.numerator) - math.log(val.denominator))
    xbar = sum(xs) / len(xs)
    ybar = sum(ys) / len(ys)
    slope = (sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys))
             / sum((x - xbar) ** 2 for x in xs))
    return round(slope)


__all__ = [
    "ScalarPair", "GrowthSpec", "NotOmegaRelatedError",
    "nu_scalar", "scalar_pair", "t_scalar", "t_root", "vanishing_mu",
    "vanishing_table_check", "growth_spec", "growth_product", "growth_step_ratio",
    "growth_closed_form", "growth_order_estimate", "growth_order_stated",
]
