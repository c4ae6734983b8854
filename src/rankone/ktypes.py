"""K-type labels, highest weights, dimensions, socle membership and Langlands data.

The label lattices parametrize the K-types of L^2(K/M) per family:
SO(n,1): spherical harmonics Y_k; SU(n,1): bigraded harmonics Y_{p,q};
Sp(n,1): V_{a,b} with a >= b >= 0; F4: V_{m,k} with m >= k >= 0, m = k mod 2.
For SO(2,1) the label is a signed integer (two one-dimensional types Y_{+-k}).
KTypeLabel's validation is the one statement of each lattice; `labels`
enumerates a bounded box of it and `label_from_weight` inverts `highest_weight`.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Optional

from .groups import GroupFamily, SpectralParam, exceptional_mu, rho_H
from .weyl import Weight, k_root_system, w_add, w_dot, wt


@dataclass(frozen=True, order=True)
class KTypeLabel:
    family: GroupFamily
    coords: tuple[int, ...]

    def __post_init__(self):
        c = self.coords
        v = self.family.variant
        if v == "SO":
            if len(c) != 1:
                raise ValueError("SO label is a single integer")
            if self.family.n >= 3 and c[0] < 0:
                raise ValueError("SO(n,1), n >= 3, requires k >= 0")
        elif v == "SU":
            if len(c) != 2 or min(c) < 0:
                raise ValueError("SU label is a pair (p, q) with p, q >= 0")
        elif v == "Sp":
            if len(c) != 2 or c[1] < 0 or c[0] < c[1]:
                raise ValueError("Sp label is a pair (a, b) with a >= b >= 0")
        else:
            if len(c) != 2 or c[1] < 0 or c[0] < c[1] or (c[0] - c[1]) % 2 != 0:
                raise ValueError("F4 label is a pair (m, k) with m >= k >= 0 and m = k mod 2")

    def __str__(self) -> str:
        letter = "Y" if self.family.variant in ("SO", "SU") else "V"
        return f"{letter}[{','.join(map(str, self.coords))}]"


def label(family: GroupFamily, *coords: int) -> KTypeLabel:
    return KTypeLabel(family, tuple(coords))


def highest_weight(lab: KTypeLabel) -> Weight:
    """Highest weight of the labelled K-type in the e_i coordinates."""
    fam, c = lab.family, lab.coords
    if fam.variant == "SO":
        if fam.n == 2:
            return wt(c[0])
        m = fam.n // 2
        return wt(*([c[0]] + [0] * (m - 1)))
    if fam.variant == "SU":
        p, q = c
        n = fam.n
        return wt(*([q] + [0] * (n - 2) + [-p, p - q]))
    if fam.variant == "Sp":
        a, b = c
        n = fam.n
        return wt(*([a, b] + [0] * (n - 2) + [a - b]))
    m, k = c
    return wt(Fraction(m, 2), Fraction(k, 2), Fraction(k, 2), Fraction(k, 2))


def label_from_weight(family: GroupFamily, w: Weight) -> Optional[KTypeLabel]:
    """The M-spherical label with highest weight w, or None if w is not M-spherical.

    The label coordinates are read off w and accepted iff `highest_weight`
    maps them back to w.
    """
    v = family.variant
    if v == "SO":
        coords = (w[0],)
    elif v == "SU":
        coords = (-w[family.n - 1], w[0])
    elif v == "Sp":
        coords = (w[0], w[1])
    else:
        coords = (2 * w[0], 2 * w[1])
    if any(c.denominator != 1 for c in coords):
        return None
    try:
        lab = KTypeLabel(family, tuple(int(c) for c in coords))
    except ValueError:
        return None
    return lab if highest_weight(lab) == w else None


def labels(family: GroupFamily, bound: int) -> list[KTypeLabel]:
    """Every label with coordinates in [0, bound] ([-bound, bound] for SO(2,1)), in lex order.

    The coordinate box is filtered through KTypeLabel's own validation, so the
    lattice is stated once, there.
    """
    lo = -bound if family.variant == "SO" and family.n == 2 else 0
    rank = 1 if family.variant == "SO" else 2
    out = []
    for coords in product(range(lo, bound + 1), repeat=rank):
        try:
            out.append(KTypeLabel(family, coords))
        except ValueError:
            pass
    return out


def rho_c(family: GroupFamily) -> Weight:
    """Half-sum of the positive compact roots in the e_i coordinates."""
    if family.variant == "SO" and family.n == 2:
        return wt(0)
    return k_root_system(family.variant, family.n).rho


def weyl_dim(family: GroupFamily, lam) -> int:
    """Exact dimension of the K-type with highest weight lam (label or weight)."""
    if isinstance(lam, KTypeLabel):
        lam = highest_weight(lam)
    if family.variant == "SO" and family.n == 2:
        return 1
    return k_root_system(family.variant, family.n).weyl_dim(lam)


def mintype_norm(family: GroupFamily, lam) -> Fraction:
    """Squared Euclidean norm of lam + 2 rho_c, the minimal-K-type height."""
    if isinstance(lam, KTypeLabel):
        lam = highest_weight(lam)
    shifted = w_add(lam, tuple(2 * c for c in rho_c(family)))
    return w_dot(shifted, shifted)


# -- socle of the reducible spherical principal series -----------------------


def socle_contains(family: GroupFamily, ell: int, lab: KTypeLabel) -> bool:
    """Membership of a K-type in the socle at the exceptional parameter mu_ell."""
    if ell < 0:
        raise ValueError("ell must be nonnegative")
    c = lab.coords
    v = family.variant
    if v == "SO":
        if family.n == 2:
            return abs(c[0]) >= ell + 1
        return c[0] >= ell + 1
    if v == "SU":
        return c[0] >= ell + 1 and c[1] >= ell + 1
    if v == "Sp":
        return c[0] >= c[1] >= ell + 1
    return c[0] - c[1] >= 2 * ell + 2


class InconclusiveTruncationError(RuntimeError):
    """The lattice truncation cannot be certified to contain the norm argmin."""


def minimal_ktype(family: GroupFamily, ell: int, search_bound: int | None = None) -> KTypeLabel:
    """Socle K-type minimizing the (lam + 2 rho_c)-norm, found by bounded search.

    The truncation is certified by checking that every label on the outer
    shell of the search box exceeds the interior minimum (the norm is a convex
    quadratic in the label, so it keeps growing outward).
    """
    if search_bound is None:
        search_bound = 4 * (ell + 2)
    def tie_key(lab):
        # prefer the positive representative when SO(2,1) norms tie
        return tuple(abs(c) for c in lab.coords) + tuple(-c for c in lab.coords)

    best = None
    shell_min = None
    for lab in labels(family, search_bound):
        if not socle_contains(family, ell, lab):
            continue
        nrm = mintype_norm(family, lab)
        on_shell = max(abs(c) for c in lab.coords) >= search_bound - 1
        if on_shell:
            if shell_min is None or nrm < shell_min:
                shell_min = nrm
        elif best is None or (nrm, tie_key(lab)) < (best[0], tie_key(best[1])):
            best = (nrm, lab)
    if best is None or shell_min is None or shell_min <= best[0]:
        raise InconclusiveTruncationError(
            f"search_bound={search_bound} too small for {family} at ell={ell}")
    return best[1]


def minimal_ktype_closed(family: GroupFamily, ell: int) -> KTypeLabel:
    """Closed form of the socle's minimal K-type (positive representative for SO(2,1))."""
    v = family.variant
    if v == "SO":
        return label(family, ell + 1)
    if v in ("SU", "Sp"):
        return label(family, ell + 1, ell + 1)
    return label(family, 2 * ell + 2, 0)


# -- Langlands data -----------------------------------------------------------


@dataclass(frozen=True)
class LanglandsRecord:
    """Langlands parameters of the socle at mu_ell.

    S = "G" means tempered (discrete series or a limit thereof); S = "P" means
    induced from the proper parabolic with M-type omega and parameter nu.
    omega_expr for SU/Sp is copied branching data, not re-derived here.
    """

    S: str
    tempered: bool
    discrete_series: bool
    limit_of_discrete_series: bool
    nu_H: Optional[Fraction] = None
    omega_weight: Optional[Weight] = None
    omega_expr: Optional[str] = None

    def __post_init__(self):
        if (self.S == "G") != self.tempered:
            raise ValueError("S = G must hold exactly for tempered records")
        if self.discrete_series and not self.tempered:
            raise ValueError("discrete series must be tempered")
        if self.discrete_series and self.limit_of_discrete_series:
            raise ValueError("discrete and limit-of-discrete are exclusive")


def langlands(family: GroupFamily, ell: int) -> LanglandsRecord:
    """Langlands record of the socle at the exceptional parameter mu_ell."""
    v, n = family.variant, family.n
    tempered = v == "F4" or n == 2
    if tempered:
        mu = exceptional_mu(family, ell).mu_H
        discrete = mu <= -rho_H(family)
        return LanglandsRecord("G", True, discrete, not discrete)
    if v == "SO":
        m_rank = (n - 1) // 2
        omega = wt(*([ell + 1] + [0] * (m_rank - 1)))
        return LanglandsRecord("P", False, False, False,
                               nu_H=Fraction(2 * n - 3, 2), omega_weight=omega,
                               omega_expr=f"{ell + 1} e1")
    if v == "SU":
        return LanglandsRecord("P", False, False, False, nu_H=Fraction(n - 2),
                               omega_expr=f"{ell + 1}(eps2 - eps{n})")
    return LanglandsRecord("P", False, False, False, nu_H=Fraction(2 * n - 3),
                           omega_expr=f"{ell + 1}(eps2 + eps3)")


def casimir_scalar(family: GroupFamily, mu: SpectralParam) -> Fraction:
    """Casimir eigenvalue mu(H)^2 - rho(H)^2 on the spherical principal series."""
    rho = rho_H(family)
    return mu.mu_H * mu.mu_H - rho * rho


__all__ = [
    "KTypeLabel", "LanglandsRecord", "InconclusiveTruncationError",
    "label", "labels", "label_from_weight", "highest_weight", "rho_c", "weyl_dim",
    "mintype_norm", "socle_contains", "minimal_ktype", "minimal_ktype_closed",
    "langlands", "casimir_scalar",
]
