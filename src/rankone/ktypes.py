"""K-type labels, highest weights, dimensions, socle membership and Langlands data.

The label lattices parametrize the K-types of L^2(K/M) per family:
SO(n,1): spherical harmonics Y_k; SU(n,1): bigraded harmonics Y_{p,q};
Sp(n,1): V_{a,b} with a >= b >= 0; F4: V_{m,k} with m >= k >= 0, m = k mod 2.
For SO(2,1) the label is a signed integer (two one-dimensional types Y_{+-k}).
KTypeLabel's validation is the one statement of each lattice; `labels`
enumerates a bounded box of it and `label_from_weight` inverts `highest_weight`.
Highest weights are doubled-integer weights 2w (`weyl.Weight2`), the one weight
format of the library.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Optional

from .groups import GroupFamily, SpectralParam, exceptional_mu, rho_H
from .weyl import Weight2, k_root_system, w_dot


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


def highest_weight(lab: KTypeLabel) -> Weight2:
    """Doubled highest weight 2w of the labelled K-type in the e_i coordinates."""
    fam, c = lab.family, lab.coords
    if fam.variant == "SO":
        return (2 * c[0],) + (0,) * (fam.n // 2 - 1)
    if fam.variant == "SU":
        p, q = c
        return (2 * q,) + (0,) * (fam.n - 2) + (-2 * p, 2 * (p - q))
    if fam.variant == "Sp":
        a, b = c
        return (2 * a, 2 * b) + (0,) * (fam.n - 2) + (2 * (a - b),)
    m, k = c
    return (m, k, k, k)


def label_from_weight(family: GroupFamily, w: Weight2) -> Optional[KTypeLabel]:
    """The M-spherical label with doubled highest weight w, or None if w is not M-spherical.

    The label coordinates are read off w and accepted iff `highest_weight`
    maps them back to w.
    """
    v = family.variant
    if v == "SO":
        coords = (w[0],)
    elif v == "SU":
        coords = (-w[family.n - 1], w[0])
    else:
        coords = (w[0], w[1])
    # F4 labels count half-units of the Spin(9) weight, the others whole units
    scale = 1 if v == "F4" else 2
    if any(c % scale for c in coords):
        return None
    try:
        lab = KTypeLabel(family, tuple(c // scale for c in coords))
    except ValueError:
        return None
    return lab if highest_weight(lab) == w else None


def labels(family: GroupFamily, bound: int,
           corner: Optional[tuple[int, ...]] = None) -> list[KTypeLabel]:
    """Every label with coordinates in [0, bound] ([-bound, bound] for SO(2,1)), in lex order.

    With a lower `corner`, coordinate i runs over [corner[i], corner[i] + bound]
    instead.  The coordinate box is filtered through KTypeLabel's own
    validation, so the lattice is stated once, there.
    """
    rank = 1 if family.variant == "SO" else 2
    if corner is None:
        lo = -bound if family.variant == "SO" and family.n == 2 else 0
        ranges = [range(lo, bound + 1)] * rank
    elif len(corner) != rank:
        raise ValueError(f"corner {corner} does not have the label rank {rank}")
    else:
        ranges = [range(c, c + bound + 1) for c in corner]
    out = []
    for coords in product(*ranges):
        try:
            out.append(KTypeLabel(family, coords))
        except ValueError:
            pass
    return out


def weyl_dim(family: GroupFamily, lam) -> int:
    """Exact dimension of the K-type with highest weight lam (label or doubled weight)."""
    if isinstance(lam, KTypeLabel):
        lam = highest_weight(lam)
    return k_root_system(family.variant, family.n).weyl_dim(lam)


def mintype_norm(family: GroupFamily, lam) -> Fraction:
    """Squared Euclidean norm of lam + 2 rho_c, the minimal-K-type height.

    lam is a label or a doubled weight w = 2 lam; the norm is |w + 4 rho_c|^2 / 4.
    """
    if isinstance(lam, KTypeLabel):
        lam = highest_weight(lam)
    two_rho = k_root_system(family.variant, family.n).two_rho
    shifted = tuple(x + 2 * r for x, r in zip(lam, two_rho, strict=True))
    return Fraction(w_dot(shifted, shifted), 4)


# -- socle of the reducible spherical principal series -----------------------


@dataclass(frozen=True)
class SocleSpec:
    """The socle at mu_ell, as lower bounds form(|coords|) >= scale * (ell + 1).

    `bounds` holds one (coefficients, scale) pair per bound; the forms are
    linear in the absolute label coordinates, which differ from the
    coordinates only on the signed SO(2,1) lattice, where the bound reads
    |k| >= ell + 1.  `text` is the condition as reports write it, with slot
    {i} for the floor of bound i.
    """

    bounds: tuple[tuple[tuple[int, ...], int], ...]
    text: str


# Sp's a >= ell + 1 follows from the lattice's a >= b; it is listed so that
# the search corner reads off the bounds alone (see `socle_corner`).
SOCLE_SPECS = {
    "SO": SocleSpec((((1,), 1),), "k >= {0}"),
    "SO(2,1)": SocleSpec((((1,), 1),), "|k| >= {0}"),
    "SU": SocleSpec((((1, 0), 1), ((0, 1), 1)), "p >= {0} and q >= {1}"),
    "Sp": SocleSpec((((1, 0), 1), ((0, 1), 1)), "a >= b >= {1}"),
    "F4": SocleSpec((((1, -1), 2),), "m - k >= {0} and m = k mod 2"),
}


def _socle_spec(family: GroupFamily) -> SocleSpec:
    return SOCLE_SPECS.get(str(family)) or SOCLE_SPECS[family.variant]


def _socle_floors(spec: SocleSpec, ell: int) -> list[int]:
    if ell < 0:
        raise ValueError("ell must be nonnegative")
    return [scale * (ell + 1) for _, scale in spec.bounds]


def socle_condition(family: GroupFamily, ell: int) -> str:
    """The socle condition at mu_ell as reports write it."""
    spec = _socle_spec(family)
    return spec.text.format(*_socle_floors(spec, ell))


def socle_contains(family: GroupFamily, ell: int, lab: KTypeLabel) -> bool:
    """Membership of a K-type in the socle at the exceptional parameter mu_ell."""
    spec = _socle_spec(family)
    coords = [abs(c) for c in lab.coords]
    return all(sum(a * x for a, x in zip(coeffs, coords, strict=True)) >= floor
               for (coeffs, _), floor in zip(spec.bounds, _socle_floors(spec, ell)))


def socle_corner(family: GroupFamily, ell: int) -> tuple[int, ...]:
    """Least value of each |coordinate| over the socle at mu_ell.

    Read off the bounds: every coefficient is 0 or +-1 and the coordinates
    are nonnegative, so a bound raises each coordinate it enters with +1 to
    its floor and leaves the others free down to 0.
    """
    spec = _socle_spec(family)
    floors = _socle_floors(spec, ell)
    rank = len(spec.bounds[0][0])
    return tuple(max([f for (coeffs, _), f in zip(spec.bounds, floors) if coeffs[i] > 0],
                     default=0)
                 for i in range(rank))


class InconclusiveTruncationError(RuntimeError):
    """The lattice truncation cannot be certified to contain the norm argmin."""


# Width of the minimal-K-type search box past the socle corner.
SEARCH_WIDTH = 8


def minimal_ktype(family: GroupFamily, ell: int, search_bound: int | None = None) -> KTypeLabel:
    """Socle K-type minimizing the (lam + 2 rho_c)-norm, found by bounded search.

    The search box has width w = search_bound - max(corner) past the socle
    corner, so its cost does not depend on ell; search_bound stays an
    absolute bound on the coordinates and defaults to max(corner) +
    SEARCH_WIDTH.  The search compares the integer
    4 |lam + 2 rho_c|^2 = |2 lam + 4 rho_c|^2 on doubled weights, which
    orders labels exactly as `mintype_norm` does.  The truncation is
    certified by checking that every label on the outer shell of the box
    (some |coordinate| >= corner_i + w - 1) exceeds the interior minimum (the
    norm is a convex quadratic in the label, so it keeps growing outward).
    """
    corner = socle_corner(family, ell)
    if search_bound is None:
        search_bound = max(corner) + SEARCH_WIDTH
    width = search_bound - max(corner)
    box = labels(family, width, corner)
    if family.variant == "SO" and family.n == 2:
        # the signed lattice adds the mirror box, -k in [corner, corner + width]
        box = labels(family, width, (-corner[0] - width,)) + box

    def tie_key(lab):
        # prefer the positive representative when SO(2,1) norms tie
        return tuple(abs(c) for c in lab.coords) + tuple(-c for c in lab.coords)

    rho4 = tuple(2 * c for c in k_root_system(family.variant, family.n).two_rho)
    best = None
    shell_min = None
    for lab in box:
        if not socle_contains(family, ell, lab):
            continue
        nrm = sum((x + r) ** 2 for x, r in zip(highest_weight(lab), rho4, strict=True))
        on_shell = any(abs(x) >= c + width - 1 for x, c in zip(lab.coords, corner))
        if on_shell:
            if shell_min is None or nrm < shell_min:
                shell_min = nrm
        elif best is None or (nrm, tie_key(lab)) < best[:2]:
            best = (nrm, tie_key(lab), lab)
    if best is None or shell_min is None or shell_min <= best[0]:
        raise InconclusiveTruncationError(
            f"search_bound={search_bound} too small for {family} at ell={ell}")
    return best[2]


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
    omega_weight: Optional[Weight2] = None
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
        omega = (2 * (ell + 1),) + (0,) * ((n - 1) // 2 - 1)
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
    "label", "labels", "label_from_weight", "highest_weight", "weyl_dim",
    "mintype_norm", "SocleSpec", "SOCLE_SPECS", "socle_condition", "socle_contains",
    "socle_corner", "minimal_ktype", "minimal_ktype_closed",
    "langlands", "casimir_scalar",
]
