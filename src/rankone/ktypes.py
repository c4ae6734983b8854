"""K-type labels, highest weights, dimensions, socle membership and Langlands data.

The label lattices parametrize the K-types of L^2(K/M) per family: SO(n,1):
spherical harmonics Y_k (for SO(2,1) a signed integer, two one-dimensional
types Y_{+-k}); SU(n,1): bigraded harmonics Y_{p,q}; Sp(n,1): V_{a,b} with
a >= b >= 0; F4: V_{m,k} with m >= k >= 0, m = k mod 2.  Each lattice is one row
of LATTICE_SPECS, which the label, weight and socle functions read without
testing the family.  Highest weights are doubled-integer weights 2w (`weyl.Weight2`).
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import NamedTuple, Optional

from .groups import GroupFamily, SpectralParam, exceptional_mu, rho_H
from .weyl import Weight2, k_root_system


@dataclass(frozen=True, kw_only=True)
class LatticeSpec:
    """One family's K-type lattice.  The doubled highest weight of a label c is
    the forms `head`, zeros up to K's weight length, then the forms `tail`, each
    a pair (a, b) read as a c[0] + b c[-1].  The socle at mu_ell is
    sum_i coeffs[i] |c[i]| >= scale (ell + 1) for each (coeffs, scale) in `socle`."""

    length: int  # number of label coordinates
    signed: bool = False  # c may be negative
    ordered: bool = False  # c[0] >= c[1]
    parity: bool = False  # c[0] = c[1] mod 2
    length_error: str
    rule_error: str = ""  # a broken sign, order or parity rule, if not length_error
    letter: str  # reports print letter[c]
    head: tuple[tuple[int, int], ...]
    tail: tuple[tuple[int, int], ...] = ()
    readback: tuple[int, ...]  # the weight position of each c[i], negative from the end
    socle: tuple[tuple[tuple[int, ...], int], ...]
    socle_text: str  # slot {i} holds the floor of bound i
    minimal: tuple[int, ...]  # the socle's minimal K-type is (ell + 1) * minimal


# F4 labels count half-units of the Spin(9) weight.  Sp's socle bound a >= ell + 1
# follows from a >= b but lets `socle_corner` read the bounds alone.
_SO = LatticeSpec(
    length=1, length_error="SO label is a single integer",
    rule_error="SO(n,1), n >= 3, requires k >= 0", letter="Y",
    head=((2, 0),), readback=(0,), socle=(((1,), 1),), socle_text="k >= {0}", minimal=(1,))
LATTICE_SPECS = {
    "SO": _SO,
    "SO(2,1)": replace(_SO, signed=True, socle_text="|k| >= {0}"),
    "SU": LatticeSpec(
        length=2, length_error="SU label is a pair (p, q) with p, q >= 0", letter="Y",
        head=((0, 2),), tail=((-2, 0), (2, -2)), readback=(-2, 0),
        socle=(((1, 0), 1), ((0, 1), 1)), socle_text="p >= {0} and q >= {1}", minimal=(1, 1)),
    "Sp": LatticeSpec(
        length=2, ordered=True, length_error="Sp label is a pair (a, b) with a >= b >= 0",
        letter="V", head=((2, 0), (0, 2)), tail=((2, -2),), readback=(0, 1),
        socle=(((1, 0), 1), ((0, 1), 1)), socle_text="a >= b >= {1}", minimal=(1, 1)),
    "F4": LatticeSpec(
        length=2, ordered=True, parity=True, letter="V",
        length_error="F4 label is a pair (m, k) with m >= k >= 0 and m = k mod 2",
        head=((1, 0), (0, 1), (0, 1), (0, 1)), readback=(0, 1), socle=(((1, -1), 2),),
        socle_text="m - k >= {0} and m = k mod 2", minimal=(2, 0)),
}


class Lattice(NamedTuple):
    """A lattice row, the zeros its rank puts between head and tail, and each c[i]'s
    (weight position, divisor)."""

    spec: LatticeSpec
    pad: Weight2
    readback: tuple[tuple[int, int], ...]


@lru_cache(maxsize=None)
def lattice(family: GroupFamily) -> Lattice:
    """The lattice of a family: its own row (SO(2,1)) or its variant's, resolved once."""
    spec = LATTICE_SPECS.get(str(family)) or LATTICE_SPECS[family.variant]
    forms = spec.head + spec.tail
    return Lattice(spec, (0,) * (k_root_system(family.variant, family.n).dim - len(forms)),
                   tuple((pos, forms[pos][i]) for i, pos in enumerate(spec.readback)))


@dataclass(frozen=True, order=True)
class KTypeLabel:
    family: GroupFamily
    coords: tuple[int, ...]

    def __post_init__(self):
        c, spec = self.coords, lattice(self.family).spec
        if len(c) != spec.length:
            raise ValueError(spec.length_error)
        if ((not spec.signed and min(c) < 0) or (spec.ordered and c[0] < c[1])
                or (spec.parity and (c[0] - c[1]) % 2)):
            raise ValueError(spec.rule_error or spec.length_error)

    def __str__(self) -> str:
        return f"{lattice(self.family).spec.letter}[{','.join(map(str, self.coords))}]"


def label(family: GroupFamily, *coords: int) -> KTypeLabel:
    return KTypeLabel(family, tuple(coords))


def highest_weight(lab: KTypeLabel) -> Weight2:
    """Doubled highest weight 2w of the labelled K-type in the e_i coordinates."""
    lat, c = lattice(lab.family), lab.coords
    x, y = c[0], c[-1]
    return (tuple([a * x + b * y for a, b in lat.spec.head]) + lat.pad
            + tuple([a * x + b * y for a, b in lat.spec.tail]))


def label_from_weight(family: GroupFamily, w: Weight2) -> Optional[KTypeLabel]:
    """The M-spherical label with doubled highest weight w, or None if w is not M-spherical.

    The coordinates read back from w are accepted iff `highest_weight` maps them to w.
    """
    coords = tuple(w[pos] // divisor for pos, divisor in lattice(family).readback)
    try:
        lab = KTypeLabel(family, coords)
    except ValueError:
        return None
    return lab if highest_weight(lab) == w else None


def labels(family: GroupFamily, bound: int,
           corner: Optional[tuple[int, ...]] = None) -> list[KTypeLabel]:
    """Every label with coordinates in [0, bound] ([-bound, bound] for SO(2,1)), in lex order.

    With a lower `corner`, coordinate i runs over [corner[i], corner[i] + bound]
    instead.  The coordinate box is filtered through KTypeLabel's own
    validation, so the lattice is stated once, in its row.
    """
    spec = lattice(family).spec
    if corner is None:
        ranges = [range(-bound if spec.signed else 0, bound + 1)] * spec.length
    elif len(corner) != spec.length:
        raise ValueError(f"corner {corner} does not have the label rank {spec.length}")
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


# -- socle of the reducible spherical principal series -----------------------


def _socle_floors(spec: LatticeSpec, ell: int) -> list[int]:
    if ell < 0:
        raise ValueError("ell must be nonnegative")
    return [scale * (ell + 1) for _, scale in spec.socle]


def socle_condition(family: GroupFamily, ell: int) -> str:
    """The socle condition at mu_ell as reports write it."""
    spec = lattice(family).spec
    return spec.socle_text.format(*_socle_floors(spec, ell))


def socle_contains(family: GroupFamily, ell: int, lab: KTypeLabel) -> bool:
    """Membership of a K-type in the socle at the exceptional parameter mu_ell."""
    spec = lattice(family).spec
    coords = [abs(c) for c in lab.coords]
    return all(sum(a * x for a, x in zip(coeffs, coords, strict=True)) >= floor
               for (coeffs, _), floor in zip(spec.socle, _socle_floors(spec, ell)))


def socle_corner(family: GroupFamily, ell: int) -> tuple[int, ...]:
    """Least value of each |coordinate| over the socle at mu_ell.

    Read off the bounds: every coefficient is 0 or +-1 and the coordinates
    are nonnegative, so a bound raises each coordinate it enters with +1 to
    its floor and leaves the others free down to 0.
    """
    spec = lattice(family).spec
    floors = _socle_floors(spec, ell)
    return tuple(max([f for (coeffs, _), f in zip(spec.socle, floors) if coeffs[i] > 0],
                     default=0)
                 for i in range(spec.length))


class InconclusiveTruncationError(RuntimeError):
    """The lattice truncation cannot be certified to contain the norm argmin."""


# Width of the minimal-K-type search box past the socle corner.
SEARCH_WIDTH = 8


def minimal_ktype(family: GroupFamily, ell: int) -> KTypeLabel:
    """Socle K-type minimizing the (lam + 2 rho_c)-norm, found by bounded search.

    The search box has width w = SEARCH_WIDTH past the socle corner, so its
    cost does not depend on ell.  The search compares the integer
    4 |lam + 2 rho_c|^2 = |2 lam + 4 rho_c|^2 on doubled weights.  The
    truncation is certified by checking that every label on the outer shell
    of the box (some |coordinate| >= corner_i + w - 1) exceeds the interior
    minimum (the norm is a convex quadratic in the label, so it keeps growing
    outward).
    """
    corner = socle_corner(family, ell)
    width = SEARCH_WIDTH
    box = labels(family, width, corner)
    if lattice(family).spec.signed:
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
            f"search width {width} too small for {family} at ell={ell}")
    return best[2]


def minimal_ktype_closed(family: GroupFamily, ell: int) -> KTypeLabel:
    """Closed form (ell + 1) * minimal of the socle's minimal K-type (k > 0 for SO(2,1))."""
    return KTypeLabel(family, tuple((ell + 1) * x for x in lattice(family).spec.minimal))


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
    omega_expr: Optional[str] = None

    def __post_init__(self):
        if (self.S == "G") != self.tempered:
            raise ValueError("S = G must hold exactly for tempered records")
        if self.discrete_series and not self.tempered:
            raise ValueError("discrete series must be tempered")
        if self.discrete_series and self.limit_of_discrete_series:
            raise ValueError("discrete and limit-of-discrete are exclusive")


# variant: ((a, b), omega_expr at ell) with 2 nu(H) = a n + b; F4 and n = 2 are tempered.
LANGLANDS_ROWS = {"SO": ((2, -3), "{k} e1"), "SU": ((2, -4), "{k}(eps2 - eps{n})"),
                  "Sp": ((4, -6), "{k}(eps2 + eps3)")}


def langlands(family: GroupFamily, ell: int) -> LanglandsRecord:
    """Langlands record of the socle at the exceptional parameter mu_ell."""
    n = family.n
    row = LANGLANDS_ROWS.get(family.variant) if n != 2 else None
    if row is None:
        mu = exceptional_mu(family, ell).mu_H
        discrete = mu <= -rho_H(family)
        return LanglandsRecord("G", True, discrete, not discrete)
    (a, b), omega = row
    return LanglandsRecord("P", False, False, False, nu_H=Fraction(a * n + b, 2),
                           omega_expr=omega.format(k=ell + 1, n=n))


def casimir_scalar(family: GroupFamily, mu: SpectralParam) -> Fraction:
    """Casimir eigenvalue mu(H)^2 - rho(H)^2 on the spherical principal series."""
    rho = rho_H(family)
    return mu.mu_H * mu.mu_H - rho * rho


__all__ = [
    "KTypeLabel", "LanglandsRecord", "InconclusiveTruncationError", "LatticeSpec",
    "LATTICE_SPECS", "Lattice", "lattice", "label", "labels", "label_from_weight", "highest_weight",
    "weyl_dim", "socle_condition", "socle_contains", "socle_corner",
    "minimal_ktype", "minimal_ktype_closed", "langlands", "casimir_scalar",
]
