"""K-type labels, highest weights, dimensions, socle membership and Langlands data.

The label lattices parametrize the K-types of L^2(K/M) per family: SO(n,1):
spherical harmonics Y_k (for SO(2,1) a signed integer, two one-dimensional
types Y_{+-k}); SU(n,1): bigraded harmonics Y_{p,q}; Sp(n,1): V_{a,b} with
a >= b >= 0; F4: V_{m,k} with m >= k >= 0, m = k mod 2.  Each lattice is one row
of LATTICE_SPECS, which the label, weight and socle functions read without
testing the family.  Highest weights are doubled-integer weights 2w (`weyl.Weight2`).
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Callable, NamedTuple, Optional

from .groups import GroupFamily, SpectralParam, exceptional_mu, rho_H
from .weyl import Weight2, k_root_system


class LatticeSpec(NamedTuple):
    """One family's K-type lattice.  The doubled highest weight of a label c is
    the forms `head`, zeros up to K's weight length, then the forms `tail`, each
    a pair (a, b) read as a c[0] + b c[-1].  The socle at mu_ell is
    sum_i coeffs[i] |c[i]| >= scale (ell + 1) for each (coeffs, scale) in `socle`.
    Rows are built by keyword; the defaulted fields come last."""

    length: int  # number of label coordinates
    length_error: str
    letter: str  # reports print letter[c]
    head: tuple[tuple[int, int], ...]
    readback: tuple[int, ...]  # the weight position of each c[i], negative from the end
    socle: tuple[tuple[tuple[int, ...], int], ...]
    socle_text: str  # slot {i} holds the floor of bound i
    minimal: tuple[int, ...]  # the socle's minimal K-type is (ell + 1) * minimal
    signed: bool = False  # c may be negative
    ordered: bool = False  # c[0] >= c[1]
    parity: bool = False  # c[0] = c[1] mod 2
    rule_error: str = ""  # a broken sign, order or parity rule, if not length_error
    tail: tuple[tuple[int, int], ...] = ()

    def error(self, c: tuple[int, ...]) -> Optional[str]:
        """Why the coordinates c are not a label of this lattice, or None if they are."""
        if len(c) != self.length:
            return self.length_error
        if ((not self.signed and min(c) < 0) or (self.ordered and c[0] < c[1])
                or (self.parity and (c[0] - c[1]) % 2)):
            return self.rule_error or self.length_error
        return None


# F4 labels count half-units of the Spin(9) weight.  Sp's socle bound a >= ell + 1
# follows from a >= b but lets `socle_corner` read the bounds alone.
_SO = LatticeSpec(
    length=1, length_error="SO label is a single integer",
    rule_error="SO(n,1), n >= 3, requires k >= 0", letter="Y",
    head=((2, 0),), readback=(0,), socle=(((1,), 1),), socle_text="k >= {0}", minimal=(1,))
LATTICE_SPECS = {
    "SO": _SO,
    "SO(2,1)": _SO._replace(signed=True, socle_text="|k| >= {0}"),
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


class _KTypeLabelFields(NamedTuple):
    family: GroupFamily
    coords: tuple[int, ...]


class KTypeLabel(_KTypeLabelFields):
    """A K-type of L^2(K/M): a family and coordinates on its lattice.

    A value type: a tuple of its fields, validated when built.  `_make` and
    `_replace` build through tuple alone and skip the validation.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        error = lattice(self.family).spec.error(self.coords)
        if error:
            raise ValueError(error)
        return self

    def __str__(self) -> str:
        return f"{lattice(self.family).spec.letter}[{','.join(map(str, self.coords))}]"


def label(family: GroupFamily, *coords: int) -> KTypeLabel:
    return KTypeLabel(family, tuple(coords))


def _weight(lat: Lattice, c: tuple[int, ...]) -> Weight2:
    """The doubled weight of a lattice's forms at coordinates c: head, pad, tail."""
    x, y = c[0], c[-1]
    return (tuple([a * x + b * y for a, b in lat.spec.head]) + lat.pad
            + tuple([a * x + b * y for a, b in lat.spec.tail]))


def highest_weight(lab: KTypeLabel) -> Weight2:
    """Doubled highest weight 2w of the labelled K-type in the e_i coordinates."""
    return _weight(lattice(lab.family), lab.coords)


def label_from_weight(family: GroupFamily, w: Weight2) -> Optional[KTypeLabel]:
    """The M-spherical label with doubled highest weight w, or None if w is not M-spherical.

    The coordinates read back from w are accepted iff they are a label and the
    lattice's forms map them to w; only then is the label built.
    """
    lat = lattice(family)
    coords = tuple(w[pos] // divisor for pos, divisor in lat.readback)
    if lat.spec.error(coords) or _weight(lat, coords) != w:
        return None
    return KTypeLabel(family, coords)


def labels(family: GroupFamily, bound: int) -> list[KTypeLabel]:
    """Every label with coordinates in [0, bound] ([-bound, bound] for SO(2,1)), in lex order."""
    spec = lattice(family).spec
    box = product(range(-bound if spec.signed else 0, bound + 1), repeat=spec.length)
    return [KTypeLabel(family, c) for c in box if not spec.error(c)]


def weyl_dim(family: GroupFamily, lam) -> int:
    """Exact dimension of the K-type with highest weight lam (label or doubled weight)."""
    if isinstance(lam, KTypeLabel):
        lam = highest_weight(lam)
    return k_root_system(family.variant, family.n).weyl_dim(lam)


# -- socle of the reducible spherical principal series -----------------------


def _socle_bounds(spec: LatticeSpec, ell: int) -> list[tuple[tuple[int, ...], int]]:
    """(coeffs, floor) for each bound of the socle at mu_ell."""
    if ell < 0:
        raise ValueError("ell must be nonnegative")
    return [(coeffs, scale * (ell + 1)) for coeffs, scale in spec.socle]


def socle_predicate(family: GroupFamily, ell: int) -> Callable[[tuple[int, ...]], bool]:
    """Membership in the socle at the exceptional parameter mu_ell, as a test on
    label coordinates: sum_i coeffs[i] |c[i]| >= floor for each bound."""
    bounds = _socle_bounds(lattice(family).spec, ell)

    def admits(coords: tuple[int, ...]) -> bool:
        for coeffs, floor in bounds:  # loops, not generators: the search tests every label
            total = 0
            for a, x in zip(coeffs, coords):
                total += a * abs(x)
            if total < floor:
                return False
        return True

    return admits


def socle_condition(family: GroupFamily, ell: int) -> str:
    """The socle condition at mu_ell as reports write it."""
    spec = lattice(family).spec
    return spec.socle_text.format(*[floor for _, floor in _socle_bounds(spec, ell)])


def socle_corner(family: GroupFamily, ell: int) -> tuple[int, ...]:
    """Least value of each |coordinate| over the socle at mu_ell.

    Read off the bounds: every coefficient is 0 or +-1 and the coordinates
    are nonnegative, so a bound raises each coordinate it enters with +1 to
    its floor and leaves the others free down to 0.
    """
    spec = lattice(family).spec
    bounds = _socle_bounds(spec, ell)
    return tuple(max([f for coeffs, f in bounds if coeffs[i] > 0], default=0)
                 for i in range(spec.length))


class InconclusiveTruncationError(RuntimeError):
    """The lattice truncation cannot be certified to contain the norm argmin."""


# Width of the minimal-K-type search box past the socle corner.
SEARCH_WIDTH = 8


def norm_form(family: GroupFamily) -> tuple[int, int, int, int, int, int]:
    """(A, B, C, D, E, F) with |2 lam + 4 rho_c|^2 = A x^2 + B x y + C y^2 + D x + E y + F
    for the label c with (x, y) = (c[0], c[-1]).

    Each head and tail form (a, b) puts a x + b y + r beside its entry r of
    4 rho_c, and each entry of the pad puts r alone.
    """
    spec = lattice(family).spec
    rho4 = [2 * r for r in k_root_system(family.variant, family.n).two_rho]
    nh, nt = len(spec.head), len(spec.tail)
    a2 = ab = b2 = ar = br = 0
    for (a, b), r in zip(spec.head + spec.tail, rho4[:nh] + rho4[len(rho4) - nt:], strict=True):
        a2 += a * a
        ab += a * b
        b2 += b * b
        ar += a * r
        br += b * r
    return a2, 2 * ab, b2, 2 * ar, 2 * br, sum(r * r for r in rho4)


def minimal_ktype(family: GroupFamily, ell: int) -> KTypeLabel:
    """Socle K-type minimizing the (lam + 2 rho_c)-norm, found by bounded search.

    The search box has width w = SEARCH_WIDTH past the socle corner, so its
    cost does not depend on ell.  The search compares the integer
    4 |lam + 2 rho_c|^2 = |2 lam + 4 rho_c|^2, which `norm_form` states as one
    integer quadratic form in (c[0], c[-1]), so it scores coordinates and
    builds one label, the winner's.  The truncation is certified by checking
    that every label on the outer shell of the box (some |coordinate| >=
    corner_i + w - 1) exceeds the interior minimum (the norm is a convex
    quadratic in the label, so it keeps growing outward).
    """
    corner = socle_corner(family, ell)
    admits = socle_predicate(family, ell)
    spec = lattice(family).spec
    width = SEARCH_WIDTH
    box = list(product(*[range(c, c + width + 1) for c in corner]))
    if spec.signed:
        # the signed lattice adds the mirror box, -k in [corner, corner + width]
        box += [(-k,) for (k,) in box]

    def tie_key(c):
        # prefer the positive representative when SO(2,1) norms tie
        return tuple(abs(x) for x in c) + tuple(-x for x in c)

    qa, qb, qc, qd, qe, qf = norm_form(family)
    edge_x, edge_y = corner[0] + width - 1, corner[-1] + width - 1
    best = best_norm = shell_min = None
    for c in box:
        if spec.error(c) or not admits(c):
            continue
        x, y = c[0], c[-1]
        nrm = (qa * x + qb * y + qd) * x + (qc * y + qe) * y + qf
        if abs(x) >= edge_x or abs(y) >= edge_y:
            if shell_min is None or nrm < shell_min:
                shell_min = nrm
        elif (best is None or nrm < best_norm
              or (nrm == best_norm and tie_key(c) < tie_key(best))):
            best, best_norm = c, nrm
    if best is None or shell_min is None or shell_min <= best_norm:
        raise InconclusiveTruncationError(
            f"search width {width} too small for {family} at ell={ell}")
    return KTypeLabel(family, best)


def minimal_ktype_closed(family: GroupFamily, ell: int) -> KTypeLabel:
    """Closed form (ell + 1) * minimal of the socle's minimal K-type (k > 0 for SO(2,1))."""
    return KTypeLabel(family, tuple((ell + 1) * x for x in lattice(family).spec.minimal))


# -- Langlands data -----------------------------------------------------------


class _LanglandsFields(NamedTuple):
    S: str
    tempered: bool
    discrete_series: bool
    limit_of_discrete_series: bool
    nu_H: Optional[Fraction] = None
    omega_expr: Optional[str] = None


class LanglandsRecord(_LanglandsFields):
    """Langlands parameters of the socle at mu_ell.

    S = "G" means tempered (discrete series or a limit thereof); S = "P" means
    induced from the proper parabolic with M-type omega and parameter nu.
    omega_expr for SU/Sp is copied branching data, not re-derived here.
    A value type: a tuple of its fields, validated when built.  `_make` and
    `_replace` build through tuple alone and skip the validation.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if (self.S == "G") != self.tempered:
            raise ValueError("S = G must hold exactly for tempered records")
        if self.discrete_series and not self.tempered:
            raise ValueError("discrete series must be tempered")
        if self.discrete_series and self.limit_of_discrete_series:
            raise ValueError("discrete and limit-of-discrete are exclusive")
        return self


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
    "weyl_dim", "socle_condition", "socle_predicate", "socle_corner",
    "norm_form", "minimal_ktype", "minimal_ktype_closed", "langlands", "casimir_scalar",
]
