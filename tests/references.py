"""Reference constructions that the library does not run but the tests compare against.

Each is the plain form of something `rankone` computes another way: full Weyl
orbits (the library only counts them, `RootSystem.orbit_size`), the Gamma
arguments of 1/e in Fractions and the walk over every integer t = 2 mu(H) of
an interval (the library steps through the poles of the integer numerators,
`groups.exceptional_in_interval`), the union of those poles as a sorted set,
as the scan built it before it merged two ascending runs, the Fraction norm that `ktypes.minimal_ktype`
minimises in doubled integers, the search itself as it ran before it scored
its box with one integer quadratic form (`minimal_ktype_by_weights`: a dense
highest weight per socle label, over a box of `KTypeLabel`s admitted by
constructing each, not by `LatticeSpec.error`) and the label-level socle test it called
there, Fraction polynomial powers and scalings, and the
`Fraction` coefficients of a terminating 2F1 that `hypergeom.F21Poly` stores as
integer numerators over one denominator.  The per-family branches of K's root
system and of the socle's Langlands record are kept here as the if-chains that
`weyl.K_ROWS` and `ktypes.LANGLANDS_ROWS` replaced, and the chamber test and
dominant representative as the pairwise generator forms that
`RootSystem.is_dominant` and the memoised `RootSystem.dominant_rep` replaced.
The Racah-Speiser route is kept as it ran before its kernel became sparse:
every weight of p added to all of lam + 2 rho and sorted back into the
chamber with the sign of the sorting permutation, where
`RootSystem.to_dominant_chamber` now compares only the moved coordinates with
their neighbours.  The oracle's product character is kept as it was
convolved before it counted weights per Weyl orbit in one pass: a candidate
set of dominant weights, then a sum over the weights of p for each.  The
Chebyshev closed form U_q and its three-term recurrence are what `spherical`
read Sp's azimuthal factor from before it became the SO(4,1) zonal function,
and the dense expansion of Z(v . x) over every coordinate is what
`so_model._poly_in_direction` ran before it kept to the support of v.
The CSV report is kept as `csv.writer` wrote it, each value through
`json.dumps`, where `cli.Report.to_csv` now quotes its cells itself.  The
omega-row sweeps are kept in `Fraction`s as they ran before the rows became
integer numerators over one denominator: a row's lambdas, its convexity, lambda
* dim reciprocity, the row assembled from its factorisation, and the nu and
vanishing tables evaluated as halves, where `spherical` and `scalars` now
compare integers by cross-multiplication; `vanishing_mu` reads the vanishing
table as a parameter mu(H), which only the tests ask for.
"""
from __future__ import annotations

import csv
import io
import json
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import comb, factorial
from operator import sub

from rankone.groups import (GroupFamily, SpectralParam, _gamma_numerators, exceptional_mu, rho_H,
                            structural_data, two_rho_H)
from rankone.hypergeom import F21Poly
from rankone import ktypes, scalars, tensor
from rankone.ktypes import (InconclusiveTruncationError, KTypeLabel, LanglandsRecord,
                            highest_weight, lattice, socle_corner, socle_predicate)
from rankone.poly import Poly, pderiv, peval, pmul, trim
from rankone.spherical import omega_h_expand
from rankone.tensor import _p_weights
from rankone.weyl import (RootSystem, Weight2, k_root_system, shift, type_a_u, type_b, type_c_c1,
                          type_d, w_add, w_dot)

# -- Weyl orbits ----------------------------------------------------------------


def distinct_perms(values):
    """Each distinct permutation of `values` once, in increasing lex order."""
    a = sorted(values)
    while True:
        yield tuple(a)
        i = len(a) - 2
        while i >= 0 and a[i] >= a[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(a) - 1
        while a[j] <= a[i]:
            j -= 1
        a[i], a[j] = a[j], a[i]
        a[i + 1:] = reversed(a[i + 1:])


def orbit(rs: RootSystem, w: Weight2) -> set[Weight2]:
    """Full Weyl orbit of w, enumerated as signed permutations of the head."""
    head, tail = w[: rs.rank], tuple(w[rs.rank:])
    if rs.kind == "A":
        return {p + tail for p in distinct_perms(head)}
    signed = [v for p in distinct_perms([abs(x) for x in head])
              for v in product(*((x, -x) if x else (x,) for x in p))]
    if rs.kind == "D" and all(head):
        parity = sum(x < 0 for x in head) % 2
        signed = [v for v in signed if sum(x < 0 for x in v) % 2 == parity]
    if rs.kind == "CC":
        return {v + (t,) for v in signed for t in {tail[0], -tail[0]}}
    return {v + tail for v in signed}


def is_dominant(rs: RootSystem, w: Weight2, strict: bool = False) -> bool:
    """The chamber test of rs, one rule per kind, pair by pair."""
    head = w[: rs.rank]
    pairs = zip(head, head[1:])
    if rs.kind == "A":
        return all((x > y if strict else x >= y) for x, y in pairs)
    if rs.kind == "D":
        if rs.rank < 2:  # D1 has no roots, so every weight is dominant
            return True
        body = all((x > y if strict else x >= y) for x, y in zip(head, head[1:-1]))
        edge = head[-2] > abs(head[-1]) if strict else head[-2] >= abs(head[-1])
        return body and edge
    # B / CC: decreasing and nonnegative
    ok = all((x > y if strict else x >= y) for x, y in pairs)
    ok = ok and (head[-1] > 0 if strict else head[-1] >= 0)
    if rs.kind == "CC":
        tail = w[-1]
        ok = ok and (tail > 0 if strict else tail >= 0)
    return ok


def dominant_rep(rs: RootSystem, w: Weight2) -> Weight2:
    """The dominant element of the Weyl orbit of w, recomputed on every call."""
    head = list(w[: rs.rank])
    tail = list(w[rs.rank:])
    if rs.kind == "A":
        return tuple(sorted(head, reverse=True)) + tuple(tail)
    if rs.kind == "CC":
        tail[0] = abs(tail[0])
    if rs.kind in ("B", "CC"):
        return tuple(sorted((abs(x) for x in head), reverse=True)) + tuple(tail)
    flips = sum(1 for x in head if x < 0)
    out = sorted((abs(x) for x in head), reverse=True)
    if flips % 2 == 1 and out[-1] != 0:
        out[-1] = -out[-1]
    return tuple(out) + tuple(tail)


def to_dominant_chamber(rs: RootSystem, w: Weight2):
    """Unique chamber representative of any w with the sign of the Weyl element,
    by sorting the absolute values: (dominant weight, sign), or (None, 0) when
    w lies on a wall, i.e. is fixed by some reflection."""
    head = list(w[: rs.rank])
    tail = list(w[rs.rank:])
    sign = 1
    if rs.kind == "A":
        if len(set(head)) < len(head):
            return None, 0
        sign = _sort_sign(head)
        return tuple(sorted(head, reverse=True)) + tuple(tail), sign
    if rs.kind == "CC":
        if tail[0] == 0:
            return None, 0
        if tail[0] < 0:
            tail[0] = -tail[0]
            sign = -sign
    if rs.kind in ("B", "CC"):
        if any(x == 0 for x in head):
            return None, 0
        flips = sum(1 for x in head if x < 0)
        head = [abs(x) for x in head]
        if len(set(head)) < len(head):
            return None, 0
        sign *= (-1) ** flips * _sort_sign(head)
        return tuple(sorted(head, reverse=True)) + tuple(tail), sign
    # D: sign changes come in pairs; a zero coordinate absorbs parity
    absd = [abs(x) for x in head]
    if len(set(absd)) < len(absd):
        return None, 0
    flips = sum(1 for x in head if x < 0)
    out = sorted(absd, reverse=True)
    if flips % 2 == 1 and out[-1] != 0:
        out[-1] = -out[-1]
    return tuple(out) + tuple(tail), _sort_sign(absd)


def _sort_sign(values) -> int:
    """Parity of the permutation sorting `values` into decreasing order."""
    order = sorted(range(len(values)), key=lambda i: values[i], reverse=True)
    seen = [False] * len(order)
    sign = 1
    for start in range(len(order)):
        if seen[start]:
            continue
        length = 0
        i = start
        while not seen[i]:
            seen[i] = True
            i = order[i]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def w_sub(a, b):
    """a - b, checked like `weyl.w_add`; the library subtracts sparse shifts instead."""
    if len(a) != len(b):
        raise ValueError(f"weights of lengths {len(a)} and {len(b)}")
    return tuple(map(sub, a, b))


def racah_speiser_dense(family: GroupFamily, lam: Weight2) -> Counter:
    """The signed multiplicities of V_lam (x) p, by the dense route: each weight
    beta of p added to all of lam + 2 rho and sorted back into the chamber."""
    rs = k_root_system(family.variant, family.n)
    lam_rho = w_add(lam, rs.two_rho)
    acc: Counter = Counter()
    for beta in _p_weights(family.variant, family.n):
        dom, sign = to_dominant_chamber(rs, shift(lam_rho, beta, 1))
        if dom is None:
            continue
        assert is_dominant(rs, dom, strict=True)
        acc[w_sub(dom, rs.two_rho)] += sign
    return acc


# -- the character oracle's convolution --------------------------------------------


def product_character_two_pass(family: GroupFamily, lam: Weight2) -> dict[Weight2, int]:
    """The dominant multiplicities of V_lam (x) p in two passes: the candidates
    dominant_rep(nu + beta), for every dominant weight nu of V_lam and weight
    beta of p, then m(mu) = sum over beta of m_lam(dominant_rep(mu - beta))."""
    rs = k_root_system(family.variant, family.n)
    betas = _p_weights(family.variant, family.n)
    m_lam = dict(tensor._dominant_multiplicities(family.variant, family.n, lam))
    char = {}
    for mu in {dominant_rep(rs, shift(nu, beta, 1)) for nu in m_lam for beta in betas}:
        m = sum(m_lam.get(dominant_rep(rs, shift(mu, beta, -1)), 0) for beta in betas)
        if m:
            char[mu] = m
    return char


# -- the e-function -------------------------------------------------------------


def e_inverse_gamma_args(family: GroupFamily, mu: SpectralParam) -> tuple[Fraction, Fraction]:
    """Arguments (m_alpha/2 + 1 + mu(H))/2 and (m_alpha/2 + m_2alpha + mu(H))/2 of the
    two Gamma factors of 1/e at the simple restricted root.

    The reciprocal of the Harish-Chandra e-function is a product of Gamma
    values; its zeros (poles of Gamma) are exactly the exceptional parameters.
    """
    sd = structural_data(family)
    half = Fraction(sd.m_alpha, 2)
    return (half + 1 + mu.mu_H) / 2, (half + sd.m_2alpha + mu.mu_H) / 2


def exceptional_grid_walk(family: GroupFamily, lo: int) -> list[int]:
    """The integers t = 2 mu(H) in [lo, 0], ascending, where 1/e has a Gamma pole,
    found by testing every integer of [lo, 0].

    A Gamma argument is integral and nonpositive iff its numerator over 4 is a
    nonpositive multiple of 4.
    """
    sd = structural_data(family)
    out = []
    for t in range(lo, 1):
        a1, a2 = _gamma_numerators(sd, t)
        if (a1 % 4 == 0 and a1 <= 0) or (a2 % 4 == 0 and a2 <= 0):
            out.append(t)
    return out


def exceptional_in_interval_set(family: GroupFamily, lo: int) -> list[int]:
    """`groups.exceptional_in_interval` as a sorted set: every numerator's progression
    of poles in [lo, 0], duplicates and nested progressions included."""
    poles = set()
    for a0 in _gamma_numerators(structural_data(family), 0):
        poles.update(range(-a0, lo - 1, -4))
    return sorted(poles)


def is_nonpositive_integer(q: Fraction) -> bool:
    return q.denominator == 1 and q <= 0


def is_exceptional(family: GroupFamily, mu: SpectralParam) -> bool:
    """True iff mu is a zero of the e-function (a Gamma argument hits a pole)."""
    return any(map(is_nonpositive_integer, e_inverse_gamma_args(family, mu)))


# -- K-types --------------------------------------------------------------------


def k_root_system_chain(variant: str, n: int | None) -> RootSystem:
    """Root system of K for one family instance, one branch per variant."""
    if variant == "SO":
        # SO(2)'s root system is D1: one coordinate and no roots
        m = n // 2
        return type_b(m) if n % 2 == 1 else type_d(m)
    if variant == "SU":
        return type_a_u(n)
    if variant == "Sp":
        return type_c_c1(n)
    return type_b(4)


def langlands_chain(family: GroupFamily, ell: int) -> LanglandsRecord:
    """Langlands record of the socle at mu_ell, one branch per variant."""
    v, n = family.variant, family.n
    tempered = v == "F4" or n == 2
    if tempered:
        mu = exceptional_mu(family, ell).mu_H
        discrete = mu <= -rho_H(family)
        return LanglandsRecord("G", True, discrete, not discrete)
    if v == "SO":
        return LanglandsRecord("P", False, False, False, nu_H=Fraction(2 * n - 3, 2),
                               omega_expr=f"{ell + 1} e1")
    if v == "SU":
        return LanglandsRecord("P", False, False, False, nu_H=Fraction(n - 2),
                               omega_expr=f"{ell + 1}(eps2 - eps{n})")
    return LanglandsRecord("P", False, False, False, nu_H=Fraction(2 * n - 3),
                           omega_expr=f"{ell + 1}(eps2 + eps3)")


def mintype_norm(family: GroupFamily, lam) -> Fraction:
    """Squared Euclidean norm of lam + 2 rho_c, the minimal-K-type height.

    lam is a label or a doubled weight w = 2 lam; the norm is |w + 4 rho_c|^2 / 4.
    """
    if isinstance(lam, KTypeLabel):
        lam = highest_weight(lam)
    two_rho = k_root_system(family.variant, family.n).two_rho
    shifted = tuple(x + 2 * r for x, r in zip(lam, two_rho, strict=True))
    return Fraction(w_dot(shifted, shifted), 4)


def socle_contains(family: GroupFamily, ell: int, lab: KTypeLabel) -> bool:
    """Membership of a K-type in the socle at the exceptional parameter mu_ell."""
    return socle_predicate(family, ell)(lab.coords)


def _shifted_box(family: GroupFamily, width: int, corner: tuple[int, ...]) -> list[KTypeLabel]:
    """The labels with coordinate i in [corner[i], corner[i] + width], in lex order,
    admitted by constructing each `KTypeLabel` and dropping those it refuses."""
    out = []
    for coords in product(*(range(c, c + width + 1) for c in corner)):
        try:
            out.append(KTypeLabel(family, coords))
        except ValueError:
            pass
    return out


def minimal_ktype_by_weights(family: GroupFamily, ell: int) -> KTypeLabel:
    """`ktypes.minimal_ktype` as it ran before the quadratic form: the same box,
    shell certificate and SO(2,1) tie key, with each socle label's norm summed
    over its dense doubled highest weight and the tie key built for every label."""
    corner = socle_corner(family, ell)
    width = ktypes.SEARCH_WIDTH
    box = _shifted_box(family, width, corner)
    if lattice(family).spec.signed:
        box = _shifted_box(family, width, (-corner[0] - width,)) + box

    def tie_key(lab):
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


# -- polynomials ----------------------------------------------------------------


def peq(p: Poly, q: Poly) -> bool:
    """Equality up to trailing zero coefficients."""
    return trim(list(p)) == trim(list(q))


def pscale(p: Poly, c) -> Poly:
    return trim([c * x for x in p])


def padd(p: Poly, q: Poly) -> Poly:
    out = [0] * max(len(p), len(q))
    for i, c in enumerate(p):
        out[i] += c
    for i, c in enumerate(q):
        out[i] += c
    return trim(out)


def ppow(p: Poly, k: int) -> Poly:
    out: Poly = [1]
    for _ in range(k):
        out = pmul(out, p)
    return out


def coeffs(series: F21Poly) -> tuple[Fraction, ...]:
    """The exact coefficients (a)_j (b)_j / ((c)_j j!) = nums[j] / den."""
    return tuple(Fraction(x, series.den) for x in series.nums)


def degree(series: F21Poly) -> int:
    return len(series.nums) - 1


def f21_eval(series: F21Poly, z) -> Fraction:
    return Fraction(peval(series.nums, Fraction(z)), series.den)


def derivative(series: F21Poly) -> Poly:
    """Exact formal d/dz as a coefficient list."""
    return pderiv(list(coeffs(series)))


def chebyshev_u(q: int) -> Poly:
    """U_q(c) = sin((q+1)t)/sin(t) with c = cos t, from the explicit closed form."""
    if q < 0:
        return []
    out = [0] * (q + 1)
    for j in range(q // 2 + 1):
        out[q - 2 * j] += (-1) ** j * comb(q - j, j) * 2 ** (q - 2 * j)
    return trim(out)


def chebyshev_three_term(q: int) -> bool:
    """2 cos(t) U_q = U_{q+1} + U_{q-1} as exact polynomials in cos t."""
    return pmul([0, 2], chebyshev_u(q)) == padd(chebyshev_u(q + 1), chebyshev_u(q - 1))


def poly_in_direction_dense(z: Poly, v, n: int) -> dict[tuple[int, ...], object]:
    """Z(v . x) as {exponent multi-index: coefficient}, expanded over all n coordinates."""
    out: dict[tuple[int, ...], object] = {}
    for m, c in enumerate(z):
        if c == 0:
            continue
        for combo in combinations_with_replacement(range(n), m):
            exps = [0] * n
            coef = c
            for i in combo:
                exps[i] += 1
            mult = factorial(m)
            for e in exps:
                mult //= factorial(e)
            for i, e in enumerate(exps):
                if e:
                    coef = coef * v[i] ** e
            key = tuple(exps)
            out[key] = out.get(key, 0) + mult * coef
    return out


# -- omega rows and scalar tables in Fractions -----------------------------------


def fraction_terms(row) -> list[tuple[KTypeLabel, Fraction]]:
    """The (target, lambda) pairs of a `spherical.RecurrenceRow`, each lambda = num / den."""
    return [(t, Fraction(num, row.den)) for t, num in row.nums]


def row_is_convex_fractions(row) -> bool:
    """lambda >= 0 along the row and the lambdas sum to 1."""
    lams = [lam for _, lam in fraction_terms(row)]
    return sum(lams) == 1 and all(lam >= 0 for lam in lams)


def lambda_dim_reciprocal_fractions(row_v, row_y, dim_v: int, dim_y: int) -> bool:
    """lambda(V, Y) dim V == lambda(Y, V) dim Y, V and Y the sources of the rows."""
    lam_vy = dict(fraction_terms(row_v)).get(row_y.source, Fraction(0))
    lam_yv = dict(fraction_terms(row_y)).get(row_v.source, Fraction(0))
    return lam_vy * dim_v == lam_yv * dim_y


def assembles_to_fractions(splits, row) -> bool:
    """The row assembled from `spherical._factorisation` splits at w * c, compared
    with the stated row as a dict of Fractions."""
    assembled = {}
    for _, (w_num, w_den), den, terms in splits:
        weight = Fraction(w_num, w_den)
        if weight:
            assembled.update({t: weight * Fraction(num, den) for t, num in terms.items()})
    return assembled == {t.coords: lam for t, lam in fraction_terms(row)}


def row_value_fraction(rows: dict, family: GroupFamily, v: KTypeLabel, y: KTypeLabel) -> Fraction:
    """Half the row of (variant, direction V -> Y) at 2rho(H) and V, in Fractions."""
    c_rho, *coefs, c_0 = rows[(family.variant, tuple(b - a for a, b in zip(v.coords, y.coords)))]
    total = c_rho * 2 * rho_H(family) + c_0 + sum(c * x for c, x in zip(coefs, v.coords))
    return Fraction(total) / 2


def vanishing_mu(family: GroupFamily, v: KTypeLabel, y: KTypeLabel) -> Fraction:
    """The tabulated reducibility parameter mu(H) of the direction V -> Y, half its
    `scalars.VANISHING_ROWS` value, which the library compares only doubled."""
    return Fraction(scalars._row_value(scalars.VANISHING_ROWS, family, v, y, two_rho_H(family)), 2)


def vanishes_at_t_root_fractions(family: GroupFamily, v: KTypeLabel, y: KTypeLabel) -> bool:
    """vanishing_mu(V, Y) == -rho - r, both tables read at call time and halved."""
    return (row_value_fraction(scalars.VANISHING_ROWS, family, v, y)
            == -rho_H(family) - row_value_fraction(scalars.NU_ROWS, family, v, y))


def vanishing_table_check_fractions(family: GroupFamily, bound: int) -> bool:
    """`scalars.vanishing_table_check` on Fractions, over the same box and rows."""
    return all(vanishes_at_t_root_fractions(family, v, y)
               for v in ktypes.labels(family, bound)
               for y, _ in omega_h_expand(family, v).nums)


# -- CSV reports -------------------------------------------------------------------


def csv_report(report) -> str:
    """The CSV bytes of a `cli.Report`, written row by row with csv.writer."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["section", "key", "value"])
    for key in sorted(report.results):
        value = report.results[key]
        if isinstance(value, list):
            for i, item in enumerate(value):
                writer.writerow(["results", f"{key}[{i}]", json.dumps(item, sort_keys=True)])
        else:
            writer.writerow(["results", key, json.dumps(value, sort_keys=True)])
    for c in report.checks:
        writer.writerow(["checks", f"{c['id']}:{c['instance']}", c["status"]])
    writer.writerow(["status", "", report.status])
    return buf.getvalue()
