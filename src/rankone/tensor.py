"""Decomposition of Y (x) p* into irreducible K-types.

Two independent routes are provided: the signed-reflection algorithm on the
shifted highest weight (racah_speiser) and a character oracle (Freudenthal
weight multiplicities, convolution with the weights of p, peeling of dominant
characters).  The oracle holds every character by its multiplicities on the
dominant chamber, which loses nothing because characters are W-invariant, and
peels the highest weights in one descending pass.  p and p* are identified as
K-modules.

Every weight, in the API and inside, is a doubled-integer weight 2w
(`weyl.Weight2`), the one weight format of the library.  The weights of p are
stated once, as sparse shifts ((index, delta), ...) like the roots.  The two
routes share no chamber kernel.  Racah-Speiser hands lam + 2 rho and each
weight of p to `RootSystem.to_dominant_chamber`, which costs O(1) per weight
of p, and builds a dense weight only for each surviving summand.  The oracle
runs Freudenthal over `RootSystem.dominant_weights_below` and looks weights up
through `dominant_rep`.  It convolves with p in one pass over the pairs
(nu, beta) of a dominant weight of V_lam and a weight of p
(`_product_character`), counting the product's weights per Weyl orbit with
`orbit_size` (|W| over the stabiliser), which its dimension checks read too.
The closed form shifts lam by each weight of p and keeps
the dominant ones with its own sparse chamber test, which compares only the
coordinates each weight of p moves.  The oracle's state lives in
memos that grow only with the distinct weights a process touches: the
Freudenthal tables of `_dominant_multiplicities`, and the dominant
representatives, orbit sizes and dominant children that each RootSystem
keeps; nothing on the Racah-Speiser route reads any of them.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Optional

from .groups import GroupFamily, UnsupportedFamilyError, structural_data
from .ktypes import KTypeLabel, highest_weight, label_from_weight, weyl_dim
from .weyl import Root, RootSystem, Weight2, k_root_system, pair, shift, w_add, w_dot


class AlgorithmViolation(RuntimeError):
    """Signed multiplicities failed to cancel to a nonnegative decomposition."""


@dataclass(frozen=True)
class Summand:
    weight: Weight2
    multiplicity: int
    label: Optional[KTypeLabel]  # set iff the summand is M-spherical


@dataclass(frozen=True)
class Decomposition:
    family: GroupFamily
    source: Weight2
    summands: tuple[Summand, ...]

    def weights(self) -> set[Weight2]:
        return {s.weight for s in self.summands}

    def spherical_labels(self) -> set[KTypeLabel]:
        return {s.label for s in self.summands if s.label is not None}


def _check_supported(family: GroupFamily):
    if family.variant == "SO" and family.n == 2:
        raise UnsupportedFamilyError("tensor decompositions are not defined for SO(2,1)")


@lru_cache(maxsize=None)
def _p_weights(variant: str, n: Optional[int]) -> tuple[Root, ...]:
    """Doubled weights of p, each once, as sparse shifts ((index, delta), ...)
    like a root: +-e_i (and 0 for odd n) for SO, +-(e_i - e_{n+1}) for SU,
    +-e_i +- e_{n+1} for Sp, (+-1/2, ..., +-1/2) for F4."""
    if variant == "F4":
        return tuple(tuple(enumerate(signs)) for signs in product((1, -1), repeat=4))
    if variant == "SO":
        return tuple(((i, s),) for i in range(n // 2) for s in (2, -2)) + ((),) * (n % 2)
    if variant == "SU":
        return tuple(((i, s), (n, -s)) for i in range(n) for s in (2, -2))
    return tuple(((i, s), (n, t)) for i in range(n) for s in (2, -2) for t in (2, -2))


def _decomposition(family: GroupFamily, source: Weight2, acc: Counter) -> Decomposition:
    """Summands of the positive entries of a multiplicity Counter, highest weight first."""
    return Decomposition(family, source, tuple(Summand(w, acc[w], label_from_weight(family, w))
                                              for w in sorted(+acc, reverse=True)))


def racah_speiser_weight(family: GroupFamily, lam: Weight2) -> Decomposition:
    """Decompose V_lam (x) p by signed reflection of lam + rho_c + beta (lam doubled)."""
    _check_supported(family)
    rs = k_root_system(family.variant, family.n)
    if not rs.is_dominant(lam):
        raise ValueError(f"doubled weight {lam} is not dominant")
    lam_rho = w_add(lam, rs.two_rho)
    acc: Counter = Counter()
    for beta in _p_weights(family.variant, family.n):
        moves, sign = rs.to_dominant_chamber(lam_rho, beta)
        if moves is not None:
            acc[shift(lam, moves, 1)] += sign
    if any(m < 0 for m in acc.values()):
        raise AlgorithmViolation(f"negative multiplicity in {family} at doubled weight "
                                 f"{lam}: {acc}")
    return _decomposition(family, lam, acc)


def racah_speiser(family: GroupFamily, lab: KTypeLabel) -> Decomposition:
    return racah_speiser_weight(family, highest_weight(lab))


# -- character oracle ---------------------------------------------------------
#
# The Freudenthal ratio and the (rho-pairing, lex) peel order are both
# invariant under the doubling of weights, so every check below is made
# exactly, in ints.


@lru_cache(maxsize=None)
def _dominant_multiplicities(variant: str, n: Optional[int], lam: Weight2) -> tuple[tuple[Weight2, int], ...]:
    """Multiplicities of the dominant weights of V_lam via Freudenthal's formula.

    The dominant weights of V_lam are the dominant mu with lam - mu a sum of
    positive roots, `RootSystem.dominant_weights_below(lam)`, which the root
    system walks once per dominant weight across all tables.  Multiplicities
    of non-dominant weights are looked up through their dominant orbit
    representative, which the root system memoises across tables too.
    """
    rs = k_root_system(variant, n)
    two_rho = rs.two_rho
    top_norm = w_dot(lam, lam)
    # the denominator |lam + 2 rho|^2 - |w + 2 rho|^2 with the |2 rho|^2 of both
    # sides cancelled, from |w|^2 and the height <w, 2 rho> that orders the walk
    c_top = top_norm + 2 * w_dot(lam, two_rho)
    mult: dict[Weight2, int] = {lam: 1}
    rep, known = rs.dominant_rep, mult.get
    for height, w in sorted(((w_dot(w, two_rho), w) for w in rs.dominant_weights_below(lam)),
                            reverse=True):
        if w == lam:
            continue
        w_norm = w_dot(w, w)
        denom = c_top - w_norm - 2 * height
        if denom <= 0:
            raise AssertionError("Freudenthal denominator must be positive below lam")
        total = 0
        for alpha, aa in rs.root_norms:
            # walk up = w + 2k alpha (doubled) with norm = |up|^2 and p = <up, alpha>
            # inside the ||lam|| ball, which skips a root whose first step leaves it:
            # one step adds 4 (p + |alpha|^2) to the norm and 2 |alpha|^2 to p
            p = pair(w, alpha)
            norm, up = w_norm + 4 * (p + aa), w
            while norm <= top_norm:
                up = shift(up, alpha, 2)
                p += 2 * aa
                m_up = known(rep(up))
                if m_up:
                    total += m_up * 2 * p  # <up, 2 alpha> in doubled units
                norm += 4 * (p + aa)
        m, rem = divmod(2 * total, denom)
        if rem or m < 0:
            raise AssertionError(f"non-integral Freudenthal multiplicity "
                                 f"{2 * total}/{denom} at doubled weight {w}")
        if m:
            mult[w] = m
    if sum(m * rs.orbit_size(w) for w, m in mult.items()) != rs.weyl_dim(lam):
        raise AssertionError("weight multiplicities do not sum to the Weyl dimension")
    return tuple(sorted(mult.items()))


def _product_character(variant: str, n: Optional[int], lam: Weight2) -> dict[Weight2, int]:
    """Multiplicities of V_lam (x) p at its dominant weights, in one pass.

    For every pair (nu, beta) of a dominant weight nu of V_lam and a weight
    beta of p, m_lam(nu) |W nu| is added to count[dominant_rep(nu + beta)],
    and the multiplicity of the dominant weight mu is count[mu] / |W mu|.
    The weights of p are W-stable, so every nu' in W nu has as many beta with
    nu' + beta in W mu as nu has; the whole orbit W nu therefore contributes
    |W nu| times the pairs of nu alone, and count[mu] is the number of weights
    of the product in W mu.  A division that is not exact raises
    AssertionError naming mu.
    """
    rs = k_root_system(variant, n)
    betas = _p_weights(variant, n)
    rep = rs.dominant_rep
    count: dict[Weight2, int] = {}
    get = count.get
    for nu, m in _dominant_multiplicities(variant, n, lam):
        weight = m * rs.orbit_size(nu)
        for beta in betas:
            mu = rep(shift(nu, beta, 1))
            count[mu] = get(mu, 0) + weight
    char: dict[Weight2, int] = {}
    for mu, c in count.items():
        char[mu], rem = divmod(c, rs.orbit_size(mu))
        if rem:
            raise AssertionError(f"{c} weights of V_lam (x) p in the orbit of doubled weight "
                                 f"{mu} are not a multiple of its orbit size")
    return char


# more peeled summands than this means the peeling is not terminating
MAX_PEEL = 512


def character_oracle(family: GroupFamily, lab: KTypeLabel) -> Decomposition:
    """Decompose by character arithmetic on the dominant chamber; intended for small labels.

    Characters are W-invariant, so each is held by its multiplicities at
    dominant weights: the product character by `_product_character`, one
    pass that counts the weights of V_lam (x) p per Weyl orbit, and each
    peeled summand by its Freudenthal table.
    """
    _check_supported(family)
    variant, n = family.variant, family.n
    rs = k_root_system(variant, n)
    lam = highest_weight(lab)
    char = _product_character(variant, n, lam)
    if (sum(m * rs.orbit_size(mu) for mu, m in char.items())
            != structural_data(family).dim_p * rs.weyl_dim(lam)):
        raise AssertionError("the character of V_lam (x) p must have dimension dim p * dim V_lam")
    acc: Counter = Counter()
    # rho pairs strictly positively with any nonzero sum of positive roots, so
    # peeling V_top lowers only weights after top in the (rho-pairing, lex)
    # order, and one descending pass meets the tops in peel order.
    for top in sorted(char, key=lambda w: (w_dot(w, rs.two_rho), w), reverse=True):
        m = char[top]
        if m == 0:
            continue
        if m < 0:
            raise AlgorithmViolation(f"negative residual multiplicity at doubled weight "
                                     f"{top} while peeling")
        if len(acc) == MAX_PEEL:
            raise AlgorithmViolation("character peeling did not terminate")
        acc[top] = m
        for w, mw in _dominant_multiplicities(variant, n, top):
            char[w] = char.get(w, 0) - m * mw
    if any(v != 0 for v in char.values()):
        raise AlgorithmViolation("character did not peel to zero")
    return _decomposition(family, lam, acc)


def dimension_sum_check(dec: Decomposition) -> bool:
    """Sum of summand dimensions equals dim p times the source dimension, exactly."""
    total = sum(s.multiplicity * weyl_dim(dec.family, s.weight) for s in dec.summands)
    return total == structural_data(dec.family).dim_p * weyl_dim(dec.family, dec.source)


def _stays_dominant(rs: RootSystem, lam: Weight2, beta: Root) -> bool:
    """rs.is_dominant(lam + beta) for a dominant lam and a sparse shift beta.

    lam already meets every chamber inequality, so only those that beta moves
    can fail: each moved coordinate against its neighbours, D's second-last
    against |last|, B's and CC's last against 0, and CC's Sp(1) coordinate
    against 0.  Costs O(|beta|) and builds no dense weight.
    """
    rank, kind = rs.rank, rs.kind
    last = rank - 1
    moved = {i: lam[i] + d for i, d in beta}
    for i, x in moved.items():
        if i > last:  # CC's Sp(1) coordinate stays at or above 0, A's central one is free
            if kind == "CC" and x < 0:
                return False
            continue
        if i and moved.get(i - 1, lam[i - 1]) < (abs(x) if kind == "D" and i == last else x):
            return False
        if i < last:
            lower = moved.get(i + 1, lam[i + 1])
            if x < (abs(lower) if kind == "D" and i + 1 == last else lower):
                return False
        elif kind in ("B", "CC") and x < 0:
            return False
    return True


def expected_summand_labels(family: GroupFamily, lab: KTypeLabel) -> set[Weight2]:
    """Stated closed-form decomposition of Y (x) p*, as a set of doubled highest weights.

    Equal-rank families (SU, Sp, F4): every dominant shift lam + beta by a
    weight beta of p occurs, each once.  SO(n,1): Y_{k-1} + Y_{k+1} plus, for
    k >= 1, the middle term -- Y_k itself when n = 3, the type with highest
    weight k e1 + e2 when n >= 5, and for n = 4 both chiral partners
    k e1 +- e2 (the last coordinate of rho_c vanishes for K = SO(4), so the
    reflection that removes the mirror for larger n is absent; the dimension
    count and the character oracle both confirm it).
    """
    _check_supported(family)
    rs = k_root_system(family.variant, family.n)
    out: set[Weight2] = set()

    def push(w: Weight2):
        if rs.is_dominant(w):
            out.add(w)

    if family.variant == "SO":
        k2 = 2 * lab.coords[0]
        zeros = (0,) * (family.n // 2 - 1)
        push((k2 - 2,) + zeros)
        push((k2 + 2,) + zeros)
        if k2 > 0:
            if family.n == 3:
                push((k2,))
            else:
                push((k2, 2) + zeros[1:])
                if family.n == 4:
                    push((k2, -2))
    else:
        lam = highest_weight(lab)
        for beta in _p_weights(family.variant, family.n):
            if _stays_dominant(rs, lam, beta):
                out.add(shift(lam, beta, 1))
    return out


__all__ = [
    "Decomposition", "Summand", "AlgorithmViolation",
    "racah_speiser", "racah_speiser_weight",
    "character_oracle", "dimension_sum_check", "expected_summand_labels",
]
