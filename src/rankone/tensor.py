"""Decomposition of Y (x) p* into irreducible K-types.

Two independent routes are provided: the signed-reflection algorithm on the
shifted highest weight (racah_speiser) and a character oracle (Freudenthal
weight multiplicities, convolution with the weights of p, peeling of dominant
characters).  The oracle holds every character by its multiplicities on the
dominant chamber, which loses nothing because characters are W-invariant, and
peels the highest weights in one descending pass.  p and p* are identified as
K-modules.

Every weight, in the API and inside, is a doubled-integer weight 2w
(`weyl.Weight2`), the one weight format of the library.  The two routes share
no kernel: Racah-Speiser uses to_dominant_chamber, the oracle Freudenthal and
dominant_rep, with orbit_size (|W| over the stabiliser) in its dimension checks.
The oracle's state lives in two memos that grow only with the distinct weights
a process touches: the Freudenthal tables of `_dominant_multiplicities`, and
the dominant representatives and orbit sizes each RootSystem keeps; nothing on
the Racah-Speiser route reads either.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Optional

from .groups import GroupFamily, UnsupportedFamilyError, structural_data
from .ktypes import KTypeLabel, highest_weight, label_from_weight, weyl_dim
from .weyl import Weight2, k_root_system, pair, shift, w_add, w_dot, w_sub


class AlgorithmViolation(RuntimeError):
    """Signed multiplicities failed to cancel to a nonnegative decomposition."""


@dataclass(frozen=True)
class Summand:
    weight: Weight2
    multiplicity: int
    m_spherical: bool
    label: Optional[KTypeLabel]  # set iff m_spherical


@dataclass(frozen=True)
class Decomposition:
    family: GroupFamily
    source: Weight2
    summands: tuple[Summand, ...]

    def weights(self) -> set[Weight2]:
        return {s.weight for s in self.summands}

    def spherical_labels(self) -> set[KTypeLabel]:
        return {s.label for s in self.summands if s.m_spherical}


def _check_supported(family: GroupFamily):
    if family.variant == "SO" and family.n == 2:
        raise UnsupportedFamilyError("tensor decompositions are not defined for SO(2,1)")


@lru_cache(maxsize=None)
def _p_weights(variant: str, n: Optional[int]) -> tuple[Weight2, ...]:
    """Doubled weights of p, each once: +-e_i (and 0 for odd n) for SO,
    +-(e_i - e_{n+1}) for SU, +-e_i +- e_{n+1} for Sp, (+-1/2, ..., +-1/2) for F4."""
    if variant == "F4":
        return tuple(product((1, -1), repeat=4))
    if variant == "SO":
        zero = (0,) * (n // 2)
        units = tuple(shift(zero, ((i, s),), 1) for i in range(n // 2) for s in (2, -2))
        return units + (zero,) * (n % 2)
    zero = (0,) * (n + 1)
    if variant == "SU":
        return tuple(shift(zero, ((i, s), (n, -s)), 1) for i in range(n) for s in (2, -2))
    return tuple(shift(zero, ((i, s), (n, t)), 1)
                 for i in range(n) for s in (2, -2) for t in (2, -2))


def _decomposition(family: GroupFamily, source: Weight2, acc: Counter) -> Decomposition:
    """Summands of the positive entries of a multiplicity Counter, highest weight first."""
    summands = []
    for w in sorted(+acc, reverse=True):
        lab = label_from_weight(family, w)
        summands.append(Summand(w, acc[w], lab is not None, lab))
    return Decomposition(family, source, tuple(summands))


def racah_speiser_weight(family: GroupFamily, lam: Weight2) -> Decomposition:
    """Decompose V_lam (x) p by signed reflection of lam + rho_c + beta (lam doubled)."""
    _check_supported(family)
    rs = k_root_system(family.variant, family.n)
    if not rs.is_dominant(lam):
        raise ValueError(f"doubled weight {lam} is not dominant")
    lam_rho = w_add(lam, rs.two_rho)
    acc: Counter = Counter()
    for beta in _p_weights(family.variant, family.n):
        dom, sign = rs.to_dominant_chamber(w_add(lam_rho, beta))
        if dom is None:
            continue
        if not rs.is_dominant(dom, strict=True):
            raise AssertionError("regular orbit representative must be strictly dominant")
        acc[w_sub(dom, rs.two_rho)] += sign
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
    positive roots; each is reached from lam through dominant weights by
    subtracting one positive root at a time (Stembridge, "The partial order of
    dominant weights", 1998).  Multiplicities of non-dominant weights are
    looked up through their dominant orbit representative, which the root
    system memoises across tables.
    """
    rs = k_root_system(variant, n)
    top_norm = w_dot(lam, lam)
    candidates = {lam}
    frontier = [lam]
    while frontier:
        mu = frontier.pop()
        for alpha in rs.positive_roots:
            nu = shift(mu, alpha, -2)
            if nu not in candidates and rs.is_dominant(nu):
                if w_dot(nu, nu) > top_norm:
                    raise AssertionError("dominant weights below lam must lie in the ||lam|| ball")
                candidates.add(nu)
                frontier.append(nu)
    lam_rho = w_add(lam, rs.two_rho)
    c_top = w_dot(lam_rho, lam_rho)
    roots = [(alpha, sum(c * c for _, c in alpha)) for alpha in rs.positive_roots]
    mult: dict[Weight2, int] = {lam: 1}
    for w in sorted(candidates, key=lambda w: w_dot(w, rs.two_rho), reverse=True):
        if w == lam:
            continue
        w_rho = w_add(w, rs.two_rho)
        denom = c_top - w_dot(w_rho, w_rho)
        if denom <= 0:
            raise AssertionError("Freudenthal denominator must be positive below lam")
        total = 0
        w_norm = w_dot(w, w)
        for alpha, aa in roots:
            # walk up = w + 2k alpha (doubled) with norm = |up|^2 and p = <up, alpha>:
            # one step adds 4 (p + |alpha|^2) to the norm and 2 |alpha|^2 to p
            up, norm, p = w, w_norm, pair(w, alpha)
            while (norm := norm + 4 * (p + aa)) <= top_norm:  # the ||lam|| ball
                up = shift(up, alpha, 2)
                p += 2 * aa
                m_up = mult.get(rs.dominant_rep(up))
                if m_up:
                    total += m_up * 2 * p  # <up, 2 alpha> in doubled units
        m, rem = divmod(2 * total, denom)
        if rem or m < 0:
            raise AssertionError(f"non-integral Freudenthal multiplicity "
                                 f"{2 * total}/{denom} at doubled weight {w}")
        if m:
            mult[w] = m
    if sum(m * rs.orbit_size(w) for w, m in mult.items()) != rs.weyl_dim(lam):
        raise AssertionError("weight multiplicities do not sum to the Weyl dimension")
    return tuple(sorted(mult.items()))


# more peeled summands than this means the peeling is not terminating
MAX_PEEL = 512


def character_oracle(family: GroupFamily, lab: KTypeLabel) -> Decomposition:
    """Decompose by character arithmetic on the dominant chamber; intended for small labels.

    Characters are W-invariant, so each is held by its multiplicities at
    dominant weights.  For dominant mu, the multiplicity of mu in V_lam (x) p
    is the sum over the weights beta of p of m_lam(dominant_rep(mu - beta)),
    and every dominant weight of the product is dominant_rep(nu + beta) for a
    dominant weight nu of V_lam.
    """
    _check_supported(family)
    variant, n = family.variant, family.n
    rs = k_root_system(variant, n)
    lam = highest_weight(lab)
    betas = _p_weights(variant, n)
    m_lam = dict(_dominant_multiplicities(variant, n, lam))
    char: dict[Weight2, int] = {}
    for mu in {rs.dominant_rep(w_add(nu, beta)) for nu in m_lam for beta in betas}:
        m = sum(m_lam.get(rs.dominant_rep(w_sub(mu, beta)), 0) for beta in betas)
        if m:
            char[mu] = m
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
            push(w_add(lam, beta))
    return out


__all__ = [
    "Decomposition", "Summand", "AlgorithmViolation",
    "racah_speiser", "racah_speiser_weight",
    "character_oracle", "dimension_sum_check", "expected_summand_labels",
]
