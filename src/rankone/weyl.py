"""Root systems and Weyl group combinatorics for the maximal compact subgroups.

Weights live in the e_i coordinates fixed by the classical conventions:
K = SO(2m+1) or SO(2m) for SO(n,1); K = U(n) (coordinates e_1..e_n plus the
central e_{n+1}) for SU(n,1); K = Sp(n) x Sp(1) (e_1..e_n plus e_{n+1} for the
Sp(1) factor) for Sp(n,1); K = Spin(9) for F4.

Every weight the library builds has coordinates in (1/2)Z, so there is one
weight format, the doubled weight `Weight2`: the int tuple 2w.  `ktypes`,
`tensor` and every RootSystem method take and return doubled weights; only a
report halves them for display.  The Weyl groups are all signed-permutation
groups, so each root system is stated by its kind and rank alone: 2 rho has a
closed form per kind, orbit sizes are |W| over the stabiliser rather than
counted, and the Weyl dimension multiplies only the factors of the roots
e_i +- e_j, e_i, 2 e_i that meet the support of the weight (Fulton-Harris,
Representation Theory, Lecture 24), O(rank) for the weights of bounded
support that the families use.

The two routes of `tensor` read different kernels here.  Racah-Speiser reads
only `to_dominant_chamber`, which takes the base lam + 2 rho and one weight of
p as a sparse shift, O(1) per weight of p, and is not memoised; it and the
closed form of `tensor` read the chamber walls from `wall_gap`, which compares
only the coordinates a shift moves.  The Freudenthal oracle reads neither.  It
reads the positive roots, stored sparsely as ((index, coefficient), ...) with
int coefficients and enumerated only on first access, which only the oracle
makes, with their squared lengths in `root_norms`; and it asks for the same
dominant representatives, orbit sizes and dominant weights below a highest
weight many times, so `dominant_rep`, `orbit_size`, the dominant children
that the walk of `dominant_weights_below` expands, and `weyl_dim` are
`functools.cache` methods, which grow only with the distinct weights a
process asks about.
w_add and w_dot run through `map`, which stops at the shorter argument, so
they check the lengths first.
"""
from __future__ import annotations

from collections import Counter
from functools import cache, cached_property, lru_cache
from itertools import combinations
from math import factorial, prod
from operator import add, ge, mul

Weight2 = tuple[int, ...]  # doubled-integer weight 2w
Root = tuple[tuple[int, int], ...]  # sparse: ((index, coefficient), ...)


def w_add(a, b):
    if len(a) != len(b):
        raise ValueError(f"weights of lengths {len(a)} and {len(b)}")
    return tuple(map(add, a, b))


def w_dot(a, b):
    if len(a) != len(b):
        raise ValueError(f"weights of lengths {len(a)} and {len(b)}")
    return sum(map(mul, a, b))


def pair(w, alpha: Root):
    """<w, alpha> for a sparse root."""
    total = 0
    for i, c in alpha:  # a loop, not sum over a generator: a root has one or two entries
        total += c * w[i]
    return total


def shift(w, alpha: Root, k: int):
    """w + k alpha for a sparse root."""
    v = list(w)
    for i, c in alpha:
        v[i] += k * c
    return tuple(v)


class RootSystem:
    """The root system of K, stated by its kind, rank and 2 rho, with the
    signed-permutation Weyl action.

    kind selects the chamber combinatorics and the positive roots:
      "B"  -- signed permutations of all coordinates (SO(odd), Spin(9)),
      "D"  -- signed permutations with an even number of sign changes,
      "A"  -- permutations of the first `rank` coordinates, the trailing
              central coordinate is fixed (U(n)),
      "CC" -- signed permutations of the first `rank` coordinates and an
              independent sign flip on the last one (Sp(n) x Sp(1)).
    The positive roots are e_i - e_j (i < j < rank), plus e_i + e_j for B, D
    and CC, e_i for B, and 2 e_i (i <= rank, the last one the Sp(1) root) for CC.

    A plain class that compares and hashes by identity.  Its memos are the
    `functools.cache` methods, keyed by (system, weight); the factories below
    build each system once and keep it alive, so the caches keep nothing alive
    that the factories do not.  They key weights by value, and Fraction(2) == 2,
    so a caller passing Fractions would share entries with the int weights.
    """

    def __init__(self, kind: str, rank: int, dim: int, two_rho: Weight2):
        self.kind = kind
        self.rank = rank  # number of permuted coordinates
        self.dim = dim  # total coordinate length
        self.two_rho = two_rho

    @cached_property
    def positive_roots(self) -> tuple[Root, ...]:
        """Every positive root, sparse, in the order e_i - e_j, e_i + e_j, e_i or 2 e_i;
        about rank^2 of them, built on first access."""
        pairs = list(combinations(range(self.rank), 2))
        roots = [((i, 1), (j, -1)) for i, j in pairs]
        if self.kind != "A":
            roots += [((i, 1), (j, 1)) for i, j in pairs]
        if self.kind == "B":
            roots += [((i, 1),) for i in range(self.rank)]
        if self.kind == "CC":
            roots += [((i, 2),) for i in range(self.rank + 1)]
        return tuple(roots)

    @cached_property
    def root_norms(self) -> tuple[tuple[Root, int], ...]:
        """(alpha, |alpha|^2) for every positive root alpha, in that order."""
        return tuple((alpha, sum(c * c for _, c in alpha)) for alpha in self.positive_roots)

    # -- chamber tests ------------------------------------------------------

    def is_dominant(self, w: Weight2) -> bool:
        """w is in the closed dominant chamber: the head weakly decreases, for D
        down to |last| (D1 has no roots), for B and CC down to 0, and CC's last
        coordinate is nonnegative too."""
        head = w[: self.rank]
        if self.kind == "D":
            if self.rank < 2:
                return True
            head = head[:-1] + (abs(head[-1]),)
        elif self.kind != "A":
            head += (0,)
            if self.kind == "CC" and w[-1] < 0:
                return False
        return all(map(ge, head, head[1:]))

    def wall_gap(self, base: Weight2, moved: dict[int, int]) -> int:
        """The least distance, capped at 1, from each coordinate of `moved`
        ({index: value}, replacing those of base) to the wall it meets: its
        neighbours, D's second-last against |last|, B's and CC's last against
        0, and CC's Sp(1) coordinate against 0.  A dominant base stays dominant
        iff the gap is at least 0.  O(|moved|) comparisons, no dense weight.
        """
        rank, kind = self.rank, self.kind
        last = rank - 1
        at = moved.get
        gap = 1
        for i, x in moved.items():  # `if d < gap`, not min(): this runs once per weight of p
            if i > last:  # CC's Sp(1) coordinate stays above 0, A's central one is free
                if kind == "CC" and x < gap:
                    gap = x
                continue
            if i:  # the coordinate above, which D compares with |last|
                d = at(i - 1, base[i - 1]) - (abs(x) if kind == "D" and i == last else x)
                if d < gap:
                    gap = d
            if i < last:  # the coordinate below
                lower = at(i + 1, base[i + 1])
                d = x - (abs(lower) if kind == "D" and i + 1 == last else lower)
                if d < gap:
                    gap = d
            elif kind in ("B", "CC") and x < gap:  # the last stays above 0
                gap = x
        return gap

    # -- Racah-Speiser kernel -------------------------------------------------

    def to_dominant_chamber(self, base: Weight2, beta: Root):
        """The chamber representative of base + beta with the sign of the Weyl
        element, for a sparse shift beta of a Racah-Speiser base.

        base must be lam + 2 rho for a dominant lam: its permuted coordinates
        are then at least 2 apart, B's last is at least 1 and D's second-last
        at least 2 above |last|.  Every weight of p moves a coordinate by at
        most 2 and two neighbours apart by at most 2, so a moved coordinate can
        only land on a wall (`wall_gap` 0) or, for B, pass 0, which the
        reflection in e_rank undoes with sign -1.  Each beta costs O(|beta|)
        comparisons and no dense weight: returns (moves, sign) with base +
        moves (sparse, like a root) the representative, or (None, 0) on a
        wall.  A coordinate that would pass its neighbour breaks the
        precondition and raises AssertionError.
        """
        last = self.rank - 1
        moved = {i: base[i] + d for i, d in beta}
        sign = 1
        if self.kind == "B" and moved.get(last, 0) < 0:  # the reflection in e_rank
            moved[last] = -moved[last]
            sign = -1
        gap = self.wall_gap(base, moved)
        if gap < 0:
            raise AssertionError("regular orbit representative must be strictly dominant")
        if gap == 0:
            return None, 0
        return tuple((i, x - base[i]) for i, x in moved.items()), sign

    # -- oracle kernels, memoised -------------------------------------------

    @cache
    def dominant_rep(self, w: Weight2) -> Weight2:
        """The dominant element of the Weyl orbit of w (no sign tracking)."""
        head, tail = w[: self.rank], w[self.rank:]
        if self.kind == "A":
            return tuple(sorted(head, reverse=True)) + tail
        if self.kind == "CC":
            tail = (abs(tail[0]),)
        out = sorted(map(abs, head), reverse=True)
        if self.kind == "D" and out[-1] and sum(x < 0 for x in head) % 2:
            out[-1] = -out[-1]
        return tuple(out) + tail

    @cache
    def orbit_size(self, w: Weight2) -> int:
        """The size of the Weyl orbit of w: |W| over the order of the stabiliser.

        Among signed permutations the stabiliser permutes equal |w_i| and flips
        the signs of zero coordinates.  D keeps only the even sign changes, which
        halves |W|, and halves the stabiliser too when w has a zero, since
        flipping that zero evens out any other sign change.
        """
        head = w[: self.rank]
        if self.kind == "A":
            return factorial(self.rank) // prod(factorial(k) for k in Counter(head).values())
        counts = Counter(map(abs, head))
        zeros = counts.pop(0, 0)
        order = 2 ** self.rank * factorial(self.rank)
        stab = prod(factorial(k) for k in counts.values()) * factorial(zeros) * 2 ** zeros
        if self.kind == "D":
            order //= 2
            if zeros:
                stab //= 2
        if self.kind == "CC":  # the independent sign of the Sp(1) coordinate
            order *= 2
            if not w[-1]:
                stab *= 2
        return order // stab

    def dominant_weights_below(self, mu: Weight2) -> set[Weight2]:
        """The dominant weights nu <= mu of the dominant weight mu.

        Each is reached from mu through dominant weights by subtracting one
        positive root at a time (Stembridge, "The partial order of dominant
        weights", 1998).  The walk runs from an explicit stack and memoises the
        dominant children mu - alpha of each weight it expands, so each
        dominant weight is expanded once per root system, whichever highest
        weight first reached it; the memo holds the edges of the walk, not a
        set per weight, which would grow with the square of its depth.
        """
        children = self._dominant_children
        seen = {mu}
        stack = [mu]
        while stack:
            for nu in children(stack.pop()):
                if nu not in seen:
                    seen.add(nu)
                    stack.append(nu)
        return seen

    @cache
    def _dominant_children(self, mu: Weight2) -> tuple[Weight2, ...]:
        """The dominant mu - alpha over the positive roots alpha.  Dominant
        nu <= mu have |nu| <= |mu|, since |mu|^2 - |nu|^2 = <mu - nu, mu + nu>;
        each child is checked for it, so every dominant weight below a highest
        weight lies in its ball."""
        norm = w_dot(mu, mu)
        out = []
        for alpha in self.positive_roots:
            nu = shift(mu, alpha, -2)
            if self.is_dominant(nu):
                if w_dot(nu, nu) > norm:
                    raise AssertionError("dominant weights below lam must lie in the ||lam|| ball")
                out.append(nu)
        return tuple(out)

    # -- Weyl dimension formula ---------------------------------------------

    @cache
    def weyl_dim(self, lam: Weight2) -> int:
        """Dimension of the K-type with doubled highest weight lam = 2 lambda.

        prod <lambda + rho, a> / <rho, a> over positive roots a, computed as
        <lam + 2 rho, a> / <2 rho, a>.  A root orthogonal to lam contributes
        the factor 1 and is skipped, as is every root that meets no coordinate
        of supp(lam).  What is left are the roots e_i +- e_j with i in the
        support (each pair met once), e_i (B) and 2 e_i (CC) on the support,
        and the Sp(1) root 2 e_rank (CC): O(rank |supp(lam)|) factors.  A
        ValueError is raised afresh on every call, since a cache stores only
        returned values.
        """
        if not self.is_dominant(lam):
            raise ValueError(f"doubled weight {lam} is not dominant")
        rho, rank, kind = self.two_rho, self.rank, self.kind
        num = den = 1
        for i in range(rank):
            if not lam[i]:
                continue
            for j in range(rank):
                if j == i or (j < i and lam[j]):  # that pair was met from j
                    continue
                a, b = (i, j) if i < j else (j, i)
                if lam[a] != lam[b]:  # e_a - e_b
                    num *= lam[a] - lam[b] + rho[a] - rho[b]
                    den *= rho[a] - rho[b]
                if kind != "A" and lam[a] != -lam[b]:  # e_a + e_b
                    num *= lam[a] + lam[b] + rho[a] + rho[b]
                    den *= rho[a] + rho[b]
            if kind == "B":  # e_i
                num *= lam[i] + rho[i]
                den *= rho[i]
            elif kind == "CC":  # 2 e_i
                num *= 2 * (lam[i] + rho[i])
                den *= 2 * rho[i]
        if kind == "CC" and lam[rank]:  # 2 e_rank, the root of Sp(1)
            num *= 2 * (lam[rank] + rho[rank])
            den *= 2 * rho[rank]
        d, rem = divmod(num, den)
        if rem:
            raise ValueError(f"Weyl dimension of doubled weight {lam} is not integral")
        return d


# 2 rho, the sum of the positive roots, per kind (coordinate i counted from 0):
# e_i - e_j gives rank - 1 - 2i, e_i + e_j adds rank - 1, e_i adds 1 and 2 e_i adds 2.


@lru_cache(maxsize=None)
def type_b(m: int) -> RootSystem:
    """B_m: 2 rho = (2m - 1, ..., 3, 1)."""
    return RootSystem("B", m, m, tuple(range(2 * m - 1, 0, -2)))


@lru_cache(maxsize=None)
def type_d(m: int) -> RootSystem:
    """D_m: 2 rho = (2m - 2, ..., 2, 0)."""
    return RootSystem("D", m, m, tuple(range(2 * m - 2, -1, -2)))


@lru_cache(maxsize=None)
def type_a_u(n: int) -> RootSystem:
    """U(n): type A_{n-1} on e_1..e_n with the inert central coordinate e_{n+1};
    2 rho = (n - 1, n - 3, ..., 1 - n, 0)."""
    return RootSystem("A", n, n + 1, tuple(range(n - 1, -n, -2)) + (0,))


@lru_cache(maxsize=None)
def type_c_c1(n: int) -> RootSystem:
    """Sp(n) x Sp(1): type C_n on e_1..e_n, type C_1 on e_{n+1};
    2 rho = (2n, ..., 4, 2, 2)."""
    return RootSystem("CC", n, n + 1, tuple(range(2 * n, 0, -2)) + (2,))


KINDS = {"B": type_b, "D": type_d, "A": type_a_u, "CC": type_c_c1}

# variant: (kind for even n, for odd n, a, b), rank (a n) // 2 + b; F4 reads n as 0, SO(2) is D1.
K_ROWS = {"SO": ("D", "B", 1, 0), "SU": ("A", "A", 2, 0), "Sp": ("CC", "CC", 2, 0),
          "F4": ("B", "B", 0, 4)}


@lru_cache(maxsize=None)
def k_root_system(variant: str, n: int | None) -> RootSystem:
    """Root system of K for one family instance."""
    even, odd, a, b = K_ROWS[variant]
    n = n or 0
    return KINDS[odd if n % 2 else even]((a * n) // 2 + b)
