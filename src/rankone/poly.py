"""Dense univariate polynomials as coefficient lists (ascending powers).

The helpers are generic over the coefficient ring: sums are seeded with the
int 0, so int lists stay in Z[z] and `Fraction` lists stay in Q[z].  The exact
identities clear their denominators once with `pclear` and then run on ints.
"""
from __future__ import annotations

from math import comb, lcm

Poly = list  # coefficients: int or Fraction


def trim(p: Poly) -> Poly:
    while p and p[-1] == 0:
        p = p[:-1]
    return p


def pmul(p: Poly, q: Poly) -> Poly:
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return trim(out)


def binomial_row(k: int) -> Poly:
    """(1 - z)^k as its signed integer binomial coefficients (-1)^i C(k, i)."""
    return [-comb(k, i) if i % 2 else comb(k, i) for i in range(k + 1)]


def peval(p: Poly, x):
    """Horner evaluation at x; a float array x is evaluated elementwise."""
    acc = 0
    for c in reversed(p):
        acc = acc * x + c
    return acc


def pderiv(p: Poly) -> Poly:
    return trim([i * c for i, c in enumerate(p)][1:])


def pclear(terms) -> Poly:
    """L * sum(num / den * p) in Z[u], for (int num, int den, integer poly p) terms.

    L is the lcm of the denominators, so the result is zero exactly when the
    rational combination is.
    """
    big = lcm(*(den for _, den, _ in terms))
    out = [0] * max((len(p) for _, _, p in terms), default=0)
    for num, den, p in terms:
        scale = num * (big // den)
        for i, x in enumerate(p):
            out[i] += scale * x
    return trim(out)
