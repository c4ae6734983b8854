import random
from fractions import Fraction as Q
from math import gcd

import pytest

from rankone import hypergeom
from rankone.hypergeom import RELATION_IDS, check_contiguous, f21
from tests.references import coeffs, degree, derivative, f21_eval, peq, pscale


def pochhammer(q, n: int) -> Q:
    """Reference rising factorial (q)_n = q (q+1) ... (q+n-1), with (q)_0 = 1."""
    if n < 0:
        raise ValueError("pochhammer needs n >= 0")
    q = Q(q)
    out = Q(1)
    for i in range(n):
        out *= q + i
    return out


def f21_series_value(a, b, c, z, terms: int) -> Q:
    """Reference partial sum of the series, independent of the coefficient recursion."""
    a, b, c, z = map(Q, (a, b, c, z))
    total = Q(0)
    for j in range(terms):
        fact = pochhammer(1, j)
        total += pochhammer(a, j) * pochhammer(b, j) / (pochhammer(c, j) * fact) * z**j
    return total


def test_pochhammer():
    assert pochhammer(Q(5, 7), 0) == 1
    assert pochhammer(-2, 3) == 0
    assert pochhammer(Q(1, 2), 2) == Q(3, 4)
    assert pochhammer(3, 4) == 3 * 4 * 5 * 6


def test_f21_degenerate_series():
    assert coeffs(f21(0, Q(7, 3), Q(1, 2))) == (1,)
    assert coeffs(f21(-1, Q(3), Q(2))) == (1, Q(-3, 2))
    assert coeffs(f21(-2, -1, 4)) == (1, Q(1, 2))  # terminates at the shorter parameter


@pytest.mark.parametrize("a,b,c", [(-2, -1, 4), (-3, Q(5, 2), Q(7, 2)), (-5, -5, 3),
                                   (Q(9, 4), -4, Q(1, 2))])
def test_f21_matches_direct_series(a, b, c):
    poly = f21(a, b, c)
    for z in (Q(0), Q(1), Q(-1), Q(2, 3), Q(-7, 5)):
        assert f21_eval(poly, z) == f21_series_value(a, b, c, z, degree(poly) + 5)


def test_f21_rejects_bad_parameters():
    with pytest.raises(ValueError):
        f21(Q(1, 2), Q(1, 3), 1)  # does not terminate
    with pytest.raises(ValueError):
        f21(-3, 5, -1)  # (c)_j hits zero before termination
    f21(-3, 5, -4)  # pole beyond the degree is fine


def test_eval_and_derivative_examples():
    assert f21_eval(f21(0, Q(11, 3), 2), Q(17, 5)) == 1
    assert f21_eval(f21(-1, 1, 2), 1) == Q(1, 2)
    b, c = Q(7, 2), Q(9, 2)
    lhs = derivative(f21(-2, b, c))
    rhs = pscale(coeffs(f21(-1, b + 1, c + 1)), -2 * b / c)
    assert peq(lhs, rhs)


def test_contiguous_examples():
    assert check_contiguous("ii", -3, -2, Q(7, 2))
    assert check_contiguous("iii", -2, -1, 3)
    # a = 0 degenerates relation iv to 0 = 0
    assert check_contiguous("iv", 0, -3, Q(5, 2))
    with pytest.raises(ValueError):
        check_contiguous("vi", -1, -1, 1)


def _seeded_triples(count=200, seed=20240817):
    rng = random.Random(seed)
    cs = [Q(j, 2) for j in range(1, 10)] + [Q(j) for j in range(1, 7)]
    triples = []
    while len(triples) < count:
        a = Q(-rng.randint(1, 8))
        if rng.random() < 0.5:
            b = Q(-rng.randint(0, 6))
        else:
            b = Q(rng.randint(-12, 12), rng.choice((1, 2, 3)))
        c = rng.choice(cs)
        triples.append((a, b, c))
    return triples


@pytest.mark.parametrize("relation", RELATION_IDS)
def test_all_relations_on_seeded_triples(relation):
    for a, b, c in _seeded_triples():
        assert check_contiguous(relation, a, b, c), (relation, a, b, c)


def test_derivative_matches_relation_everywhere_it_terminates():
    for a, b, c in _seeded_triples(60, seed=7):
        lhs = derivative(f21(a, b, c))
        rhs = pscale(coeffs(f21(a + 1, b + 1, c + 1)), a * b / c)
        assert peq(lhs, rhs)


def test_coefficients_are_pochhammer_ratios():
    a, b, c = Q(-4), Q(5, 3), Q(7, 2)
    poly = f21(a, b, c)
    for j, coeff in enumerate(coeffs(poly)):
        expected = pochhammer(a, j) * pochhammer(b, j) / (pochhammer(c, j) * pochhammer(1, j))
        assert coeff == expected
    assert coeffs(poly)[0] == 1


def _random_rational(rng, span=40):
    return Q(rng.randint(-span, span), rng.randint(1, 7))


def test_f21_integer_storage_on_seeded_rationals():
    """coeffs equal the Pochhammer ratios, and nums/den are in lowest terms."""
    rng = random.Random(20261018)
    for _ in range(300):
        a, b = Q(-rng.randint(0, 9)), _random_rational(rng)
        if rng.random() < 0.5:
            a, b = b, a  # the terminating parameter in either slot
        c = _random_rational(rng)
        while c.denominator == 1 and c <= 0:  # keep c off the poles of (c)_j
            c = _random_rational(rng)
        deg = int(min(-x for x in (a, b) if x.denominator == 1 and x <= 0))
        poly = f21(a, b, c)
        expected = tuple(pochhammer(a, j) * pochhammer(b, j) / (pochhammer(c, j) * pochhammer(1, j))
                         for j in range(deg + 1))
        assert coeffs(poly) == expected, (a, b, c)
        assert poly.den > 0 and poly.nums[0] == poly.den
        assert gcd(poly.den, *poly.nums) == 1, (a, b, c)


# (relation, the right-hand factor F(a+da, b+db, c+dc) as offsets)
_RHS_FACTORS = [("i", (1, 1, 1)), ("ii", (1, 0, 0)), ("iii", (0, 1, 0)),
                ("iv", (1, 1, 1)), ("v", (1, 1, 1))]


@pytest.mark.parametrize("relation,offsets", _RHS_FACTORS)
def test_contiguous_relation_fails_with_a_shifted_parameter(monkeypatch, relation, offsets):
    """Shifting c of one factor by 1 must break the integer check, so it cannot pass vacuously."""
    a, b, c = Q(-3), Q(5, 2), Q(7, 2)
    assert check_contiguous(relation, a, b, c)
    target = (a + offsets[0], b + offsets[1], c + offsets[2])
    real = hypergeom.f21

    def shifted(x, y, z):
        if (x, y, z) == target:
            return real(x, y, z + 1)
        return real(x, y, z)

    monkeypatch.setattr(hypergeom, "f21", shifted)
    assert not check_contiguous(relation, a, b, c)
