import math
import random
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

from rankone import groups
from rankone.groups import GroupFamily, SpectralParam, f4, so, sp, su
from tests.references import (e_inverse_gamma_args, exceptional_grid_walk,
                              exceptional_in_interval_set, is_exceptional)

# One literal row per instance: (m_alpha, m_2alpha, rho_H, dim_p, sphere_dim).
STRUCTURE_TABLE = {
    ("SO", 2): (1, 0, Q(1, 2), 2, 1),
    ("SO", 3): (2, 0, Q(1), 3, 2),
    ("SO", 5): (4, 0, Q(2), 5, 4),
    ("SO", 10): (9, 0, Q(9, 2), 10, 9),
    ("SU", 2): (2, 1, Q(2), 4, 3),
    ("SU", 3): (4, 1, Q(3), 6, 5),
    ("SU", 8): (14, 1, Q(8), 16, 15),
    ("Sp", 2): (4, 3, Q(5), 8, 7),
    ("Sp", 6): (20, 3, Q(13), 24, 23),
    ("F4", None): (8, 7, Q(11), 16, 15),
}


@pytest.mark.parametrize("key,row", sorted(STRUCTURE_TABLE.items(), key=str))
def test_structural_table_rows(key, row):
    fam = GroupFamily(*key)
    sd = groups.structural_data(fam)
    assert (sd.m_alpha, sd.m_2alpha, sd.rho_H, sd.dim_p, sd.sphere_dim) == row


def test_family_validation():
    with pytest.raises(ValueError):
        GroupFamily("SO", 1)
    with pytest.raises(ValueError):
        GroupFamily("SU", 0)
    with pytest.raises(ValueError):
        GroupFamily("F4", 3)
    with pytest.raises(ValueError):
        GroupFamily("G2")
    assert str(sp(3)) == "Sp(3,1)"


def test_gamma_args_by_direct_substitution():
    # (m_alpha/2 + 1 + mu)/2 and (m_alpha/2 + m_2alpha + mu)/2
    assert e_inverse_gamma_args(so(3), SpectralParam(Q(0))) == (Q(1), Q(1, 2))
    assert e_inverse_gamma_args(su(2), SpectralParam(Q(-2))) == (Q(0), Q(0))
    assert e_inverse_gamma_args(sp(2), SpectralParam(Q(-3))) == (Q(0), Q(1))
    assert e_inverse_gamma_args(f4(), SpectralParam(Q(-5))) == (Q(0), Q(3))
    # the integer numerators the scan tests are these arguments times 4
    for fam in (so(2), so(5), su(3), sp(2), f4()):
        sd = groups.structural_data(fam)
        for t in range(-40, 5):
            a1, a2 = groups._gamma_numerators(sd, t)
            assert (Q(a1, 4), Q(a2, 4)) == e_inverse_gamma_args(fam, SpectralParam(Q(t, 2)))


@pytest.mark.parametrize("fam", [so(2), so(3), so(6), su(2), su(4), sp(2), sp(3), f4()])
def test_unitary_axis_and_positive_chamber_not_exceptional(fam):
    assert not is_exceptional(fam, SpectralParam(Q(0)))
    rho = groups.rho_H(fam)
    a1, a2 = e_inverse_gamma_args(fam, SpectralParam(rho))
    assert a1 > 0 and a2 > 0


def closed_mus(fam, count):
    """mu(H) of the first `count` exceptional parameters, from the doubled integers."""
    return [Q(t, 2) for t in groups.exceptional_doubled(fam, count)]


def scan(fam, lower, upper=Q(0)):
    """mu(H) in [lower, upper] flagged by the Gamma-pole scan over t = 2 mu(H).

    The scan ends at t = 0; no Gamma argument is a pole for t >= 0, which
    `scan_reference` confirms wherever upper > 0.
    """
    hi = math.floor(2 * upper)
    return [Q(t, 2) for t in groups.exceptional_in_interval(fam, math.ceil(2 * lower)) if t <= hi]


def test_exceptional_closed_forms():
    assert closed_mus(so(3), 3) == [-1, -2, -3]
    assert closed_mus(sp(2), 3) == [-3, -5, -7]
    assert closed_mus(f4(), 3) == [-5, -7, -9]
    assert closed_mus(su(2), 2) == [-2, -4]
    assert closed_mus(so(4), 2) == [Q(-3, 2), Q(-5, 2)]


def test_first_exceptional_is_minus_rho_for_so_su():
    for fam in (so(2), so(7), su(3)):
        assert groups.exceptional_mu(fam, 0).mu_H == -groups.rho_H(fam)


@pytest.mark.parametrize("fam", [so(n) for n in range(2, 11)]
                         + [su(n) for n in range(2, 9)]
                         + [sp(n) for n in range(2, 7)] + [f4()])
def test_dual_route_agreement(fam):
    bound = 60
    scanned = scan(fam, Q(-bound))
    closed = []
    ell = 0
    while True:
        mu = groups.exceptional_mu(fam, ell).mu_H
        if mu < -bound:
            break
        if mu <= 0:
            closed.append(mu)
        ell += 1
    assert sorted(scanned) == sorted(closed)
    for mu in closed:
        assert is_exceptional(fam, SpectralParam(mu))


@pytest.mark.parametrize("fam", [so(4), su(3), sp(5), f4()])
def test_structural_invariants(fam):
    sd = groups.structural_data(fam)
    assert sd.rho_H == Q(sd.m_alpha, 2) + sd.m_2alpha
    assert 2 * sd.rho_H == sd.m_alpha * 1 + sd.m_2alpha * 2
    assert sd.dim_p == sd.m_alpha + sd.m_2alpha + 1
    assert sd.sphere_dim == sd.dim_p - 1


def test_exceptional_params_decreasing():
    for fam in (so(5), su(4), sp(3), f4()):
        vals = closed_mus(fam, 6)
        assert all(a > b for a, b in zip(vals, vals[1:]))


def scan_reference(fam, lower, upper):
    """The Fraction predicate at every half-integer of [lower, upper], in increasing order."""
    lo, hi = math.ceil(2 * lower), math.floor(2 * upper)
    return [Q(t, 2) for t in range(lo, hi + 1) if is_exceptional(fam, SpectralParam(Q(t, 2)))]


def test_scan_from_off_grid_lower_bound():
    # 2 * (-7/3) is not an integer: the scan starts at the next half-integer
    assert scan(so(3), Q(-7, 3)) == [-2, -1]
    assert scan(f4(), Q(-29, 3), Q(-26, 5)) == [-9, -7]


def test_scan_matches_predicate_reference():
    rng = random.Random(2112)
    fams = ([so(n) for n in range(2, 13)] + [su(n) for n in range(2, 13)]
            + [sp(n) for n in range(2, 13)] + [f4()])
    for fam in fams:
        for _ in range(8):
            lower = Q(rng.randint(-400, 40), rng.randint(1, 9))
            upper = lower + Q(rng.randint(-5, 200), rng.randint(1, 9))
            assert scan(fam, lower, upper) == scan_reference(fam, lower, upper)


def test_integer_route_matches_fraction_routes():
    # the doubled integers of both routes against the Fraction closed form and predicate
    rng = random.Random(4711)
    fams = [so(n) for n in range(2, 11)] + [su(n) for n in range(2, 9)] + [sp(n) for n in range(2, 7)]
    for fam in rng.sample(fams, 12) + [f4()]:
        count = rng.randint(1, 400)
        doubled = groups.exceptional_doubled(fam, count)
        assert [Q(t, 2) for t in doubled] == [groups.exceptional_mu(fam, ell).mu_H
                                              for ell in range(count)]
        scanned = groups.exceptional_in_interval(fam, doubled[-1])
        assert scanned[::-1] == doubled
        assert [Q(t, 2) for t in scanned] == scan_reference(fam, Q(doubled[-1], 2), Q(0))


def test_pole_progressions_match_the_grid_walk():
    # every family up to n = 200; lo at -2000, at 5, above the first pole, at
    # it, between the first two poles and at seeded points of [-2000, 5]
    rng = random.Random(22)
    fams = [GroupFamily(v, n) for v in ("SO", "SU", "Sp") for n in range(2, 201)] + [f4()]
    for fam in fams:
        first = groups.exceptional_doubled(fam, 1)[0]
        los = {-2000, 5, first + 1, first, first - 1, *(rng.randint(-2000, 5) for _ in range(3))}
        for lo in sorted(los):
            assert groups.exceptional_in_interval(fam, lo) == exceptional_grid_walk(fam, lo), (fam, lo)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(variant=st.sampled_from(groups.VARIANTS), n=st.integers(2, 300), lo=st.integers(-4000, 5))
def test_pole_runs_merge_to_the_sorted_union(variant, n, lo):
    # at most two ascending runs, one per residue mod 4, against the set of
    # every numerator's progression
    fam = f4() if variant == "F4" else GroupFamily(variant, n)
    assert groups.exceptional_in_interval(fam, lo) == exceptional_in_interval_set(fam, lo)


@pytest.mark.parametrize("fam", [so(10 ** 9), su(10 ** 9), sp(10 ** 9)], ids=str)
def test_scan_at_a_rank_the_grid_walk_cannot_reach(fam):
    # the poles start at or below 1 - 10**9: a walk over [lo, 0] would test
    # every one of those 10**9 integers
    closed = groups.exceptional_doubled(fam, 6)
    assert closed[0] <= 1 - 10 ** 9
    assert groups.exceptional_in_interval(fam, closed[-1]) == closed[::-1]
