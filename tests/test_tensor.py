from fractions import Fraction as Q

import pytest

from rankone.groups import UnsupportedFamilyError, f4, so, sp, structural_data, su
from rankone.ktypes import highest_weight, label, labels, weyl_dim
from rankone.tensor import (character_oracle, dimension_sum_check, expected_summand_labels,
                            racah_speiser, racah_speiser_weight, weights_of_p)
from rankone.weyl import wt


FAMILIES = ([so(n) for n in range(3, 9)] + [su(n) for n in range(2, 6)]
            + [sp(n) for n in range(2, 5)] + [f4()])
ORACLE_FAMILIES = ([so(n) for n in range(3, 9)] + [su(n) for n in range(2, 5)]
                   + [sp(2), sp(3), f4()])  # rank of K at most 4


def test_weights_of_p_counts():
    assert set(weights_of_p(so(5))) == {wt(1, 0), wt(-1, 0), wt(0, 1), wt(0, -1), wt(0, 0)}
    sp2 = weights_of_p(sp(2))
    assert len(sp2) == 8 and wt(1, 0, 1) in sp2 and wt(0, -1, 1) in sp2
    assert len(weights_of_p(f4())) == 16
    assert all(abs(c) == Q(1, 2) for w in weights_of_p(f4()) for c in w)
    for fam in FAMILIES:
        assert sum(weights_of_p(fam).values()) == structural_data(fam).dim_p


def test_so2_unsupported():
    with pytest.raises(UnsupportedFamilyError):
        weights_of_p(so(2))
    with pytest.raises(UnsupportedFamilyError):
        racah_speiser(so(2), label(so(2), 1))


def test_so_odd_stated_form():
    fam = so(5)
    for k in range(1, 8):
        dec = racah_speiser(fam, label(fam, k))
        assert dec.weights() == {wt(k - 1, 0), wt(k + 1, 0), wt(k, 1)}
        flags = {s.weight: s.m_spherical for s in dec.summands}
        assert flags[wt(k, 1)] is False
        assert flags[wt(k - 1, 0)] and flags[wt(k + 1, 0)]


def test_so3_special_case():
    fam = so(3)
    for k in range(1, 8):
        assert racah_speiser(fam, label(fam, k)).weights() == {wt(k - 1), wt(k), wt(k + 1)}
    assert racah_speiser(fam, label(fam, 0)).weights() == {wt(1)}


def test_so4_has_both_chiral_middle_summands():
    fam = so(4)
    for k in range(1, 6):
        dec = racah_speiser(fam, label(fam, k))
        assert dec.weights() == {wt(k - 1, 0), wt(k + 1, 0), wt(k, 1), wt(k, -1)}
        assert dimension_sum_check(fam, label(fam, k))


def test_su_six_summand_form():
    fam = su(3)
    for p in range(1, 5):
        for q in range(1, 5):
            dec = racah_speiser(fam, label(fam, p, q))
            spherical = {highest_weight(label(fam, a, b))
                         for a, b in ((p + 1, q), (p - 1, q), (p, q + 1), (p, q - 1))}
            v1 = wt(q, 1, -p, p - q - 1)
            v2 = wt(q, -1, -p, p - q + 1)
            assert dec.weights() == spherical | {v1, v2}
            flags = {s.weight: s.m_spherical for s in dec.summands}
            assert not flags[v1] and not flags[v2]


def test_trivial_type_gives_p_itself():
    for fam in FAMILIES:
        triv = label(fam, *((0,) if fam.variant == "SO" else (0, 0)))
        dec = racah_speiser(fam, triv)
        p_weight = {
            "SO": wt(*([1] + [0] * (fam.n // 2 - 1))) if fam.n else None,
            "SU": wt(*([1] + [0] * (fam.n - 2) + [0, -1])) if fam.variant == "SU" else None,
        }
        total = sum(s.multiplicity * weyl_dim(fam, s.weight) for s in dec.summands)
        assert total == structural_data(fam).dim_p
        if fam.variant == "SO":
            assert dec.weights() == {p_weight["SO"]}


@pytest.mark.parametrize("fam", FAMILIES)
def test_closed_form_multiplicity_and_dimension(fam):
    for lab in labels(fam, 10):
        dec = racah_speiser(fam, lab)
        assert dec.weights() == expected_summand_labels(fam, lab), lab
        assert all(s.multiplicity == 1 for s in dec.summands), lab
        assert dimension_sum_check(fam, lab), lab


@pytest.mark.parametrize("fam", ORACLE_FAMILIES)
def test_character_oracle_agrees(fam):
    for lab in labels(fam, 4):
        rs = racah_speiser(fam, lab)
        oracle = character_oracle(fam, lab)
        assert rs.weights() == oracle.weights(), lab
        assert {s.weight: s.multiplicity for s in rs.summands} \
            == {s.weight: s.multiplicity for s in oracle.summands}, lab


@pytest.mark.parametrize("fam", [so(4), so(5), so(6), su(2), su(3), sp(2), f4()])
def test_adjacency_symmetry(fam):
    # V <= Y (x) p iff Y <= V (x) p, also through non-spherical summands
    for lab in labels(fam, 6):
        lam = highest_weight(lab)
        for s in racah_speiser(fam, lab).summands:
            assert lam in racah_speiser_weight(fam, s.weight).weights(), (lab, s.weight)


def test_racah_speiser_weight_rejects_non_dominant():
    with pytest.raises(ValueError):
        racah_speiser_weight(su(3), wt(0, 1, 0, -1))
