import random
from fractions import Fraction as Q
from itertools import product
from math import comb

import pytest

from rankone import ktypes
from rankone.groups import exceptional_mu, f4, rho_H, so, sp, su, SpectralParam
from rankone.ktypes import (KTypeLabel, casimir_scalar, highest_weight, label,
                            label_from_weight, labels, langlands, minimal_ktype,
                            minimal_ktype_closed, mintype_norm, rho_c, socle_contains,
                            weyl_dim)
from rankone.weyl import wt


# Closed-form dimensions used as independent oracles.

def dim_so(n, k):
    return comb(n + k - 3, k) * (n + 2 * k - 2) // (n - 2)


def dim_su(n, p, q):
    return comb(q + n - 2, n - 2) * comb(p + n - 2, n - 2) * (n + p + q - 1) // (n - 1)


def dim_sp(n, a, b):
    num = (a + b + 2 * n - 1) * (a - b + 1) ** 2 * comb(a + 2 * n - 2, 2 * n - 3) \
        * comb(b + 2 * n - 3, 2 * n - 3)
    den = (2 * n - 1) * (2 * n - 2)
    assert num % den == 0
    return num // den


def dim_f4(m, k):
    a = [Q(m, 2), Q(k, 2), Q(k, 2), Q(k, 2)]
    val = Q(1)
    for i in range(4):
        for j in range(i + 1, 4):
            val *= (a[i] + a[j] + 9 - (i + 1) - (j + 1)) * (a[i] - a[j] + (j + 1) - (i + 1))
    for i in range(4):
        val *= 9 + 2 * (a[i] - (i + 1))
    val /= 720 * 24 * 2 * 7 * 5 * 3
    assert val.denominator == 1
    return int(val)


def test_label_validation():
    with pytest.raises(ValueError):
        label(so(5), -1)
    label(so(2), -4)  # signed labels only for SO(2,1)
    with pytest.raises(ValueError):
        label(sp(2), 1, 2)
    with pytest.raises(ValueError):
        label(f4(), 3, 2)  # parity
    with pytest.raises(ValueError):
        label(su(3), -1, 0)


def test_highest_weights():
    assert highest_weight(label(so(5), 2)) == wt(2, 0)
    assert highest_weight(label(su(3), 1, 2)) == wt(2, 0, -1, -1)
    assert highest_weight(label(f4(), 2, 0)) == wt(1, 0, 0, 0)
    assert highest_weight(label(sp(2), 2, 1)) == wt(2, 1, 1)
    assert highest_weight(label(so(2), -3)) == wt(-3)


# The lattice rule and the label counts, written out independently of KTypeLabel.

def in_lattice(fam, c):
    if fam.variant == "SO":
        return fam.n == 2 or c[0] >= 0
    if fam.variant == "SU":
        return min(c) >= 0
    if fam.variant == "Sp":
        return c[0] >= c[1] >= 0
    return c[0] >= c[1] >= 0 and (c[0] - c[1]) % 2 == 0


def label_count(fam, b):
    if fam.variant == "SO":
        return 2 * b + 1 if fam.n == 2 else b + 1
    if fam.variant == "SU":
        return (b + 1) ** 2
    if fam.variant == "Sp":
        return (b + 1) * (b + 2) // 2
    return sum(m // 2 + 1 for m in range(b + 1))


LATTICE_FAMILIES = [so(2), so(3), so(6), su(2), su(4), sp(2), sp(3), f4()]


@pytest.mark.parametrize("fam", LATTICE_FAMILIES, ids=str)
def test_labels_are_the_lattice_box(fam):
    rank = 1 if fam.variant == "SO" else 2
    lo = -1 if fam == so(2) else 0
    for b in range(9):
        listed = labels(fam, b)
        assert len(listed) == label_count(fam, b)
        assert all(isinstance(lab, KTypeLabel) and lab.family == fam for lab in listed)
        box = product(range(lo * b, b + 1), repeat=rank)
        assert [lab.coords for lab in listed] == [c for c in box if in_lattice(fam, c)]
    (triv,) = labels(fam, 0)
    assert triv.coords == (0,) * rank and weyl_dim(fam, triv) == 1


def _random_label(rng, fam, top):
    if fam.variant == "SO":
        return label(fam, rng.randint(-top if fam.n == 2 else 0, top))
    if fam.variant == "SU":
        return label(fam, rng.randint(0, top), rng.randint(0, top))
    if fam.variant == "Sp":
        a = rng.randint(0, top)
        return label(fam, a, rng.randint(0, a))
    k = rng.randint(0, top)
    return label(fam, k + 2 * rng.randint(0, top // 2), k)


def _perturbed(w):
    for i in range(len(w)):
        for delta in (Q(1, 2), Q(-1, 2), Q(1), Q(-1)):
            yield w[:i] + (w[i] + delta,) + w[i + 1:]


def _near(lab):
    """Brute-force weight -> label table of the labels within 2 of lab in every coordinate."""
    out = {}
    for d in product(range(-2, 3), repeat=len(lab.coords)):
        coords = tuple(c + e for c, e in zip(lab.coords, d))
        if in_lattice(lab.family, coords):
            other = label(lab.family, *coords)
            out[highest_weight(other)] = other
    return out


def _random_families(rng):
    return [so(2), so(rng.randint(3, 60)), su(rng.randint(2, 60)), sp(rng.randint(2, 60)), f4()]


def test_label_from_weight_inverts_highest_weight_on_large_labels():
    rng = random.Random(2112)
    for _ in range(40):
        for fam in _random_families(rng):
            lab = _random_label(rng, fam, 10 ** 6)
            w = highest_weight(lab)
            assert label_from_weight(fam, w) == lab
            near = _near(lab)
            for w2 in _perturbed(w):
                assert label_from_weight(fam, w2) == near.get(w2), (lab, w2)


def test_label_from_weight_perturbations_match_lattice_lookup():
    rng = random.Random(11073)
    for _ in range(3):
        for fam in _random_families(rng):
            table = {highest_weight(lab): lab for lab in labels(fam, 8)}
            for lab in labels(fam, 6):
                w = highest_weight(lab)
                assert label_from_weight(fam, w) == lab
                for w2 in _perturbed(w):
                    assert label_from_weight(fam, w2) == table.get(w2), (lab, w2)


def test_rho_c():
    assert rho_c(so(5)) == wt(Q(3, 2), Q(1, 2))
    assert rho_c(so(6)) == wt(2, 1, 0)
    assert rho_c(f4()) == wt(Q(7, 2), Q(5, 2), Q(3, 2), Q(1, 2))
    assert rho_c(su(2)) == wt(Q(1, 2), Q(-1, 2), 0)
    assert rho_c(sp(3)) == wt(3, 2, 1, 1)


def test_weyl_dim_trivial_is_one():
    for fam, lab in [(so(7), label(so(7), 0)), (su(4), label(su(4), 0, 0)),
                     (sp(2), label(sp(2), 0, 0)), (f4(), label(f4(), 0, 0))]:
        assert weyl_dim(fam, lab) == 1


@pytest.mark.parametrize("n", range(3, 9))
def test_weyl_dim_so_closed_form(n):
    for k in range(13):
        assert weyl_dim(so(n), label(so(n), k)) == dim_so(n, k)


@pytest.mark.parametrize("n", range(2, 6))
def test_weyl_dim_su_closed_form(n):
    for p in range(13):
        for q in range(13):
            assert weyl_dim(su(n), label(su(n), p, q)) == dim_su(n, p, q)


@pytest.mark.parametrize("n", range(2, 5))
def test_weyl_dim_sp_closed_form(n):
    for a in range(13):
        for b in range(a + 1):
            assert weyl_dim(sp(n), label(sp(n), a, b)) == dim_sp(n, a, b)


def test_weyl_dim_f4_closed_form():
    for m in range(13):
        for k in range(m % 2, m + 1, 2):
            assert weyl_dim(f4(), label(f4(), m, k)) == dim_f4(m, k)


def test_weyl_dim_rejects_non_dominant():
    with pytest.raises(ValueError):
        weyl_dim(so(5), wt(1, 2))


def test_mintype_norm_values():
    assert mintype_norm(f4(), label(f4(), 2, 0)) == 99  # (8,5,3,1)
    assert mintype_norm(so(5), label(so(5), 1)) == 17  # (4,1)
    zero = mintype_norm(su(3), label(su(3), 0, 0))
    two_rho = tuple(2 * c for c in rho_c(su(3)))
    assert zero == sum(c * c for c in two_rho)


def test_socle_contains():
    assert socle_contains(so(5), 0, label(so(5), 1))
    assert not socle_contains(so(5), 1, label(so(5), 1))
    assert not socle_contains(su(3), 1, label(su(3), 1, 3))
    assert socle_contains(su(3), 1, label(su(3), 2, 2))
    assert socle_contains(f4(), 0, label(f4(), 2, 0))
    assert not socle_contains(f4(), 0, label(f4(), 2, 2))
    assert socle_contains(sp(2), 0, label(sp(2), 1, 1))
    assert socle_contains(so(2), 2, label(so(2), -3))
    assert not socle_contains(so(2), 2, label(so(2), 2))


MINTYPE_INSTANCES = ([so(n) for n in range(3, 9)] + [su(n) for n in range(2, 6)]
                     + [sp(n) for n in range(2, 5)] + [f4()])


@pytest.mark.parametrize("fam", MINTYPE_INSTANCES)
def test_minimal_ktype_matches_closed_form(fam):
    for ell in range(6):
        assert minimal_ktype(fam, ell) == minimal_ktype_closed(fam, ell)


def test_minimal_ktype_closed_forms():
    assert minimal_ktype_closed(so(4), 2) == label(so(4), 3)
    assert minimal_ktype_closed(sp(2), 0) == label(sp(2), 1, 1)
    assert minimal_ktype_closed(f4(), 1) == label(f4(), 4, 0)


def test_minimal_ktype_so2_positive_representative():
    # the +-(ell+1) tie resolves to the positive label
    for ell in range(4):
        lab = minimal_ktype(so(2), ell)
        assert lab == label(so(2), ell + 1)
        assert mintype_norm(so(2), lab) == mintype_norm(so(2), label(so(2), -(ell + 1)))


def test_minimal_ktype_scale_invariance():
    # the argmin is unchanged under positive rescaling of the inner product
    for fam in (so(6), su(3), sp(2), f4()):
        for ell in (0, 2):
            labs = [l for l in ktypes.labels(fam, 4 * (ell + 2)) if socle_contains(fam, ell, l)]
            plain = min(labs, key=lambda l: (mintype_norm(fam, l), l.coords))
            scaled = min(labs, key=lambda l: (2 * mintype_norm(fam, l), l.coords))
            assert plain == scaled == minimal_ktype(fam, ell)


def test_minimal_ktype_truncation_guard():
    with pytest.raises(ktypes.InconclusiveTruncationError):
        minimal_ktype(su(3), 4, search_bound=5)


def test_langlands_records():
    rec = langlands(f4(), 0)
    assert rec.S == "G" and rec.tempered and rec.limit_of_discrete_series
    assert langlands(f4(), 3).discrete_series  # -5 - 6 <= -11
    assert not langlands(f4(), 2).discrete_series
    rec = langlands(sp(2), 0)
    assert rec.S == "G" and rec.limit_of_discrete_series
    assert langlands(sp(2), 1).discrete_series
    rec = langlands(so(5), 0)
    assert rec.S == "P" and rec.nu_H == Q(7, 2) and rec.omega_weight == wt(1, 0)
    assert langlands(su(4), 2).nu_H == 2
    assert langlands(sp(3), 0).nu_H == 3
    assert langlands(so(2), 5).discrete_series
    assert langlands(su(2), 0).discrete_series


@pytest.mark.parametrize("fam", [so(2), so(3), su(2), su(5), sp(2), sp(4), f4()])
def test_langlands_type_invariants(fam):
    for ell in range(11):
        rec = langlands(fam, ell)
        assert (rec.S == "G") == rec.tempered
        assert not rec.discrete_series or rec.tempered
        assert not (rec.discrete_series and rec.limit_of_discrete_series)
        if rec.S == "P":
            assert rec.nu_H is not None and rec.omega_expr is not None


def test_casimir_scalar():
    assert casimir_scalar(so(3), SpectralParam(Q(-1))) == 0
    assert casimir_scalar(su(2), SpectralParam(Q(-4))) == 12
    for fam in (so(4), su(3), sp(2), f4()):
        assert casimir_scalar(fam, SpectralParam(rho_H(fam))) == 0
        assert casimir_scalar(fam, exceptional_mu(fam, 0)) \
            == exceptional_mu(fam, 0).mu_H ** 2 - rho_H(fam) ** 2
