import random
from fractions import Fraction as Q
from itertools import product
from math import comb
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from rankone import ktypes
from rankone.cli import MAX_ELL
from rankone.groups import exceptional_mu, f4, rho_H, so, sp, su, SpectralParam
from rankone.ktypes import (KTypeLabel, casimir_scalar, highest_weight, label,
                            label_from_weight, labels, langlands, minimal_ktype,
                            minimal_ktype_closed, weyl_dim)
from rankone.weyl import k_root_system
from tests.references import (langlands_chain, minimal_ktype_by_weights, mintype_norm,
                              socle_contains)


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
    # doubled weights 2w
    assert highest_weight(label(so(5), 2)) == (4, 0)
    assert highest_weight(label(su(3), 1, 2)) == (4, 0, -2, -2)
    assert highest_weight(label(f4(), 2, 0)) == (2, 0, 0, 0)
    assert highest_weight(label(sp(2), 2, 1)) == (4, 2, 2)
    assert highest_weight(label(so(2), -3)) == (-6,)
    assert highest_weight(label(su(2), 1, 2)) == (4, -2, -2)
    assert highest_weight(label(so(1000), 3)) == (6,) + (0,) * 499
    assert highest_weight(label(su(1000), 1, 2)) == (4,) + (0,) * 998 + (-2, -2)
    assert highest_weight(label(sp(1000), 2, 1)) == (4, 2) + (0,) * 998 + (2,)


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
    # +-1/2 and +-1 in each coordinate, in doubled units.  Every weight of a rank
    # up to 60 has at most 61 coordinates, all perturbed; a longer one only at the
    # three at each end and one in the middle, which stands for the zeros
    spots = range(len(w)) if len(w) <= 64 else [0, 1, 2, len(w) // 2, -3, -2, -1]
    for i in (j % len(w) for j in spots):
        for delta in (1, -1, 2, -2):
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
    # a rank up to 60 and one up to the tensor cap of 1000 per family;
    # SU(2,1) and Sp(2,1) have no zero padding
    return [so(2), so(rng.randint(3, 60)), so(rng.randint(61, 1000)),
            su(2), su(rng.randint(3, 60)), su(rng.randint(61, 1000)),
            sp(2), sp(rng.randint(3, 60)), sp(rng.randint(61, 1000)), f4()]


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
    def two_rho(fam):
        return k_root_system(fam.variant, fam.n).two_rho

    assert two_rho(so(5)) == (3, 1)
    assert two_rho(so(6)) == (4, 2, 0)
    assert two_rho(f4()) == (7, 5, 3, 1)
    assert two_rho(su(2)) == (1, -1, 0)
    assert two_rho(sp(3)) == (6, 4, 2, 2)


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
        weyl_dim(so(5), (2, 4))


def test_mintype_norm_values():
    assert mintype_norm(f4(), label(f4(), 2, 0)) == 99  # (8,5,3,1)
    assert mintype_norm(so(5), label(so(5), 1)) == 17  # (4,1)
    zero = mintype_norm(su(3), label(su(3), 0, 0))
    assert zero == sum(c * c for c in k_root_system("SU", 3).two_rho)


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


SWEEP_FAMILIES = [so(2)] + MINTYPE_INSTANCES


@pytest.mark.parametrize("fam", SWEEP_FAMILIES)
def test_minimal_ktype_matches_fraction_brute_force(fam):
    # brute-force min over the socle labels keyed by the Fraction norm and the tie key
    def tie_key(lab):
        return tuple(abs(c) for c in lab.coords) + tuple(-c for c in lab.coords)

    for ell in range(9):
        labs = [l for l in ktypes.labels(fam, 4 * (ell + 2)) if socle_contains(fam, ell, l)]
        brute = min(labs, key=lambda l: (mintype_norm(fam, l), tie_key(l)))
        assert minimal_ktype(fam, ell) == brute


def test_minimal_ktype_truncation_guard(monkeypatch):
    monkeypatch.setattr(ktypes, "SEARCH_WIDTH", 0)
    with pytest.raises(ktypes.InconclusiveTruncationError):
        minimal_ktype(su(3), 4)


LARGE_ELL_FAMILIES = ([so(n) for n in (3, 17, 30)] + [su(n) for n in (2, 3, 17, 30)]
                      + [sp(n) for n in (2, 3, 17, 30)] + [f4()])


@pytest.mark.parametrize("fam", LARGE_ELL_FAMILIES, ids=str)
def test_minimal_ktype_matches_closed_form_at_large_ell(fam):
    for ell in (25, 100, 1000):
        assert minimal_ktype(fam, ell) == minimal_ktype_closed(fam, ell)


@pytest.mark.parametrize("fam", [su(8), sp(8), f4(), so(8)], ids=str)
def test_minimal_ktype_scores_a_box_that_does_not_grow_with_ell(monkeypatch, fam):
    scored, weights = [], []
    predicate = ktypes.socle_predicate

    def counting_predicate(family, ell):
        admits = predicate(family, ell)

        def counting(coords):
            inside = admits(coords)
            if inside:
                scored.append(coords)
            return inside

        return counting

    def counting_weight(lab):
        weights.append(lab)
        return highest_weight(lab)

    monkeypatch.setattr(ktypes, "socle_predicate", counting_predicate)
    monkeypatch.setattr(ktypes, "highest_weight", counting_weight)
    counts = []
    for ell in (1, 100):
        scored.clear()
        minimal_ktype(fam, ell)
        counts.append(len(scored))
    # every socle label of the box gets a norm, the box does not grow with ell,
    # and the quadratic form builds no highest weight
    assert counts[0] == counts[1] > 0
    assert weights == []


@st.composite
def lattice_families(draw, max_n):
    """A family of each lattice row: SO (n >= 3), SO(2,1), SU, Sp or F4."""
    row = draw(st.sampled_from(("SO", "SO(2,1)", "SU", "Sp", "F4")))
    if row == "SO(2,1)":
        return so(2)
    if row == "F4":
        return f4()
    return {"SO": so, "SU": su, "Sp": sp}[row](draw(st.integers(3 if row == "SO" else 2, max_n)))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(fam=lattice_families(60), ell=st.integers(0, MAX_ELL),
       width=st.one_of(st.just(ktypes.SEARCH_WIDTH), st.integers(0, ktypes.SEARCH_WIDTH)))
def test_minimal_ktype_matches_the_search_by_weights(fam, ell, width):
    def outcome(search):
        try:
            return search(fam, ell)
        except ktypes.InconclusiveTruncationError:
            return "inconclusive"

    with mock.patch.object(ktypes, "SEARCH_WIDTH", width):
        assert outcome(minimal_ktype) == outcome(minimal_ktype_by_weights)


@st.composite
def large_labels(draw):
    """A label of any lattice row with n <= 200 and |coordinates| <= 10**6."""
    fam = draw(lattice_families(200))
    spec = ktypes.lattice(fam).spec
    bound = 10**6 - 1  # room for the parity fix below
    c = draw(st.lists(st.integers(-bound if spec.signed else 0, bound),
                      min_size=spec.length, max_size=spec.length))
    if spec.ordered:
        c.sort(reverse=True)
    if spec.parity and (c[0] - c[1]) % 2:
        c[0] += 1
    return KTypeLabel(fam, tuple(c))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(lab=large_labels())
def test_norm_form_is_the_norm_of_the_shifted_highest_weight(lab):
    qa, qb, qc, qd, qe, qf = ktypes.norm_form(lab.family)
    x, y = lab.coords[0], lab.coords[-1]
    rho4 = [2 * r for r in k_root_system(lab.family.variant, lab.family.n).two_rho]
    assert (qa * x * x + qb * x * y + qc * y * y + qd * x + qe * y + qf
            == sum((h + r) ** 2 for h, r in zip(highest_weight(lab), rho4, strict=True)))


def test_socle_bounds_have_the_label_length():
    # the socle predicate zips each bound with the coordinates without a length check
    for spec in ktypes.LATTICE_SPECS.values():
        assert all(len(coeffs) == spec.length for coeffs, _ in spec.socle)


@pytest.mark.parametrize("fam", SWEEP_FAMILIES, ids=str)
def test_socle_corner_is_the_least_socle_coordinate(fam):
    for ell in range(4):
        socle = [l for l in labels(fam, 4 * (ell + 2)) if socle_contains(fam, ell, l)]
        least = tuple(min(abs(l.coords[i]) for l in socle) for i in range(len(socle[0].coords)))
        assert ktypes.socle_corner(fam, ell) == least


@pytest.mark.parametrize("fam", LATTICE_FAMILIES, ids=str)
def test_labels_with_corner_are_the_shifted_box(fam):
    rank = 1 if fam.variant == "SO" else 2
    for corner in [(0,) * rank, (3,) * rank, (5, 0)[:rank], (2, 4)[:rank]]:
        for b in range(5):
            box = product(*(range(c, c + b + 1) for c in corner))
            expected = [c for c in box if in_lattice(fam, c)]
            assert [lab.coords for lab in labels(fam, b, corner)] == expected
    with pytest.raises(ValueError):
        labels(fam, 3, (1,) * (rank + 1))


def test_langlands_records():
    rec = langlands(f4(), 0)
    assert rec.S == "G" and rec.tempered and rec.limit_of_discrete_series
    assert langlands(f4(), 3).discrete_series  # -5 - 6 <= -11
    assert not langlands(f4(), 2).discrete_series
    rec = langlands(sp(2), 0)
    assert rec.S == "G" and rec.limit_of_discrete_series
    assert langlands(sp(2), 1).discrete_series
    rec = langlands(so(5), 0)
    assert rec.S == "P" and rec.nu_H == Q(7, 2)
    assert langlands(su(4), 2).nu_H == 2
    assert langlands(sp(3), 0).nu_H == 3
    assert langlands(so(2), 5).discrete_series
    assert langlands(su(2), 0).discrete_series


def test_langlands_rows_match_the_chain():
    fams = [f(n) for f in (so, su, sp) for n in range(2, 201)] + [f4()]
    for fam in fams:
        for ell in range(21):
            assert langlands(fam, ell) == langlands_chain(fam, ell), (fam, ell)


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
