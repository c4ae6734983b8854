from fractions import Fraction as Q

import pytest

from rankone.groups import UnsupportedFamilyError, f4, so, sp, su
from rankone.ktypes import label, labels, weyl_dim
from rankone.poly import peval
from rankone.spherical import (chebyshev_three_term, chebyshev_u, ingredient_identities,
                               lambda_scalar, omega_h_expand, omega_related, phi,
                               radial_factor, verify_omega_identity)
from rankone.tensor import racah_speiser
from tests.test_tensor import FAMILIES


def test_phi_base_point_and_shapes():
    # Y_0 is the constant 1; Y_1 reduces to cos since one series parameter is 0
    spec = phi(so(7), label(so(7), 0))
    assert spec.radial.cos_power == 0 and spec.radial.series.coeffs == (1,)
    spec = phi(so(7), label(so(7), 1))
    assert spec.radial.cos_power == 1 and spec.radial.series.coeffs == (1,)
    # Sp V_{1,0}: (1/2) U_1(cos t) cos(xi) with a constant series
    spec = phi(sp(3), label(sp(3), 1, 0))
    assert spec.azimuthal == "chebyshev:1" and spec.normalization == Q(1, 2)
    assert spec.radial.series.coeffs == (1,)
    assert peval(chebyshev_u(1), 1) == 2
    for fam in (so(4), su(2), sp(2), f4()):
        for lab in labels(fam, 4):
            assert phi(fam, lab).base_point_value() == 1


def test_phi_unsupported_family():
    with pytest.raises(UnsupportedFamilyError):
        phi(so(2), label(so(2), 1))


def test_chebyshev():
    assert chebyshev_u(0) == [1]
    assert chebyshev_u(1) == [0, 2]
    assert chebyshev_u(2) == [-1, 0, 4]
    for q in range(12):
        assert chebyshev_three_term(q)


# Lemma coefficient tables, written out independently of the implementation.

def so_row(n, k):
    den = n + 2 * k - 2
    return {(k - 1,): Q(k, den), (k + 1,): Q(n + k - 2, den)}


def su_row(n, p, q):
    den = 2 * (p + q + n - 1)
    return {(p + 1, q): Q(p + n - 1, den), (p, q - 1): Q(q, den),
            (p, q + 1): Q(q + n - 1, den), (p - 1, q): Q(p, den)}


def sp_row(n, a, b):
    den = 2 * (a - b + 1) * (2 * n - 1 + a + b)
    return {(a + 1, b): Q((a - b + 2) * (2 * n - 1 + a), den),
            (a, b - 1): Q(b * (a - b + 2), den),
            (a, b + 1): Q((a - b) * (2 * n - 2 + b), den),
            (a - 1, b): Q((a - b) * (a + 1), den)}


def f4_row(m, k):
    den = (6 + 2 * k) * (14 + 2 * m)
    return {(m + 1, k + 1): Q((6 + k) * (14 + m + k), den),
            (m - 1, k + 1): Q((6 + k) * (m - k), den),
            (m + 1, k - 1): Q(k * (8 + m - k), den),
            (m - 1, k - 1): Q(k * (m + k + 6), den)}


def stated_row(fam, lab):
    if fam.variant == "SO":
        row = so_row(fam.n, *lab.coords)
    elif fam.variant == "SU":
        row = su_row(fam.n, *lab.coords)
    elif fam.variant == "Sp":
        row = sp_row(fam.n, *lab.coords)
    else:
        row = f4_row(*lab.coords)
    return {c: v for c, v in row.items() if v != 0}


@pytest.mark.parametrize("fam", FAMILIES)
def test_rows_match_stated_coefficients(fam):
    for lab in labels(fam, 10):
        row = omega_h_expand(fam, lab)
        assert {t.coords: c for t, c in row.terms} == stated_row(fam, lab), lab


@pytest.mark.parametrize("fam", FAMILIES)
def test_rows_are_convex(fam):
    for lab in labels(fam, 10):
        row = omega_h_expand(fam, lab)
        assert all(c > 0 for _, c in row.terms)
        assert sum(c for _, c in row.terms) == 1


def test_lambda_values():
    assert lambda_scalar(so(6), label(so(6), 3), label(so(6), 4)) == Q(6 + 3 - 2, 6 + 6 - 2)
    assert lambda_scalar(so(5), label(so(5), 0), label(so(5), 2)) == 0
    a, b, n = 3, 1, 2
    assert lambda_scalar(sp(n), label(sp(n), a, b), label(sp(n), a + 1, b)) \
        == Q((a - b + 2) * (2 * n - 1 + a), 2 * (a - b + 1) * (2 * n - 1 + a + b))
    assert omega_h_expand(so(4), label(so(4), 0)).terms \
        == ((label(so(4), 1), Q(1)),)


@pytest.mark.parametrize("fam", FAMILIES)
def test_dim_reciprocity(fam):
    for lab in labels(fam, 10):
        for tgt, lam in omega_h_expand(fam, lab).terms:
            assert lam * weyl_dim(fam, lab) == lambda_scalar(fam, tgt, lab) * weyl_dim(fam, tgt)


@pytest.mark.parametrize("fam", FAMILIES)
def test_omega_identity_sweep(fam):
    for lab in labels(fam, 10):
        assert verify_omega_identity(fam, lab), lab


def test_ingredient_identities_reported_individually():
    keys = ingredient_identities(su(3), label(su(3), 2, 1))
    assert set(keys) == {"raise_p", "raise_q"} and all(keys.values())
    keys = ingredient_identities(f4(), label(f4(), 3, 1))
    assert set(keys) == {"azimuthal", "lower_pair", "raise_pair"} and all(keys.values())
    keys = ingredient_identities(sp(2), label(sp(2), 2, 2))
    assert all(keys.values())


@pytest.mark.parametrize("fam", [so(3), so(5), so(6), su(2), su(4), sp(2), sp(3), f4()])
def test_omega_relation_is_spherical_tensor_adjacency(fam):
    for lab in labels(fam, 8):
        neighbours = {t for t, _ in omega_h_expand(fam, lab).terms}
        spherical = racah_speiser(fam, lab).spherical_labels()
        if fam.variant == "SO" and fam.n == 3:
            # Y_k appears in its own tensor square route but is not
            # omega-related to itself
            assert lab in spherical or lab.coords == (0,)
            spherical = spherical - {lab}
        assert neighbours == spherical
        for other in neighbours:
            assert omega_related(fam, other, lab)


def test_boundary_rows_drop_only_invalid_targets():
    assert {t.coords for t, _ in omega_h_expand(su(4), label(su(4), 0, 3)).terms} \
        == {(1, 3), (0, 2), (0, 4)}
    assert {t.coords for t, _ in omega_h_expand(sp(2), label(sp(2), 2, 2)).terms} \
        == {(3, 2), (2, 1)}
    assert {t.coords for t, _ in omega_h_expand(f4(), label(f4(), 3, 3)).terms} \
        == {(4, 4), (4, 2), (2, 2)}
    assert {t.coords for t, _ in omega_h_expand(f4(), label(f4(), 4, 0)).terms} \
        == {(5, 1), (3, 1)}


def test_radial_factor_parameters():
    r = radial_factor(su(4), label(su(4), 2, 3))
    assert (r.series.a, r.series.b, r.series.c) == (-2, -3, 3)
    assert r.cos_power == 5
    r = radial_factor(f4(), label(f4(), 5, 3))
    assert (r.series.a, r.series.b, r.series.c) == (-1, -7, 4)
