import json
import random
from fractions import Fraction as Q

import pytest

from rankone import cli, spherical
from rankone.groups import UnsupportedFamilyError, f4, so, sp, su
from rankone.ktypes import label, labels, weyl_dim
from rankone.poly import pmul
from rankone.so_model import zonal_coeffs
from rankone.spherical import (ingredient_identities, lambda_scalar, omega_h_expand,
                               radial_factor, verify_omega_identity)
from rankone.tensor import racah_speiser
from tests.references import (chebyshev_three_term, chebyshev_u, coeffs, fraction_terms, padd, ppow,
                              pscale)
from tests.test_tensor import FAMILIES


def test_omega_h_expand_unsupported_family():
    with pytest.raises(UnsupportedFamilyError):
        omega_h_expand(so(2), label(so(2), 1))


def test_chebyshev():
    assert chebyshev_u(0) == [1]
    assert chebyshev_u(1) == [0, 2]
    assert chebyshev_u(2) == [-1, 0, 4]
    for q in range(12):
        assert chebyshev_three_term(q)


def test_so4_zonal_function_is_the_chebyshev_ratio():
    """Sp's azimuthal factor U_q(cos t)/(q+1) is the degree-q zonal function on S^3,
    which spherical reads as the SO(4,1) radial factor."""
    for q in range(41):
        assert zonal_coeffs(4, q) == [Q(c, q + 1) for c in chebyshev_u(q)], q


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
        assert {t.coords: c for t, c in fraction_terms(row)} == stated_row(fam, lab), lab


@pytest.mark.parametrize("fam", FAMILIES)
def test_rows_are_convex(fam):
    for lab in labels(fam, 10):
        lams = [c for _, c in fraction_terms(omega_h_expand(fam, lab))]
        assert all(c > 0 for c in lams)
        assert sum(lams) == 1


def test_lambda_values():
    assert lambda_scalar(so(6), label(so(6), 3), label(so(6), 4)) == Q(6 + 3 - 2, 6 + 6 - 2)
    assert lambda_scalar(so(5), label(so(5), 0), label(so(5), 2)) == 0
    a, b, n = 3, 1, 2
    assert lambda_scalar(sp(n), label(sp(n), a, b), label(sp(n), a + 1, b)) \
        == Q((a - b + 2) * (2 * n - 1 + a), 2 * (a - b + 1) * (2 * n - 1 + a + b))
    assert fraction_terms(omega_h_expand(so(4), label(so(4), 0))) == [(label(so(4), 1), Q(1))]


@pytest.mark.parametrize("fam", FAMILIES)
def test_dim_reciprocity(fam):
    for lab in labels(fam, 10):
        for tgt, lam in fraction_terms(omega_h_expand(fam, lab)):
            assert lam * weyl_dim(fam, lab) == lambda_scalar(fam, tgt, lab) * weyl_dim(fam, tgt)


@pytest.mark.parametrize("fam", FAMILIES)
def test_omega_identity_sweep(fam):
    for lab in labels(fam, 10):
        assert verify_omega_identity(fam, lab, omega_h_expand(fam, lab)), lab


def test_ingredient_identities_reported_individually():
    keys = ingredient_identities(su(3), (2, 1))
    assert set(keys) == {"raise_p", "raise_q"} and all(keys.values())
    for fam, coords in [(f4(), (3, 1)), (sp(2), (2, 2)), (sp(3), (4, 1))]:
        keys = ingredient_identities(fam, coords)
        assert set(keys) == {"azimuthal", "lower_pair", "raise_pair"} and all(keys.values())


@pytest.mark.parametrize("fam", [so(3), so(5), so(6), su(2), su(4), sp(2), sp(3), f4()])
def test_omega_relation_is_spherical_tensor_adjacency(fam):
    for lab in labels(fam, 8):
        neighbours = {t for t, _ in omega_h_expand(fam, lab).nums}
        spherical = racah_speiser(fam, lab).spherical_labels()
        if fam.variant == "SO" and fam.n == 3:
            # Y_k appears in its own tensor square route but is not
            # omega-related to itself
            assert lab in spherical or lab.coords == (0,)
            spherical = spherical - {lab}
        assert neighbours == spherical
        for other in neighbours:
            assert lambda_scalar(fam, other, lab) != 0


def test_boundary_rows_drop_only_invalid_targets():
    assert {t.coords for t, _ in omega_h_expand(su(4), label(su(4), 0, 3)).nums} \
        == {(1, 3), (0, 2), (0, 4)}
    assert {t.coords for t, _ in omega_h_expand(sp(2), label(sp(2), 2, 2)).nums} \
        == {(3, 2), (2, 1)}
    assert {t.coords for t, _ in omega_h_expand(f4(), label(f4(), 3, 3)).nums} \
        == {(4, 4), (4, 2), (2, 2)}
    assert {t.coords for t, _ in omega_h_expand(f4(), label(f4(), 4, 0)).nums} \
        == {(5, 1), (3, 1)}


def test_radial_factor_parameters():
    r = radial_factor(su(4), (2, 3))
    assert (r.series.a, r.series.b, r.series.c) == (-2, -3, 3)
    assert r.cos_power == 5
    r = radial_factor(f4(), (5, 3))
    assert (r.series.a, r.series.b, r.series.c) == (-1, -7, 4)


def poly_in_u(radial):
    """Coefficients of F(.., -u) as a polynomial in u = tan^2 xi."""
    return [(-1) ** j * c for j, c in enumerate(coeffs(radial.series))]


def reference_clear_cos(terms):
    """The Fraction route, kept as the reference: terms are (cos power, coeff, F(u) over Q)."""
    top = max(p for p, _, _ in terms)
    one_plus_u = [Q(1), Q(1)]
    acc = []
    for p, coeff, f_of_u in terms:
        acc = padd(acc, pscale(pmul(ppow(one_plus_u, (top - p) // 2), f_of_u), coeff))
    return acc


@pytest.mark.parametrize("fam", FAMILIES)
def test_integer_clear_cos_matches_fraction_reference(fam):
    """Random combinations of a radial factor and its neighbours agree up to a positive
    scale, the integer route in z = -u and the Fraction reference in u."""
    rng = random.Random(str(fam))
    for lab in labels(fam, 5):
        factors = [(Q(-1), radial_factor(fam, lab.coords), 1)]
        factors += [(Q(rng.randint(-9, 9), rng.randint(1, 7)), radial_factor(fam, t.coords), 0)
                    for t, _ in omega_h_expand(fam, lab).nums]
        ref = reference_clear_cos([(r.cos_power + extra, c, poly_in_u(r)) for c, r, extra in factors])
        got = spherical._clear_cos([(r.cos_power + extra, c.numerator, c.denominator * r.series.den,
                                     r.series.nums) for c, r, extra in factors])
        assert all(type(x) is int for x in got)
        if not ref:
            assert got == []
            continue
        # got is in z = -u
        ref_in_z = [-y if j % 2 else y for j, y in enumerate(ref)]
        ratio = Q(got[-1]) / ref_in_z[-1]
        assert ratio > 0 and [Q(x) for x in got] == [ratio * y for y in ref_in_z], lab


@pytest.mark.parametrize("fam,coords", [(so(5), (3,)), (su(3), (2, 1)), (sp(2), (3, 1)), (f4(), (4, 2))])
def test_radial_identity_fails_with_a_moved_coefficient(monkeypatch, fam, coords):
    """Moving the first right-hand numerator by one, so its coefficient by 1/den,
    must break every radial identity."""
    lab = label(fam, *coords)
    assert all(ingredient_identities(fam, coords).values())
    real = spherical._radial_identity

    def moved(lhs, den, rhs):
        (num, r), *rest = rhs
        return real(lhs, den, [(num + 1, r)] + rest)

    monkeypatch.setattr(spherical, "_radial_identity", moved)
    checks = ingredient_identities(fam, coords)
    assert not any(checks.values()), checks
    assert not verify_omega_identity(fam, lab, omega_h_expand(fam, lab))


@pytest.fixture
def stated_rows(monkeypatch):
    """Installs a replacement for spherical._raw_row.  omega_h_expand memoises
    its rows, so the memo is cleared after the patch and again after it is
    undone: no row built before or under the patch outlives it."""
    def install(raw_row):
        monkeypatch.setattr(spherical, "_raw_row", raw_row)
        omega_h_expand.cache_clear()

    yield install
    monkeypatch.undo()
    omega_h_expand.cache_clear()


@pytest.mark.parametrize("fam,coords,neighbour", [
    (so(5), (3,), (2,)), (su(3), (2, 1), (1, 1)), (sp(2), (3, 1), (2, 1)), (f4(), (4, 2), (3, 1))])
def test_swapped_stated_row_fails_only_its_family(stated_rows, capsys, fam, coords, neighbour):
    """Swapping the first two numerators of one stated row keeps it convex, so only
    the comparison with the factorisation can catch it."""
    real = spherical._raw_row

    def swapped(family, c):
        den, raw = real(family, c)
        if family == fam and c == coords:
            (t0, n0), (t1, n1), *rest = raw
            raw = [(t0, n1), (t1, n0)] + rest
        return den, raw

    stated_rows(swapped)
    lab, other = label(fam, *coords), label(fam, *neighbour)
    assert not verify_omega_identity(fam, lab, omega_h_expand(fam, lab))
    assert verify_omega_identity(fam, other, omega_h_expand(fam, other))
    assert cli.main(["verify", "spherical", "--depth", "4"]) == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    identity = {c["instance"]: c["status"] for c in checks if c["id"] == "omega-recurrence-identity"}
    assert identity.pop(str(fam)) == "fail"
    assert identity and all(status == "pass" for status in identity.values()), identity


@pytest.mark.parametrize("argv", [["verify", "spherical", "--depth", "4"],
                                  ["verify", "scalars", "--depth", "3"]], ids=lambda a: a[1])
def test_non_convex_stated_row_fails_only_its_family(stated_rows, capsys, argv):
    """A stated row that is not a convex combination breaks an invariant of
    omega_h_expand; the suite still prints its report, and only the checks of
    that family fail."""
    fam, coords = su(3), (2, 1)
    real = spherical._raw_row

    def widened(family, c):
        den, raw = real(family, c)
        return (den + 1 if family == fam and c == coords else den), raw

    stated_rows(widened)
    with pytest.raises(AssertionError, match="not a convex combination"):
        omega_h_expand(fam, label(fam, *coords))
    assert cli.main(argv) == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    failed = {c["instance"] for c in checks if c["status"] == "fail"}
    assert failed == {str(fam)}


@pytest.mark.parametrize("variant", ["Sp", "F4"])
def test_wrong_azimuthal_degree_fails_only_its_families(monkeypatch, capsys, variant):
    """Reading the azimuthal degree as c[0] instead of its form moves the split
    weights, so the assembled row leaves the stated one for that variant only."""
    sphere, _ = spherical._AZIMUTHS[variant]
    monkeypatch.setitem(spherical._AZIMUTHS, variant, (sphere, (1, 0)))
    assert cli.main(["verify", "spherical", "--depth", "4"]) == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    failed = {(c["id"], c["instance"]) for c in checks if c["status"] == "fail"}
    expected = {str(f) for f in cli._tensor_families() if f.variant == variant}
    assert expected and failed == {("omega-recurrence-identity", f) for f in expected}


def test_broken_so4_split_fails_the_sp_azimuthal_identity(monkeypatch):
    """Moving the SO(4,1) radial coefficients, each numerator by one unit of its
    denominator, breaks Sp's azimuthal identity, and with it the weights its
    omega(H) row is assembled from."""
    real = spherical._factorisation

    def moved(family, coords):
        splits = real(family, coords)
        if family == so(4):
            ((name, w, den, terms),) = splits
            splits = [(name, w, den, {t: num + 1 for t, num in terms.items()})]
        return splits

    monkeypatch.setattr(spherical, "_factorisation", moved)
    for coords in [(1, 0), (2, 2), (4, 1)]:
        checks = ingredient_identities(sp(2), coords)
        assert checks["azimuthal"] is False, (coords, checks)
        assert checks["lower_pair"] and checks["raise_pair"]
        lab = label(sp(2), *coords)
        assert not verify_omega_identity(sp(2), lab, omega_h_expand(sp(2), lab))
    assert all(ingredient_identities(f4(), (3, 1)).values())
