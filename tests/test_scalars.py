import json
import random
from collections import Counter
from fractions import Fraction as Q
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from rankone import groups, scalars
from rankone.cli import main
from rankone.groups import GroupFamily, SpectralParam, exceptional_mu, f4, rho_H, so, sp, su
from rankone.ktypes import KTypeLabel, label, weyl_dim
from rankone.scalars import (GROWTH_ORDERS, NU_ROWS, VANISHING_ROWS, NotOmegaRelatedError, _two_r,
                             _sp_factorial_part, growth_closed_form, growth_order,
                             growth_order_stated, growth_product, growth_step_ratio,
                             nu_scalar, t_root, t_scalar, vanishing_table_check)
from rankone.spherical import lambda_scalar, omega_h_expand
from tests.references import vanishing_mu, vanishing_table_check_fractions
from tests.test_tensor import FAMILIES


def SP(x):
    return SpectralParam(Q(x))


def t_of(fam, v, y, mu):
    """t_scalar with lambda(V, Y) read from the omega row of V."""
    return t_scalar(fam, v, y, mu, lambda_scalar(fam, v, y))


def test_nu_examples():
    fam = so(6)
    lam = lambda_scalar(fam, label(fam, 0), label(fam, 1))
    assert nu_scalar(fam, label(fam, 0), label(fam, 1), lam) == 0
    lam = lambda_scalar(su(3), label(su(3), 2, 1), label(su(3), 3, 1))
    assert nu_scalar(su(3), label(su(3), 2, 1), label(su(3), 3, 1), lam) == 4 * lam
    lam = lambda_scalar(f4(), label(f4(), 5, 3), label(f4(), 6, 2))
    assert nu_scalar(f4(), label(f4(), 5, 3), label(f4(), 6, 2), lam) == (5 - 3 - 6) * lam
    lam = lambda_scalar(sp(2), label(sp(2), 2, 1), label(sp(2), 1, 1))
    assert nu_scalar(sp(2), label(sp(2), 2, 1), label(sp(2), 1, 1), lam) == -(8 + 4) * lam


def test_scalar_pair_invariant():
    v, y = label(so(5), 1), label(so(5), 2)
    lam = lambda_scalar(so(5), v, y)
    assert lam != 0
    assert nu_scalar(so(5), v, y, lam) == lam  # direction +1 from Y_1: nu = ell * lambda
    v, y = label(so(5), 0), label(so(5), 2)
    with pytest.raises(NotOmegaRelatedError):
        nu_scalar(so(5), v, y, lambda_scalar(so(5), v, y))


def test_t_examples():
    assert t_of(so(3), label(so(3), 0), label(so(3), 1), SP(-1)) == 0
    assert t_of(su(3), label(su(3), 1, 1), label(su(3), 0, 1), SP(3)) == 0
    # trivial-route root sits exactly at rho(H)
    for fam in (so(4), so(7), su(2), su(4), sp(2), sp(3), f4()):
        triv = label(fam, *((0,) if fam.variant == "SO" else (0, 0)))
        for y, _ in omega_h_expand(fam, triv).nums:
            assert t_root(fam, y, triv) == rho_H(fam)
            assert t_of(fam, y, triv, SpectralParam(rho_H(fam))) == 0


def test_affine_in_mu_with_slope_lambda():
    for fam, v, y in [(so(5), label(so(5), 2), label(so(5), 3)),
                      (sp(2), label(sp(2), 3, 1), label(sp(2), 3, 2)),
                      (f4(), label(f4(), 4, 2), label(f4(), 3, 1))]:
        lam = lambda_scalar(fam, v, y)
        t0 = t_scalar(fam, v, y, SP(0), lam)
        for mu in (Q(1), Q(-7, 2), Q(12)):
            assert t_scalar(fam, v, y, SpectralParam(mu), lam) == t0 + mu * lam
        root = t_root(fam, v, y)
        assert t_scalar(fam, v, y, SpectralParam(root), lam) == 0
        assert root == vanishing_mu(fam, v, y)


# -- the nu and vanishing rows against the per-family formulas they replaced ----


def _direction(v, y):
    return tuple(b - a for a, b in zip(v.coords, y.coords))


def _nu_factor_reference(family, v, y):
    """r with nu(V, Y) = r lambda(V, Y), one branch per family."""
    rho = rho_H(family)
    d = _direction(v, y)
    fam = family.variant
    if fam == "SO":
        (ell,) = v.coords
        if d == (1,):
            return Q(ell)
        if d == (-1,):
            return -(2 * rho + ell - 1)
    elif fam == "SU":
        p, q = v.coords
        table = {(1, 0): Q(2 * p), (0, -1): -2 * (rho + q - 1),
                 (0, 1): Q(2 * q), (-1, 0): -2 * (rho + p - 1)}
        if d in table:
            return table[d]
    elif fam == "Sp":
        a, b = v.coords
        n = family.n
        table = {(1, 0): Q(2 * a), (0, -1): Q(-(4 * n - 2 + 2 * b)),
                 (0, 1): Q(2 * (b - 1)), (-1, 0): Q(-(4 * n + 2 * a))}
        if d in table:
            return table[d]
    else:
        m, k = v.coords
        table = {(1, 1): Q(m + k), (-1, 1): Q(-(14 + m - k)),
                 (1, -1): Q(m - k - 6), (-1, -1): Q(-(20 + m + k))}
        if d in table:
            return table[d]
    raise NotOmegaRelatedError(f"{v} and {y} are not neighbours in {family}")


def _vanishing_mu_reference(family, v, y):
    """The reducibility parameter mu(H) of the direction V -> Y, one branch per family."""
    rho = rho_H(family)
    d = _direction(v, y)
    fam = family.variant
    if fam == "SO":
        (ell,) = v.coords
        if d == (1,):
            return -rho - ell
        if d == (-1,):
            return rho + ell - 1
    elif fam == "SU":
        p, q = v.coords
        table = {(1, 0): -2 * p - rho, (0, -1): rho + 2 * (q - 1),
                 (0, 1): -2 * q - rho, (-1, 0): rho + 2 * (p - 1)}
        if d in table:
            return table[d]
    elif fam == "Sp":
        a, b = v.coords
        table = {(1, 0): -(rho + 2 * a), (0, -1): rho + 2 * b - 4,
                 (0, 1): -(rho - 2 + 2 * b), (-1, 0): rho - 2 + 2 * a}
        if d in table:
            return table[d]
    else:
        m, k = v.coords
        table = {(1, 1): -(rho + m + k), (-1, 1): rho + m - k - 8,
                 (1, -1): -(rho - 6 + m - k), (-1, -1): rho - 2 + m + k}
        if d in table:
            return table[d]
    raise NotOmegaRelatedError(f"{v} and {y} are not neighbours in {family}")


BIG = 10 ** 6


@st.composite
def _family_and_label(draw):
    """A family with n up to 1000 (SO(2,1) included) and a valid label up to 10**6."""
    variant = draw(st.sampled_from(["SO", "SU", "Sp", "F4"]))
    x, y = draw(st.integers(0, BIG)), draw(st.integers(0, BIG))
    if variant == "SO":
        fam = so(draw(st.integers(2, 1000)))
        return fam, label(fam, x if fam.n > 2 else x - y)
    if variant == "SU":
        fam = su(draw(st.integers(2, 1000)))
        return fam, label(fam, x, y)
    if variant == "Sp":
        fam = sp(draw(st.integers(2, 1000)))
        return fam, label(fam, max(x, y), min(x, y))
    k = min(x, y)
    return f4(), label(f4(), k + 2 * ((max(x, y) - k) // 2), k)


def test_rows_cover_the_same_directions():
    assert NU_ROWS.keys() == VANISHING_ROWS.keys()


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(_family_and_label())
def test_rows_match_the_per_family_formulas(case):
    fam, v = case
    directions = [d for variant, d in NU_ROWS if variant == fam.variant]
    for d in directions + [tuple(2 * c for c in directions[0])]:
        try:
            y = KTypeLabel(fam, tuple(a + b for a, b in zip(v.coords, d)))
        except ValueError:
            continue  # off the lattice
        try:
            expected = (_nu_factor_reference(fam, v, y), _vanishing_mu_reference(fam, v, y))
        except NotOmegaRelatedError:
            with pytest.raises(NotOmegaRelatedError):
                _two_r(fam, v, y)
            with pytest.raises(NotOmegaRelatedError):
                vanishing_mu(fam, v, y)
            continue
        assert (Q(_two_r(fam, v, y), 2), vanishing_mu(fam, v, y)) == expected, (fam, v, y)


# -- the rows as affine forms in (2rho(H), V): identities for every n and label --


def _folded(variant, row):
    """F4's 2rho(H) is fixed, so its rho coefficient is folded into the constant."""
    if variant != "F4":
        return tuple(row)
    c_rho, *coefs, c_0 = row
    return (0, *coefs, c_rho * 2 * rho_H(f4()) + c_0)


def _vanishing_identity_breaks(nu_rows, vanishing_rows):
    """Keys whose vanishing row is not -2rho(H) - (nu row), coefficient by coefficient;
    as affine forms, vanishing_mu = -rho - r = t_root on every edge of every n."""
    return {(variant, d) for (variant, d), (c_rho, *coefs, c_0) in nu_rows.items()
            if _folded(variant, vanishing_rows[(variant, d)])
            != _folded(variant, (-1 - c_rho, *(-c for c in coefs), -c_0))}


def _mirror_identity_breaks(nu_rows):
    """Keys d whose nu row plus the nu row of -d shifted by d is not (-2, 0, ..., 0):
    r(V, Y) + r(Y, V) = -2rho(H) on every edge of every n."""
    out = set()
    for (variant, d), row in nu_rows.items():
        c_rho, *coefs, c_0 = nu_rows[(variant, tuple(-x for x in d))]
        back = (c_rho, *coefs, c_0 + sum(c * x for c, x in zip(coefs, d)))
        total = [a + b for a, b in zip(row, back)]
        if _folded(variant, total) != _folded(variant, [-2] + [0] * (len(row) - 1)):
            out.add((variant, d))
    return out


def test_vanishing_rows_are_the_t_root_of_the_nu_rows():
    assert _vanishing_identity_breaks(NU_ROWS, VANISHING_ROWS) == set()


def test_nu_rows_mirror_their_reverse_direction():
    assert _mirror_identity_breaks(NU_ROWS) == set()


ONE_KEY_PER_VARIANT = [("SO", (-1,)), ("SU", (0, 1)), ("Sp", (0, -1)), ("F4", (-1, 1))]


@pytest.mark.parametrize("key", ONE_KEY_PER_VARIANT, ids=lambda key: key[0])
def test_vanishing_identity_catches_a_moved_coefficient(key):
    c_rho, c_1, *rest = VANISHING_ROWS[key]
    moved = VANISHING_ROWS | {key: (c_rho, c_1 + 1, *rest)}
    assert _vanishing_identity_breaks(NU_ROWS, moved) == {key}


@pytest.mark.parametrize("key", ONE_KEY_PER_VARIANT, ids=lambda key: key[0])
def test_mirror_identity_catches_a_shifted_constant(key):
    row = NU_ROWS[key]
    moved = NU_ROWS | {key: row[:-1] + (row[-1] + 1,)}
    variant, d = key
    assert _mirror_identity_breaks(moved) == {key, (variant, tuple(-x for x in d))}


VANISH_FAMILIES = ([so(n) for n in range(3, 9)] + [su(n) for n in range(2, 6)]
                   + [sp(n) for n in range(2, 5)] + [f4()])


@pytest.mark.parametrize("fam", VANISH_FAMILIES)
def test_vanishing_table(fam):
    assert vanishing_table_check(fam, 10) is vanishing_table_check_fractions(fam, 10) is True


def test_the_scalar_sweep_reads_two_rho_once_per_family_and_caller(capsys, monkeypatch):
    """2rho(H) is read per family, not per edge: `edges`, `vanishing_table_check`
    and the CLI's trivial-route check each read it once."""
    calls = Counter()
    true = groups.two_rho_H

    def counted(fam):
        calls[fam] += 1
        return true(fam)

    monkeypatch.setattr(groups, "two_rho_H", counted)
    monkeypatch.setattr(scalars, "two_rho_H", counted)
    assert main(["verify", "scalars", "--depth", "6"]) == 0
    capsys.readouterr()
    assert len(calls) == 14 and max(calls.values()) <= 4, calls


def test_vanishing_rows_explicit():
    # one hand-checked row per family
    fam = so(7)
    for ell in range(5):
        assert t_of(fam, label(fam, ell), label(fam, ell + 1),
                        SpectralParam(-rho_H(fam) - ell)) == 0
    fam = sp(3)
    for a in range(1, 5):
        for b in range(1, a + 1):
            assert t_of(fam, label(fam, a, b), label(fam, a, b - 1),
                            SpectralParam(rho_H(fam) + 2 * b - 4)) == 0
    fam = f4()
    for m in range(1, 6):
        for k in range(2 - m % 2, m + 1, 2):
            assert t_of(fam, label(fam, m, k), label(fam, m + 1, k - 1),
                            SpectralParam(-(rho_H(fam) - 6 + m - k))) == 0
    fam = su(4)
    for q in range(1, 5):
        assert t_of(fam, label(fam, 2, q), label(fam, 2, q - 1),
                        SpectralParam(rho_H(fam) + 2 * (q - 1))) == 0


GROWTH_FAMILIES = [su(2), su(3), su(5), sp(2), sp(3), f4()]


@pytest.mark.parametrize("fam", GROWTH_FAMILIES)
def test_growth_product_equals_closed_form(fam):
    for ell in range(4):
        for steps in (1, 2, 5, 17, 40):
            product, closed = growth_product(fam, ell, steps)
            assert product == closed, (fam, ell, steps)


def test_growth_single_step():
    for fam, ell in [(su(3), 0), (sp(2), 1), (f4(), 2)]:
        product, closed = growth_product(fam, ell, 1)
        assert product == closed == growth_step_ratio(fam, ell, 2, ell + 1)


def test_growth_product_so_unsupported():
    from rankone.groups import UnsupportedFamilyError
    with pytest.raises(UnsupportedFamilyError):
        growth_product(so(5), 0, 3)


def test_growth_orders():
    assert growth_order(su(3), 1) == 2 * 3 + 1 == growth_order_stated(su(3), 1)
    assert growth_order(sp(2), 0) == 2 * 2 - 1 == growth_order_stated(sp(2), 0)
    assert growth_order(f4(), 0) == 5 == growth_order_stated(f4(), 0)
    assert growth_order(su(2), 3) == growth_order_stated(su(2), 3)
    assert growth_order(sp(3), 2) == growth_order_stated(sp(3), 2)
    assert growth_order(f4(), 3) == growth_order_stated(f4(), 3)


# SU n = 2..8, Sp n = 2..6 and F4, each at ell = 0..5
GROWTH_GRID = ([(su(n), ell) for n in range(2, 9) for ell in range(6)]
               + [(sp(n), ell) for n in range(2, 7) for ell in range(6)]
               + [(f4(), ell) for ell in range(6)])


def test_growth_order_is_the_stated_row_on_a_grid():
    assert len(GROWTH_GRID) == 78
    for fam, ell in GROWTH_GRID:
        assert growth_order(fam, ell) == growth_order_stated(fam, ell), (fam, ell)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(st.sampled_from(sorted(GROWTH_ORDERS)), st.integers(2, 50), st.integers(0, 20))
def test_growth_order_is_the_stated_row_at_large_n_and_ell(variant, n, ell):
    fam = f4() if variant == "F4" else GroupFamily(variant, n)
    assert growth_order(fam, ell) == growth_order_stated(fam, ell)


def _growth_order_failures(capsys) -> tuple[int, set[str]]:
    code = main(["verify", "scalars", "--depth", "3"])
    checks = json.loads(capsys.readouterr().out)["checks"]
    return code, {c["instance"] for c in checks if c["id"] == "growth-order" and c["status"] == "fail"}


@pytest.mark.parametrize("shift", [-1, 1])
@pytest.mark.parametrize("variant", sorted(GROWTH_ORDERS))
def test_a_moved_growth_order_row_fails_its_families(capsys, monkeypatch, variant, shift):
    # the degree never reads GROWTH_ORDERS, so it catches a wrong stated row
    a, b, c = GROWTH_ORDERS[variant]
    monkeypatch.setitem(GROWTH_ORDERS, variant, (a, b, c + shift))
    verified = {"SU": {str(su(2)), str(su(3))}, "Sp": {str(sp(2)), str(sp(3))}, "F4": {str(f4())}}
    assert _growth_order_failures(capsys) == (1, verified[variant])


def test_a_growth_above_the_degree_bound_fails_its_check(capsys, monkeypatch):
    # 2**m is no polynomial: no difference row vanishes, the degree raises
    # AssertionError and the sweep reports the check as failed
    monkeypatch.setattr(scalars, "growth_closed_form", lambda fam, ell, steps, fixed: Q(2) ** steps)
    with pytest.raises(AssertionError, match="degree above 16"):
        growth_order(su(3), 1)
    assert _growth_order_failures(capsys) == (1, {str(su(2)), str(su(3)), str(f4())})


def _t_ratio(fam, ell, v, y):
    """Squared-norm step ratio derived from the exact T-scalars."""
    mu = exceptional_mu(fam, ell)
    dims = Q(weyl_dim(fam, v), weyl_dim(fam, y))
    return -(dims ** 2) * t_of(fam, v, y, mu) / t_of(fam, y, v, mu)


@pytest.mark.parametrize("fam", [sp(2), sp(3), sp(4)])
def test_sp_step_ratio_matches_t_scalars(fam):
    for ell in range(3):
        b = ell + 1
        for r in range(2, 8):
            a = ell + r
            derived = _t_ratio(fam, ell, label(fam, a, b), label(fam, a - 1, b))
            assert growth_step_ratio(fam, ell, r, b) == derived


def test_f4_step_ratio_matches_t_scalars():
    fam = f4()
    for ell in range(3):
        b = ell + 1
        for r in range(2, 8):
            a = ell + r
            m, k = a + b, a - b
            derived = _t_ratio(fam, ell, label(fam, m, k), label(fam, m - 1, k - 1))
            dims = Q(weyl_dim(fam, label(fam, m, k)), weyl_dim(fam, label(fam, m - 1, k - 1)))
            assert growth_step_ratio(fam, ell, r, b) * dims == derived


def test_su_step_ratio_shift():
    # The tabulated SU step carries (n+p)/(p-1-ell) where the T-scalar route
    # gives (n+p+ell-1)/(p-1-ell); they agree exactly when ell = 1.
    fam = su(3)
    n = 3
    for ell in range(3):
        q = ell + 1
        for r in range(2, 7):
            p = ell + r
            derived = _t_ratio(fam, ell, label(fam, p, q), label(fam, p - 1, q))
            tabulated = growth_step_ratio(fam, ell, r, q)
            assert tabulated * Q(n + p + ell - 1, n + p) == derived
            if ell == 1:
                assert tabulated == derived


def test_growth_closed_form_at_zero_steps_is_one():
    for fam in GROWTH_FAMILIES:
        assert growth_closed_form(fam, 2, 0, 3) == 1


def test_growth_spec_bundle():
    assert growth_order_stated(sp(2), 1) == 2 * 2 - 1 + 2
    prod = Q(1)
    for r in range(2, 10):
        prod *= growth_step_ratio(sp(2), 1, r, 2)
    assert prod == growth_closed_form(sp(2), 1, 8, 2)


def _sp_factorial_reference(n, ell, m):
    return Q(factorial(2 * n - 1 + 2 * ell + m), factorial(m) * factorial(2 * n + 2 * ell))


def _closed_form_reference(fam, ell, steps, fixed):
    """The closed form on whole factorials, before the quotients were cancelled."""
    n, m = fam.n, steps + 1
    if fam.variant == "SU":
        q = fixed
        num = ((n + ell + m + q - 1) * factorial(n + ell + m - 2) * factorial(ell + 1)
               * factorial(n + ell + m))
        den = ((n + ell + q) * factorial(n + ell - 1) * factorial(ell + m)
               * factorial(m - 1) * factorial(n + ell + 1))
        return Q(num, den)
    if fam.variant == "Sp":
        b = fixed
        dims = Q(weyl_dim(fam, label(fam, ell + m, b)), weyl_dim(fam, label(fam, ell + 1, b)))
        return _sp_factorial_reference(n, ell, m) * dims
    p = steps + 1
    return Q(6 * factorial(7 + 2 * ell + p), factorial(8 + 2 * ell) * factorial(2 + p))


@pytest.mark.parametrize("fam", GROWTH_FAMILIES)
def test_integer_closed_form_matches_fraction_reference(fam):
    # every step count up to 64; beyond, up to 600, every one at ell 0 and 8 and a stride between
    rng = random.Random(str(fam))
    for ell in range(9):
        for steps in [*range(65), *range(65, 601, 1 if ell in (0, 8) else 23)]:
            fixed = rng.randint(0, ell + 1) if fam.variant == "Sp" else rng.randint(0, 12)
            assert growth_closed_form(fam, ell, steps, fixed) == \
                _closed_form_reference(fam, ell, steps, fixed), (ell, steps, fixed)
            if fam.variant == "Sp":
                assert _sp_factorial_part(fam.n, ell, steps + 1) == \
                    _sp_factorial_reference(fam.n, ell, steps + 1), (ell, steps)


def test_growth_refuses_negative_ell_and_steps():
    # the factorials are undefined there; the old empty products gave 1
    for fam in GROWTH_FAMILIES:
        with pytest.raises(ValueError, match="nonnegative"):
            growth_closed_form(fam, -1, 3, 0)
        with pytest.raises(ValueError, match="nonnegative"):
            growth_closed_form(fam, 0, -1, 1)
        with pytest.raises(ValueError, match="nonnegative"):
            growth_order(fam, -1)
        with pytest.raises(ValueError, match="nonnegative"):
            growth_product(fam, -1, 3)

