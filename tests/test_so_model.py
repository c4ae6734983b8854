import math
from fractions import Fraction as Q
from itertools import combinations

import numpy as np
import pytest

from rankone import so_model as M
from rankone.cli import main
from rankone.groups import SpectralParam, rho_H, so
from rankone.ktypes import label, weyl_dim
from rankone.poly import peval
from rankone.scalars import t_scalar
from rankone.spherical import lambda_scalar
from tests.references import poly_in_direction_dense


def SP(x):
    return SpectralParam(Q(x))


# -- exact layer ---------------------------------------------------------------


def test_sphere_moments():
    assert M.sphere_moment(3, (2, 0, 0)) == Q(1, 3)
    assert M.sphere_moment(2, (2, 2)) == Q(1, 8)
    assert M.sphere_moment(4, (1, 2, 0, 0)) == 0
    assert M.sphere_moment(3, (0, 0, 0)) == 1
    # rotation invariance: sum over coordinates of x_i^2 integrates to 1
    for n in (2, 3, 4, 5):
        idx = [0] * n
        total = Q(0)
        for i in range(n):
            idx[i] = 2
            total += M.sphere_moment(n, idx)
            idx[i] = 0
        assert total == 1
    with pytest.raises(ValueError):
        M.sphere_moment(3, (2, 0))


def test_zonal_polynomials():
    assert M.zonal_coeffs(3, 1) == [0, 1]  # Z_1 = x1
    assert peval(M.zonal_coeffs(5, 4), 1) == 1
    # n = 3 zonals are Legendre polynomials: P_2 = (3x^2-1)/2
    assert M.zonal_coeffs(3, 2) == [Q(-1, 2), 0, Q(3, 2)]


@pytest.mark.parametrize("n", (3, 4, 5))
def test_zonal_l2_norm_is_inverse_dimension(n):
    for k in range(9):
        assert M.zonal_l2_norm(n, k) == Q(1, weyl_dim(so(n), label(so(n), k)))


@pytest.mark.parametrize("n", (3, 4, 5, 6))
def test_harmonic_extension(n):
    for k in range(9):
        assert M.harmonic_extension_is_harmonic(n, k)


def test_reproducing_identity():
    ident = [[Q(1) if i == j else Q(0) for j in range(3)] for i in range(3)]
    assert M.reproducing_check(3, 2, ident)
    for k in range(7):
        assert M.reproducing_check(3, k, M.pythagorean_rotation(3, 0, 1))
    assert M.reproducing_check(4, 2, M.pythagorean_rotation(4, 0, 2))
    # a generic rotation: R e1 = (9/25, 12/25, 4/5, 0) has three nonzero coordinates
    a, b = M.pythagorean_rotation(4, 0, 1), M.pythagorean_rotation(4, 0, 2)
    r = [[sum(a[i][m] * b[m][j] for m in range(4)) for j in range(4)] for i in range(4)]
    assert [row[0] for row in r] == [Q(9, 25), Q(12, 25), Q(4, 5), 0]
    for k in range(4):
        assert M.reproducing_check(4, k, r)


def _product(n, planes):
    """The product of the pythagorean rotations in the given (i, j) planes."""
    r = [[Q(int(i == j)) for j in range(n)] for i in range(n)]
    for i, j in planes:
        g = M.pythagorean_rotation(n, i, j)
        r = [[sum(r[a][m] * g[m][b] for m in range(n)) for b in range(n)] for a in range(n)]
    return r


@pytest.mark.parametrize("n,planes", [
    (3, []), (3, [(0, 1)]), (5, [(0, 2)]), (6, [(0, 1), (0, 4)]), (7, [(0, 3), (3, 5), (1, 2)]),
    (5, [(0, 1), (0, 2), (0, 3), (0, 4)])])
def test_poly_in_direction_keeps_to_the_support(n, planes):
    """Expanding Z(v . x) over the support of v = R e1 gives the dense expansion
    over all n coordinates, less its zero monomials."""
    v = [row[0] for row in _product(n, planes)]
    for k in range(6):
        z = M.zonal_coeffs(n, k)
        dense = {e: c for e, c in poly_in_direction_dense(z, v, n).items() if c}
        assert {e: c for e, c in M._poly_in_direction(z, v, n).items() if c} == dense, (n, k)
        assert M.reproducing_check(n, k, _product(n, planes)), (n, k)


@pytest.mark.parametrize("n", range(2, 7))
def test_check_2rho(n):
    assert M.check_2rho(n)


# -- Lorentz model ---------------------------------------------------------------


def test_iwasawa_special_elements():
    n = 3
    k, s, u = M.iwasawa(np.eye(n + 1))
    assert s == 0 and np.allclose(u, 0) and np.allclose(k, np.eye(n + 1))
    k, s, u = M.iwasawa(M.boost(n, 0, 0.8))
    assert abs(s - 0.8) < 1e-12 and np.allclose(u, 0)
    g = M.nilpotent(n, np.array([0.3, -0.2]))
    k, s, u = M.iwasawa(g)
    assert abs(s) < 1e-12 and np.allclose(u, [0.3, -0.2]) and np.allclose(k, np.eye(4))


def test_iwasawa_rejects_non_lorentz():
    with pytest.raises(ValueError):
        M.iwasawa(2 * np.eye(4))


@pytest.mark.parametrize("n", (2, 3, 4, 5))
def test_iwasawa_roundtrip(n):
    assert M.iwasawa_roundtrip_error(n, 11) <= 1e-9


# -- the stacked Lorentz model against the one-matrix-at-a-time reference -------
#
# The reference below is the model as it was before the helpers took a batch
# axis: one elementary matrix, one product and one factorisation at a time.


def _ref_boost(n, i, t):
    g = np.eye(n + 1)
    g[i, i] = g[n, n] = math.cosh(t)
    g[i, n] = g[n, i] = math.sinh(t)
    return g


def _ref_rotation(n, i, j, t):
    g = np.eye(n + 1)
    g[i, i] = g[j, j] = math.cos(t)
    g[i, j] = -math.sin(t)
    g[j, i] = math.sin(t)
    return g


def _ref_nilpotent(n, u):
    x = np.zeros((n + 1, n + 1))
    for i in range(1, n):
        x[0, i] = u[i - 1]
        x[i, 0] = -u[i - 1]
        x[i, n] = u[i - 1]
        x[n, i] = u[i - 1]
    return np.eye(n + 1) + x + x @ x / 2.0


def _ref_iwasawa(g):
    n = g.shape[0] - 1
    es = g[n, 0] + g[n, n]
    s = math.log(es)
    u = g[n, 1:n] / es
    k = g @ _ref_nilpotent(n, -u) @ _ref_boost(n, 0, -s)
    return k, s, u


def _ref_random_lorentz(n, rng):
    g = np.eye(n + 1)
    for i, j in combinations(range(n), 2):
        g = g @ _ref_rotation(n, i, j, rng.uniform(-1, 1))
    for i in range(n):
        g = g @ _ref_boost(n, i, rng.uniform(-1, 1))
    return g


def _ref_roundtrip_error(n, samples, seed):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        g = _ref_random_lorentz(n, rng)
        k, s, u = _ref_iwasawa(g)
        back = k @ _ref_boost(n, 0, s) @ _ref_nilpotent(n, u)
        worst = max(worst, float(np.max(np.abs(back - g))))
        blk = k[:n, :n]
        worst = max(worst, float(np.max(np.abs(blk.T @ blk - np.eye(n)))))
    return worst


@pytest.mark.parametrize("n", (2, 3, 4, 5))
def test_stacked_roundtrip_error_equals_the_per_matrix_loop(n):
    for seed in range(10):
        assert M.iwasawa_roundtrip_error(n, seed) == _ref_roundtrip_error(n, M.SAMPLES, seed), seed


def test_one_matrix_helpers_equal_the_reference():
    rng = np.random.default_rng(5)
    for n in (2, 3, 4, 5):
        for t in rng.uniform(-2, 2, size=5):
            for i in range(n):
                assert np.array_equal(M.boost(n, i, t), _ref_boost(n, i, t))
            for i, j in combinations(range(n), 2):
                assert np.array_equal(M.rotation(n, i, j, t), _ref_rotation(n, i, j, t))
        u = rng.uniform(-1, 1, size=n - 1)
        assert np.array_equal(M.nilpotent(n, u), _ref_nilpotent(n, u))
        g = _ref_random_lorentz(n, rng)
        for got, want in zip(M.iwasawa(g), _ref_iwasawa(g)):
            assert np.array_equal(got, want)


@pytest.mark.parametrize("n", (2, 3, 4, 5))
def test_stacked_helpers_equal_one_matrix_at_a_time(n):
    seed = 40 + n
    stack = M.random_lorentz(n, np.random.default_rng(seed), (30,))
    rng = np.random.default_rng(seed)
    singles = [_ref_random_lorentz(n, rng) for _ in range(30)]
    assert stack.shape == (30, n + 1, n + 1)
    assert np.array_equal(stack, np.array(singles))
    k, s, u = M.iwasawa(stack)
    for i, g in enumerate(singles):
        k_i, s_i, u_i = M.iwasawa(g)
        assert np.array_equal(k[i], k_i) and s[i] == s_i and np.array_equal(u[i], u_i)
    t = np.linspace(-1, 1, 7)
    assert np.array_equal(M.boost(n, n - 1, t), np.array([M.boost(n, n - 1, x) for x in t]))
    assert np.array_equal(M.rotation(n, 0, 1, t), np.array([M.rotation(n, 0, 1, x) for x in t]))
    assert np.array_equal(M.nilpotent(n, u), np.array([M.nilpotent(n, x) for x in u]))
    assert M.is_lorentz(stack)


def test_stacked_iwasawa_rejects_one_bad_matrix():
    rng = np.random.default_rng(2)
    stack = M.random_lorentz(3, rng, (5,))
    stack[3] = 2 * np.eye(4)
    assert not M.is_lorentz(stack)
    with pytest.raises(ValueError):
        M.iwasawa(stack)


def test_boost_frames_equal_the_per_boost_factorisation():
    for n in (3, 4):
        axes, s = M._boost_frames(n)
        for j in range(n):
            for side, t in enumerate((M.STEP_H, -M.STEP_H)):
                k_inv, s_j, _ = M.iwasawa(M.lorentz_inverse(M.boost(n, j, t)))
                assert np.array_equal(axes[j, side], k_inv[:n, 0]) and s[j, side] == s_j


def test_cached_model_inputs_are_read_only():
    axes, s = M._boost_frames(3)
    for arr in (axes, s, M.sphere_points(3, 50, 0)):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    assert isinstance(M._zonal_floats(3, 2), tuple)


def test_so_model_suite_factors_each_matrix_stack_once(monkeypatch, capsys):
    # one stacked round trip per n = 3, 4, 5 and one stack of boost frames per
    # n = 3, 4; factoring per (k, mu) again would make hundreds of calls
    M._boost_frames.cache_clear()
    calls = []
    real = M.iwasawa

    def counted(g):
        calls.append(g.shape)
        return real(g)

    monkeypatch.setattr(M, "iwasawa", counted)
    assert main(["verify", "so-model", "--depth", "6"]) == 0
    capsys.readouterr()
    M._boost_frames.cache_clear()
    assert len(calls) == 5
    assert sorted(calls) == [(3, 2, 4, 4), (4, 2, 5, 5), (100, 4, 4), (100, 5, 5), (100, 6, 6)]


def test_nilpotent_is_lorentz_and_unipotent():
    n = 4
    g = M.nilpotent(n, np.array([0.5, -1.2, 0.7]))
    assert M.is_lorentz(g)
    x = g - np.eye(n + 1)
    assert np.allclose(x @ x @ x, 0)


def test_poisson_delta_special_cases():
    # a_I(g^-1)^{-(mu+rho)} Z_k along the rotated axis k_I(g^-1) e1
    n, k = 3, 2
    pts = M.sphere_points(n, 20, seed=2)
    z = [float(c) for c in M.zonal_coeffs(n, k)]

    def delta(mu, g):
        return M._delta_at(n, z, SP(mu), *M._frame(n, g), pts)

    base = np.array([peval(z, p[0]) for p in pts])
    # at the identity: the zonal function itself
    assert np.allclose(delta(Q(1, 2), np.eye(n + 1)), base)
    # on the horospherical subgroup: unchanged
    g = M.nilpotent(n, np.array([0.4, -0.1]))
    assert np.max(np.abs(delta(Q(1, 2), g) - base)) < 1e-12
    # along exp(sH): scales by exp(s (mu+rho)(H))
    mu = Q(-1, 2)
    got = delta(mu, M.boost(n, 0, 0.3))
    assert np.allclose(got, math.exp(0.3 * float(mu + rho_H(so(n)))) * base)


def float_horner(p, x):
    """Horner evaluation seeded with the float 0.0, as the model once evaluated."""
    acc = 0.0
    for c in reversed(p):
        acc = acc * x + float(c)
    return acc


def test_array_horner_equals_the_per_point_loop():
    # the same float operations in the same order, so equal bit for bit; peval's
    # int seed 0 gives the same floats as a 0.0 seed, along pts[:, 0] and pts @ axis
    rng = np.random.default_rng(5)
    for n in (3, 4, 5):
        pts = M.sphere_points(n, 50, seed=n)
        axis = rng.normal(size=n)
        axis /= np.linalg.norm(axis)
        for k in range(10):
            z = M._zonal_floats(n, k)
            loop = np.array([peval(z, float(p[0])) for p in pts])
            assert np.array_equal(peval(z, pts[:, 0]), loop), (n, k)
            for x in (pts[:, 0], pts @ axis):
                assert np.array_equal(peval(z, x), float_horner(z, x)), (n, k)


def test_matrix_product_axis_is_within_roundoff_of_row_dots():
    # points @ axis may sum in another order than each row's dot product
    rng = np.random.default_rng(4)
    for n in (3, 4, 5):
        pts = M.sphere_points(n, 50, seed=n)
        for _ in range(10):
            k_factor, _, _ = M.iwasawa(M.random_lorentz(n, rng))
            axis = k_factor[:n, 0]
            rows = np.array([float(pts[i] @ axis) for i in range(len(pts))])
            assert np.max(np.abs(pts @ axis - rows)) <= 1e-15


GRID_MUS = (Q(-2), Q(-1), Q(-1, 2), Q(0), Q(1, 2), Q(1))


@pytest.mark.parametrize("n", (3, 4))
def test_intertwining_grid(n):
    worst = 0.0
    for k in range(4):
        for mu in GRID_MUS:
            rep = M.verify_intertwining(n, k, SpectralParam(mu), 0)
            worst = max(worst, rep.residual, rep.gradient_h_residual)
    assert worst <= 1e-5


def test_intertwining_k0_explicit():
    # for the trivial type the combined gradient is (mu+rho)(H) Z_1 exactly
    rep = M.verify_intertwining(3, 0, SP(Q(1, 2)), 0)
    assert rep.residual <= 1e-5
    assert abs(rep.coefficients[1] - 1.5) <= 1e-6  # (1/2 + 1) lambda(Y_0,Y_1)


def test_gradient_coefficients_match_scalars():
    n, k = 4, 2
    mu = SP(Q(1, 2))
    rep = M.verify_intertwining(n, k, mu, 0)
    fam = so(n)
    for tgt in (k - 1, k + 1):
        v, y = label(fam, k), label(fam, tgt)
        want = float(t_scalar(fam, v, y, mu, lambda_scalar(fam, v, y)))
        assert abs(rep.coefficients[tgt] - want) <= 1e-6
    assert abs(rep.coefficients[k]) <= 1e-6  # no middle component


def test_the_zonal_fit_runs_only_when_its_coefficients_are_read(capsys, monkeypatch):
    fits = []
    true = M._fit_zonal

    def counted(*args):
        fits.append(args[:2])
        return true(*args)

    monkeypatch.setattr(M, "_fit_zonal", counted)
    rep = M.verify_intertwining(4, 2, SP(Q(1, 2)), 0)
    assert rep.residual <= 1e-5 and not fits
    assert rep.coefficients is rep.coefficients and fits == [(4, (1, 2, 3))]
    fits.clear()
    assert main(["verify", "so-model", "--depth", "6"]) == 0
    capsys.readouterr()
    # only exceptional_vanishing_residual reads a fit: n in (3, 4), ell in (0, 1, 2)
    assert len(fits) == 6


@pytest.mark.parametrize("n", (3, 4))
def test_exceptional_vanishing(n):
    for ell in range(3):
        assert M.exceptional_vanishing_residual(n, ell, 0) <= 1e-5


def test_exceptional_scalar_is_exactly_zero():
    for n in (3, 4, 5):
        fam = so(n)
        for ell in range(4):
            mu = SpectralParam(-rho_H(fam) - ell)
            v, y = label(fam, ell), label(fam, ell + 1)
            assert t_scalar(fam, v, y, mu, lambda_scalar(fam, v, y)) == 0


def test_lambda_equals_exact_zonal_projection():
    # The recurrence coefficients equal dim(Y) <x1 Z_V, Z_Y>, computed with
    # exact sphere moments: an independent integral route to lambda(V, Y).
    from rankone.poly import pmul
    from rankone.spherical import lambda_scalar

    x1 = [Q(0), Q(1)]
    for n in (3, 4, 5, 6):
        fam = so(n)
        zs = {k: M.zonal_coeffs(n, k) for k in range(7)}
        for v in range(6):
            for y in range(7):
                integral = M._integrate_x1_poly(n, pmul(pmul(x1, zs[v]), zs[y]))
                lam = weyl_dim(fam, label(fam, y)) * integral
                assert lam == lambda_scalar(fam, label(fam, v), label(fam, y)), (n, v, y)
