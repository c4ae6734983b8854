"""Concrete Lorentz-matrix model of SO(n,1) and numerical intertwining checks.

Matrices are (n+1) x (n+1) floats preserving J = diag(1,...,1,-1); K is the
block SO(n), A the boost group exp(s H) in the (1, n+1) plane with alpha(H)=1,
and N the upper horospherical subgroup.  Exact arithmetic is used for
everything that can be exact: sphere moments, zonal polynomial coefficients
and L^2 norms in rationals, and the Lie-bracket identity
Sum_j [X~_j, (X_j)_k] = 2 rho(H) H in integer matrices.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations, combinations_with_replacement
from typing import Sequence

import numpy as np

from .groups import SpectralParam, rho_H, so
from .ktypes import label, weyl_dim
from .poly import Poly, binomial_row, peval, pmul, trim
from .scalars import t_scalar
from .spherical import lambda_scalar, omega_h_expand, zonal_factor

# -- exact zonal polynomials ---------------------------------------------------


def zonal_coeffs(n: int, k: int) -> Poly:
    """Coefficients (ascending powers of x1 = cos xi) of the degree-k zonal function.

    Expansion of `spherical.zonal_factor(n, k)`, cos^k F(-k/2, (1-k)/2,
    (n-1)/2, -tan^2), with sin^2 = 1 - x1^2; normalized to 1 at x1 = 1.
    Summed in Z[x1] over the series denominator, with (1 - x1^2)^j as the
    signed binomial row of (1 - z)^j at z = x1^2.
    """
    if n < 2 or k < 0:
        raise ValueError("need n >= 2 and k >= 0")
    series = zonal_factor(n, k).series
    out = [0] * (k + 1)
    for j, c in enumerate(series.negated_nums()):
        for i, b in enumerate(binomial_row(j)):
            out[k - 2 * j + 2 * i] += b * c
    out = trim(out)
    if sum(out) != series.den:
        raise AssertionError("zonal polynomial must equal 1 at the base point")
    return [Fraction(c, series.den) for c in out]


def harmonic_extension_is_harmonic(n: int, k: int) -> bool:
    """Exact check that the homogeneous extension has vanishing Laplacian.

    The extension is P(x) = sum_j a_j x1^(k-2j) r^(2j), r^2 = x2^2 + ... + xn^2,
    where a_j are the coefficients of F(-k/2, (1-k)/2, (n-1)/2, -z) in
    `spherical.zonal_factor(n, k)`.  The check runs on their numerators over
    the series denominator.
    """
    a = zonal_factor(n, k).series.negated_nums() + [0]
    for j in range(len(a) - 1):
        m = k - 2 * j
        if m * (m - 1) * a[j] + 2 * (j + 1) * (2 * j + n - 1) * a[j + 1] != 0:
            return False
    return True


# -- exact integration over the unit sphere ------------------------------------


def sphere_moment(n: int, multi_index: Sequence[int]) -> Fraction:
    """Normalized moment of a monomial over S^(n-1), via the double-factorial rule."""
    if n < 2 or len(multi_index) != n or any(a < 0 for a in multi_index):
        raise ValueError("multi_index must be n nonnegative integers")
    if any(a % 2 for a in multi_index):
        return Fraction(0)
    halves = [a // 2 for a in multi_index]
    num = 1
    for b in halves:
        for j in range(b):
            num *= 2 * j + 1
    den = 1
    for j in range(sum(halves)):
        den *= n + 2 * j
    return Fraction(num, den)


def _integrate_x1_poly(n: int, p: Poly) -> Fraction:
    idx = [0] * n
    total = Fraction(0)
    for m, c in enumerate(p):
        if c:
            idx[0] = m
            total += c * sphere_moment(n, idx)
    return total


def zonal_l2_norm(n: int, k: int) -> Fraction:
    """Exact <Z_k, Z_k> over the sphere; equals 1/dim of the harmonic space."""
    if n < 3:
        raise ValueError("the zonal L2 identity needs n >= 3")
    z = zonal_coeffs(n, k)
    return _integrate_x1_poly(n, pmul(z, z))


def _poly_in_direction(z: Poly, v: Sequence, n: int) -> dict[tuple[int, ...], object]:
    """Expand Z(v . x) as a dict {exponent multi-index: coefficient} over the support of v."""
    out: dict[tuple[int, ...], object] = {}
    for m, c in enumerate(z):
        if c == 0:
            continue
        for combo in combinations_with_replacement([i for i in range(n) if v[i]], m):
            exps = [0] * n
            coef = c
            for i in combo:
                exps[i] += 1
            # multinomial m! / prod exps!
            mult = math.factorial(m)
            for e in exps:
                mult //= math.factorial(e)
            for i, e in enumerate(exps):
                if e:
                    coef = coef * v[i] ** e
            key = tuple(exps)
            out[key] = out.get(key, 0) + mult * coef
    return out


def reproducing_check(n: int, k: int, rotation) -> bool:
    """Reproducing identity Z_k((R e1)_1)/dim = <Z_k, Z_k(R^-1 .)> on the sphere.

    Exact: `rotation` has rational (Fraction or int) entries, such as a product
    of `pythagorean_rotation`s, and the two sides must be equal.
    """
    if n < 3:
        raise ValueError("needs n >= 3")
    v = [rotation[i][0] for i in range(n)]  # R e1
    z = zonal_coeffs(n, k)
    lhs = peval(z, v[0]) / weyl_dim(so(n), label(so(n), k))
    moments: dict[tuple[int, ...], Fraction] = {}
    rhs = Fraction(0)
    for exps, coef in _poly_in_direction(z, v, n).items():
        for m, c in enumerate(z):
            if c == 0:
                continue
            key = (exps[0] + m,) + exps[1:]
            if key not in moments:
                moments[key] = sphere_moment(n, key)
            rhs += coef * c * moments[key]
    return lhs == rhs


def pythagorean_rotation(n: int, i: int, j: int) -> list[list[Fraction]]:
    """A rational rotation by the (3,4,5) angle in the (i, j) plane."""
    r = [[Fraction(1) if a == b else Fraction(0) for b in range(n)] for a in range(n)]
    r[i][i] = r[j][j] = Fraction(3, 5)
    r[i][j] = Fraction(-4, 5)
    r[j][i] = Fraction(4, 5)
    return r


# -- Lorentz matrices and the Iwasawa decomposition ----------------------------
#
# Every helper here takes a leading batch axis: a scalar parameter (or a 2-D
# matrix) gives one matrix, an array of parameters (or a stack of matrices)
# gives the stack, element for element equal to the one-matrix results.


def _libm(f, t):
    """The `math` function f applied to each entry of t; a scalar t gives a scalar.

    numpy's own cos, cosh and log may differ from libm in the last bit.
    """
    t = np.asarray(t, dtype=float)
    return np.fromiter(map(f, t.flat), float, t.size).reshape(t.shape)[()]


def _identity(n: int, shape: tuple[int, ...]) -> np.ndarray:
    return np.broadcast_to(np.eye(n + 1), shape + (n + 1, n + 1)).copy()


def _metric(n: int) -> np.ndarray:
    j = np.eye(n + 1)
    j[n, n] = -1.0
    return j


def is_lorentz(g: np.ndarray) -> bool:
    """g preserves J up to 1e-10 per entry, has det +1 and lies in the identity component.

    On a stack of matrices: every one of them does.
    """
    n = g.shape[-1] - 1
    j = _metric(n)
    if not np.all(np.abs(np.swapaxes(g, -1, -2) @ j @ g - j) <= 1e-10):
        return False
    return bool(np.all(np.linalg.det(g) > 0) and np.all(g[..., n, n] > 0))


def boost(n: int, i: int, t) -> np.ndarray:
    """exp(t (E_{i,n+1} + E_{n+1,i})); i = 0 gives exp(t H)."""
    ch, sh = _libm(math.cosh, t), _libm(math.sinh, t)
    g = _identity(n, np.shape(t))
    g[..., i, i] = g[..., n, n] = ch
    g[..., i, n] = g[..., n, i] = sh
    return g


def rotation(n: int, i: int, j: int, t) -> np.ndarray:
    c, s = _libm(math.cos, t), _libm(math.sin, t)
    g = _identity(n, np.shape(t))
    g[..., i, i] = g[..., j, j] = c
    g[..., i, j] = -s
    g[..., j, i] = s
    return g


def nilpotent(n: int, u: np.ndarray) -> np.ndarray:
    """exp of the horospherical element with parameters u in R^(n-1)."""
    x = np.zeros(np.shape(u)[:-1] + (n + 1, n + 1))
    x[..., 0, 1:n] = u
    x[..., 1:n, 0] = -u
    x[..., 1:n, n] = u
    x[..., n, 1:n] = u
    return np.eye(n + 1) + x + x @ x / 2.0


def lorentz_inverse(g: np.ndarray) -> np.ndarray:
    n = g.shape[-1] - 1
    j = _metric(n)
    return j @ np.swapaxes(g, -1, -2) @ j


def iwasawa(g: np.ndarray) -> tuple[np.ndarray, float | np.ndarray, np.ndarray]:
    """Factor g = k exp(s H) n with k in block SO(n), n horospherical.

    The scale e^s and the parameters of n are read off the last row, which the
    K-factor leaves untouched; k is then recovered by undoing a and n.  A stack
    of matrices is factored in one pass and raises if any matrix is outside
    the chart.
    """
    n = g.shape[-1] - 1
    if not is_lorentz(g):
        raise ValueError("matrix is not in the identity component of the Lorentz group")
    es = g[..., n, 0] + g[..., n, n]
    if np.any(es <= 0):
        raise ValueError("matrix is outside the K A N chart")
    s = _libm(math.log, es)
    u = g[..., n, 1:n] / es[..., None]
    k = g @ nilpotent(n, -u) @ boost(n, 0, -s)
    return k, s, u


def random_lorentz(n: int, rng: np.random.Generator,
                   shape: tuple[int, ...] = ()) -> np.ndarray:
    """Product of elementary rotations and boosts with parameters in [-1, 1].

    `shape` stacks independent samples; the parameters are drawn in the order
    of one matrix after another, so the stack equals that many calls.
    """
    planes = list(combinations(range(n), 2))
    t = rng.uniform(-1, 1, size=shape + (len(planes) + n,))
    g = _identity(n, shape)
    for c, (i, j) in enumerate(planes):
        g = g @ rotation(n, i, j, t[..., c])
    for i in range(n):
        g = g @ boost(n, i, t[..., len(planes) + i])
    return g


SAMPLES = 100  # random Lorentz matrices per round trip


def iwasawa_roundtrip_error(n: int, seed: int) -> float:
    """Worst entry of k a n - g and of k^T k - 1 over SAMPLES seeded random Lorentz g."""
    g = random_lorentz(n, np.random.default_rng(seed), (SAMPLES,))
    k, s, u = iwasawa(g)
    back = k @ boost(n, 0, s) @ nilpotent(n, u)
    blk = k[..., :n, :n]
    return float(max(np.max(np.abs(back - g), initial=0.0),
                     np.max(np.abs(np.swapaxes(blk, -1, -2) @ blk - np.eye(n)), initial=0.0)))


# -- Poisson transform of the delta distribution -------------------------------

STEP_H = 1e-4  # central-difference step along each boost X_j
NUM_POINTS = 50  # sphere points each gradient identity is sampled at


@lru_cache(maxsize=None)
def sphere_points(n: int, count: int, seed: int) -> np.ndarray:
    """Seeded uniform points on S^(n-1), one per row; built once, read-only."""
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(count, n))
    pts /= np.linalg.norm(pts, axis=1, keepdims=True)
    pts.flags.writeable = False
    return pts


@lru_cache(maxsize=None)
def _zonal_floats(n: int, k: int) -> tuple[float, ...]:
    return tuple(float(c) for c in zonal_coeffs(n, k))


def _frame(n: int, g: np.ndarray) -> tuple[np.ndarray, float]:
    """(k_I(g^-1) e1 in R^n, s of a_I(g^-1) = exp(s H)), of a matrix or a stack."""
    k_inv, s, _ = iwasawa(lorentz_inverse(g))
    return k_inv[..., :n, 0], s


@lru_cache(maxsize=None)
def _boost_frames(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Frames of the boosts exp(+-STEP_H X_j), j < n, indexed [j, 0 for +, 1 for -]."""
    t = np.array([STEP_H, -STEP_H])
    axes, s = _frame(n, np.stack([boost(n, j, t) for j in range(n)]))
    axes.flags.writeable = s.flags.writeable = False
    return axes, s


def _delta_at(n: int, z, mu: SpectralParam, axis: np.ndarray, s: float,
              points: np.ndarray) -> np.ndarray:
    """The delta-distribution Poisson transform at sphere points, for g with frame (axis, s).

    a_I(g^-1)^{-(mu+rho)} Z_k along the rotated axis k_I(g^-1) e1, where
    (axis, s) = `_frame(n, g)` and z holds the float coefficients of Z_k.
    """
    factor = math.exp(-s * float(mu.mu_H + rho_H(so(n))))
    return factor * peval(z, points @ axis)


class IntertwiningReport:
    def __init__(self, residual: float, gradient_h_residual: float, n: int, k: int,
                 points: np.ndarray, combined: np.ndarray):
        self.residual = residual  # max |combined gradient - exact scalar combination|
        self.gradient_h_residual = gradient_h_residual  # max |d/ds at e along H - (mu+rho)(H) Z_k|
        self.n = n
        self.k = k
        self.points = points  # the sphere points the gradients were sampled at
        self.combined = combined  # the combined gradient at the points

    @cached_property
    def coefficients(self) -> dict:
        """Least-squares coefficients of the combined function in Z_{k-1}, Z_k and
        Z_{k+1}, fitted on first read: the residuals do not need the fit."""
        return _fit_zonal(self.n, (self.k - 1, self.k, self.k + 1), self.points, self.combined)


def _gradient_sum(n: int, k: int, mu: SpectralParam,
                  points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(combined omega-weighted derivative, derivative along H) at the identity."""
    z = _zonal_floats(n, k)
    axes, s = _boost_frames(n)
    combined = np.zeros(len(points))
    d_h = None
    for j in range(n):
        plus = _delta_at(n, z, mu, axes[j, 0], s[j, 0], points)
        minus = _delta_at(n, z, mu, axes[j, 1], s[j, 1], points)
        deriv = (plus - minus) / (2 * STEP_H)
        if j == 0:
            d_h = deriv
        combined += points[:, j] * deriv
    return combined, d_h


def expected_combination(n: int, k: int, mu: SpectralParam, points: np.ndarray) -> np.ndarray:
    """Exact-scalar side: sum of T(Y_k, Y_{k +- 1}, mu) Z_{k +- 1} at the points."""
    fam = so(n)
    src = label(fam, k)
    out = np.zeros(len(points))
    row = omega_h_expand(fam, src)
    for y, _ in row.nums:  # Y_{k-1} (for k > 0), then Y_{k+1}
        coeff = float(t_scalar(fam, src, y, mu, row.coefficient(y)))
        out += coeff * peval(_zonal_floats(n, y.coords[0]), points[:, 0])
    return out


def verify_intertwining(n: int, k: int, mu: SpectralParam, seed: int) -> IntertwiningReport:
    """Finite-difference check of the gradient identity against the exact scalars.

    The omega-weighted sum of derivatives of the delta Poisson transform along
    an orthonormal basis of p must reproduce the exact rational scalar
    combination of the two neighbouring zonal functions.  Returns the max
    deviations; judging them against a tolerance is the caller's part.  The
    report fits the zonal coefficients only when `coefficients` is read.
    """
    if n < 3:
        raise ValueError("needs n >= 3")
    points = sphere_points(n, NUM_POINTS, seed)
    combined, d_h = _gradient_sum(n, k, mu, points)
    expected = expected_combination(n, k, mu, points)
    target_h = float(mu.mu_H + rho_H(so(n))) * peval(_zonal_floats(n, k), points[:, 0])
    return IntertwiningReport(
        residual=float(np.max(np.abs(combined - expected))),
        gradient_h_residual=float(np.max(np.abs(d_h - target_h))),
        n=n, k=k, points=points, combined=combined,
    )


def _fit_zonal(n: int, degrees, points: np.ndarray, values: np.ndarray) -> dict:
    cols = []
    keys = []
    for d in degrees:
        if d < 0:
            continue
        cols.append(peval(_zonal_floats(n, d), points[:, 0]))
        keys.append(d)
    a = np.array(cols).T
    sol, *_ = np.linalg.lstsq(a, values, rcond=None)
    return dict(zip(keys, sol))


def exceptional_vanishing_residual(n: int, ell: int, seed: int) -> float:
    """|fitted Z_{ell+1} component| of the combined gradient at mu = -rho - ell,
    as `verify_intertwining` fits it.

    At the exceptional parameter the exact scalar coupling Y_ell into Y_{ell+1}
    vanishes, so the numerically projected component must vanish too; this is
    the finite-rank shadow of the gradient annihilating the transform onto the
    socle's minimal type.
    """
    fam = so(n)
    mu = SpectralParam(-rho_H(fam) - ell)
    v, y = label(fam, ell), label(fam, ell + 1)
    if t_scalar(fam, v, y, mu, lambda_scalar(fam, v, y)) != 0:
        raise AssertionError(f"T(Y_{ell}, Y_{ell + 1}) must vanish at mu(H) = {mu.mu_H}")
    report = verify_intertwining(n, ell, mu, seed)
    return abs(float(report.coefficients[ell + 1]))


# -- exact bracket identity for the half-sum of roots --------------------------


def check_2rho(n: int) -> bool:
    """Exact verification of the bracket form of the half-sum of restricted roots.

    Builds root vectors Y_j spanning the alpha-root space, normalized by
    B(Y_j, theta Y_j) = -1/2 with B = Tr/2, forms X_j = Y_j - theta Y_j, and
    checks: the X_j are orthonormal, S = Sum [X_j, (X_j)_k] lies on the H line
    with B(S, H) = 2 rho(H) = n - 1, and the reversed brackets sum to
    -2 rho(H) H.  Y_j, X_j and (X_j)_k are scaled by 2 so that every entry is
    an integer and the checks run exactly on int64 arrays: Tr(Y theta Y) = -4,
    Tr(X X) = 8, 2 S = Tr(S H) H with Tr(S H) = 8 (n - 1), and the reversed
    sum is -4 (n - 1) H.
    """
    if n < 2:
        raise ValueError("needs n >= 2")
    dim = n + 1
    h = np.zeros((dim, dim), dtype=np.int64)
    h[0, n] = h[n, 0] = 1
    j = np.diag([1] * n + [-1]).astype(np.int64)
    total = np.zeros_like(h)
    reversed_total = np.zeros_like(h)
    for i in range(1, n):
        y = np.zeros_like(h)
        y[0, i], y[i, 0], y[i, n], y[n, i] = 1, -1, 1, 1
        theta_y = j @ y @ j
        if not np.array_equal(h @ y - y @ h, y):
            return False  # not in the alpha-root space
        if np.trace(y @ theta_y) != -4:
            return False
        x = y - theta_y
        if not np.array_equal(j @ x @ j, -x):
            return False  # X_j must lie in p
        if np.trace(x @ x) != 8:
            return False  # orthonormal, so self-dual
        x_k = -(y + theta_y)
        if not np.array_equal(x, x_k + 2 * y):
            return False  # k + n decomposition of X_j
        total += x @ x_k - x_k @ x
        reversed_total += x_k @ x - x @ x_k
    tr_sh = np.trace(total @ h)
    if not np.array_equal(2 * total, tr_sh * h):
        return False  # the sum must lie in the split torus line
    if tr_sh != 8 * (n - 1):
        return False
    return np.array_equal(reversed_total, -4 * (n - 1) * h)


__all__ = [
    "IntertwiningReport",
    "zonal_coeffs", "harmonic_extension_is_harmonic",
    "sphere_moment", "zonal_l2_norm", "reproducing_check", "pythagorean_rotation",
    "is_lorentz", "boost", "rotation", "nilpotent", "lorentz_inverse", "iwasawa",
    "random_lorentz", "iwasawa_roundtrip_error", "sphere_points",
    "expected_combination", "verify_intertwining", "exceptional_vanishing_residual",
    "check_2rho",
]
