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
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from typing import Sequence

import numpy as np

from .groups import SpectralParam, rho_H, so
from .hypergeom import f21
from .ktypes import label, weyl_dim
from .poly import Poly, padd, peval, pmul
from .scalars import t_scalar

# -- exact zonal polynomials ---------------------------------------------------


def zonal_coeffs(n: int, k: int) -> Poly:
    """Coefficients (ascending powers of x1 = cos xi) of the degree-k zonal function.

    Expansion of cos^k F(-k/2, (1-k)/2, (n-1)/2, -tan^2) with sin^2 = 1 - x1^2;
    normalized to 1 at x1 = 1.
    """
    if n < 2 or k < 0:
        raise ValueError("need n >= 2 and k >= 0")
    series = f21(Fraction(-k, 2), Fraction(1 - k, 2), Fraction(n - 1, 2))
    one_minus_sq: Poly = [Fraction(1), Fraction(0), Fraction(-1)]
    out: Poly = []
    power: Poly = [Fraction(1)]
    for j, c in enumerate(series.coeffs):
        x_part: Poly = [Fraction(0)] * (k - 2 * j) + [(-1) ** j * c]
        out = padd(out, pmul(x_part, power))
        power = pmul(power, one_minus_sq)
    if peval(out, 1) != 1:
        raise AssertionError("zonal polynomial must equal 1 at the base point")
    return out


def harmonic_extension_coeffs(n: int, k: int) -> list[Fraction]:
    """a_j with P(x) = sum_j a_j x1^(k-2j) r^(2j), r^2 = x2^2 + ... + xn^2."""
    series = f21(Fraction(-k, 2), Fraction(1 - k, 2), Fraction(n - 1, 2))
    return [(-1) ** j * c for j, c in enumerate(series.coeffs)]


def harmonic_extension_is_harmonic(n: int, k: int) -> bool:
    """Exact check that the homogeneous extension has vanishing Laplacian."""
    a = harmonic_extension_coeffs(n, k)
    a = a + [Fraction(0)]
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
    """Expand Z(v . x) as a dict {exponent multi-index: coefficient}."""
    out: dict[tuple[int, ...], object] = {}
    for m, c in enumerate(z):
        if c == 0:
            continue
        for combo in combinations_with_replacement(range(n), m):
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


def reproducing_check(n: int, k: int, rotation, tol: float = 1e-10) -> bool:
    """Reproducing identity Z_k((R e1)_1)/dim = <Z_k, Z_k(R^-1 .)> on the sphere.

    Exact rational arithmetic when `rotation` has Fraction entries (then the
    comparison is equality); floating point with tolerance otherwise.
    """
    if n < 3:
        raise ValueError("needs n >= 3")
    exact = isinstance(rotation[0][0], Fraction)
    v = [rotation[i][0] for i in range(n)]  # R e1
    z = zonal_coeffs(n, k)
    if not exact:
        z = [float(c) for c in z]
        v = [float(x) for x in v]
    dim = weyl_dim(so(n), label(so(n), k))
    lhs = peval(z, v[0]) / dim if exact else _feval(z, v[0]) / dim
    moments: dict[tuple[int, ...], Fraction] = {}
    rhs = Fraction(0) if exact else 0.0
    for exps, coef in _poly_in_direction(z, v, n).items():
        for m, c in enumerate(z):
            if c == 0:
                continue
            key = (exps[0] + m,) + exps[1:]
            if key not in moments:
                moments[key] = sphere_moment(n, key)
            mom = moments[key] if exact else float(moments[key])
            rhs += coef * c * mom
    if exact:
        return lhs == rhs
    return abs(lhs - rhs) <= tol


def _feval(p, x: float) -> float:
    acc = 0.0
    for c in reversed(p):
        acc = acc * x + float(c)
    return acc


def pythagorean_rotation(n: int, i: int, j: int) -> list[list[Fraction]]:
    """A rational rotation by the (3,4,5) angle in the (i, j) plane."""
    r = [[Fraction(1) if a == b else Fraction(0) for b in range(n)] for a in range(n)]
    r[i][i] = r[j][j] = Fraction(3, 5)
    r[i][j] = Fraction(-4, 5)
    r[j][i] = Fraction(4, 5)
    return r


# -- Lorentz matrices and the Iwasawa decomposition ----------------------------


def _metric(n: int) -> np.ndarray:
    j = np.eye(n + 1)
    j[n, n] = -1.0
    return j


def is_lorentz(g: np.ndarray, tol: float = 1e-10) -> bool:
    """g preserves J, has det +1 and lies in the identity component."""
    n = g.shape[0] - 1
    j = _metric(n)
    if np.max(np.abs(g.T @ j @ g - j)) > tol:
        return False
    return np.linalg.det(g) > 0 and g[n, n] > 0


def boost(n: int, i: int, t: float) -> np.ndarray:
    """exp(t (E_{i,n+1} + E_{n+1,i})); i = 0 gives exp(t H)."""
    g = np.eye(n + 1)
    g[i, i] = g[n, n] = math.cosh(t)
    g[i, n] = g[n, i] = math.sinh(t)
    return g


def rotation(n: int, i: int, j: int, t: float) -> np.ndarray:
    g = np.eye(n + 1)
    g[i, i] = g[j, j] = math.cos(t)
    g[i, j] = -math.sin(t)
    g[j, i] = math.sin(t)
    return g


def nilpotent(n: int, u: np.ndarray) -> np.ndarray:
    """exp of the horospherical element with parameters u in R^(n-1)."""
    x = np.zeros((n + 1, n + 1))
    for i in range(1, n):
        x[0, i] = u[i - 1]
        x[i, 0] = -u[i - 1]
        x[i, n] = u[i - 1]
        x[n, i] = u[i - 1]
    return np.eye(n + 1) + x + x @ x / 2.0


def lorentz_inverse(g: np.ndarray) -> np.ndarray:
    n = g.shape[0] - 1
    j = _metric(n)
    return j @ g.T @ j


def iwasawa(g: np.ndarray) -> tuple[np.ndarray, float, np.ndarray]:
    """Factor g = k exp(s H) n with k in block SO(n), n horospherical.

    The scale e^s and the parameters of n are read off the last row, which the
    K-factor leaves untouched; k is then recovered by undoing a and n.
    """
    n = g.shape[0] - 1
    if not is_lorentz(g):
        raise ValueError("matrix is not in the identity component of the Lorentz group")
    es = g[n, 0] + g[n, n]
    if es <= 0:
        raise ValueError("matrix is outside the K A N chart")
    s = math.log(es)
    u = g[n, 1:n] / es
    k = g @ nilpotent(n, -u) @ boost(n, 0, -s)
    return k, s, u


def random_lorentz(n: int, rng: np.random.Generator) -> np.ndarray:
    """Product of elementary rotations and boosts with parameters in [-1, 1]."""
    g = np.eye(n + 1)
    for i, j in combinations(range(n), 2):
        g = g @ rotation(n, i, j, rng.uniform(-1, 1))
    for i in range(n):
        g = g @ boost(n, i, rng.uniform(-1, 1))
    return g


def iwasawa_roundtrip_error(n: int, samples: int = 100, seed: int = 0) -> float:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        g = random_lorentz(n, rng)
        k, s, u = iwasawa(g)
        back = k @ boost(n, 0, s) @ nilpotent(n, u)
        worst = max(worst, float(np.max(np.abs(back - g))))
        blk = k[:n, :n]
        worst = max(worst, float(np.max(np.abs(blk.T @ blk - np.eye(n)))))
    return worst


# -- Poisson transform of the delta distribution -------------------------------


def sphere_points(n: int, count: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(count, n))
    return pts / np.linalg.norm(pts, axis=1, keepdims=True)


def poisson_delta(n: int, k: int, mu: SpectralParam, g: np.ndarray,
                  points: np.ndarray) -> np.ndarray:
    """Values of the delta-distribution Poisson transform at sphere points.

    a_I(g^-1)^{-(mu+rho)} Z_k evaluated along the rotated axis k_I(g^-1) e1.
    """
    kI, s, _ = iwasawa(lorentz_inverse(g))
    axis = kI[:n, 0]
    factor = math.exp(-s * float(mu.mu_H + rho_H(so(n))))
    z = [float(c) for c in zonal_coeffs(n, k)]
    return factor * np.array([_feval(z, float(points[i] @ axis)) for i in range(len(points))])


@dataclass(frozen=True)
class IntertwiningReport:
    residual: float  # max |combined gradient - exact scalar combination|
    gradient_h_residual: float  # max |d/ds at e along H - (mu+rho)(H) Z_k|
    coefficients: dict  # least-squares zonal coefficients of the combined function


def _gradient_sum(n: int, k: int, mu: SpectralParam, points: np.ndarray,
                  step_h: float) -> tuple[np.ndarray, np.ndarray]:
    """(combined omega-weighted derivative, derivative along H) at the identity."""
    combined = np.zeros(len(points))
    d_h = None
    for j in range(n):
        plus = poisson_delta(n, k, mu, boost(n, j, step_h), points)
        minus = poisson_delta(n, k, mu, boost(n, j, -step_h), points)
        deriv = (plus - minus) / (2 * step_h)
        if j == 0:
            d_h = deriv
        combined += points[:, j] * deriv
    return combined, d_h


def expected_combination(n: int, k: int, mu: SpectralParam, points: np.ndarray) -> np.ndarray:
    """Exact-scalar side: sum of T(Y_k, Y_{k +- 1}, mu) Z_{k +- 1} at the points."""
    fam = so(n)
    src = label(fam, k)
    out = np.zeros(len(points))
    for tgt in (k - 1, k + 1):
        if tgt < 0:
            continue
        coeff = float(t_scalar(fam, src, label(fam, tgt), mu))
        z = [float(c) for c in zonal_coeffs(n, tgt)]
        out += coeff * np.array([_feval(z, float(p[0])) for p in points])
    return out


def verify_intertwining(n: int, k: int, mu: SpectralParam, step_h: float = 1e-4,
                        tolerance: float = 1e-5, num_points: int = 50,
                        seed: int = 0) -> IntertwiningReport:
    """Finite-difference check of the gradient identity against the exact scalars.

    The omega-weighted sum of derivatives of the delta Poisson transform along
    an orthonormal basis of p must reproduce the exact rational scalar
    combination of the two neighbouring zonal functions.  Returns max
    deviations; the caller judges them against `tolerance`.
    """
    if n < 3:
        raise ValueError("needs n >= 3")
    points = sphere_points(n, num_points, seed)
    combined, d_h = _gradient_sum(n, k, mu, points, step_h)
    expected = expected_combination(n, k, mu, points)
    z_k = [float(c) for c in zonal_coeffs(n, k)]
    target_h = float(mu.mu_H + rho_H(so(n))) * np.array([_feval(z_k, float(p[0])) for p in points])
    coeffs = _fit_zonal(n, (k - 1, k, k + 1), points, combined)
    return IntertwiningReport(
        residual=float(np.max(np.abs(combined - expected))),
        gradient_h_residual=float(np.max(np.abs(d_h - target_h))),
        coefficients=coeffs,
    )


def _fit_zonal(n: int, degrees, points: np.ndarray, values: np.ndarray) -> dict:
    cols = []
    keys = []
    for d in degrees:
        if d < 0:
            continue
        z = [float(c) for c in zonal_coeffs(n, d)]
        cols.append([_feval(z, float(p[0])) for p in points])
        keys.append(d)
    a = np.array(cols).T
    sol, *_ = np.linalg.lstsq(a, values, rcond=None)
    return dict(zip(keys, sol))


def exceptional_vanishing_residual(n: int, ell: int, step_h: float = 1e-4,
                                   num_points: int = 50, seed: int = 0) -> float:
    """|fitted Z_{ell+1} component| of the combined gradient at mu = -rho - ell.

    At the exceptional parameter the exact scalar coupling Y_ell into Y_{ell+1}
    vanishes, so the numerically projected component must vanish too; this is
    the finite-rank shadow of the gradient annihilating the transform onto the
    socle's minimal type.
    """
    fam = so(n)
    mu = SpectralParam(-rho_H(fam) - ell)
    if t_scalar(fam, label(fam, ell), label(fam, ell + 1), mu) != 0:
        raise AssertionError(f"T(Y_{ell}, Y_{ell + 1}) must vanish at mu(H) = {mu.mu_H}")
    points = sphere_points(n, num_points, seed)
    combined, _ = _gradient_sum(n, ell, mu, points, step_h)
    coeffs = _fit_zonal(n, (ell - 1, ell, ell + 1), points, combined)
    return abs(float(coeffs[ell + 1]))


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
    "zonal_coeffs", "harmonic_extension_coeffs", "harmonic_extension_is_harmonic",
    "sphere_moment", "zonal_l2_norm", "reproducing_check", "pythagorean_rotation",
    "is_lorentz", "boost", "rotation", "nilpotent", "lorentz_inverse", "iwasawa",
    "random_lorentz", "iwasawa_roundtrip_error", "sphere_points", "poisson_delta",
    "expected_combination", "verify_intertwining", "exceptional_vanishing_residual",
    "check_2rho",
]
