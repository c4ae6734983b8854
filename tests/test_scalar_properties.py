"""Properties of the single scalar entries on labels far outside the bound-10 box.

Families and labels are drawn with coordinates up to 10**6; every direction of
the omega row of V is checked against the tabulated vanishing parameter, and
the integer verdict of the vanishing check against its Fraction form in
`tests.references`, also with the constant of one table row moved by one.
"""
from fractions import Fraction as Q
from unittest import mock

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from rankone import scalars  # noqa: E402
from rankone.groups import SpectralParam, f4, so, sp, su, two_rho_H  # noqa: E402
from rankone.ktypes import label  # noqa: E402
from rankone.scalars import NotOmegaRelatedError, nu_scalar, t_root, t_scalar  # noqa: E402
from rankone.spherical import omega_h_expand  # noqa: E402
from tests.references import (fraction_terms, vanishes_at_t_root_fractions,  # noqa: E402
                              vanishing_mu)

BIG = 10 ** 6
PROPERTY_SETTINGS = settings(derandomize=True, max_examples=200, deadline=None, database=None)


@st.composite
def family_and_label(draw, bound=BIG):
    """A supported family (SO(n,1) with n >= 3, SU, Sp, F4) and a valid label of it,
    with coordinates up to `bound`."""
    variant = draw(st.sampled_from(["SO", "SU", "Sp", "F4"]))
    x = draw(st.integers(0, bound))
    y = draw(st.integers(0, bound))
    if variant == "SO":
        fam = so(draw(st.integers(3, 60)))
        return fam, label(fam, x)
    if variant == "SU":
        fam = su(draw(st.integers(2, 60)))
        return fam, label(fam, x, y)
    if variant == "Sp":
        fam = sp(draw(st.integers(2, 60)))
        return fam, label(fam, max(x, y), min(x, y))
    fam = f4()
    k = min(x, y)
    return fam, label(fam, k + 2 * ((max(x, y) - k) // 2), k)


@PROPERTY_SETTINGS
@given(family_and_label())
def test_t_vanishes_at_the_tabulated_parameter(case):
    fam, v = case
    for y, lam in fraction_terms(omega_h_expand(fam, v)):
        mu = vanishing_mu(fam, v, y)
        assert t_scalar(fam, v, y, SpectralParam(mu), lam) == 0, (fam, v, y)
        assert t_root(fam, v, y) == mu, (fam, v, y)


@PROPERTY_SETTINGS
@given(family_and_label(), st.fractions(max_denominator=12))
def test_zero_lambda_is_not_omega_related(case, mu):
    fam, v = case
    for y, _ in omega_h_expand(fam, v).nums:
        with pytest.raises(NotOmegaRelatedError):
            nu_scalar(fam, v, y, Q(0))
        with pytest.raises(NotOmegaRelatedError):
            t_scalar(fam, v, y, SpectralParam(mu), Q(0))


def _integer_verdict(fam, v, y) -> bool:
    return scalars._vanishes_at_t_root(fam, v, y, scalars._two_r(fam, v, y), two_rho_H(fam))


@PROPERTY_SETTINGS
@given(family_and_label(), st.sampled_from(["NU_ROWS", "VANISHING_ROWS"]), st.sampled_from([1, -1]))
def test_integer_vanishing_verdict_is_the_fraction_verdict(case, table, delta):
    fam, v = case
    rows = getattr(scalars, table)
    for y, _ in omega_h_expand(fam, v).nums:
        assert _integer_verdict(fam, v, y) is vanishes_at_t_root_fractions(fam, v, y) is True
        key = (fam.variant, tuple(b - a for a, b in zip(v.coords, y.coords)))
        *head, c_0 = rows[key]
        with mock.patch.dict(rows, {key: (*head, c_0 + delta)}):
            assert (_integer_verdict(fam, v, y)
                    is vanishes_at_t_root_fractions(fam, v, y) is False), (fam, v, y, table)
