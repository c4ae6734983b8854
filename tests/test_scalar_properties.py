"""Properties of the single scalar entries on labels far outside the bound-10 box.

Families and labels are drawn with coordinates up to 10**6; every direction of
the omega row of V is checked against the tabulated vanishing parameter.
"""
from fractions import Fraction as Q

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from rankone.groups import SpectralParam, f4, so, sp, su  # noqa: E402
from rankone.ktypes import label  # noqa: E402
from rankone.scalars import (NotOmegaRelatedError, nu_scalar, t_root, t_scalar,  # noqa: E402
                             vanishing_mu)
from rankone.spherical import omega_h_expand  # noqa: E402

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
    for y, lam in omega_h_expand(fam, v).terms:
        mu = vanishing_mu(fam, v, y)
        assert t_scalar(fam, v, y, SpectralParam(mu), lam) == 0, (fam, v, y)
        assert t_root(fam, v, y) == mu, (fam, v, y)


@PROPERTY_SETTINGS
@given(family_and_label(), st.fractions(max_denominator=12))
def test_zero_lambda_is_not_omega_related(case, mu):
    fam, v = case
    for y, _ in omega_h_expand(fam, v).terms:
        with pytest.raises(NotOmegaRelatedError):
            nu_scalar(fam, v, y, Q(0))
        with pytest.raises(NotOmegaRelatedError):
            t_scalar(fam, v, y, SpectralParam(mu), Q(0))
