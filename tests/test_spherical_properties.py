"""Properties of the omega(H) recurrence rows on labels far outside the bound-10 box.

The exact recurrence identity is checked at coordinates up to 200, where each
label costs milliseconds; the lambda * dim reciprocity, which needs only the
rows and Weyl dimensions, at coordinates up to 10**6.
"""
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given  # noqa: E402

from rankone.ktypes import weyl_dim  # noqa: E402
from rankone.spherical import lambda_scalar, omega_h_expand, verify_omega_identity  # noqa: E402
from tests.test_scalar_properties import BIG, PROPERTY_SETTINGS, family_and_label  # noqa: E402


@PROPERTY_SETTINGS
@given(family_and_label(200))
def test_omega_identity_holds_far_out(case):
    fam, v = case
    assert verify_omega_identity(fam, v, omega_h_expand(fam, v)), (fam, v)


@PROPERTY_SETTINGS
@given(family_and_label(BIG))
def test_lambda_dim_reciprocity_far_out(case):
    fam, v = case
    for y, lam in omega_h_expand(fam, v).terms:
        assert lam * weyl_dim(fam, v) == lambda_scalar(fam, y, v) * weyl_dim(fam, y), (fam, v, y)
