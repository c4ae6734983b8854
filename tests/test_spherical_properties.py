"""Properties of the omega(H) recurrence rows on labels far outside the bound-10 box.

The exact recurrence identity is checked at coordinates up to 200, where each
label costs milliseconds; the lambda * dim reciprocity, which needs only the
rows and Weyl dimensions, at coordinates up to 10**6.  The integer verdicts of
the sweeps (convexity, reciprocity, the assembled row) must equal their
Fraction forms in `tests.references`, on the stated row and on the row with one
numerator moved by one, where both must be False.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given  # noqa: E402

from rankone import spherical  # noqa: E402
from rankone.ktypes import weyl_dim  # noqa: E402
from rankone.spherical import (lambda_dim_reciprocal, lambda_scalar, omega_h_expand,  # noqa: E402
                               row_is_convex, verify_omega_identity)
from tests.references import (assembles_to_fractions, fraction_terms,  # noqa: E402
                              lambda_dim_reciprocal_fractions, row_is_convex_fractions)
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
    for y, lam in fraction_terms(omega_h_expand(fam, v)):
        assert lam * weyl_dim(fam, v) == lambda_scalar(fam, y, v) * weyl_dim(fam, y), (fam, v, y)


def moved_rows(row):
    """The row with one numerator moved by +1 or -1, for each numerator and sign."""
    for i, (target, num) in enumerate(row.nums):
        for delta in (1, -1):
            nums = row.nums[:i] + ((target, num + delta),) + row.nums[i + 1:]
            yield target, row._replace(nums=nums)


@PROPERTY_SETTINGS
@given(family_and_label(BIG))
def test_integer_row_verdicts_are_the_fraction_verdicts(case):
    fam, v = case
    row = omega_h_expand(fam, v)
    splits = spherical._factorisation(fam, v.coords)
    dims = {t: weyl_dim(fam, t) for t, _ in row.nums}
    dim_v = weyl_dim(fam, v)
    assert row_is_convex(row) is row_is_convex_fractions(row) is True, (fam, v)
    assert spherical._assembles_to(splits, row) is assembles_to_fractions(splits, row) is True
    for y, _ in row.nums:
        back = omega_h_expand(fam, y)
        assert (lambda_dim_reciprocal(row, back, dim_v, dims[y])
                is lambda_dim_reciprocal_fractions(row, back, dim_v, dims[y]) is True), (fam, v, y)
    for y, moved in moved_rows(row):
        back = omega_h_expand(fam, y)
        assert row_is_convex(moved) is row_is_convex_fractions(moved) is False, (fam, v, y)
        assert (spherical._assembles_to(splits, moved)
                is assembles_to_fractions(splits, moved) is False), (fam, v, y)
        assert (lambda_dim_reciprocal(moved, back, dim_v, dims[y])
                is lambda_dim_reciprocal_fractions(moved, back, dim_v, dims[y]) is False), (fam, v, y)
