"""The value types of rankone: NamedTuples, hashed and compared as their field tuples.

Set and dict iteration orders follow the hashes, so a record that hashed any
other way would reorder reports.  The three validating records build through
their NamedTuple base in `__new__` and raise the texts below.
"""
import importlib
import pkgutil
import re
from fractions import Fraction

import pytest

import rankone
from rankone import groups, hypergeom, ktypes, spherical, tensor
from rankone.groups import GroupFamily, SpectralParam, f4, so, su
from rankone.ktypes import KTypeLabel, LanglandsRecord, label


def _records():
    """One instance of every record type of rankone, keyed by its class."""
    fam = su(3)
    lab = label(fam, 2, 1)
    dec = tensor.racah_speiser(fam, lab)
    found = [
        fam, lab, groups.structural_data(fam), groups.FAMILY_SPECS["Sp"],
        SpectralParam(Fraction(-5, 2)), ktypes.LATTICE_SPECS["F4"], ktypes.lattice(fam),
        ktypes.langlands(fam, 1), hypergeom.f21(-2, -3, 2), spherical.radial_factor(fam, (2, 1)),
        spherical.omega_h_expand(fam, lab), dec, dec.summands[0],
    ]
    return {type(r): r for r in found}


RECORDS = _records()


def test_every_record_type_is_exercised():
    # every public tuple subclass with fields that a rankone module defines
    modules = [importlib.import_module(f"rankone.{m.name}")
               for m in pkgutil.iter_modules(rankone.__path__)]
    defined = {obj for module in modules for obj in vars(module).values()
               if isinstance(obj, type) and issubclass(obj, tuple) and hasattr(obj, "_fields")
               and obj.__module__ == module.__name__ and not obj.__name__.startswith("_")}
    assert defined == RECORDS.keys()


@pytest.mark.parametrize("record", RECORDS.values(), ids=lambda r: type(r).__name__)
def test_a_record_hashes_and_compares_as_its_field_tuple(record):
    assert hash(record) == hash(tuple(record))
    assert record == tuple(record)
    assert type(record)._make(record) == record


@pytest.mark.parametrize("record", RECORDS.values(), ids=lambda r: type(r).__name__)
def test_a_record_is_frozen(record):
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    with pytest.raises(AttributeError):
        record.extra = None


def test_reprs_name_the_class_and_fields():
    assert repr(so(3)) == "GroupFamily(variant='SO', n=3)"
    assert repr(f4()) == "GroupFamily(variant='F4', n=None)"
    assert repr(label(so(3), 2)) == "KTypeLabel(family=GroupFamily(variant='SO', n=3), coords=(2,))"
    assert repr(SpectralParam(Fraction(1, 2))) == "SpectralParam(mu_H=Fraction(1, 2))"


@pytest.mark.parametrize("build,message", [
    (lambda: GroupFamily("SL", 3), "unknown variant 'SL', expected one of ('SO', 'SU', 'Sp', 'F4')"),
    (lambda: GroupFamily("F4", 3), "F4 carries no free parameter n"),
    (lambda: GroupFamily("SO"), "SO requires an integer n >= 2, got None"),
    (lambda: GroupFamily("Sp", 1), "Sp requires an integer n >= 2, got 1"),
    (lambda: GroupFamily(variant="SU", n="3"), "SU requires an integer n >= 2, got '3'"),
    (lambda: KTypeLabel(so(3), (-1,)), "SO(n,1), n >= 3, requires k >= 0"),
    (lambda: KTypeLabel(so(3), (1, 1)), "SO label is a single integer"),
    (lambda: KTypeLabel(family=f4(), coords=(2, 1)),
     "F4 label is a pair (m, k) with m >= k >= 0 and m = k mod 2"),
    (lambda: LanglandsRecord("G", False, False, False), "S = G must hold exactly for tempered records"),
    (lambda: LanglandsRecord("P", False, True, False), "discrete series must be tempered"),
    (lambda: LanglandsRecord("G", True, True, True), "discrete and limit-of-discrete are exclusive"),
])
def test_validating_records_raise_their_texts(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def test_defaults_and_unvalidated_paths():
    assert GroupFamily("F4") == f4() and f4().n is None
    rec = LanglandsRecord("G", True, True, False)
    assert (rec.nu_H, rec.omega_expr) == (None, None)
    # _make and _replace build through tuple alone, as the docstrings say
    assert so(3)._replace(n=1).n == 1
    assert KTypeLabel._make((so(3), (-1,))).coords == (-1,)
