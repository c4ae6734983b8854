import argparse
import ast
import contextlib
import functools
import importlib
import io
import itertools
import json
import os
import pkgutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import rankone
from rankone import cli, groups, scalars, so_model, spherical, tensor
from rankone.cli import _emit, _fmt, _half, main, parse_family, parse_label, UsageError
from rankone.groups import f4, so, sp, su
from rankone.ktypes import highest_weight, label

from . import references
from .test_golden import CASES, GOLDEN, HELP_CASES, USAGE_CASES
from .test_tensor import _corrupt_one_table


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def failed_checks(out):
    return [(c["id"], c["instance"]) for c in json.loads(out)["checks"] if c["status"] == "fail"]


@pytest.mark.parametrize("module", ["rankone"] + [f"rankone.{m.name}"
                                                  for m in pkgutil.iter_modules(rankone.__path__)])
def test_exported_names_exist(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", []) if not hasattr(mod, name)]
    assert not missing, missing


def test_parse_family():
    fam, rest = parse_family(["SO", "5", "Y2"])
    assert fam == so(5) and rest == ["Y2"]
    fam, rest = parse_family(["F4", "V2,0"])
    assert fam == f4() and rest == ["V2,0"]
    with pytest.raises(UsageError):
        parse_family(["E8", "5"])
    with pytest.raises(UsageError):
        parse_family(["SU"])


def test_parse_label():
    assert parse_label(su(3), "Y2,1").coords == (2, 1)
    assert parse_label(so(5), "3").coords == (3,)
    assert parse_label(so(2), "Y-4").coords == (-4,)
    assert parse_label(sp(3), "V2,1").coords == (2, 1)
    assert parse_label(f4(), "4,2").coords == (4, 2)
    # at most one leading letter, and only the family's own
    for fam, token in [(so(5), "Y1,2"), (sp(3), "YVY2,1"), (so(5), "V3"), (su(3), "YY2,1"),
                       (sp(3), "VV2,1"), (f4(), "Y4,2"), (so(5), "Y")]:
        with pytest.raises(UsageError, match="bad label"):
            parse_label(fam, token)


@pytest.mark.parametrize("argv", [["tensor", "Sp", "3", "YVY2,1"], ["tensor", "SO", "5", "V3"]],
                         ids=" ".join)
def test_label_with_a_foreign_letter_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: bad label {argv[-1]!r} for ")


# int() reads these as 10, 3 (an Arabic-Indic digit), 3 and 3
@pytest.mark.parametrize("token", ["Y1_0", "Y \u0663", "Y\u0663", "Y+3", "Y 3", "Y3 ", "Y--3",
                                   "Y3,", "Y", "\uff13"])
def test_label_outside_ascii_integers_exits_2(capsys, token):
    with pytest.raises(SystemExit) as exc:
        main(["tensor", "SO", "5", token])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: bad label {token!r} for SO(5,1): "
                            "expected comma-separated integer coordinates\n")


# int() reads each of these as an integer (10, 5, 5, 5, 10, 3, 3, 10, 3)
LOOSE_INTEGERS = [
    (["structure", "SO", "1_0"], "error: expected an integer of ASCII digits, got '1_0'"),
    (["structure", "SO", "\u0665"], "error: expected an integer of ASCII digits, got '\u0665'"),
    (["structure", "SO", "+5"], "error: expected an integer of ASCII digits, got '+5'"),
    (["structure", "SO", " 5"], "error: expected an integer of ASCII digits, got ' 5'"),
    (["exceptional", "SO", "3", "--count", "1_0"], "argument --count: invalid int value: '1_0'"),
    (["socle", "SO", "5", "--ell", "\u0663"], "argument --ell: invalid int value: '\u0663'"),
    (["verify", "groups", "--depth", "\u0663"], "argument --depth: invalid int value: '\u0663'"),
    (["verify", "so-model", "--seed", "1_0"], "seed must be a nonnegative integer, got '1_0'"),
    (["verify", "so-model", "--seed", "\uff13"],
     "seed must be a nonnegative integer, got '\uff13'"),
]


@pytest.mark.parametrize("argv,message", LOOSE_INTEGERS,
                         ids=[" ".join(a) for a, _ in LOOSE_INTEGERS])
def test_integer_arguments_outside_ascii_digits_exit_2(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(message + "\n") and "Traceback" not in captured.err


# one leading minus is read, and the value reaches the range checks
NEGATIVE_INTEGERS = [
    (["structure", "SO", "-5"], "error: SO requires an integer n >= 2, got -5"),
    (["exceptional", "SO", "3", "--count", "-2"], "error: count must be positive"),
    (["socle", "SO", "5", "--ell", "-1"], "error: ell must be nonnegative"),
    (["verify", "groups", "--depth", "-3"], "error: depth must be positive"),
]


@pytest.mark.parametrize("argv,message", NEGATIVE_INTEGERS,
                         ids=[" ".join(a) for a, _ in NEGATIVE_INTEGERS])
def test_negative_integer_arguments_reach_the_range_errors(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err == message + "\n"


def test_ascii_integer_arguments_are_read():
    fam, rest = parse_family(["SO", "05", "Y2"])
    assert fam == so(5) and rest == ["Y2"]
    assert cli._ascii_int("-12") == -12 and cli._ascii_int.__name__ == "int"


def test_structure_f4(capsys):
    code, out = run(capsys, ["structure", "F4"])
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["m_alpha"] == 8
    assert doc["results"]["m_2alpha"] == 7
    assert doc["results"]["rho_H"] == "11"
    assert doc["status"] == "pass"


def test_scalars_exceptional_vanishing(capsys):
    code, out = run(capsys, ["scalars", "SO", "3", "Y0", "Y1", "--mu", "-1"])
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["T"] == "0"
    assert doc["results"]["lambda"] == "1"


@pytest.mark.parametrize("mu", ["-5/2", "-1/2", "-1e-3", "-7"])
def test_negative_mu_as_separate_token(capsys, mu):
    # argparse alone reads "-5/2" as an option and exits 2
    argv = ["scalars", "SO", "3", "Y0", "Y1"]
    code, joined = run(capsys, argv + [f"--mu={mu}"])
    assert code == 0
    code, separate = run(capsys, argv + ["--mu", mu])
    assert code == 0
    assert separate == joined


def test_scalars_unrelated_pair(capsys):
    code, out = run(capsys, ["scalars", "SO", "5", "Y0", "Y2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["lambda"] == "0"
    assert "not omega-related" in doc["results"]["note"]


def test_scalars_expands_the_omega_row_once(capsys, monkeypatch):
    from rankone import spherical
    calls = []
    expand = spherical.omega_h_expand

    def counting(family, lab):
        calls.append(lab)
        return expand(family, lab)

    monkeypatch.setattr(spherical, "omega_h_expand", counting)
    code, out = run(capsys, ["scalars", "SU", "4", "Y2,3", "Y3,3", "--mu=-5/2"])
    assert code == 0
    assert json.loads(out)["results"]["lambda"] != "0"
    assert len(calls) == 1


def test_exceptional_routes_agree(capsys):
    code, out = run(capsys, ["exceptional", "Sp", "2", "--count", "5"])
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["closed_form"] == ["-3", "-5", "-7", "-9", "-11"]
    assert doc["results"]["closed_form"] == doc["results"]["gamma_pole_scan"]
    assert doc["status"] == "pass"


def test_exceptional_with_a_shifted_gamma_numerator_fails_the_dual_route(capsys, monkeypatch):
    # the scan reads the Gamma numerators, never the closed form's shift
    real = groups._gamma_numerators
    monkeypatch.setattr(groups, "_gamma_numerators",
                        lambda sd, t: (real(sd, t)[0] + 1, real(sd, t)[1]))
    code, out = run(capsys, ["exceptional", "SU", "3", "--count", "7"])
    assert code == 1
    assert failed_checks(out) == [("exceptional-dual-route", "SU(3,1)")]


def test_socle_report(capsys):
    code, out = run(capsys, ["socle", "SU", "2", "--ell", "1"])
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["minimal_ktype_search"] == "Y[2,2]"
    assert doc["results"]["langlands"]["discrete_series"] is True
    assert doc["results"]["mu_H"] == "-4"


def test_tensor_report_and_rationals_are_strings(capsys):
    code, out = run(capsys, ["tensor", "SO", "5", "Y3"])
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "pass"
    weights = {tuple(s["weight"]) for s in doc["results"]["summands"]}
    assert ("3", "1") in weights
    assert all(isinstance(c, str) for w in weights for c in w)


def test_half_renders_as_the_fraction():
    # the tensor report renders each doubled weight coordinate t through _half
    for t in list(range(-2001, 2002)) + [10 ** 30 + 1, -(10 ** 30 + 1)]:
        assert _half(t) == _fmt(Fraction(t, 2)), t


def test_fmt_renders_records_with_str():
    # a record is a NamedTuple, a tuple subclass; only exact lists and tuples are sequences
    assert _fmt(so(3)) == "SO(3,1)"
    assert _fmt(groups.SpectralParam(Fraction(1, 2))) == "1/2"
    assert _fmt([so(3), label(so(3), 2), (Fraction(1, 2),)]) == ["SO(3,1)", "Y[2]", ["1/2"]]


# report scalars: strings with quotes, backslashes, control characters and
# non-ASCII text, ints past 64 bits, every float json writes (inf, nan, -0.0)
_SCALARS = (st.text(alphabet=st.sampled_from('ab"\\/\x00\x1f\n\t\x7fé€😀\ud800'))
            | st.text() | st.integers(-10 ** 40, 10 ** 40) | st.floats()
            | st.sampled_from([float("inf"), float("-inf"), float("nan"), -0.0])
            | st.booleans() | st.none())
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: (st.lists(inner, max_size=4) | st.tuples(inner, inner)
                   | st.lists(st.text(), max_size=4)
                   | st.dictionaries(st.text(max_size=3), inner, max_size=4)),
    max_leaves=20)


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(_VALUES)
def test_emit_writes_the_bytes_of_indented_json_dumps(value):
    assert _emit(value, "") == json.dumps(value, indent=2, sort_keys=True)


# keys and instances with every character csv.writer quotes for, a lone "\r"
# (which it does not), and non-ASCII text
_CSV_TEXT = st.text(alphabet=st.sampled_from(',"\n\r \tab:[]é€😀'), max_size=6) | st.text()


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(st.dictionaries(_CSV_TEXT, _VALUES, max_size=4),
       st.lists(st.tuples(_CSV_TEXT, _CSV_TEXT, st.booleans()), max_size=3))
@example({"a,b": ["x", 'say "hi"'], 'q"': [], "c": [1, "x", None]}, [("id", "SU(3,1) ell=3", True)])
@example({"\r": ["\r\n"], "": "", "d": {"k": True}}, [("", "", False)])
def test_to_csv_writes_the_bytes_of_csv_writer(results, checks):
    rep = cli.Report("q", {})
    for key, value in results.items():
        rep.result(key, value)
    for check_id, instance, ok in checks:
        rep.check(check_id, ok, instance)
    assert rep.to_csv() == references.csv_report(rep)


def test_emit_refuses_an_int_past_the_digit_limit():
    big = 10 ** (sys.get_int_max_str_digits() + 1)
    for value in (big, [big], {"k": [1, -big]}):
        with pytest.raises(ValueError):
            json.dumps(value, indent=2, sort_keys=True)
        with pytest.raises(ValueError):
            _emit(value, "")


def test_so2_recurrences_unsupported(capsys):
    for argv in (["tensor", "SO", "2", "Y3"], ["scalars", "SO", "2", "Y1", "Y2"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unsupported" in capsys.readouterr().err


def test_determinism(capsys):
    _, first = run(capsys, ["tensor", "F4", "V3,1"])
    _, second = run(capsys, ["tensor", "F4", "V3,1"])
    assert first == second


def test_csv_format(capsys):
    code, out = run(capsys, ["exceptional", "F4", "--count", "2", "--format", "csv"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "section,key,value"
    assert lines[-1] == "status,,pass"


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["structure", "E8"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["scalars", "SO", "5", "Y0"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["tensor", "SU", "3", "Yx,y"])
    assert exc.value.code == 2


def test_out_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out = run(capsys, ["structure", "Sp", "2", "--out", str(path)])
    assert code == 0 and out == ""
    doc = json.loads(path.read_text())
    assert doc["results"]["rho_H"] == "5"


def test_out_to_missing_directory_exits_2(tmp_path, capsys):
    path = tmp_path / "missing" / "x.json"
    with pytest.raises(SystemExit) as exc:
        main(["socle", "SU", "2", "--ell", "2", "--out", str(path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.count("\n") == 1 and err.startswith(f"error: cannot write {path}")


@pytest.mark.parametrize("ell", ["101", str(10 ** 9)])
def test_socle_ell_above_cap_exits_2(capsys, ell):
    # refused before the quadratic minimal-K-type search starts
    with pytest.raises(SystemExit) as exc:
        main(["socle", "SU", "8", "--ell", ell])
    assert exc.value.code == 2
    assert "ell must be at most 100" in capsys.readouterr().err


BEYOND_THE_CAPS = [
    # each of these used to exit 1 with an OverflowError or MemoryError, or run for minutes
    (["tensor", "SO", "999999999999999999999", "Y1"], "n must be at most 1000 for tensor"),
    (["tensor", "SO", "60000", "Y3"], "n must be at most 1000 for tensor"),
    (["socle", "SU", "999999999999999999999", "--ell", "1"], "n must be at most 10000 for socle"),
    (["socle", "SO", "50000", "--ell", "1"], "n must be at most 10000 for socle"),
    (["exceptional", "F4", "--count", "100000000"], "count must be at most 200000"),
    (["exceptional", "SO", "999999999999999999999", "--count", "3"],
     "n must be at most 100000 for exceptional"),
    (["verify", "spherical", "--depth", "200"], "depth must be at most 16"),
    (["scalars", "SU", "99999999999999999999", "Y1,1", "Y2,1"],
     "n must be at most 1000000 for scalars"),
    (["scalars", "Sp", str(2 ** 62), "V1,1", "V2,1"], "n must be at most 1000000 for scalars"),
]


@pytest.mark.parametrize("argv,message", BEYOND_THE_CAPS,
                         ids=[" ".join(a) for a, _ in BEYOND_THE_CAPS])
def test_sizes_beyond_the_caps_exit_2_before_any_work(capsys, monkeypatch, argv, message):
    def refuse(*args):
        raise AssertionError("a query beyond the caps reached its command")

    for name in ("cmd_exceptional", "cmd_socle", "cmd_tensor", "cmd_scalars", "cmd_verify",
                 "parse_label"):
        monkeypatch.setattr(cli, name, refuse)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err == f"error: {message}\n"


CAP_EDGES = [  # (command, argv with {} where the capped value goes, cap)
    ("exceptional", ["exceptional", "SO", "{}"], cli.MAX_N["exceptional"]),
    ("socle", ["socle", "SO", "{}", "--ell", "1"], cli.MAX_N["socle"]),
    ("tensor", ["tensor", "SO", "{}", "Y1"], cli.MAX_N["tensor"]),
    ("scalars", ["scalars", "SO", "{}", "Y1", "Y2"], cli.MAX_N["scalars"]),
    ("exceptional", ["exceptional", "F4", "--count", "{}"], cli.MAX_COUNT),
    ("socle", ["socle", "SU", "8", "--ell", "{}"], cli.MAX_ELL),
    ("verify", ["verify", "spherical", "--depth", "{}"], cli.MAX_DEPTH),
]


@pytest.mark.parametrize("command,argv,cap", CAP_EDGES,
                         ids=[" ".join(a).format("cap") for _, a, _ in CAP_EDGES])
def test_each_cap_is_the_largest_accepted_value(capsys, monkeypatch, command, argv, cap):
    monkeypatch.setattr(cli, f"cmd_{command}", lambda *args: cli.Report(command, {}))
    assert run(capsys, [t.format(cap) for t in argv])[0] == 0
    with pytest.raises(SystemExit) as exc:
        main([t.format(cap + 1) for t in argv])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [["socle", "SO", "5000", "--ell", "1"],
                                  ["socle", "Sp", "3000", "--ell", "1"]],
                         ids=" ".join)
def test_sizes_once_beyond_the_caps_answer(capsys, argv):
    # these ran for more than 20 s while each socle query built every root of K
    code, out = run(capsys, argv)
    assert code == 0 and json.loads(out)["status"] == "pass"


def test_verify_small_suite(capsys):
    code, out = run(capsys, ["verify", "groups", "--depth", "2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "pass"
    assert doc["results"]["checks_failed"] == 0


def test_verify_tensor_reports_a_failing_character_oracle(capsys, monkeypatch):
    # a wrong multiplicity table makes the oracle raise inside its own checks
    _corrupt_one_table(monkeypatch, highest_weight(label(su(3), 2, 1)))
    code, out = run(capsys, ["verify", "tensor", "--depth", "3"])
    assert code == 1
    failed = [(c["id"], c["instance"]) for c in json.loads(out)["checks"] if c["status"] == "fail"]
    assert failed == [("tensor-character-oracle", "SU(3,1)")]


@pytest.mark.parametrize("key", [("SO", (1,)), ("SU", (1, 0)), ("Sp", (1, 0)), ("F4", (1, 1))],
                         ids=lambda key: key[0])
def test_verify_scalars_names_the_family_of_a_shifted_nu_row(capsys, monkeypatch, key):
    # a raising row: the trivial-route check reads lowering rows only
    row = scalars.NU_ROWS[key]
    monkeypatch.setitem(scalars.NU_ROWS, key, row[:-1] + (row[-1] + 1,))
    code, out = run(capsys, ["verify", "scalars", "--depth", "3"])
    assert code == 1
    assert failed_checks(out) == [("scalar-vanishing-table", str(fam))
                                  for fam in cli._tensor_families() if fam.variant == key[0]]


@pytest.mark.parametrize("key", [("SO", (1,)), ("SU", (1, 0)), ("Sp", (1, 0)), ("F4", (1, 1))],
                         ids=lambda key: key[0])
def test_verify_scalars_names_the_family_of_a_shifted_vanishing_row(capsys, monkeypatch, key):
    row = scalars.VANISHING_ROWS[key]
    monkeypatch.setitem(scalars.VANISHING_ROWS, key, row[:-1] + (row[-1] + 1,))
    code, out = run(capsys, ["verify", "scalars", "--depth", "3"])
    assert code == 1
    assert failed_checks(out) == [("scalar-vanishing-table", str(fam))
                                  for fam in cli._tensor_families() if fam.variant == key[0]]


def test_each_omega_row_is_built_once_per_process(capsys, monkeypatch):
    """omega_h_expand is the one row memo: a cold `verify all` builds each
    (family, coords) once, and `verify scalars` after `verify spherical` in one
    process builds none."""
    built = []
    real = spherical._raw_row

    def counting(family, coords):
        built.append((family, coords))
        return real(family, coords)

    monkeypatch.setattr(spherical, "_raw_row", counting)
    spherical.omega_h_expand.cache_clear()
    assert run(capsys, ["verify", "all", "--depth", "6"])[0] == 0
    assert built and len(built) == len(set(built))
    spherical.omega_h_expand.cache_clear()
    assert run(capsys, ["verify", "spherical", "--depth", "6"])[0] == 0
    built.clear()
    assert run(capsys, ["verify", "scalars", "--depth", "6"])[0] == 0
    assert built == []


def test_structural_data_is_built_once_per_family(capsys):
    groups.structural_data.cache_clear()
    code, _ = run(capsys, ["verify", "scalars", "--depth", "6"])
    assert code == 0
    assert groups.structural_data.cache_info().misses <= 14  # the sweep's 14 families


@pytest.mark.parametrize("argv", [
    ["verify", "so-model", "--seed", "-5"],
    ["verify", "so-model", "--seed", "x"],
    ["verify", "so-model", "--seed", "9" * 5000],
    ["verify", "so-model", "--tolerance", "nan"],
    ["verify", "so-model", "--tolerance", "inf"],
    ["verify", "so-model", "--tolerance", "-1"],
    ["verify", "so-model", "--tolerance", "abc"],
    ["verify", "so-model", "--seed", "-1"],
    ["verify", "so-model", "--tolerance", "0"],
])
def test_bad_seed_or_tolerance_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if argv[2] == "--tolerance":  # no tolerance is read: the budget is so_model.TOLERANCE
        assert f"unrecognized arguments: {' '.join(argv[2:])}" in err
    else:
        assert "seed must be" in err


def test_zero_tolerance_and_seed_are_accepted(capsys, monkeypatch):
    # a zero budget and seed are read: the float residuals are above 0, so exactly
    # the two checks against the budget fail, with exit 1 rather than a usage error
    monkeypatch.setattr(so_model, "TOLERANCE", 0)
    code, out = run(capsys, ["verify", "so-model", "--depth", "1", "--seed", "0"])
    report = json.loads(out)
    assert code == 1 and report["status"] == "fail"
    assert (report["inputs"]["seed"], report["inputs"]["tolerance"]) == (0, 0.0)
    assert {c["id"] for c in report["checks"] if c["status"] == "fail"} == {
        "intertwining-residual", "exceptional-coefficient-vanishing"}


@pytest.mark.parametrize("command", [["structure", "SO", "5"], ["exceptional", "F4"],
                                     ["socle", "SU", "3"], ["tensor", "SO", "5", "Y1"],
                                     ["scalars", "SO", "5", "Y1", "Y2"]])
@pytest.mark.parametrize("option", [["--seed", "0"], ["--tolerance", "0"]])
def test_seed_and_tolerance_belong_to_verify_alone(capsys, command, option):
    # no other subcommand reads the seed, and no subcommand reads a tolerance
    # (verify's refusal is a case of test_bad_seed_or_tolerance_exits_2)
    with pytest.raises(SystemExit) as exc:
        main([*command, *option])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"unrecognized arguments: {' '.join(option)}" in err


# The argv grammar of the CLI fuzz test below: each command with families, n
# around its cap, labels and options, mostly well formed so that most lines
# reach the command, and otherwise not.  At the cap itself only tensor,
# exceptional and scalars answer fast enough for a fuzz test (socle Sp at its cap
# takes over a second).  --tolerance is an option of no command.
_FUZZ_SUITES = ["all", "groups", "tensor", "spherical", "scalars", "so-model", "nope"]
_FUZZ_LABELS = {"tensor": 1, "scalars": 2}
_FUZZ_OPTIONS = {
    "--seed": ["0", "7", "-1", "x"],
    "--tolerance": ["1e-5", "0", "nan", "-1"],
    "--mu": ["0", "-5/2", "1/3", "1e10000000", "x"],
    "--format": ["json", "csv", "xml"],
    "--count": ["1", "5", "0", "z", str(cli.MAX_COUNT + 1)],
    "--ell": ["0", "2", "-1", str(cli.MAX_ELL + 1)],
    "--depth": ["1", "2", "0", str(cli.MAX_DEPTH + 1)],
}
_FUZZ_OWN_OPTIONS = {"structure": ["--format"], "exceptional": ["--format", "--count"],
                     "socle": ["--format", "--ell"], "tensor": ["--format"],
                     "scalars": ["--format", "--mu"],
                     "verify": ["--format", "--seed", "--depth"]}


@st.composite
def _fuzz_argv(draw):
    command = draw(st.sampled_from(list(cli.COMMANDS)))
    argv = [command]
    if command == "verify":
        argv.append(draw(st.sampled_from(_FUZZ_SUITES)))
    else:
        variant = draw(st.sampled_from(["SO", "SU", "Sp", "F4", "G2"]))
        cap = cli.MAX_N.get(command)
        ns = [str(n) for n in range(2, 10)] + ["0", "-1", "x"]
        if cap is not None:
            ns += [str(cap + 1)] + ([str(cap)] if command != "socle" else [])
        argv += [variant] + ([] if variant == "F4" else [draw(st.sampled_from(ns))])
        size = 1 if variant == "SO" else 2
        well_formed = st.lists(st.integers(0, 3), min_size=size, max_size=size).map(
            lambda c: sorted(c, reverse=True))
        coords = well_formed | st.lists(st.integers(-1, 4), max_size=3)
        letter = st.sampled_from(["V" if variant in ("Sp", "F4") else "Y", "", "Q"])
        count = draw(st.sampled_from([_FUZZ_LABELS.get(command, 0)] * 3 + [1, 3]))
        argv += [draw(letter) + ",".join(map(str, draw(coords))) for _ in range(count)]
    options = draw(st.lists(st.sampled_from(_FUZZ_OWN_OPTIONS[command]), max_size=2, unique=True))
    if draw(st.sampled_from([False, False, False, True])):  # any option, often another command's
        options.append(draw(st.sampled_from(sorted(_FUZZ_OPTIONS))))
    for option in options:
        argv += [option, draw(st.sampled_from(_FUZZ_OPTIONS[option]))]
    return argv


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(_fuzz_argv())
def test_the_cli_answers_any_command_line_with_a_report_or_a_usage_error(argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert time.perf_counter() - start < 2, argv
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue(), argv


@pytest.mark.parametrize("mu", [["--mu", "1e40000"], ["--mu=1e-40000"]])
def test_unrenderable_mu_exits_2(capsys, mu):
    # exact, but with more digits than int-to-str conversion allows
    with pytest.raises(SystemExit) as exc:
        main(["scalars", "SO", "5", "Y1", "Y2", *mu])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "bad rational" in err


@pytest.mark.parametrize("mu", ["1e10000000", "-1e-10000000", "0e10000000", "1.5e+10000000"])
def test_a_huge_mu_exponent_exits_2_at_once(capsys, mu):
    # Fraction would build 10**(10**7) first, about 10 s of work
    start = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        main(["scalars", "SO", "5", "Y1", "Y2", f"--mu={mu}"])
    assert time.perf_counter() - start < 1
    assert exc.value.code == 2
    assert capsys.readouterr().err == f"error: bad rational {mu!r}\n"


def test_mu_exponents_up_to_the_digit_limit_plus_the_mantissa_are_read():
    limit = sys.get_int_max_str_digits()
    assert cli.parse_rational(f"1e{limit - 1}") == 10 ** (limit - 1)
    # the mantissa's digits count: 0.001e(limit + 1) is 10**(limit - 2)
    assert cli.parse_rational(f"0.001e{limit + 1}") == 10 ** (limit - 2)
    assert cli.parse_rational(f"-100e-{limit + 1}") == Fraction(-1, 10 ** (limit - 1))


def test_without_a_digit_limit_any_mu_exponent_is_read():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert cli.parse_rational(f"1e{limit + 10}") == 10 ** (limit + 10)
    finally:
        sys.set_int_max_str_digits(limit)


# Fraction() reads all of these; an integer argument would refuse each
REFUSED_MU = [["--mu=١/٢"], ["--mu=1_0"], ["--mu= 3/2 "], ["--mu=3 / 2"], ["--mu=+1/2"],
              ["--mu=1e1_0"], ["--mu=٣"], ["--mu", "-١"], ["--mu=1/"], ["--mu="], ["--mu=1/0"]]


@pytest.mark.parametrize("mu", REFUSED_MU, ids=[" ".join(m) for m in REFUSED_MU])
def test_mu_reads_only_ascii_rationals(capsys, mu):
    with pytest.raises(SystemExit) as exc:
        main(["scalars", "SO", "5", "Y1", "Y2", *mu])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "bad rational" in err


@pytest.mark.parametrize("token,value", [
    ("-5/2", Fraction(-5, 2)), ("-1/2", Fraction(-1, 2)), ("-1e-3", Fraction(-1, 1000)),
    ("-7", Fraction(-7)), ("3/4", Fraction(3, 4)), ("0.25", Fraction(1, 4)),
    (".5", Fraction(1, 2)), ("2.", Fraction(2)), ("1E+2", Fraction(100))])
def test_mu_reads_integers_quotients_and_decimals(token, value):
    assert cli.parse_rational(token) == value
    # a negative one is attached to --mu, or argparse would take it for an option
    attached = [f"--mu={token}"] if token.startswith("-") else ["--mu", token]
    assert cli._attach_negative_mu(["--mu", token]) == attached


def test_negative_mu_after_the_abbreviation_m(capsys):
    # argparse reads --m as --mu, so the separate negative token is attached after it too
    assert cli._attach_negative_mu(["--m", "-5/2"]) == ["--m=-5/2"]
    code, out = run(capsys, ["scalars", "SU", "3", "Y1,2", "Y2,2", "--m", "-5/2",
                             "--format", "csv"])
    assert code == 0
    assert out == (GOLDEN / "scalars_SU_3_Y1_2_Y2_2_mu-5_2.csv").read_text()


def test_only_an_ascii_negative_number_is_attached_to_mu():
    assert cli._attach_negative_mu(["--mu", "-5/2", "-h"]) == ["--mu=-5/2", "-h"]
    assert cli._attach_negative_mu(["--mu", "-.5"]) == ["--mu=-.5"]
    assert cli._attach_negative_mu(["--mu", "-١/٢"]) == ["--mu", "-١/٢"]


def test_unrenderable_result_exits_2(capsys):
    # mu renders, but T = (mu + rho) lambda + nu has too many digits
    with pytest.raises(SystemExit) as exc:
        main(["scalars", "SO", "7", "Y2", "Y3", "--mu", "1e-4299"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.count("\n") == 1 and "result T has too many digits" in err


def test_unrenderable_weyl_dimension_exits_2(capsys):
    # the summand dimensions have more digits than int-to-str conversion allows
    with pytest.raises(SystemExit) as exc:
        main(["tensor", "SU", "300", "Y1000000000000000000000000000000,0"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.count("\n") == 1 and "result summands has too many digits" in err


def _racah_speiser_raises_at(monkeypatch, fam, lab, exc):
    real = tensor.racah_speiser

    def failing(family, source):
        if family == fam and source == lab:
            raise exc(f"injected at {source}")
        return real(family, source)

    monkeypatch.setattr(tensor, "racah_speiser", failing)


@pytest.mark.parametrize("exc", [tensor.AlgorithmViolation, AssertionError])
def test_verify_tensor_reports_a_failing_racah_speiser(capsys, monkeypatch, exc):
    for fam, lab in [(su(3), label(su(3), 2, 1)), (so(5), label(so(5), 2))]:
        with monkeypatch.context() as patch:
            _racah_speiser_raises_at(patch, fam, lab, exc)
            code, out = run(capsys, ["verify", "tensor", "--depth", "3"])
        assert code == 1
        # the label has no decomposition, so neither the closed form nor the
        # oracle matches it; the other checks read the labels that decompose
        assert failed_checks(out) == [("tensor-closed-form", str(fam)),
                                      ("tensor-character-oracle", str(fam))]


@pytest.mark.parametrize("exc", [tensor.AlgorithmViolation, AssertionError])
def test_verify_spherical_reports_a_failing_racah_speiser(capsys, monkeypatch, exc):
    _racah_speiser_raises_at(monkeypatch, su(3), label(su(3), 2, 1), exc)
    code, out = run(capsys, ["verify", "spherical", "--depth", "3"])
    assert code == 1
    assert failed_checks(out) == [("omega-vs-tensor-adjacency", "SU(3,1)")]


@pytest.mark.parametrize("exc", [tensor.AlgorithmViolation, AssertionError])
def test_tensor_query_reports_a_failing_racah_speiser(capsys, monkeypatch, exc):
    lab = label(su(3), 2, 1)
    _racah_speiser_raises_at(monkeypatch, su(3), lab, exc)
    code = main(["tensor", "SU", "3", "Y2,1"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == ""
    report = json.loads(captured.out)
    assert report["status"] == "fail" and report["results"] == {}
    assert failed_checks(captured.out) == [("tensor-racah-speiser", str(lab))]
    # a label where nothing is injected keeps its report
    assert run(capsys, ["tensor", "SU", "3", "Y1,1"])[0] == 0


def test_verify_tensor_reports_a_broken_closed_form_as_a_failed_check(capsys, monkeypatch):
    real = tensor.expected_summand_labels

    def failing(family, lab):
        if family == so(5) and lab.coords == (2,):
            raise AssertionError(f"injected at {lab}")
        return real(family, lab)

    monkeypatch.setattr(tensor, "expected_summand_labels", failing)
    code, out = run(capsys, ["verify", "tensor", "--depth", "3"])
    assert code == 1
    assert failed_checks(out) == [("tensor-closed-form", "SO(5,1)")]


def test_verify_so_model_reports_a_matrix_outside_the_chart(capsys, monkeypatch):
    # so_model.iwasawa refuses every matrix; the boost frames are cached, so the
    # test gives them a fresh cache that sees the refusal too
    monkeypatch.setattr(so_model, "is_lorentz", lambda g: False)
    monkeypatch.setattr(so_model, "_boost_frames",
                        functools.lru_cache(so_model._boost_frames.__wrapped__))
    code, out = run(capsys, ["verify", "so-model", "--depth", "1"])
    assert code == 1
    report = json.loads(out)
    assert [c["id"] for c in report["checks"]].count("iwasawa-roundtrip") == 3
    assert report["results"]["checks_total"] == len(report["checks"]) == 13
    assert failed_checks(out) == [("iwasawa-roundtrip", f"n={n} err=inf") for n in (3, 4, 5)] + [
        ("intertwining-residual", "max=inf"), ("exceptional-coefficient-vanishing", "max=inf")]


def test_verify_so_model_reports_a_nonvanishing_exceptional_scalar(capsys, monkeypatch):
    # T(Y_ell, Y_ell+1) off by 1/10^6 breaks the vanishing invariant that
    # so_model.exceptional_vanishing_residual asserts: a failed check, not a traceback
    real = so_model.t_scalar
    monkeypatch.setattr(so_model, "t_scalar",
                        lambda *args: real(*args) + Fraction(1, 10 ** 6))
    code, out = run(capsys, ["verify", "so-model", "--depth", "2"])
    assert code == 1
    assert failed_checks(out) == [("exceptional-coefficient-vanishing", "max=inf")]


def test_verify_so_model_reads_the_exceptional_parameters_from_groups(capsys, monkeypatch):
    # a shifted closed form moves mu_ell off the zeros of T, and the Lorentz
    # model, which states no mu_ell of its own, fails exactly the vanishing check
    spec = groups.FAMILY_SPECS["SO"]
    monkeypatch.setitem(groups.FAMILY_SPECS, "SO", spec._replace(shift=(1, 1)))
    code, out = run(capsys, ["verify", "so-model", "--depth", "2"])
    assert code == 1
    assert [check_id for check_id, _ in failed_checks(out)] == [
        "exceptional-coefficient-vanishing"]


# Report.check_each is the one place that folds the cases of a check and holds
# the exception policy of every verify suite.


def test_check_each_tries_every_case_after_a_failure():
    rep = cli.Report("verify", {})
    seen = []

    def holds(case):
        seen.append(case)
        if case == 1:
            raise tensor.AlgorithmViolation("broken invariant")
        if case == 3:
            raise AssertionError("broken invariant")
        return case != 2

    for cases in ([0, 1, 4], [2, 4], [3, 4], [0, 4], []):
        rep.check_each("demo", str(cases), cases, holds)
    assert seen == [0, 1, 4, 2, 4, 3, 4, 0, 4]
    assert [c["status"] for c in rep.checks] == ["fail", "fail", "fail", "pass", "pass"]


def test_check_each_lets_other_exceptions_propagate():
    rep = cli.Report("verify", {})
    with pytest.raises(ZeroDivisionError):
        rep.check_each("demo", "x", [1, 0], lambda case: 1 / case)
    assert rep.checks == []


def test_verify_suites_record_through_check_each():
    """Only the checks whose instance text carries a measured maximum call
    Report.check directly; every other check of a suite goes through check_each,
    and the exception tuple of its policy is named once."""
    text = Path(cli.__file__).read_text()
    direct = set()
    for fn in ast.parse(text).body:
        if isinstance(fn, ast.FunctionDef) and fn.name.startswith("verify_"):
            for node in ast.walk(fn):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                        and node.func.attr == "check"):
                    direct.add(node.args[0].value)
    assert direct == {"iwasawa-roundtrip", "intertwining-residual",
                      "exceptional-coefficient-vanishing"}
    assert text.count("(tensor.AlgorithmViolation, AssertionError)") == 1


# The CLI calls each kernel through its public entry, so a fault injected there
# shows in the report.


def test_verify_spherical_goes_through_verify_omega_identity(capsys, monkeypatch):
    real = spherical.verify_omega_identity

    def failing(family, lab, row):
        if family == sp(2) and lab.coords == (2, 1):
            return False
        return real(family, lab, row)

    monkeypatch.setattr(spherical, "verify_omega_identity", failing)
    code, out = run(capsys, ["verify", "spherical", "--depth", "3"])
    assert code == 1
    assert failed_checks(out) == [("omega-recurrence-identity", "Sp(2,1)")]


def test_exceptional_goes_through_exceptional_in_interval(capsys, monkeypatch):
    real = groups.exceptional_in_interval
    monkeypatch.setattr(groups, "exceptional_in_interval",
                        lambda family, lo: real(family, lo)[1:])  # drop one pole
    code, out = run(capsys, ["exceptional", "SO", "5", "--count", "8"])
    assert code == 1
    assert failed_checks(out) == [("exceptional-dual-route", "SO(5,1)")]


def test_scalars_report_goes_through_t_scalar(capsys, monkeypatch):
    argv = ["scalars", "SU", "4", "Y2,3", "Y3,3", "--mu=-5/2"]
    _, before = run(capsys, argv)
    real = scalars.t_scalar
    monkeypatch.setattr(scalars, "t_scalar", lambda *args: real(*args) + 1)
    _, after = run(capsys, argv)
    t_before = Fraction(json.loads(before)["results"]["T"])
    assert json.loads(after)["results"]["T"] == str(t_before + 1)


def test_cli_reads_no_private_name_of_another_module():
    """Each kernel has one public entry; the CLI may not reach a private twin."""
    siblings = {m.name for m in pkgutil.iter_modules(rankone.__path__)}
    tree = ast.parse(Path(cli.__file__).read_text())
    bound = set()  # names that cli binds to sibling modules
    private = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None and alias.name in siblings:
                    bound.add(alias.asname or alias.name)
                elif alias.name.startswith("_"):
                    private.append(f"{node.module}.{alias.name}")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in bound and node.attr.startswith("_")):
            private.append(f"{node.value.id}.{node.attr} (line {node.lineno})")
    assert bound and not private, private


FAMILY_LITERALS = {"SO", "SU", "Sp", "F4"}
# The functions of src/rankone that still compare against two or more family
# literals: formulas and one side of a paired route, kept per family on purpose.
FAMILY_CHAINS = {
    "scalars.growth_step_ratio", "scalars.growth_closed_form",
    "spherical.radial_factor", "spherical._raw_row", "spherical._factorisation",
    "tensor._p_weights",
}


def _family_comparisons(tree, module: str) -> dict[str, int]:
    """Per function of a module, its Compare nodes with a family literal, or a
    tuple, list or set display holding one, on either side.  A nested function
    counts apart, a lambda with the function around it, and whatever lies
    outside every function (module and class bodies) as `<module>`."""
    def is_literal(node):
        elts = node.elts if isinstance(node, (ast.Tuple, ast.List, ast.Set)) else [node]
        return any(isinstance(e, ast.Constant) and e.value in FAMILY_LITERALS for e in elts)

    counts = {f"{module}.<module>": 0}

    def visit(node, prefix, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}.{child.name}"
                counts.setdefault(name, 0)
                visit(child, name, name)
                continue
            if isinstance(child, ast.Compare) and any(
                    map(is_literal, [child.left, *child.comparators])):
                counts[scope] += 1
            inner = f"{prefix}.{child.name}" if isinstance(child, ast.ClassDef) else prefix
            visit(child, inner, scope)

    visit(tree, module, f"{module}.<module>")
    return counts


def test_family_chains_do_not_creep_back():
    """A ratchet on the per-family branches of src/rankone.

    The rule: count, per function, the comparisons against a family literal
    ("SO", "SU", "Sp", "F4"), a lambda's with its function and those outside
    any function under `<module>`; a function (or module) with two or more is
    a family chain.  The lattice rows of `ktypes.LATTICE_SPECS` and the growth
    orders of `scalars.GROWTH_ORDERS` took the count from 18 chains and 62
    comparisons to 12 and 43, and the nu and vanishing rows
    `scalars.NU_ROWS` and `scalars.VANISHING_ROWS` to 10 and 37, and deleting
    the unused `spherical.phi` to 9 and 34, and the rows `weyl.K_ROWS` and
    `ktypes.LANGLANDS_ROWS` to 7 and 28, and reading Sp's azimuthal split
    from SO(4,1) as F4's from SO(8,1), through `spherical._AZIMUTHS`, to 6
    and 26.  The chains left are FAMILY_CHAINS:
    `scalars.growth_step_ratio` and `scalars.growth_closed_form`,
    `spherical.radial_factor`, `spherical._raw_row`,
    `spherical._factorisation` and `tensor._p_weights`.  A new chain fails here; removing one should remove
    it from FAMILY_CHAINS too.
    """
    counts = {}
    for path in sorted(Path(rankone.__file__).parent.glob("*.py")):
        counts.update(_family_comparisons(ast.parse(path.read_text()), path.stem))
    chains = {name for name, k in counts.items() if k >= 2}
    assert chains == FAMILY_CHAINS
    assert sum(counts.values()) <= 26


KIND_LITERALS = {"A", "B", "D", "CC"}


def _kind_comparisons(tree) -> list[int]:
    """Lines of the Compare nodes with a root-system kind literal, or a tuple,
    list or set display holding one, on either side."""
    def is_literal(node):
        elts = node.elts if isinstance(node, (ast.Tuple, ast.List, ast.Set)) else [node]
        return any(isinstance(e, ast.Constant) and e.value in KIND_LITERALS for e in elts)

    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Compare)
            and any(map(is_literal, [node.left, *node.comparators]))]


def test_only_weyl_compares_root_system_kinds():
    """The chamber walls of each kind are stated once, in `weyl.RootSystem`:
    no other module of src/rankone compares against "A", "B", "D" or "CC"."""
    users = {module: lines for module, tree in _src_trees().items()
             if (lines := _kind_comparisons(tree))}
    assert set(users) == {"weyl"}, users


def test_the_kind_rule_counts_each_comparison_form():
    tree = ast.parse('kind == "CC"\nkind in ("B", "CC")\n"D" != k\nk == "SO"\nk in {"A"}\n')
    assert _kind_comparisons(tree) == [1, 2, 3, 5]


# The parameters of src/rankone that carry a default, each used with more than
# one value; a parameter every caller passes the same value to is a constant.
DEFAULTED_PARAMETERS = {
    "cli.main(argv)", "hypergeom._term(factor)", "so_model.random_lorentz(shape)",
}


def _defaulted_parameters(tree, module: str) -> set[str]:
    """`module.qualname(parameter)` for every parameter with a default, nested ones too."""
    out = set()

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                if not isinstance(child, ast.ClassDef):
                    a = child.args
                    positional = a.posonlyargs + a.args
                    with_default = positional[len(positional) - len(a.defaults):]
                    with_default += [p for p, d in zip(a.kwonlyargs, a.kw_defaults) if d]
                    out.update(f"{name}({p.arg})" for p in with_default)
                visit(child, name)
            else:
                visit(child, prefix)

    visit(tree, module)
    return out


def test_defaulted_parameters_do_not_creep_back():
    """A ratchet on defaults: the Lorentz model's samples, step_h, num_points
    and seed defaults became the constants `so_model.SAMPLES`, `STEP_H` and
    `NUM_POINTS` and required seeds, which took the count from 15 to 6, and
    the memoised `spherical.radial_factor`, which let
    `spherical.ingredient_identities` drop its `splits` default, to 5, and
    dropping the `strict` knob of `weyl.RootSystem.is_dominant`, which no
    caller passed, to 4, and dropping the `corner` knob of `ktypes.labels`,
    which only the minimal-K-type search set, to 3."""
    found = set().union(*(_defaulted_parameters(tree, module)
                          for module, tree in _src_trees().items()))
    assert found == DEFAULTED_PARAMETERS


# The functions of src/rankone with a handler that catches ValueError (by name,
# through Exception or BaseException, or bare): the CLI's input parsers, the
# report's rendering guard and the Lorentz model's refusal.
VALUE_ERROR_CATCHERS = {
    "cli.parse_family", "cli.parse_label", "cli._seed", "cli.parse_rational",
    "cli.Report.result", "cli._or_inf",
}


def _value_error_catchers(tree, module: str) -> set[str]:
    """`module.qualname` of every function with a handler that would catch a ValueError."""
    broad = {"ValueError", "Exception", "BaseException"}
    out = set()

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{prefix}.{child.name}")
                continue
            if isinstance(child, ast.ExceptHandler):
                caught = child.type.elts if isinstance(child.type, ast.Tuple) else [child.type]
                if any(t is None or (isinstance(t, ast.Name) and t.id in broad) for t in caught):
                    out.add(prefix)
            visit(child, prefix)

    visit(tree, module)
    return out


def test_the_value_error_rule_on_a_snippet():
    snippet = ("def a():\n    try: f()\n    except ValueError: pass\n"
               "def b():\n    try: f()\n    except (KeyError, Exception): pass\n"
               "class C:\n    def c(self):\n        try: f()\n        except: pass\n"
               "def d():\n    try: f()\n    except KeyError: pass\n")
    assert _value_error_catchers(ast.parse(snippet), "m") == {"m.a", "m.b", "m.C.c"}


def test_value_error_catchers_do_not_creep_back():
    """A ratchet on admission by exception: a K-type label is admitted by
    `ktypes.LatticeSpec.error`, a test on coordinates, so `ktypes` and
    `spherical` no longer build a `KTypeLabel` inside a try to find out.  Only
    the functions of VALUE_ERROR_CATCHERS catch ValueError; dropping the
    `--tolerance` option took `cli._tolerance` out, from 7 to 6."""
    found = set().union(*(_value_error_catchers(tree, module)
                          for module, tree in _src_trees().items()))
    assert found == VALUE_ERROR_CATCHERS


def test_only_the_lorentz_model_imports_numpy():
    """Floats stay in the Lorentz model: no other module of src/rankone imports numpy."""
    importers = set()
    for module, tree in _src_trees().items():
        for node in ast.walk(tree):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            if any(name.partition(".")[0] == "numpy" for name in names):
                importers.add(module)
    assert importers == {"so_model"}


# the functions of math whose value is an int for int arguments; every other
# name of math (log, sqrt, exp, pi, inf, isfinite, ...) is a float or reads one
_INTEGER_MATH = {"comb", "factorial", "gcd", "isqrt", "lcm", "perm", "prod"}


def _float_uses(tree) -> list[str]:
    """The floating point a module names: float literals, `float`, and the
    float-valued names of math, as an attribute or imported."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            out.append(repr(node.value))
        elif isinstance(node, ast.Name) and node.id == "float":
            out.append("float")
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "math" and node.attr not in _INTEGER_MATH):
            out.append(f"math.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            out += [f"math.{a.name}" for a in node.names if a.name not in _INTEGER_MATH]
    return out


def test_the_float_rule_on_a_snippet():
    snippet = ("import math\nfrom math import factorial, log as ln, perm\n"
               "def f(x: float) -> int:\n    return math.gcd(2, 4) + math.sqrt(x) + 1e-3 + 2\n")
    assert sorted(_float_uses(ast.parse(snippet))) == ["0.001", "float", "math.log", "math.sqrt"]


def test_floats_stay_in_the_lorentz_model_and_the_cli():
    """Exact stays exact: only the Lorentz model and the CLI's residual
    handling touch floating point.  Growth orders are exact degrees,
    not a log-log slope."""
    users = {module for module, tree in _src_trees().items() if _float_uses(tree)}
    assert users == {"so_model", "cli"}


def test_no_src_module_imports_dataclasses():
    """Records are NamedTuples and the memo holders plain classes: building a
    dataclass generates its methods with exec at import, and a frozen one sets
    each field through object.__setattr__ and hashes and compares in Python."""
    importers = set()
    for module, tree in _src_trees().items():
        for node in ast.walk(tree):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            if "dataclasses" in names:
                importers.add(module)
    assert importers == set()


def test_importing_the_cli_leaves_dataclasses_unloaded():
    root = Path(__file__).resolve().parents[1]
    code = "import sys, rankone.cli; print('dataclasses' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], cwd=root,
                          env=dict(os.environ, PYTHONPATH="src"), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def _json_calls_with_indent(tree) -> list[int]:
    """Lines of the calls into json (`json.dumps`, `json.encoder.JSONEncoder`, a
    name imported from json, ...) that pass `indent=`."""
    json_names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            json_names.update(alias.asname or alias.name.partition(".")[0] for alias in node.names
                              if alias.name.partition(".")[0] == "json")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").partition(".")[0] == "json":
            json_names.update(alias.asname or alias.name for alias in node.names)
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and any(k.arg == "indent" for k in node.keywords):
            root = node.func
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in json_names:
                lines.append(node.lineno)
    return lines


def test_the_json_indent_rule_on_a_snippet():
    snippet = ("import json\nimport json.encoder as je\nfrom json import JSONEncoder as E\n"
               "json.dumps(x, indent=2)\nje.JSONEncoder(indent=1)\nE(indent=4)\n"
               "json.dumps(x, sort_keys=True)\nother.dumps(x, indent=2)\n")
    assert _json_calls_with_indent(ast.parse(snippet)) == [4, 5, 6]


def test_no_json_call_in_src_passes_indent():
    """A ratchet on the report encoder: `indent=` sends json down its
    pure-Python encoder, so reports are indented by `cli._emit`, which writes
    the same bytes with every scalar and string list encoded in C."""
    found = {module: lines for module, tree in _src_trees().items()
             if (lines := _json_calls_with_indent(tree))}
    assert found == {}


# The omega-row and scalar-table sweeps run on integers: rows are numerators
# over one denominator, the tables doubled integers, and the comparisons
# cross-multiply.  A Fraction enters only where lambda or a scalar leaves for a
# report or an API caller (`RecurrenceRow.coefficient`, `nu_scalar`, ...).
INTEGER_SWEEP_FUNCTIONS = {
    "spherical.RecurrenceRow.numerator", "spherical.row_is_convex",
    "spherical.lambda_dim_reciprocal", "spherical.verify_omega_identity",
    "spherical._assembles_to", "spherical._checked_splits", "spherical._radial_identity",
    "spherical._factorisation",
    "scalars._row_value", "scalars._two_r", "scalars.edges", "scalars.vanishing_table_check",
    "scalars._vanishes_at_t_root",
    "cli.verify_spherical", "cli.verify_scalars",
}


def _functions_naming_fraction(tree, module: str) -> dict[str, bool]:
    """{qualified name: whether its body names Fraction} for every function of a
    module, nested ones too; `fractions.Fraction` and an import alias count."""
    aliases = {"Fraction"}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "fractions":
            aliases.update(a.asname or a.name for a in node.names if a.name == "Fraction")

    def names_fraction(node):
        return any((isinstance(n, ast.Name) and n.id in aliases)
                   or (isinstance(n, ast.Attribute) and n.attr == "Fraction") for n in ast.walk(node))

    out = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                if not isinstance(child, ast.ClassDef):
                    out[name] = names_fraction(child)
                visit(child, name)
            else:
                visit(child, prefix)

    visit(tree, module)
    return out


def test_the_fraction_rule_on_a_snippet():
    snippet = ("from fractions import Fraction as Q\nimport fractions\n"
               "def a(x):\n    return Q(x, 2)\n"
               "def b(x):\n    return fractions.Fraction(x)\n"
               "def c(x) -> Fraction:\n    return x\n"
               "class R:\n    def d(self):\n        return self.den * 2\n")
    assert _functions_naming_fraction(ast.parse(snippet), "m") == {
        "m.a": True, "m.b": True, "m.c": True, "m.R.d": False}


def test_integer_sweeps_name_no_fraction():
    """A ratchet on the integer omega-row layer: the sweep predicates,
    `verify_omega_identity` and the suites that call them name no Fraction."""
    found = {}
    for module, tree in _src_trees().items():
        found.update(_functions_naming_fraction(tree, module))
    assert INTEGER_SWEEP_FUNCTIONS <= found.keys()
    assert {name for name in INTEGER_SWEEP_FUNCTIONS if found[name]} == set()


# Every function, method and class of src/rankone is named somewhere in
# src/rankone, so each is reached from what a command runs.  A reference that
# only the tests compare against lives in tests/references.py.  The contiguous
# relations are kept for `verify spherical` to run.
ORPHANS_ALLOWED = {"hypergeom.check_contiguous"}


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _definitions(tree, module: str) -> dict[str, str]:
    """{qualified name: name} of every function, method and class, nested ones too."""
    out = {}

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                out[f"{prefix}.{child.name}"] = child.name
                visit(child, f"{prefix}.{child.name}")
            else:
                visit(child, prefix)

    visit(tree, module)
    return out


def _named(tree) -> set[str]:
    """Every name a module mentions: a Name, an Attribute, or an import and its alias."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.update(filter(None, (node.name, node.asname)))
    return out


def _orphans(trees: dict[str, ast.Module]) -> set[str]:
    named = set().union(*map(_named, trees.values()))
    return {qual for module, tree in trees.items()
            for qual, name in _definitions(tree, module).items()
            if name not in named and not _is_dunder(name)}


def _unused_imports(tree) -> list[str]:
    """Names a module imports and never uses; `__all__` entries count as uses."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                source = "." * node.level + (f"{node.module}." if node.module else "")
                bound[alias.asname or alias.name] = source + alias.name
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(e.value for e in node.value.elts)
    return sorted(full for name, full in bound.items() if name not in used)


def _src_trees() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text())
            for path in sorted(Path(rankone.__file__).parent.glob("*.py"))}


RULE_SNIPPET = """
from __future__ import annotations
import json
from typing import Sequence


class Box:
    def __init__(self, items: Sequence):
        self.items = items

    def reached(self):
        return json.dumps(self.items)

    def orphan_method(self):
        return 0


def orphan():
    return Box([1]).reached()
"""


def test_the_two_ast_rules_on_a_snippet():
    tree = ast.parse(RULE_SNIPPET)
    # orphan() and orphan_method() are named nowhere; reached() only as an
    # attribute and the class by a call; the dunder is exempt
    assert _orphans({"snip": tree}) == {"snip.orphan", "snip.Box.orphan_method"}
    # Sequence appears only in an annotation, which still counts as a use
    assert _unused_imports(tree) == []
    assert _unused_imports(ast.parse("import os.path\nfrom .x import y as z\n")) \
        == [".x.y", "os.path"]


def test_every_definition_in_src_is_named_in_src():
    """A ratchet on dead code: a function, method or class that nothing in
    src/rankone names is reached by no command.  Delete it, or move it into
    tests/references.py if the tests compare against it."""
    assert _orphans(_src_trees()) == ORPHANS_ALLOWED


def test_src_modules_use_every_name_they_import():
    unused = {module: names for module, tree in _src_trees().items()
              if (names := _unused_imports(tree))}
    assert unused == {}


def test_python_dash_m_rankone():
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-m", "rankone", "structure", "F4"], cwd=root,
                          env=dict(os.environ, PYTHONPATH="src"), capture_output=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (root / "tests" / "golden" / "structure_F4.json").read_bytes()


# A command line that names a subcommand is parsed by that subcommand's parser
# alone; the full parser is built only for what it alone reports.

FAST_PATH_QUERIES = [
    ["tensor", "SU", "3", "Y2,1"],
    ["scalars", "SU", "4", "Y2,3", "Y3,3", "--mu", "-5/2"],
    ["exceptional", "F4", "--count", "5", "--format", "csv"],
    ["verify", "groups", "--depth", "1"],
]


def _full_parser_refused(monkeypatch):
    class FullParserBuilt(Exception):
        pass

    def refuse():
        raise FullParserBuilt

    monkeypatch.setattr(cli, "build_parser", refuse)
    return FullParserBuilt


@pytest.mark.parametrize("argv", FAST_PATH_QUERIES, ids=[" ".join(a) for a in FAST_PATH_QUERIES])
def test_valid_query_never_builds_the_full_parser(capsys, monkeypatch, argv):
    expected = run(capsys, argv)
    assert expected[0] == 0
    _full_parser_refused(monkeypatch)
    assert run(capsys, argv) == expected


@pytest.mark.parametrize("argv", [["-h"], ["bogus"], [], ["structure", "SO", "5", "--bogus"]])
def test_only_the_full_parser_reports_top_level_usage(monkeypatch, argv):
    full_parser_built = _full_parser_refused(monkeypatch)
    with pytest.raises(full_parser_built):
        main(argv)


def test_each_subcommand_parser_is_built_once_per_process(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    cli._subcommand_parser.cache_clear()
    for argv in FAST_PATH_QUERIES:
        assert run(capsys, argv)[0] == 0
    assert sorted(built) == sorted({f"rankone {argv[0]}" for argv in FAST_PATH_QUERIES})
    built.clear()
    for argv in FAST_PATH_QUERIES:
        assert run(capsys, argv)[0] == 0
    assert built == []


def _outcome(capsys, argv):
    """(exit code, stdout, stderr) of `rankone <argv>`."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# every CSV golden, and the light JSON ones (count 7, ell 0) of every family
_LIGHT_REPORTS = [(name, argv) for name, argv in CASES
                  if name.endswith(".csv") or name.endswith(("_count7.json", "_ell0.json"))]


def test_cached_parsers_keep_no_state(capsys, monkeypatch, tmp_path):
    for name in cli.COMMANDS:
        for action in cli._subcommand_parser(name)._actions:
            assert action.default is None or isinstance(action.default, (str, int, float, tuple))
            assert action.choices is None or isinstance(action.choices, tuple)
            assert not isinstance(action, (argparse._AppendAction, argparse._AppendConstAction,
                                           argparse._CountAction))  # extend appends too

    monkeypatch.setenv("COLUMNS", "80")  # the help and usage goldens' width
    out_file = tmp_path / "report.csv"
    out_query = ("structure_SO_7.csv",
                 ["structure", "SO", "7", "--format", "csv", "--out", str(out_file)])
    helps = [(argv, (0, (GOLDEN / name).read_text(), "")) for name, argv in HELP_CASES]
    usages = [(argv, (2, "", (GOLDEN / name).read_text())) for name, argv in USAGE_CASES]
    reports = [(argv, (0, (GOLDEN / name).read_text(), "")) for name, argv in _LIGHT_REPORTS]
    outs = [(out_query[1], (0, "", ""))]
    interleaved = [case for cases in itertools.zip_longest(helps, usages, outs, reports)
                   for case in cases if case is not None]
    for _ in range(2):
        for argv, expected in interleaved:
            out_file.unlink(missing_ok=True)
            assert _outcome(capsys, argv) == expected, argv
            if argv is out_query[1]:
                assert out_file.read_text() == (GOLDEN / out_query[0]).read_text()
