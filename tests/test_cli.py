import json

import pytest

from rankone.cli import main, parse_family, parse_label, UsageError
from rankone.groups import f4, so, su


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


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
    with pytest.raises(UsageError):
        parse_label(so(5), "Y1,2")


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


def test_scalars_unrelated_pair(capsys):
    code, out = run(capsys, ["scalars", "SO", "5", "Y0", "Y2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["lambda"] == "0"
    assert "not omega-related" in doc["results"]["note"]


def test_exceptional_routes_agree(capsys):
    code, out = run(capsys, ["exceptional", "Sp", "2", "--count", "5"])
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["closed_form"] == ["-3", "-5", "-7", "-9", "-11"]
    assert doc["results"]["closed_form"] == doc["results"]["gamma_pole_scan"]
    assert doc["status"] == "pass"


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


def test_verify_small_suite(capsys):
    code, out = run(capsys, ["verify", "groups", "--depth", "2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "pass"
    assert doc["results"]["checks_failed"] == 0


@pytest.mark.parametrize("argv", [
    ["verify", "so-model", "--seed", "-5"],
    ["verify", "so-model", "--seed", "x"],
    ["verify", "so-model", "--seed", "9" * 5000],
    ["verify", "so-model", "--tolerance", "nan"],
    ["verify", "so-model", "--tolerance", "inf"],
    ["verify", "so-model", "--tolerance", "-1"],
    ["verify", "so-model", "--tolerance", "abc"],
    ["structure", "SO", "5", "--seed", "-1"],
])
def test_bad_seed_or_tolerance_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "seed must be" in err or "tolerance must be" in err


def test_zero_tolerance_and_seed_are_accepted(capsys):
    code, out = run(capsys, ["structure", "SO", "5", "--seed", "0", "--tolerance", "0"])
    assert code == 0 and json.loads(out)["status"] == "pass"


@pytest.mark.parametrize("mu", [["--mu", "1e40000"], ["--mu=1e-40000"]])
def test_unrenderable_mu_exits_2(capsys, mu):
    # exact, but with more digits than int-to-str conversion allows
    with pytest.raises(SystemExit) as exc:
        main(["scalars", "SO", "5", "Y1", "Y2", *mu])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "bad rational" in err
