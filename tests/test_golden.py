"""Byte-identity of CLI reports against goldens captured before a refactor.

Each file under tests/golden/ is the stdout of `rankone <argv>`, captured from
a commit whose reports are trusted; regenerate one only from such a commit, e.g.
`PYTHONPATH=src python -m rankone.cli tensor SO 32 Y7 > tests/golden/tensor_SO_32_Y7.json`.

The tensor and `verify tensor` goldens pin the Weyl/character layer (depth 6
reaches the character oracle at every label <= 4 of every rank <= 4 family); the
structure, exceptional, socle, scalars and `verify groups|spherical` goldens
pin the per-family tables, the K-type lattice and the radial factors; the
`verify scalars`, long `exceptional` and large-ell `socle` goldens pin the
growth factorials, the Gamma-pole scan and the minimal-K-type search.  The
Racah-Speiser weight format is pinned by type B with a zero weight of p
(SO 33), the D2 chiral partners (SO 4), a large rank (SO 200), two CSV tensor
reports (one with the half-integer Spin(9) weights of F4 V2,0) and `verify
spherical --depth 6`, which reaches Racah-Speiser through the
omega-vs-tensor adjacency check.  The integer polynomial kernel of the
spherical, hypergeometric and zonal layer is pinned by `verify spherical
--depth 12`, `verify scalars --depth 6` and `verify so-model --depth 6
--seed 3`, whose report carries the float intertwining residual as text.
The anchored minimal-K-type search is pinned by `socle --ell 100` for SU 8,
Sp 8, F4, SO 8 and SO 2, and the integer exceptional route by `exceptional
Sp 7 --count 3028` and the CSV report of `exceptional SU 8 --count 1610`.
The K-type dimensions at the size caps, up to ~35 digits, are pinned by
`tensor Sp 300 V6,2`, `tensor SU 300 Y3,5` and `socle Sp 800 --ell 100`, and
the tensor cap itself by `tensor SO 1000 Y3`, `tensor Sp 1000 V6,2` and
`tensor SU 1000 Y3,5`; the Racah-Speiser sweep at the depth cap by `verify
tensor --depth 16`.  The integer nu and vanishing
rows and the cancelled growth quotients are pinned by `verify scalars --depth
16` (the depth cap) and by one lowering query per family, where nu involves
rho: `scalars SO 999 Y6 Y5`, `SO 1000 Y6 Y5`, `SU 1000 Y3,2 Y2,2`, `Sp 1000
V4,2 V3,2` and `F4 V6,2 V5,1`, each at `--mu=-7/2`.  Zonal evaluation over
point arrays is pinned by `verify so-model --depth 6 --seed 0`, the default
seed.  The stacked Lorentz matrices and the per-sweep boost frames are pinned
by `verify so-model --depth 16 --seed 79` (the depth cap) and `--depth 2
--seed 18446744073709551617`, a seed above 2**64.  The check order, ids and
instances of every suite are pinned by `verify groups --depth 16` (the
exceptional dual route at the depth cap) and the combined CSV report of
`verify all --depth 2`.  The Gamma-pole scan at the `exceptional` n cap,
where the poles start far below zero, is pinned by `exceptional SO 100000
--count 8` and the CSV report of `exceptional Sp 100000 --count 5`.
The CSV cell quoting is pinned by the CSV reports of `socle SU 3 --ell 3` (a
dict cell holding bools, and a check instance with a comma and a space),
`structure SO 7` (plain int cells) and `scalars SU 3 Y1,2 Y2,2 --mu=-5/2`
(a report without checks), beside the tensor, verify and exceptional ones.
The omega rows shared by the spherical, scalars and so-model suites in one
process are pinned by `verify all --depth 6` and `verify spherical --depth
16` (the depth cap).

The argument parser is pinned by `help_*.txt` (stdout of `rankone -h` and of
`rankone <command> -h`, exit 0) and `usage_*.txt` (stderr of rejected command
lines, exit 2).  The `usage_tensor_*` goldens pin the message of each
label-lattice rule: length, sign, order and parity.  argparse wraps both to
the terminal width, so those tests run at COLUMNS=80.
"""
from pathlib import Path

import pytest

from rankone.cli import main

GOLDEN = Path(__file__).parent / "golden"

FAMILIES = [["SO", "2"], ["SO", "7"], ["SU", "3"], ["Sp", "2"], ["F4"]]
SCALAR_PAIRS = [["SO", "7", "Y2", "Y3"], ["SU", "3", "Y1,2", "Y2,2"],
                ["Sp", "2", "V2,1", "V3,1"], ["F4", "V4,2", "V5,3"],
                ["SO", "999", "Y6", "Y5"], ["SO", "1000", "Y6", "Y5"],
                ["SU", "1000", "Y3,2", "Y2,2"], ["Sp", "1000", "V4,2", "V3,2"],
                ["F4", "V6,2", "V5,1"]]


def _tag(tokens):
    return "_".join(tokens).replace(",", "_")


CASES = [
    ("verify_tensor_depth3.json", ["verify", "tensor", "--depth", "3"]),
    ("verify_tensor_depth3.csv", ["verify", "tensor", "--depth", "3", "--format", "csv"]),
    ("verify_tensor_depth6.json", ["verify", "tensor", "--depth", "6"]),
    ("verify_groups_depth3.json", ["verify", "groups", "--depth", "3"]),
    ("verify_spherical_depth3.json", ["verify", "spherical", "--depth", "3"]),
    ("tensor_SO_32_Y7.json", ["tensor", "SO", "32", "Y7"]),
    ("tensor_SU_26_Y3_5.json", ["tensor", "SU", "26", "Y3,5"]),
    ("tensor_Sp_15_V6_2.json", ["tensor", "Sp", "15", "V6,2"]),
    ("tensor_F4_V4_2.json", ["tensor", "F4", "V4,2"]),
    ("tensor_SO_33_Y7.json", ["tensor", "SO", "33", "Y7"]),
    ("tensor_SO_4_Y3.json", ["tensor", "SO", "4", "Y3"]),
    ("tensor_SO_200_Y3.json", ["tensor", "SO", "200", "Y3"]),
    ("tensor_SU_7_Y4_2.csv", ["tensor", "SU", "7", "Y4,2", "--format", "csv"]),
    ("tensor_F4_V2_0.csv", ["tensor", "F4", "V2,0", "--format", "csv"]),
    ("verify_spherical_depth6.json", ["verify", "spherical", "--depth", "6"]),
    ("verify_scalars_depth3.json", ["verify", "scalars", "--depth", "3"]),
    ("verify_scalars_depth3.csv", ["verify", "scalars", "--depth", "3", "--format", "csv"]),
    ("exceptional_SO_3_count4000.json", ["exceptional", "SO", "3", "--count", "4000"]),
    ("exceptional_F4_count3517.csv", ["exceptional", "F4", "--count", "3517", "--format", "csv"]),
    ("socle_SU_8_ell20.json", ["socle", "SU", "8", "--ell", "20"]),
    ("socle_Sp_8_ell18.json", ["socle", "Sp", "8", "--ell", "18"]),
    ("socle_F4_ell20.json", ["socle", "F4", "--ell", "20"]),
    ("verify_spherical_depth12.json", ["verify", "spherical", "--depth", "12"]),
    ("verify_so_model_depth6_seed3.json", ["verify", "so-model", "--depth", "6", "--seed", "3"]),
    ("verify_scalars_depth6.json", ["verify", "scalars", "--depth", "6"]),
    ("socle_SU_8_ell100.json", ["socle", "SU", "8", "--ell", "100"]),
    ("socle_Sp_8_ell100.json", ["socle", "Sp", "8", "--ell", "100"]),
    ("socle_F4_ell100.json", ["socle", "F4", "--ell", "100"]),
    ("socle_SO_8_ell100.json", ["socle", "SO", "8", "--ell", "100"]),
    ("socle_SO_2_ell100.json", ["socle", "SO", "2", "--ell", "100"]),
    ("exceptional_Sp_7_count3028.json", ["exceptional", "Sp", "7", "--count", "3028"]),
    ("exceptional_SU_8_count1610.csv",
     ["exceptional", "SU", "8", "--count", "1610", "--format", "csv"]),
    ("tensor_Sp_300_V6_2.json", ["tensor", "Sp", "300", "V6,2"]),
    ("tensor_SU_300_Y3_5.json", ["tensor", "SU", "300", "Y3,5"]),
    ("socle_Sp_800_ell100.json", ["socle", "Sp", "800", "--ell", "100"]),
    ("tensor_SO_1000_Y3.json", ["tensor", "SO", "1000", "Y3"]),
    ("tensor_Sp_1000_V6_2.json", ["tensor", "Sp", "1000", "V6,2"]),
    ("tensor_SU_1000_Y3_5.json", ["tensor", "SU", "1000", "Y3,5"]),
    ("verify_tensor_depth16.json", ["verify", "tensor", "--depth", "16"]),
    ("verify_scalars_depth16.json", ["verify", "scalars", "--depth", "16"]),
    ("verify_so_model_depth6_seed0.json", ["verify", "so-model", "--depth", "6", "--seed", "0"]),
    ("verify_so_model_depth16_seed79.json",
     ["verify", "so-model", "--depth", "16", "--seed", "79"]),
    ("verify_so_model_depth2_seed18446744073709551617.json",
     ["verify", "so-model", "--depth", "2", "--seed", "18446744073709551617"]),
    ("verify_groups_depth16.json", ["verify", "groups", "--depth", "16"]),
    ("verify_all_depth2.csv", ["verify", "all", "--depth", "2", "--format", "csv"]),
    ("verify_all_depth6.json", ["verify", "all", "--depth", "6"]),
    ("verify_spherical_depth16.json", ["verify", "spherical", "--depth", "16"]),
    ("exceptional_SO_100000_count8.json", ["exceptional", "SO", "100000", "--count", "8"]),
    ("exceptional_Sp_100000_count5.csv",
     ["exceptional", "Sp", "100000", "--count", "5", "--format", "csv"]),
    ("socle_SU_3_ell3.csv", ["socle", "SU", "3", "--ell", "3", "--format", "csv"]),
    ("structure_SO_7.csv", ["structure", "SO", "7", "--format", "csv"]),
    ("scalars_SU_3_Y1_2_Y2_2_mu-5_2.csv",
     ["scalars", "SU", "3", "Y1,2", "Y2,2", "--mu=-5/2", "--format", "csv"]),
]
for fam in FAMILIES:
    CASES += [
        (f"structure_{_tag(fam)}.json", ["structure", *fam]),
        (f"exceptional_{_tag(fam)}_count7.json", ["exceptional", *fam, "--count", "7"]),
        (f"socle_{_tag(fam)}_ell0.json", ["socle", *fam, "--ell", "0"]),
        (f"socle_{_tag(fam)}_ell3.json", ["socle", *fam, "--ell", "3"]),
    ]
for pair in SCALAR_PAIRS:
    CASES.append((f"scalars_{_tag(pair)}.json", ["scalars", *pair, "--mu=-7/2"]))


@pytest.mark.parametrize("name,argv", CASES, ids=[name for name, _ in CASES])
def test_report_matches_golden(capsys, name, argv):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / name).read_text()


COMMANDS = ("structure", "exceptional", "socle", "tensor", "scalars", "verify")
HELP_CASES = [("help_rankone.txt", ["-h"])] + [(f"help_{c}.txt", [c, "-h"]) for c in COMMANDS]
USAGE_CASES = [
    ("usage_no_command.txt", []),
    ("usage_unknown_command.txt", ["bogus"]),
    ("usage_structure_unrecognized_option.txt", ["structure", "SO", "5", "--bogus"]),
    ("usage_verify_unknown_suite.txt", ["verify", "nope"]),
    ("usage_structure_bad_format.txt", ["structure", "SO", "5", "--format", "xml"]),
    ("usage_exceptional_bad_count.txt", ["exceptional", "F4", "--count", "z"]),
    ("usage_tensor_SO_5_Y-1.txt", ["tensor", "SO", "5", "Y-1"]),
    ("usage_tensor_SO_5_Y1_2.txt", ["tensor", "SO", "5", "Y1,2"]),
    ("usage_tensor_SU_3_Y-1_0.txt", ["tensor", "SU", "3", "Y-1,0"]),
    ("usage_tensor_Sp_3_V1_2.txt", ["tensor", "Sp", "3", "V1,2"]),
    ("usage_tensor_F4_V3_0.txt", ["tensor", "F4", "V3,0"]),
]


@pytest.mark.parametrize("name,argv", HELP_CASES, ids=[name for name, _ in HELP_CASES])
def test_help_matches_golden(capsys, monkeypatch, name, argv):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 0
    assert captured.err == ""
    assert captured.out == (GOLDEN / name).read_text()


@pytest.mark.parametrize("name,argv", USAGE_CASES, ids=[name for name, _ in USAGE_CASES])
def test_usage_error_matches_golden(capsys, monkeypatch, name, argv):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert captured.err == (GOLDEN / name).read_text()
