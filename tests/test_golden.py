"""Byte-identity of CLI reports against goldens captured before a refactor.

Each file under tests/golden/ is the stdout of `rankone <argv>`, captured from
a commit whose reports are trusted; regenerate one only from such a commit, e.g.
`PYTHONPATH=src python -m rankone.cli tensor SO 32 Y7 > tests/golden/tensor_SO_32_Y7.json`.

The tensor and `verify tensor` goldens pin the Weyl/character layer; the
structure, exceptional, socle, scalars and `verify groups|spherical` goldens
pin the per-family tables, the K-type lattice and the radial factors.
"""
from pathlib import Path

import pytest

from rankone.cli import main

GOLDEN = Path(__file__).parent / "golden"

FAMILIES = [["SO", "2"], ["SO", "7"], ["SU", "3"], ["Sp", "2"], ["F4"]]
SCALAR_PAIRS = [["SO", "7", "Y2", "Y3"], ["SU", "3", "Y1,2", "Y2,2"],
                ["Sp", "2", "V2,1", "V3,1"], ["F4", "V4,2", "V5,3"]]


def _tag(tokens):
    return "_".join(tokens).replace(",", "_")


CASES = [
    ("verify_tensor_depth3.json", ["verify", "tensor", "--depth", "3"]),
    ("verify_tensor_depth3.csv", ["verify", "tensor", "--depth", "3", "--format", "csv"]),
    ("verify_groups_depth3.json", ["verify", "groups", "--depth", "3"]),
    ("verify_spherical_depth3.json", ["verify", "spherical", "--depth", "3"]),
    ("tensor_SO_32_Y7.json", ["tensor", "SO", "32", "Y7"]),
    ("tensor_SU_26_Y3_5.json", ["tensor", "SU", "26", "Y3,5"]),
    ("tensor_Sp_15_V6_2.json", ["tensor", "Sp", "15", "V6,2"]),
    ("tensor_F4_V4_2.json", ["tensor", "F4", "V4,2"]),
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
