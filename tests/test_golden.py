"""Byte-identity of CLI reports against goldens captured before the integer Weyl kernel.

Each file under tests/golden/ is the stdout of `rankone <argv>`; regenerate
one only from a commit whose reports are trusted, e.g.
`PYTHONPATH=src python -m rankone.cli tensor SO 32 Y7 > tests/golden/tensor_SO_32_Y7.json`.
"""
from pathlib import Path

import pytest

from rankone.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = [
    ("verify_tensor_depth3.json", ["verify", "tensor", "--depth", "3"]),
    ("verify_tensor_depth3.csv", ["verify", "tensor", "--depth", "3", "--format", "csv"]),
    ("tensor_SO_32_Y7.json", ["tensor", "SO", "32", "Y7"]),
    ("tensor_SU_26_Y3_5.json", ["tensor", "SU", "26", "Y3,5"]),
    ("tensor_Sp_15_V6_2.json", ["tensor", "Sp", "15", "V6,2"]),
    ("tensor_F4_V4_2.json", ["tensor", "F4", "V4,2"]),
]


@pytest.mark.parametrize("name,argv", CASES, ids=[name for name, _ in CASES])
def test_report_matches_golden(capsys, name, argv):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    assert out == (GOLDEN / name).read_text()
