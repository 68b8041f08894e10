"""Byte-for-byte golden reports of `matsep certify`.

The files under tests/golden/ are the exact stdout of each command, as
recorded before the sparse dual numbers and integer row scaling landed,
so ranks, witness points and verdicts are pinned, not re-derived.
"""

import io
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from matsep.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = [
    ("certify_n4_trials3_seed7.txt",
     ["certify", "--n", "4", "--trials", "3", "--seed", "7"]),
    ("certify_n6_gamma-sat-cr_sat-cr_seed1.txt",
     ["certify", "--n", "6", "--claims", "gamma-sat-cr,sat-cr", "--seed", "1"]),
    ("certify_l3_n5_seed2.txt",
     ["certify", "--l", "3", "--n", "5", "--seed", "2"]),
    ("certify_l4_n8_z-left_seed0.txt",
     ["certify", "--l", "4", "--n", "8", "--claims", "z-left", "--seed", "0"]),
]


@pytest.mark.parametrize("name,argv", CASES, ids=[c[0] for c in CASES])
def test_certify_report_matches_golden(name, argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv)
    assert code == 0
    assert out.getvalue().encode("utf-8") == (GOLDEN / name).read_bytes()
