"""Byte-for-byte golden reports of the CLI.

The files under tests/golden/ are the exact stdout of each command, as
recorded before the sparse dual numbers and integer row scaling landed
(`certify`), before rank and determinant shared one skipping Bareiss
kernel (`graph`, `stability`, `nullcone`, `invariants` on the fixture
documents next to them), and before the integer dual numbers and the
closed-form rational roots (`separate`, `phi`, `classify`, `curve` and
two-sided `stability` with rational common directions), and before the
two-sided blocks read one integer form per tuple (`invariants`,
`stability` and `nullcone` on lr-tuples with fractional entries,
`separate` on pairs first separated in each block, `classify` and
`graph` on a conjugated non-upper pair), and before Laurent products
accumulated each entry in one term map (`curve` for l = 2 and for each
l = 3 branch: second side collapsed, also with a zero second side that
takes the row swap, first side collapsed, and both top spans
two-dimensional, once as text), and before each certify trial took its
rank at the sampled point moved to the identity of its group charts
(`certify` for all seven 2x2 claims at n = 7 and the left family at
(l, n) = (5, 7) and (2, 4)), and before each grouped certify trial built
its matrix from the chart-free base map with no chart evaluated
(`certify` as text for the left family at l = n = 3, where the chart
acts on a square block, and for gamma, sat-cc and sat-cr-cc at n = 5
with two trials), and before each graph closure's repeated block was
written minus its first output (`certify` for gamma at n = 8 and
gamma-left at (l, n) = (4, 8)), and before classification read its
upper representatives off the integer forms (`classify` on a conjugated
double-pattern pair whose first side admits every direction, so it takes
the three fallback directions), and before documents were read straight
into integer rows (`separate`, `phi`, `graph` and `curve` on lr- and
left-pairs whose entries take every branch of the entry grammar: signs,
leading zeros, "0/7", padding stripped, reducible "p/q" and 2**70 as a
JSON integer and as a string; and the exit-2 message for "1/0", a
full-width digit, "1.5" and `true`), so ranks,
minors, witness points, directions and verdicts are pinned, not
re-derived.  A 12 x 40 left orbit pair, recorded when left pairs were
first decided from one elimination per side, is not separated, and its
report comes back within 2 s.  An upper pair with two rational
directions per side, and the same pair moved by an SL2 x SL2 element per
side, were recorded once upper pairs took the union over their
representatives like every other pair: their `classify` flags agree.
Document commands run from tests/golden/,
so the report echoes each document's bare file name.  A refusal's
golden file is its one stderr line, with exit code 3 and no report (a
certify Jacobian, an `invariants` report of more values than the limit,
C(40, 12) minors or the 20,881 generators at n = 28, a `separate` of a
12 x 40 left pair whose row spaces differ, so that its C(40, 12) minors
per side would be walked for a witness, an `invariants` value
of about 4,400 digits, over the interpreter's int-to-str digit limit,
or a `counts` generator count C(40000, 20000) or C(10**9, 5 * 10**8),
past the 4,300 digits of a counts report, as JSON and as text, or a
`certify` of 10**9 trials of sat-cr, a claim below its rank bound that
would run every one of them);
an input error's is its one stderr line, with exit code 2 (among them a
5,000-digit JSON integer, the same digits as a string entry and as the
denominator of one, and a document nested 100,000 brackets deep).
Refusals and input errors come back within 2 s.
"""

import io
import time
from contextlib import redirect_stderr, redirect_stdout
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
    ("certify_n7_seed3.txt", ["certify", "--n", "7", "--seed", "3"]),
    ("certify_l5_n7_seed4.txt", ["certify", "--l", "5", "--n", "7", "--seed", "4"]),
    ("certify_l2_n4_seed5.txt", ["certify", "--l", "2", "--n", "4", "--seed", "5"]),
    ("certify_l3_n3_seed6_text.txt",
     ["certify", "--l", "3", "--n", "3", "--seed", "6", "--format", "text"]),
    ("certify_n5_trials2_gamma_sat-cc_sat-cr-cc_seed8_text.txt",
     ["certify", "--n", "5", "--trials", "2", "--seed", "8",
      "--claims", "gamma,sat-cc,sat-cr-cc", "--format", "text"]),
    ("certify_l4_n8_gamma-left_seed9.txt",
     ["certify", "--l", "4", "--n", "8", "--claims", "gamma-left", "--seed", "9"]),
    ("certify_n8_gamma_seed9.txt", ["certify", "--n", "8", "--claims", "gamma", "--seed", "9"]),
]

DOCUMENT_CASES = [
    ("graph_upper_n5.txt", ["graph", "graph_upper_n5.json"]),
    ("graph_left_l3_n6.txt", ["graph", "graph_left_l3_n6.json"]),
    ("graph_left_l4_n7.txt", ["graph", "graph_left_l4_n7.json"]),
    ("stability_left_full_l4_n6.txt", ["stability", "left_full_l4_n6.json"]),
    ("stability_left_deficient_l4_n7.txt",
     ["stability", "left_deficient_l4_n7.json"]),
    ("nullcone_left_full_l4_n6.txt", ["nullcone", "left_full_l4_n6.json"]),
    ("nullcone_left_deficient_l4_n7.txt",
     ["nullcone", "left_deficient_l4_n7.json"]),
    ("invariants_left_full_l4_n6.txt", ["invariants", "left_full_l4_n6.json"]),
    ("invariants_left_l5_n7.txt", ["invariants", "left_l5_n7.json"]),
    ("separate_lr_orbit_n5.txt", ["separate", "lr_orbit_n5.json"]),
    ("separate_left_l3_n6.txt", ["separate", "graph_left_l3_n6.json"]),
    ("separate_left_separated_l3_n5.txt",
     ["separate", "left_separated_l3_n5.json"]),
    ("phi_upper_n5.txt", ["phi", "graph_upper_n5.json"]),
    ("classify_upper_n5.txt", ["classify", "graph_upper_n5.json"]),
    ("curve_left_l3_n6.txt", ["curve", "curve_left_l3_n6.json"]),
    ("stability_direction_n4.txt", ["stability", "direction_n4.json"]),
    ("stability_two_directions_n3.txt", ["stability", "two_directions_n3.json"]),
    ("invariants_lr_fractional_n6.txt", ["invariants", "lr_fractional_n6.json"]),
    ("invariants_lr_rank_one_n4.txt", ["invariants", "lr_rank_one_n4.json"]),
    ("stability_lr_fractional_n6.txt", ["stability", "lr_fractional_n6.json"]),
    ("stability_lr_rank_one_n4.txt", ["stability", "lr_rank_one_n4.json"]),
    ("stability_lr_nullcone_fractional_n5.txt",
     ["stability", "lr_nullcone_fractional_n5.json"]),
    ("nullcone_lr_fractional_n6.txt", ["nullcone", "lr_fractional_n6.json"]),
    ("nullcone_lr_rank_one_n4.txt", ["nullcone", "lr_rank_one_n4.json"]),
    ("nullcone_lr_nullcone_fractional_n5.txt",
     ["nullcone", "lr_nullcone_fractional_n5.json"]),
    ("separate_lr_det_block_n5.txt", ["separate", "lr_det_block_n5.json"]),
    ("separate_lr_bracket_block_n5.txt", ["separate", "lr_bracket_block_n5.json"]),
    ("separate_lr_xi_block_n5.txt", ["separate", "lr_xi_block_n5.json"]),
    ("classify_conjugated_n5.txt", ["classify", "lr_conjugated_n5.json"]),
    ("graph_conjugated_n5.txt", ["graph", "lr_conjugated_n5.json"]),
    ("classify_conjugated_double_fallback_n5.txt",
     ["classify", "lr_conjugated_double_fallback_n5.json"]),
    ("classify_lr_two_directions_upper_n2.txt", ["classify", "lr_two_directions_upper_n2.json"]),
    ("classify_lr_two_directions_moved_n2.txt", ["classify", "lr_two_directions_moved_n2.json"]),
    ("curve_left_l2_n4.txt", ["curve", "curve_left_l2_n4.json"]),
    ("curve_left_l3_second_n5.txt", ["curve", "curve_left_l3_second_n5.json"]),
    ("curve_left_l3_zero_second_n5.txt",
     ["curve", "curve_left_l3_zero_second_n5.json"]),
    ("curve_left_l3_first_n5.txt", ["curve", "curve_left_l3_first_n5.json"]),
    ("curve_left_l3_generic_n5.txt", ["curve", "curve_left_l3_generic_n5.json"]),
    ("curve_left_l3_generic_n5_text.txt",
     ["curve", "curve_left_l3_generic_n5.json", "--format", "text"]),
    ("separate_grammar_lr_pair_n3.txt", ["separate", "grammar_lr_pair_n3.json"]),
    ("phi_grammar_lr_pair_n3.txt", ["phi", "grammar_lr_pair_n3.json"]),
    ("separate_grammar_left_pair_l2_n4.txt", ["separate", "grammar_left_pair_l2_n4.json"]),
    ("graph_grammar_left_nullcone_l2_n4.txt", ["graph", "grammar_left_nullcone_l2_n4.json"]),
    ("curve_grammar_left_nullcone_l2_n4.txt", ["curve", "grammar_left_nullcone_l2_n4.json"]),
]

INPUT_ERROR_CASES = [
    ("separate_grammar_reject_one_over_zero_n2.txt",
     ["separate", "grammar_reject_one_over_zero_n2.json"]),
    ("separate_grammar_reject_fullwidth_l2_n3.txt",
     ["separate", "grammar_reject_fullwidth_l2_n3.json"]),
    ("separate_grammar_reject_decimal_n2.txt",
     ["separate", "grammar_reject_decimal_n2.json"]),
    ("graph_grammar_reject_true_l2_n3.txt", ["graph", "grammar_reject_true_l2_n3.json"]),
    ("invariants_lr_tuple_5000_digit_integer_n1.txt",
     ["invariants", "lr_tuple_5000_digit_integer_n1.json"]),
    ("invariants_lr_tuple_5000_digit_string_n1.txt",
     ["invariants", "lr_tuple_5000_digit_string_n1.json"]),
    ("invariants_lr_tuple_5000_digit_denominator_string_n1.txt",
     ["invariants", "lr_tuple_5000_digit_denominator_string_n1.json"]),
    ("invariants_lr_tuple_nested_100000_deep.txt",
     ["invariants", "lr_tuple_nested_100000_deep.json"]),
]

# Large documents that are decided at once: a 12 x 40 orbit pair, whose
# C(40, 12) minors per side are compared through one elimination per side.
AT_ONCE_CASES = [
    ("separate_left_pair_orbit_l12_n40.txt", ["separate", "left_pair_orbit_l12_n40.json"]),
]

REFUSAL_CASES = [
    ("certify_n100000_gamma_trials1_refusal.txt",
     ["certify", "--n", "100000", "--claims", "gamma", "--trials", "1"]),
    ("invariants_left_l12_n40_refusal.txt", ["invariants", "left_wide_l12_n40.json"]),
    ("invariants_lr_n28_refusal.txt", ["invariants", "lr_tuple_n28.json"]),
    ("separate_left_pair_wide_l12_n40_refusal.txt", ["separate", "left_pair_wide_l12_n40.json"]),
    ("invariants_lr_tuple_2200_digit_diagonal_n1_refusal.txt",
     ["invariants", "lr_tuple_2200_digit_diagonal_n1.json"]),
    ("counts_n40000_l20000_refusal.txt", ["counts", "--n", "40000", "--l", "20000"]),
    ("counts_n40000_l20000_text_refusal.txt",
     ["counts", "--n", "40000", "--l", "20000", "--format", "text"]),
    ("counts_n1000000000_l500000000_refusal.txt",
     ["counts", "--n", "1000000000", "--l", "500000000"]),
    ("certify_n4_sat-cr_trials1000000000_refusal.txt",
     ["certify", "--n", "4", "--claims", "sat-cr", "--trials", "1000000000"]),
]


def _assert_matches_golden(name, argv):
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv)
    assert code == 0
    assert out.getvalue().encode("utf-8") == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name,argv", CASES, ids=[c[0] for c in CASES])
def test_certify_report_matches_golden(name, argv):
    _assert_matches_golden(name, argv)


@pytest.mark.parametrize("name,argv", DOCUMENT_CASES, ids=[c[0] for c in DOCUMENT_CASES])
def test_document_report_matches_golden(name, argv, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    _assert_matches_golden(name, argv)


@pytest.mark.parametrize("name,argv", AT_ONCE_CASES, ids=[c[0] for c in AT_ONCE_CASES])
def test_large_document_report_matches_golden_at_once(name, argv, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    start = time.perf_counter()
    _assert_matches_golden(name, argv)
    assert time.perf_counter() - start < 2.0


def _assert_error_matches_golden_at_once(name, argv, want_code):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert time.perf_counter() - start < 2.0
    assert (code, out.getvalue()) == (want_code, "")
    assert err.getvalue().encode("utf-8") == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name,argv", REFUSAL_CASES, ids=[c[0] for c in REFUSAL_CASES])
def test_refusal_matches_golden_at_once(name, argv, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    _assert_error_matches_golden_at_once(name, argv, 3)


@pytest.mark.parametrize("name,argv", INPUT_ERROR_CASES, ids=[c[0] for c in INPUT_ERROR_CASES])
def test_input_error_matches_golden(name, argv, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    _assert_error_matches_golden_at_once(name, argv, 2)


def test_every_golden_report_is_referenced_and_present():
    referenced = {name for name, _ in CASES + DOCUMENT_CASES + AT_ONCE_CASES
                  + REFUSAL_CASES + INPUT_ERROR_CASES}
    on_disk = {p.name for p in GOLDEN.glob("*.txt")}
    assert not on_disk - referenced, "golden reports no case checks"
    assert not referenced - on_disk, "cases whose golden report is missing"
    for _, argv in DOCUMENT_CASES + AT_ONCE_CASES + INPUT_ERROR_CASES + REFUSAL_CASES:
        if argv[0] not in ("certify", "counts"):
            assert (GOLDEN / argv[1]).is_file(), argv
