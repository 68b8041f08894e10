import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from math import comb
from random import Random

import pytest
from hypothesis import example, given, settings, strategies as st

from matsep import InputError, RMatrix, builtin_claims, parse_rational
from matsep import cli
from matsep.cli import (_COMMANDS, _parse_left, _parse_tuple, document_to_json,
                        load_document, main)
from helpers import left_rows_by_fractions, matrices2_by_fractions, rand_sl, run_main


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


TUPLE_DOC = {"kind": "lr-tuple", "n": 4, "matrices": [
    [[1, 2], [0, 4]], [["1/2", 1], [0, 3]], [[5, 0], [0, 1]], [[0, 7], [0, 2]]]}

PAIR_DOC = {"kind": "lr-pair", "n": 1,
            "first": [[[1, 5], [0, 2]]], "second": [[[3, 7], [0, 4]]]}

LEFT_DOC = {"kind": "left-matrix", "l": 2, "n": 3,
            "rows": [[1, 0, 1], [0, 1, 1]]}

LEFT_PAIR_DOC = {"kind": "left-pair", "l": 2, "n": 2,
                 "first": [[1, 0], [0, 0]], "second": [[0, 1], [0, 0]]}


def test_round_trip(tmp_path):
    for payload in (TUPLE_DOC, PAIR_DOC, LEFT_DOC, LEFT_PAIR_DOC):
        path = write(tmp_path, "doc.json", payload)
        doc = load_document(path)
        emitted = document_to_json(doc)
        path2 = write(tmp_path, "doc2.json", emitted)
        doc2 = load_document(path2)
        assert document_to_json(doc2) == emitted
        for key in doc:
            if key != "digest":
                assert doc[key] == doc2[key]


def test_invariants_command(tmp_path):
    path = write(tmp_path, "t.json", TUPLE_DOC)
    code, out, _ = run_cli(["invariants", path])
    assert code == 0
    report = json.loads(out)
    assert report["result"]["count"] == 11
    assert report["result"]["values"][0] == {
        "indices": [1], "kind": "det", "value": "4"}


def test_invariants_zero_tuple(tmp_path):
    doc = {"kind": "lr-tuple", "n": 2,
           "matrices": [[[0, 0], [0, 0]], [[0, 0], [0, 0]]]}
    path = write(tmp_path, "z.json", doc)
    code, out, _ = run_cli(["invariants", path])
    assert code == 0
    assert all(v["value"] == "0" for v in json.loads(out)["result"]["values"])


def test_separate_command(tmp_path):
    path = write(tmp_path, "p.json", PAIR_DOC)
    code, out, _ = run_cli(["separate", path])
    assert code == 0
    result = json.loads(out)["result"]
    assert result["separated"] is True
    assert result["witness"] == {"kind": "det", "indices": [1]}
    assert result["values"] == ["2", "12"]


def test_determinism_byte_identical(tmp_path):
    path = write(tmp_path, "t.json", TUPLE_DOC)
    _, out1, _ = run_cli(["invariants", path])
    _, out2, _ = run_cli(["invariants", path])
    assert out1 == out2
    _, c1, _ = run_cli(["certify", "--n", "4", "--claims", "cr-cc",
                        "--trials", "2", "--seed", "9"])
    _, c2, _ = run_cli(["certify", "--n", "4", "--claims", "cr-cc",
                        "--trials", "2", "--seed", "9"])
    assert c1 == c2


def test_exit_code_2_on_bad_input(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    code, _, err = run_cli(["invariants", str(bad)])
    assert code == 2 and "input error" in err

    code, _, _ = run_cli(["invariants", str(tmp_path / "missing.json")])
    assert code == 2

    decimal = write(tmp_path, "dec.json", {
        "kind": "lr-tuple", "n": 1, "matrices": [[[0.5, 1], [0, 1]]]})
    code, _, err = run_cli(["invariants", decimal])
    assert code == 2

    mismatch = write(tmp_path, "mm.json", {
        "kind": "lr-pair", "n": 2,
        "first": [[[1, 0], [0, 1]]], "second": [[[1, 0], [0, 1]]]})
    code, _, _ = run_cli(["separate", mismatch])
    assert code == 2


def _assert_input_error(argv):
    code, out, err = run_cli(argv)
    assert (code, out) == (2, "")
    assert err.startswith("input error: ") and err.count("\n") == 1


@pytest.mark.parametrize("key, value", [
    ("n", "x"), ("n", None), ("n", 1.5), ("n", True),
    ("l", "x"), ("l", None), ("l", 2.5), ("l", True)])
def test_exit_code_2_on_non_integer_size(tmp_path, key, value):
    # truncating 1.5 or true to 1 (or 2.5 to 2) would fit the entries
    if key == "n":
        doc = {"kind": "lr-tuple", "n": value, "matrices": [[[1, 2], [3, 4]]]}
    else:
        doc = {"kind": "left-matrix", "l": value, "n": 1, "rows": [[1], [2]]}
    _assert_input_error(["invariants", write(tmp_path, "size.json", doc)])


def test_exit_code_2_on_zero_denominator(tmp_path):
    doc = {"kind": "lr-tuple", "n": 1, "matrices": [[["1/0", 1], [0, 1]]]}
    _assert_input_error(["invariants", write(tmp_path, "zero.json", doc)])


# non-ASCII digits ("３" fullwidth, "٣" and "٢" Arabic-Indic) are not integer literals
@pytest.mark.parametrize("literal", ["1.5", "1e3", "1/-2", "1/0", "0x10", "",
                                     "３", "٣", "1/1٢"])
def test_exit_code_2_on_non_rational_literal(tmp_path, literal):
    doc = {"kind": "lr-tuple", "n": 1, "matrices": [[[literal, 1], [0, 1]]]}
    _assert_input_error(["invariants", write(tmp_path, "literal.json", doc)])


def test_rational_literals_with_signs_zeros_and_padding(tmp_path):
    literals = {"+3/04": Fraction(3, 4), "-0/7": Fraction(0), " 12 ": Fraction(12),
                "007": Fraction(7), "-6/0010": Fraction(-3, 5)}
    for text, value in literals.items():
        parsed = parse_rational(text)
        assert parsed == value and type(parsed) is Fraction
        assert (parsed.numerator, parsed.denominator) == (value.numerator, value.denominator)
    doc = {"kind": "lr-tuple", "n": 1, "matrices": [[["+3/04", "-0/7"], [" 12 ", "007"]]]}
    loaded = load_document(write(tmp_path, "literals.json", doc))
    assert document_to_json(loaded)["matrices"] == [[["3/4", "0"], ["12", "7"]]]


def test_exit_code_2_on_non_utf8_file(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"kind": "lr-tuple", "n": 1, "note": "\u00e9"}'.encode("latin-1"))
    _assert_input_error(["invariants", str(path)])


def test_exit_code_3_on_precondition(tmp_path):
    # separated pair is not in the separating variety: classify refuses
    path = write(tmp_path, "p.json", PAIR_DOC)
    code, _, err = run_cli(["classify", path])
    assert code == 3 and "precondition" in err


def test_certify_command_success():
    code, out, _ = run_cli(["certify", "--n", "4", "--claims", "gamma",
                            "--trials", "2", "--seed", "0"])
    assert code == 0
    assert json.loads(out)["result"]["certificates"][0]["verdict"] == "CERTIFIED"


@pytest.mark.parametrize("claims,unknown", [("", "['']"), (",", "['']"),
                                            ("gamma,", "['']")])
def test_certify_empty_claim_names_are_unknown(claims, unknown):
    """Only an absent --claims selects every claim; an empty name is unknown."""
    code, out, err = run_cli(["certify", "--n", "4", "--claims", claims])
    assert code == 3 and out == ""
    assert err == f"precondition violated: unknown claim names: {unknown}\n"


def _reduced_pair_rows(row: int, col: int) -> tuple:
    """Two 12 x 40 sides of rank 12 whose reduced forms [I | R] differ
    only at entry (row, col), col >= 12, both moved by one determinant-one
    g, as document rows."""
    rng = Random(1240)
    l, n = 12, 40
    R = [[rng.randint(-9, 9) for _ in range(n - l)] for _ in range(l)]
    first = [[int(r == c) for c in range(l)] + R[r] for r in range(l)]
    second = [list(r) for r in first]
    second[row][col] += 1
    g = rand_sl(rng, l, shears=40)
    return tuple([[str(x) for x in r] for r in (g @ RMatrix.from_rows(side)).to_rows()]
                 for side in (first, second))


@pytest.mark.parametrize("row,col,want", [(11, 12, 0), (0, 39, 3)])
def test_separate_walks_a_wide_left_pair_to_its_limit(tmp_path, row, col, want):
    """Two 12 x 40 sides of rank 12 with different row spaces: reduced
    forms differing at entry (11, 12) differ at the second minor, and are
    separated; differing only at (0, 39), they agree on the first
    C(39, 11) minors, past the compared limit, and are refused."""
    first, second = _reduced_pair_rows(row, col)
    path = write(tmp_path, "pair.json", {"kind": "left-pair", "l": 12, "n": 40,
                                         "first": first, "second": second})
    code, out, err = run_cli(["separate", path])
    assert code == want
    if want == 0:
        result = json.loads(out)["result"]
        x, y = map(Fraction, result["values"])
        assert (result["separated"], result["witness"]["indices"], y - x) == (
            True, [*range(1, 12), 13], 1)
    else:
        assert out == "" and err == (
            "precondition violated: a 12 x 40 left pair agrees on the first 20000 of its "
            "5586853480 maximal minors per side, the limit of compared values\n")


def test_exit_code_4_on_certification_failure(monkeypatch):
    import matsep.cli as cli
    from matsep.certify import DimensionCertificate

    def fake(n=None, l=None, names=None, trials=5, seed=0):
        return [DimensionCertificate("gamma", 22, 17, trials, None,
                                     "LOWER_BOUND_ONLY")]

    monkeypatch.setattr(cli, "certify_builtin", fake)
    code, out, err = run_cli(["certify", "--n", "4", "--claims", "gamma"])
    assert code == 4
    assert "certification failure" in err
    # the report is still emitted for inspection
    assert json.loads(out)["result"]["certificates"][0]["verdict"] == "LOWER_BOUND_ONLY"


def test_counts_command():
    code, out, _ = run_cli(["counts", "--n", "6"])
    assert code == 0
    result = json.loads(out)["result"]
    assert result == {"dim": 18, "generators": 36, "lower_bound": 21, "n": 6}

    code, out, _ = run_cli(["counts", "--n", "5", "--l", "3"])
    assert code == 0
    result = json.loads(out)["result"]
    assert result == {"dim": 7, "generators": 10, "l": 3, "lower_bound": 8, "n": 5}


class _CountedWrites(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


def test_a_text_report_is_one_write_and_a_failed_one_writes_nothing():
    out = _CountedWrites()
    with redirect_stdout(out):
        assert main(["counts", "--n", "6", "--l", "3", "--format", "text"]) == 0
    assert out.writes == 1 and out.getvalue().count("\n") == 13
    out = _CountedWrites()
    # a list past the int-to-str digit limit fails after the lines before it
    with redirect_stdout(out), pytest.raises(ValueError):
        cli._emit_text({"a": 1, "b": {"c": [10**5000]}})
    assert (out.writes, out.getvalue()) == (0, "")


def test_identities_command():
    code, out, _ = run_cli(["identities"])
    assert code == 0
    result = json.loads(out)["result"]
    assert result == {"bracket_identity": True, "xi_identity": True}


def test_stability_command(tmp_path):
    stable_doc = {"kind": "lr-tuple", "n": 3, "matrices": [
        [[1, 0], [0, 1]], [[0, 1], [0, 0]], [[0, 0], [1, 0]]]}
    path = write(tmp_path, "s.json", stable_doc)
    code, out, _ = run_cli(["stability", path])
    assert code == 0
    assert json.loads(out)["result"]["stable"] is True

    path = write(tmp_path, "l.json", LEFT_DOC)
    code, out, _ = run_cli(["stability", path])
    assert json.loads(out)["result"]["stable"] is True


def test_stability_with_10_digit_direction(tmp_path):
    """A 2-tuple g.U whose common direction is [p : q] with 10-digit primes:
    U = (diag(1, 2), [[3, 1], [0, 1]]) and g sends e1 to (p, q).  Its one
    direction form has 60-bit coefficients, which a rational-root search
    by trial division does not get through."""
    p, q = 1000000007, 999999937
    doc = {"kind": "lr-tuple", "n": 2, "matrices": [
        [["1/1000000007", "0"], ["-1999999874", "2000000014"]],
        [["-999999943999999556/1000000007", "1000000007"], ["-999999937", "1000000007"]]]}
    code, out, _ = run_cli(["stability", write(tmp_path, "t.json", doc)])
    assert code == 0
    result = json.loads(out)["result"]
    assert result["stable"] is False
    assert result["common_direction"] == [f"{p}/{q}", "1"]


def test_nullcone_command(tmp_path):
    doc = {"kind": "lr-tuple", "n": 1, "matrices": [[[0, 1], [0, 0]]]}
    path = write(tmp_path, "n.json", doc)
    code, out, _ = run_cli(["nullcone", path])
    assert code == 0 and json.loads(out)["result"]["member"] is True


def test_phi_command(tmp_path):
    path = write(tmp_path, "p.json", PAIR_DOC)
    code, out, _ = run_cli(["phi", path])
    assert code == 0
    result = json.loads(out)["result"]
    assert result["B"] == [[["-1", "3"], ["-4", "2"]]]
    assert result["separated"] is True
    assert result["nullcone_member"] is False


def test_graph_and_curve_commands(tmp_path):
    path = write(tmp_path, "lp.json", LEFT_PAIR_DOC)
    code, out, _ = run_cli(["graph", path])
    assert code == 0
    result = json.loads(out)["result"]
    assert result["necessary"] is True and result["member"] is True

    code, out, _ = run_cli(["curve", path])
    assert code == 0
    result = json.loads(out)["result"]
    assert result["verified"] is True and result["limits_match"] is True

    upper_pair = {"kind": "lr-pair", "n": 2,
                  "first": [[[1, 2], [0, 3]], [[0, 1], [0, 5]]],
                  "second": [[[1, 2], [0, 3]], [[0, 1], [0, 5]]]}
    path = write(tmp_path, "up.json", upper_pair)
    code, out, _ = run_cli(["graph", path])
    assert code == 0
    assert json.loads(out)["result"]["member"] is True


def test_text_format_deterministic(tmp_path):
    path = write(tmp_path, "t.json", TUPLE_DOC)
    code, out1, _ = run_cli(["invariants", path, "--format", "text"])
    _, out2, _ = run_cli(["invariants", path, "--format", "text"])
    assert code == 0 and out1 == out2 and "count: 11" in out1


def test_certify_left_family_cli():
    code, out, _ = run_cli(["certify", "--l", "2", "--n", "3",
                            "--trials", "3", "--seed", "1"])
    assert code == 0
    certs = json.loads(out)["result"]["certificates"]
    assert {c["name"]: c["achieved_rank"] for c in certs} == {
        "gamma-left": 9, "nullcone-left": 4, "nullcone-pair-left": 8,
        "z-left": 8}
    assert all(c["verdict"] == "CERTIFIED" for c in certs)


def test_counts_minimal_n():
    code, out, _ = run_cli(["counts", "--n", "1"])
    assert code == 0
    result = json.loads(out)["result"]
    assert result == {"dim": 1, "generators": 1, "lower_bound": 1, "n": 1}


def test_counts_negative_n_with_l_is_precondition_error():
    code, out, err = run_cli(["counts", "--n", "-3", "--l", "2"])
    assert (code, out) == (3, "")
    assert err == "precondition violated: need n >= l\n"


@settings(max_examples=60)
@given(n=st.integers(-5, 12), l=st.none() | st.integers(-5, 12))
def test_counts_exits_0_or_3_with_one_precondition_line(n, l):
    argv = ["counts", "--n", str(n)] + ([] if l is None else ["--l", str(l)])
    code, out, err = run_cli(argv)
    if code == 0:
        assert err == "" and json.loads(out)["result"]["n"] == n
    else:
        assert (code, out) == (3, "")
        assert err.startswith("precondition violated: ") and err.count("\n") == 1


def _last_under_ceiling(count, digits=cli.MAX_COUNT_DIGITS) -> int:
    """The largest m >= 1 whose count(m) has at most `digits` digits, for
    a count increasing in m."""
    ceiling = 10 ** digits
    lo, hi = 1, 2
    while count(hi) < ceiling:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if count(mid) < ceiling else (lo, mid)
    return lo


# m -> (counts argv, its generator count): the two-sided count, C(n, 2),
# and the central C(2k, k), the largest binomial of its n
_COUNT_FAMILIES = {
    "lr": (lambda m: ["--n", str(m)], lambda m: (m**4 - 6 * m**3 + 23 * m**2 + 6 * m) // 24),
    "left-l2": (lambda m: ["--n", str(m), "--l", "2"], lambda m: comb(m, 2)),
    "left-central": (lambda m: ["--n", str(2 * m), "--l", str(m)], lambda m: comb(2 * m, m)),
}
_COUNT_BOUNDARY = {family: _last_under_ceiling(count)
                   for family, (_, count) in _COUNT_FAMILIES.items()}
_COUNT_REFUSAL = ("precondition violated: the generators value has more than 4300 digits, "
                  "the limit of a counts report\n")


@pytest.mark.parametrize("family", sorted(_COUNT_FAMILIES))
@pytest.mark.parametrize("fmt", ["structured", "text"])
def test_counts_writes_a_count_of_the_limit_and_refuses_one_digit_more(family, fmt):
    argv_of, count = _COUNT_FAMILIES[family]
    last = _COUNT_BOUNDARY[family]
    assert len(str(count(last))) == cli.MAX_COUNT_DIGITS == 4300
    assert count(last + 1) < 10 ** (cli.MAX_COUNT_DIGITS + 1)
    code, out, err = run_cli(["counts", *argv_of(last), "--format", fmt])
    assert (code, err) == (0, "")
    assert f"generators: {count(last)}\n" in out if fmt == "text" else (
        json.loads(out)["result"]["generators"] == count(last))
    assert run_cli(["counts", *argv_of(last + 1), "--format", fmt]) == (3, "", _COUNT_REFUSAL)


def test_counts_refuses_a_binomial_past_its_lower_bound_without_computing_it(monkeypatch):
    monkeypatch.setattr(cli, "comb", None)
    for n, l in ((40000, 20000), (10**9, 5 * 10**8), (10**9, 10**9 - 14285)):
        assert run_cli(["counts", "--n", str(n), "--l", str(l)]) == (3, "", _COUNT_REFUSAL)


_COUNT_SIZES = st.one_of(
    st.integers(-5, 12), st.integers(-10**12, 10**12),
    st.sampled_from(sorted(_COUNT_BOUNDARY.values())).flatmap(
        lambda m: st.sampled_from([m - 1, m, m + 1, 2 * m, 2 * m + 2])),
    st.sampled_from([10**9, 5 * 10**8, 10**100, 10**1099, 10**4299, -10**1099]).map(str),
    st.just("9" * 5000))


@settings(max_examples=150)
@given(n=_COUNT_SIZES, l=st.none() | _COUNT_SIZES, fmt=st.sampled_from(["structured", "text"]))
def test_counts_keeps_the_exit_contract(n, l, fmt):
    """Small, limit-sized and huge sizes, negative ones, n < l, a
    1,100-digit --n and an --n past the int-to-str digit limit: a
    report (0), an argument error (2) or one precondition line (3),
    never a traceback, and nothing on stdout unless the exit is 0."""
    argv = ["counts", "--n", str(n), "--format", fmt] + ([] if l is None else ["--l", str(l)])
    got = run_main(argv)
    code, out, err = got["code"], got["stdout"], got["stderr"]
    assert code in (0, 2, 3) and "Traceback" not in err
    if code == 0:
        assert err == "" and out
    else:
        assert out == "" and err.endswith("\n")
        assert err.startswith("usage: matsep counts") if code == 2 else err.count("\n") == 1


@pytest.mark.parametrize("fmt", ["structured", "text"])
def test_counts_holds_its_values_to_a_lowered_int_digit_limit(fmt):
    """Under an interpreter limit of 1,000 digits, a count of 1,000
    digits is written and one of 1,001, or the 1,200 digits of the
    two-sided count at a 300-digit n, exits 3 with nothing written; with
    no limit (0), MAX_COUNT_DIGITS still holds.  The limit is restored."""
    argv_of, count = _COUNT_FAMILIES["left-l2"]
    last = _last_under_ceiling(count, 1000)
    limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(1000)
        lowered = [run_cli(["counts", *argv, "--format", fmt])
                   for argv in (argv_of(last), argv_of(last + 1), ["--n", "9" * 300])]
        sys.set_int_max_str_digits(0)
        unlimited = run_cli(["counts", "--n", "40000", "--l", "20000", "--format", fmt])
    finally:
        sys.set_int_max_str_digits(limit)
    assert sys.get_int_max_str_digits() == limit
    code, out, err = lowered[0]
    assert (code, err) == (0, "") and len(str(count(last))) == 1000
    assert (f"generators: {count(last)}\n" in out if fmt == "text"
            else json.loads(out)["result"]["generators"] == count(last))
    assert lowered[1] == (3, "", _COUNT_REFUSAL.replace("4300", "1000"))
    assert lowered[2] == (3, "", _COUNT_REFUSAL.replace("4300", "1000"))
    assert unlimited == (3, "", _COUNT_REFUSAL)


_CLAIM_FAMILIES = [[row.name for row in builtin_claims(n, l)] for n, l in ((4, None), (2, 2))]


@settings(max_examples=200)
@given(n=st.integers(-2, 7), l=st.none() | st.integers(-2, 5), trials=st.integers(-1, 2),
       seed=st.integers(),
       claims=st.none() | st.sampled_from(["", "bogus"])
       | st.sampled_from(_CLAIM_FAMILIES).flatmap(
           lambda names: st.lists(st.sampled_from(names), min_size=1, unique=True)).map(",".join))
def test_certify_exits_with_a_report_or_one_precondition_line(n, l, trials, seed, claims):
    """Sizes, trial counts and claim lists in and out of range end in a
    report (0), one precondition line (3), or, when a sample of one or
    two trials falls short of the claimed rank, the report and one
    certification-failure line (4); never a traceback."""
    argv = ["certify", "--n", str(n), "--trials", str(trials), "--seed", str(seed)]
    argv += [] if l is None else ["--l", str(l)]
    argv += [] if claims is None else ["--claims", claims]
    code, out, err = run_cli(argv)
    if code == 3:
        assert out == ""
        assert err.startswith("precondition violated: ") and err.count("\n") == 1
        return
    assert json.loads(out)["result"]["certificates"]
    if code == 0:
        assert err == ""
    else:
        assert (code, err) == (4, "certification failure: not all claims certified\n")


def test_graph_separated_upper_pair_is_precondition_error(tmp_path):
    doc = {"kind": "lr-pair", "n": 1,
           "first": [[[1, 0], [0, 2]]], "second": [[[1, 0], [0, 3]]]}
    path = write(tmp_path, "sep.json", doc)
    code, _, err = run_cli(["graph", path])
    assert code == 3 and "precondition" in err


def test_curve_rank_violation_is_precondition_error(tmp_path):
    doc = {"kind": "left-pair", "l": 3, "n": 4,
           "first": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0]],
           "second": [[0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0]]}
    path = write(tmp_path, "lp.json", doc)
    code, _, err = run_cli(["curve", path])
    assert code == 3 and "stacked rank" in err


@st.composite
def left_pair_documents(draw):
    """A left-pair document with l in 1..4 whose sides are combinations of
    r shared rows: stacked rank at most r, so within l or, for r = l + 1,
    possibly above it.  Each side has rank at most a drawn k, and its
    bottom row is zero or a combination like the others.  The entries come
    from one drawn Random, which spreads them wider than per-entry draws."""
    rng = draw(st.randoms(use_true_random=False))
    l, n = rng.randint(1, 4), rng.randint(0, 5)
    r = rng.randint(0, l + 1)
    basis = [[Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 3))) for _ in range(n)]
             for _ in range(r)]

    def combinations(vectors, count):
        return [[sum((c * v[j] for c, v in zip(cs, vectors)), Fraction(0)) for j in range(n)]
                for cs in ([rng.randint(-2, 2) for _ in vectors] for _ in range(count))]

    def side():
        rows = combinations(combinations(basis, rng.randint(0, l)), l)
        if rng.random() < 0.5:
            rows[-1] = [Fraction(0)] * n
        return [[e.numerator if e.denominator == 1 else f"{e.numerator}/{e.denominator}"
                 for e in row] for row in rows]

    return {"kind": "left-pair", "l": l, "n": n, "first": side(), "second": side()}


@settings(max_examples=150)
@given(left_pair_documents())
@example({"kind": "left-pair", "l": 3, "n": 4,   # stacked rank 4 > l
          "first": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 0]],
          "second": [[0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 0, 0]]})
@example({"kind": "left-pair", "l": 3, "n": 3,   # first side collapses, bottom rows nonzero
          "first": [[0, 0, 0], [1, 2, 3], ["2/3", "4/3", 2]],
          "second": [[1, 0, 1], [0, 1, 0], [1, 1, 1]]})
def test_curve_exits_with_a_verified_curve_or_one_error_line(doc):
    with tempfile.TemporaryDirectory() as tmp:
        code, out, err = _run_on_document(tmp, ["curve"], doc)
    assert code in (0, 2, 3)
    _assert_exit_contract(code, out, err)
    if not code:
        result = json.loads(out)["result"]
        assert result["verified"] is True and result["limits_match"] is True


def _write_document(tmp, doc) -> str:
    """The path of `doc` written as JSON, or as it is if it is JSON text."""
    path = os.path.join(tmp, "doc.json")
    with open(path, "w", encoding="utf-8") as fh:
        if isinstance(doc, str):
            fh.write(doc)
        else:
            json.dump(doc, fh)
    return path


def _run_on_document(tmp, argv, doc):
    return run_cli(argv[:1] + [_write_document(tmp, doc)] + argv[1:])


def _assert_exit_contract(code, out, err):
    """A documented exit code and no traceback; a failure prints nothing
    and writes one stderr line, a success writes no stderr."""
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err
    if code:
        assert out == "" and err.endswith("\n") and err.count("\n") == 1, err
    else:
        assert err == ""


_DOCUMENT_COMMANDS = [name for name, command in _COMMANDS.items()
                      if isinstance(command.action, dict)]
_OPERAND_FIELDS = {"lr-tuple": ("matrices",), "lr-pair": ("first", "second"),
                   "left-matrix": ("rows",), "left-pair": ("first", "second")}
_BAD_VALUES = [True, False, None, 1.5, 1e400, "1/0", "0.5", "x", "", [], {}, [[1]]]


def _leaf_rows(value):
    """Every list in a JSON value whose items are not lists."""
    if isinstance(value, dict):
        return [row for v in value.values() for row in _leaf_rows(v)]
    if not isinstance(value, list):
        return []
    inner = [row for v in value for row in _leaf_rows(v)]
    return inner if any(isinstance(v, list) for v in value) else [value] + inner


@st.composite
def malformed_documents(draw, kinds):
    """A document with n <= 5 and l <= 4, mostly of one of `kinds`, else
    of any of the four, well formed or broken by up to three drawn faults:
    a wrong or non-integer size, a ragged row, a bad entry, a missing
    field, an unknown kind or a top level that is not an object.  The
    document comes from one drawn Random."""
    rng = draw(st.randoms(use_true_random=False))
    kind = rng.choice(sorted(kinds if rng.random() < 0.8 else _OPERAND_FIELDS))
    l, n = rng.randint(0, 4), rng.randint(0, 5)

    def entry():
        num, den = rng.randint(-9, 9), rng.choice((1, 1, 1, 2, 3))
        return num if den == 1 and rng.random() < 0.5 else f"{num}/{den}"

    upper = rng.random() < 0.5

    def operand():
        shapes = [(2, 2)] * n if kind.startswith("lr-") else [(l, n)]
        mats = [[[entry() for _ in range(c)] for _ in range(r)] for r, c in shapes]
        if not kind.startswith("lr-"):
            return mats[0]
        if upper:
            for m in mats:
                m[1][0] = 0
        return mats

    doc = {"kind": kind, "n": n, **({} if kind.startswith("lr-") else {"l": l})}
    doc.update((field, operand()) for field in _OPERAND_FIELDS[kind])
    if "second" in doc and rng.random() < 0.5:   # a pair no invariant separates
        doc["second"] = json.loads(json.dumps(doc["first"]))
    for _ in range(rng.choice((0, 0, 1, 1, 2, 3))):
        fault = rng.randrange(7)
        rows = _leaf_rows(doc)
        if fault == 0 and isinstance(doc, dict):
            key, size = rng.choice([("n", n), ("l", l)][:1 + ("l" in doc)])
            doc[key] = rng.choice([size - 1, size + 1, -1, True, 2.0, "3", None])
        elif fault == 1 and rows:
            row = rng.choice(rows)
            if row and rng.random() < 0.5:
                row.pop()
            else:
                row.append(entry())
        elif fault == 2 and any(rows):
            row = rng.choice([row for row in rows if row])
            row[rng.randrange(len(row))] = rng.choice(_BAD_VALUES)
        elif fault == 3 and isinstance(doc, dict) and doc:
            del doc[rng.choice(sorted(doc))]
        elif fault == 4 and isinstance(doc, dict):
            doc["kind"] = rng.choice(["lr", "LR-TUPLE", 3, None] + sorted(_OPERAND_FIELDS))
        elif fault == 5 and isinstance(doc, dict):
            doc = rng.choice([[doc], 3, "lr-tuple", None, []])
        elif fault == 6 and isinstance(doc, dict):
            field = rng.choice(_OPERAND_FIELDS[kind])
            value = doc.get(field)
            doc[field] = rng.choice(_BAD_VALUES + ([value[:1]] if isinstance(value, list) else []))
    return doc


@st.composite
def hostile_documents(draw, kinds):
    """The JSON text of a document past one of the limits of the CLI: an
    integer literal longer than the interpreter's int-to-str digit limit,
    an entry nested deeper than the recursion limit, a tuple or matrix
    of 2,200- to 2,300-digit entries, whose products pass the digit
    limit, or a left pair with more maximal minors than
    MAX_REPORT_VALUES.  The first three are of one of `kinds`, with two
    rows and up to three columns for a left action and n <= 2 for the
    two-sided one.  The document comes from one drawn Random."""
    rng = draw(st.randoms(use_true_random=False))
    hazard = rng.randrange(4)
    if hazard == 3:
        l = rng.randint(3, 12)
        n = next(n for n in range(l, 100) if comb(n, l) > cli.MAX_REPORT_VALUES)
        n += rng.randint(0, 3)
        sides = [[[rng.randint(-9, 9) for _ in range(n)] for _ in range(l)] for _ in "ab"]
        if rng.random() < 0.5:
            sides[1] = sides[0]
        return json.dumps({"kind": "left-pair", "l": l, "n": n,
                           "first": sides[0], "second": sides[1]})
    kind = rng.choice(sorted(kinds))
    l = 2
    n = rng.randint(1, 2) if kind.startswith("lr-") else rng.randint(2, 3)
    limit = sys.get_int_max_str_digits()

    def entry():
        if hazard == 2:
            return rng.choice("123456789") * rng.randint(2200, 2300) + str(rng.randrange(10**6))
        return rng.randint(-9, 9)

    shapes = [(2, 2)] * n if kind.startswith("lr-") else [(l, n)]
    doc = {"kind": kind, "n": n, **({} if kind.startswith("lr-") else {"l": l})}
    for field in _OPERAND_FIELDS[kind]:
        mats = [[[entry() for _ in range(c)] for _ in range(r)] for r, c in shapes]
        doc[field] = mats if kind.startswith("lr-") else mats[0]
    if hazard == 2:
        return json.dumps(doc)
    rows = _leaf_rows(doc)
    rows[rng.randrange(len(rows))][0] = "HAZARD"
    if hazard == 0:
        value = rng.choice("-123456789") + "7" * rng.randint(limit, limit + 1000)
    else:
        depth = rng.randint(2000, 100_000)
        value = "[" * depth + "]" * depth
    return json.dumps(doc).replace('"HAZARD"', value)


@settings(max_examples=300)
@given(st.sampled_from(_DOCUMENT_COMMANDS), st.sampled_from(["structured", "text"]), st.data())
def test_document_commands_keep_the_exit_contract(command, fmt, data):
    """Every document command, on arbitrary, malformed and hostile
    documents of the four kinds, exits under the contract; a document
    that loads round-trips through `document_to_json` to a fixed point."""
    kinds = _COMMANDS[command].action
    documents = malformed_documents(kinds) | hostile_documents(kinds)
    doc = data.draw(documents | left_pair_documents() if "left-pair" in kinds else documents)
    with tempfile.TemporaryDirectory() as tmp:
        code, out, err = _run_on_document(tmp, [command, "--format", fmt], doc)
        _assert_exit_contract(code, out, err)
        try:
            emitted = document_to_json(load_document(_write_document(tmp, doc)))
        except InputError:
            return
        assert document_to_json(load_document(_write_document(tmp, emitted))) == emitted


def test_module_entry_point():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import matsep
    # The child process imports the same package as this one.
    src = str(Path(matsep.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    argv = [sys.executable, "-m", "matsep", "counts", "--n", "4"]
    out1 = subprocess.run(argv, capture_output=True, text=True, env=env)
    out2 = subprocess.run(argv, capture_output=True, text=True, env=env)
    assert out1.returncode == 0
    assert out1.stdout == out2.stdout  # byte-identical across processes
    assert json.loads(out1.stdout)["result"]["lower_bound"] == 11


def test_package_imports_only_the_standard_library():
    import ast
    import sys
    from pathlib import Path

    import matsep
    sources = sorted(Path(matsep.__file__).parent.glob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top == "__future__" or top in sys.stdlib_module_names, (path.name, name)


def test_only_rational_clears_denominators():
    # rational.integer_form is the one place that takes an lcm of denominators
    import ast
    from pathlib import Path

    import matsep
    sources = sorted(Path(matsep.__file__).parent.glob("*.py"))
    assert any(path.name == "rational.py" for path in sources)
    for path in sources:
        if path.name == "rational.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and "lcm" in (getattr(node.func, "id", None),
                                                        getattr(node.func, "attr", None)):
                assert not any(isinstance(n, ast.Attribute) and n.attr == "denominator"
                               for arg in node.args for n in ast.walk(arg)), (path.name, node.lineno)


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("argv, code", [(["counts", "--n", "4"], 0), (["no-such-command"], None)])
def test_main_leaves_the_garbage_collector_as_it_found_it(enabled, argv, code):
    import gc
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if code is None:
            with pytest.raises(SystemExit):
                run_cli(argv)
        else:
            assert run_cli(argv)[0] == code
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_parsers_die_young():
    # Each call's parser is cyclic garbage; if collections could run while
    # it is alive, some would be promoted and wait for a full collection.
    import argparse
    import gc

    def old_parsers():
        return sum(isinstance(o, argparse.ArgumentParser) and o.prog.startswith("matsep")
                   for g in (1, 2) for o in gc.get_objects(generation=g))

    gc.collect()
    for n in range(4, 44):
        assert run_cli(["counts", "--n", str(n)])[0] == 0
    assert old_parsers() == 0


# Entries the document grammar must treat exactly as the Fraction loader
# does: literals with signs, leading zeros, padding (Unicode whitespace
# too) and reducible or large parts; literal-shaped strings that are not
# literals (non-ASCII digits and whitespace, a stray dot, exponent or
# sign, a zero denominator); arbitrary short text; and the JSON scalars
# that are not entries.
_LITERALS = st.builds(
    lambda pad, sign, zeros, num, den, end: f"{pad}{sign}{zeros}{num}{den}{end}",
    st.sampled_from(["", "", " ", "\t", "　", "\xa0"]), st.sampled_from(["", "", "+", "-"]),
    st.sampled_from(["", "", "0", "000"]), st.integers(0, 10**30),
    st.one_of(st.just(""), st.integers(1, 10**6).map(lambda q: f"/{q}"),
              st.sampled_from(["/0004", "/6", "/35", "/1"])),
    st.sampled_from(["", "", " ", "\n"]))

_LITERAL_PARTS = st.tuples(
    st.sampled_from(["", " ", "\t", "\n", "　", "\xa0"]),
    st.sampled_from(["", "+", "-", "--", "+-"]),
    st.text(alphabet="0123456789", min_size=0, max_size=25),
    st.sampled_from(["", "/", "/0", "/00", "/-", "/+", ".", "e", "/ "]),
    st.text(alphabet="0123456789", min_size=0, max_size=25),
    st.sampled_from(["", " ", "\r\n", "x", "３", "٢"]))

_VALID_ENTRIES = st.one_of(_LITERALS, st.integers(min_value=-2**80, max_value=2**80))

_ENTRIES = st.one_of(
    _VALID_ENTRIES,
    st.integers(min_value=-9, max_value=9),
    st.builds("".join, _LITERAL_PARTS),
    st.text(alphabet="0123456789/+- .e３٣\t", max_size=8),
    st.sampled_from([True, False, None, 1.5, -0.0, 1e400, [], {}]))


def _agrees_with_fraction_loader(parse, oracle):
    """parse() gives the matrices whose rows oracle() gives, or raises the
    InputError oracle() raises, message for message."""
    try:
        want = oracle()
    except InputError as exc:
        with pytest.raises(InputError) as got:
            parse()
        assert str(got.value) == str(exc)
        return
    got = parse()
    assert len(got) == len(want)
    for matrix, grid in zip(got, want):
        assert matrix.entries == tuple(e for row in grid for e in row)
        assert all(type(e) is Fraction for e in matrix.entries)
        oracle_matrix = RMatrix.from_rows(grid)
        assert matrix == oracle_matrix and hash(matrix) == hash(oracle_matrix)


def _misshapen(data, rows):
    """rows with one row or grid replaced by a wrong shape, or unchanged;
    rows as they are when there is nothing to draw from."""
    k = len(rows) if data is None else data.draw(st.integers(0, len(rows)))
    if k == len(rows):
        return rows
    bad = data.draw(st.sampled_from(["x", None, [], rows[k][:1], rows[k] + [0]]))
    return rows[:k] + [bad] + rows[k + 1:]


@settings(max_examples=400)
@given(st.lists(_VALID_ENTRIES, min_size=8, max_size=8)
       | st.lists(_ENTRIES, min_size=8, max_size=8), st.data())
@example(["1" * 4400, 0, 0, 0, 0, 0, 0, 0], None)
@example(["1/" + "2" * 4400, 0, 0, 0, 0, 0, 0, 0], None)
@example(["1" * 5000, "1.5", 0, 0, 0, 0, 0, 0], None)
@example([True, "x", 0, 0, 0, 0, 0, 0], None)
@example([" 5 ", "-0012/0008", "0/7", "+3", 2**70, str(2**70), "6/4", "-0"], None)
def test_document_parsers_agree_with_the_fraction_loader(entries, data):
    """The lr and left document parsers read every entry to the value the
    Fraction loader gives, and reject what it rejects with its message,
    the first fault in reading order, misshapen rows and grids included:
    a 5,000-digit string before "1.5" is reported for its digits, and
    `true` before "x" as the entry that is not a string."""
    grids = _misshapen(data, [[entries[:2], entries[2:4]], [entries[4:6], entries[6:]]])
    _agrees_with_fraction_loader(lambda: _parse_tuple(grids, 2).matrices,
                                 lambda: matrices2_by_fractions(grids, 2))
    for l, n in ((2, 4), (4, 2)):
        rows = _misshapen(data, [entries[r * n:(r + 1) * n] for r in range(l)])
        _agrees_with_fraction_loader(lambda: [_parse_left(rows, l, n).matrix],
                                     lambda: [left_rows_by_fractions(rows, l, n)])


@pytest.mark.parametrize("doc,count", [
    ({"kind": "lr-tuple", "n": 4, "matrices": [[[1, 2], [3, 4]]] * 4}, 4 + 6 + 1),
    ({"kind": "left-matrix", "l": 2, "n": 5, "rows": [[1, 2, 3, 4, 5], [0, 1, 0, 1, 7]]}, 10)])
def test_invariants_refuses_a_report_over_the_limit(tmp_path, monkeypatch, doc, count):
    """A report of exactly MAX_REPORT_VALUES values is written; one more
    value is refused with exit 3 before any value is computed."""
    path = write(tmp_path, "doc.json", doc)
    monkeypatch.setattr(cli, "MAX_REPORT_VALUES", count)
    code, out, _ = run_cli(["invariants", path])
    assert code == 0 and json.loads(out)["result"]["count"] == count
    monkeypatch.setattr(cli, "MAX_REPORT_VALUES", count - 1)
    monkeypatch.setattr(cli, "generators_lr", None)
    monkeypatch.setattr(cli, "minors_left", None)
    code, out, err = run_cli(["invariants", path])
    assert (code, out) == (3, "")
    assert err.endswith(f"{count} {'maximal minors' if 'rows' in doc else 'generating invariants'}"
                        f", more than the limit of {count - 1} reported values\n")
