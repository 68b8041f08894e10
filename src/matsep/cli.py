"""Batch command-line interface.

Reads self-describing JSON documents with exact rational entries (ints
or "p/q" strings, never decimals) straight into integer rows over row
scales, with no Fraction per entry, runs the requested decision procedure
and writes a deterministic report: identical inputs, flags and seed give
byte-identical output.  Exit codes: 0 success, 2 input error, 3
precondition violation, 4 certification failure.

`_KINDS` declares each document kind once and `_COMMANDS` each
subcommand once; the parser, the loader and the dispatch read them.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import shutil
import sys
from fractions import Fraction
from functools import partial
from math import comb
from typing import NamedTuple

from . import __version__
from .certify import CERTIFIED, certify_builtin, verify_bracket_identity, verify_xi_identity
from .errors import CertificationError, InputError, PreconditionError, ShapeError
from .geometry_left import (graph_rank_left, is_stable_left, nullcone_member_left,
                            witness_curve_auto)
from .geometry_lr import (GAMMA, UpperPair, classify_pair_any, graph_rank_upper,
                          is_stable_lr, nullcone_member_lr, phi)
from .invariants import (LeftMatrix, MatrixTupleLR, generator_count_lr,
                         generators_lr, invariant_dim_left, invariant_dim_lr,
                         lower_bound_left, lower_bound_lr, minor_column_sets,
                         minors_left)
from .matrix import RMatrix
from .rational import format_rational, literal_parts, ratio_rows
from .separation import separated_left, separated_lr


# -- input documents ----------------------------------------------------------


def _document_rows(rows: list, width: int) -> tuple:
    """(ints, scales) of rows of `width` entries: row r is ints[r] over
    scales[r], the lcm of its denominators.  The entries are read in one
    pass, which reports the first bad entry in reading order."""
    try:
        nums, dens = literal_parts([e for row in rows for e in row])
    except ValueError as exc:
        raise InputError(str(exc)) from None
    return ratio_rows(nums, dens, len(rows), width)


def _is_matrix2(data) -> bool:
    return (isinstance(data, list) and len(data) == 2
            and isinstance(data[0], list) and len(data[0]) == 2
            and isinstance(data[1], list) and len(data[1]) == 2)


def _parse_matrices2(data: list) -> list:
    """The 2x2 matrices of a list, their entries read in one pass.  The
    first fault in reading order is reported: a bad entry before the
    first malformed matrix, else that matrix."""
    for k, m in enumerate(data):
        if not _is_matrix2(m):
            _document_rows([row for m in data[:k] for row in m], 2)
            raise InputError("a 2x2 matrix must be a list of two rows of two entries")
    ints, scales = _document_rows([row for m in data for row in m], 2)
    return [RMatrix.from_integer_rows([top, bottom], 2, [s, t]) for top, bottom, s, t
            in zip(ints[::2], ints[1::2], scales[::2], scales[1::2])]


def _parse_tuple(data, n: int) -> MatrixTupleLR:
    if not isinstance(data, list) or len(data) != n:
        raise InputError(f"expected {n} matrices")
    return MatrixTupleLR(tuple(_parse_matrices2(data)))


def _parse_left(data, l: int, n: int) -> LeftMatrix:
    if not isinstance(data, list) or len(data) != l:
        raise InputError(f"expected {l} rows")
    for k, row in enumerate(data):
        if not isinstance(row, list) or len(row) != n:
            _document_rows(data[:k], n)
            raise InputError(f"expected rows of length {n}")
    ints, scales = _document_rows(data, n)
    return LeftMatrix(RMatrix.from_integer_rows(ints, n, scales))


def _size(data: dict, key: str) -> int:
    value = data[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"field {key!r} must be an integer, got {value!r}")
    return value


def _tuple_json(t: MatrixTupleLR) -> list:
    return [_mat_json(m) for m in t.matrices]


def _left_json(A: LeftMatrix) -> list:
    return _mat_json(A.matrix)


# kind -> (size fields, operand parser, operand serializer,
#          {document key: JSON field} of the operands, in order)
_KINDS = {
    "lr-tuple": (("n",), _parse_tuple, _tuple_json, {"tuple": "matrices"}),
    "lr-pair": (("n",), _parse_tuple, _tuple_json, {"first": "first", "second": "second"}),
    "left-matrix": (("l", "n"), _parse_left, _left_json, {"matrix": "rows"}),
    "left-pair": (("l", "n"), _parse_left, _left_json, {"first": "first", "second": "second"}),
}


def load_document(path: str) -> dict:
    """Parse an input document into internal exact values."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    digest = hashlib.sha256(raw.encode("utf-8")).hexdigest()
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON: {exc}") from None
    except ValueError:   # json raises a plain ValueError only for the int digit limit
        raise InputError(f"a JSON integer has more than {sys.get_int_max_str_digits()} digits, "
                         "the interpreter's int-to-str digit limit") from None
    except RecursionError:
        raise InputError("invalid JSON: nested too deeply to read") from None
    if not isinstance(data, dict) or "kind" not in data:
        raise InputError("document must be an object with a 'kind' field")
    kind = data["kind"]
    if not isinstance(kind, str) or kind not in _KINDS:
        raise InputError(f"unknown document kind {kind!r}")
    sizes, parse, _, fields = _KINDS[kind]
    doc = {"kind": kind, "digest": digest}
    try:
        dims = [_size(data, key) for key in sizes]
        doc.update((key, parse(data[field], *dims)) for key, field in fields.items())
    except KeyError as exc:
        raise InputError(f"missing field {exc}") from None
    except ShapeError as exc:
        raise InputError(str(exc)) from None
    return doc


def document_to_json(doc: dict) -> dict:
    """Serialize a parsed document back to its JSON shape."""
    sizes, _, to_json, fields = _KINDS[doc["kind"]]
    first = doc[next(iter(fields))]
    out = {"kind": doc["kind"], **{key: getattr(first, key) for key in sizes}}
    out.update((field, to_json(doc[key])) for key, field in fields.items())
    return out


# -- serialization helpers ----------------------------------------------------


def _mat_json(m: RMatrix):
    return [[format_rational(m.at(r, c)) for c in range(m.cols)]
            for r in range(m.rows)]


def _vec_json(vec):
    return [format_rational(v) for v in vec]


def _laurent_json(lm):
    grids = sorted(lm.grids.items())
    return [[{str(e): format_rational(Fraction(g[i], lm.scale)) for e, g in grids if g[i]}
             for i in range(r * lm.cols, (r + 1) * lm.cols)] for r in range(lm.rows)]


def _witness_json(report):
    if not report.separated:
        return {"separated": False, "witness": None, "values": None}
    kind, indices = report.witness
    return {"separated": True,
            "witness": {"kind": kind, "indices": list(indices)},
            "values": [format_rational(report.values[0]),
                       format_rational(report.values[1])]}


# -- document commands --------------------------------------------------------
#
# A payload function takes the operands of one document kind, in the order
# _KINDS lists them: the tuple or matrix, or the first and second of a pair.


# `invariants` refuses, before evaluating any value, a report of more
# values than this: about 3.5 MB of JSON, under 0.5 s for an lr-tuple and
# about 0.6 s as a process for the 18,564 minors of a 12 x 18 left
# matrix, with Python 3.11 on a shared VM.  `separate` refuses a left pair
# with more maximal minors per side only before it walks them for a
# witness (two sides of rank l with different row spaces); every other
# left pair is decided from one elimination per side, at any size.  Every
# golden and benchmark input holds at most 70.
MAX_REPORT_VALUES = 20_000


def _require_report_size(count: int, holder: str, values: str,
                         limited: str = "reported values") -> None:
    if count > MAX_REPORT_VALUES:
        raise PreconditionError(f"{holder} has {count} {values}, more than the limit of "
                                f"{MAX_REPORT_VALUES} {limited}")


def _invariants_lr(tup) -> dict:
    _require_report_size(generator_count_lr(tup.n), f"an n = {tup.n} tuple",
                         "generating invariants")
    gv = generators_lr(tup)
    values = [{"kind": k, "indices": list(idx), "value": format_rational(v)}
              for (k, idx), v in gv.labeled()]
    return {"count": len(gv), "values": values}


def _invariants_left(A) -> dict:
    _require_report_size(comb(A.n, A.l), f"a {A.l} x {A.n} left matrix", "maximal minors")
    minors = [{"columns": list(cols), "value": format_rational(v)}
              for cols, v in zip(minor_column_sets(A.l, A.n), minors_left(A))]
    return {"count": len(minors), "minors": minors}


def _separate_left(first, second) -> dict:
    return _witness_json(separated_left(first, second, lambda: _require_report_size(
        comb(first.n, first.l), f"a {first.l} x {first.n} left pair",
        "maximal minors per side", "compared values")))


def _stability_lr(tup) -> dict:
    rep = is_stable_lr(tup)
    return {"stable": rep.stable,
            "common_direction": None if rep.common_direction is None
            else _vec_json(rep.common_direction),
            "triangularizer": None if rep.triangularizer is None
            else {"g1": _mat_json(rep.triangularizer.g1),
                  "g2": _mat_json(rep.triangularizer.g2)}}


def _phi(first, second) -> dict:
    pair = UpperPair(first, second)
    img = phi(pair)
    return {"B": [_mat_json(m) for m in img.B.matrices],
            "b": _vec_json(img.b), "b2": _vec_json(img.b2),
            "nullcone_member": nullcone_member_lr(img.B),
            "separated": separated_lr(pair.first, pair.second).separated}


def _classify(first, second) -> dict:
    # the union over every representative, so the pair as written does not matter
    return {"flags": sorted(classify_pair_any(first, second)),
            "upper_input": first.is_upper() and second.is_upper()}


def _graph_lr(first, second) -> dict:
    if first.is_upper() and second.is_upper():
        rank = graph_rank_upper(UpperPair(first, second))
        return {"member": rank <= 3, "stacked_rank": rank}
    flags = classify_pair_any(first, second)
    return {"member": GAMMA in flags, "stacked_rank": None}


def _graph_left(first, second) -> dict:
    # the necessary condition is exact for l = 2 and l = 3 (graph_member_l23)
    rank = graph_rank_left(first, second)
    necessary = rank <= first.l
    decided = first.l in (2, 3)
    return {"necessary": necessary,
            "member": necessary if decided else None,
            "note": None if decided else "necessary-only",
            "stacked_rank": rank}


def _curve(first, second) -> dict:
    w = witness_curve_auto(first, second)
    return {"g": _laurent_json(w.g_curve), "a": _laurent_json(w.a_curve),
            "a2": _laurent_json(w.a2_curve), "verified": w.verify(),
            "limits_match": w.limits() == (first, second)}


def _run(args) -> tuple:
    """(input digest, payload) of the parsed command.  A document command
    loads its document and hands the operands to the payload function of
    its kind; a kind the command does not take is a precondition error."""
    handlers = _COMMANDS[args.command].action
    if not isinstance(handlers, dict):
        return handlers(args)
    doc = load_document(args.file)
    handler = handlers.get(doc["kind"])
    if handler is None:
        kinds = list(handlers)
        article = "an" if kinds[0].startswith("lr-") else "a"
        raise PreconditionError(
            f"{args.command} needs {article} {' or '.join(kinds)} document")
    *_, fields = _KINDS[doc["kind"]]
    return doc["digest"], handler(*[doc[key] for key in fields])


# -- commands without a document ----------------------------------------------


def _cmd_certify(args) -> tuple:
    names = None if args.claims is None else args.claims.split(",")
    certs = certify_builtin(n=args.n, l=args.l, names=names,
                            trials=args.trials, seed=args.seed)
    payload = {"certificates": [
        {"name": c.name, "claimed": c.claimed, "achieved_rank": c.achieved_rank,
         "trials": c.trials, "verdict": c.verdict,
         "witness_point": None if c.witness_point is None else _vec_json(c.witness_point)}
        for c in certs]}
    digest = _args_digest({"n": args.n, "l": args.l, "claims": args.claims,
                           "trials": args.trials, "seed": args.seed})
    if any(c.verdict != CERTIFIED for c in certs):
        raise _CertifyFailure(digest, payload)
    return digest, payload


class _CertifyFailure(Exception):
    """A certify report with an uncertified claim; args: (digest, payload)."""


def _cmd_identities(args) -> tuple:
    return _args_digest({}), {"xi_identity": verify_xi_identity(),
                              "bracket_identity": verify_bracket_identity()}


# `counts` refuses a value of more digits than this, Python's default
# int-to-str digit limit (sys.int_info.default_max_str_digits), or than
# the interpreter's current limit when that is lower, before anything is
# written.  C(n, l) is refused before `comb` runs when a lower bound
# already passes the limit: C(10**9, 5 * 10**8) alone did not finish
# within 10 s.
MAX_COUNT_DIGITS = 4300


def _count_digits() -> int:
    """The most digits a counts value may have: MAX_COUNT_DIGITS, or the
    interpreter's int-to-str digit limit where it is lower (0 is none)."""
    limit = sys.get_int_max_str_digits()
    return min(MAX_COUNT_DIGITS, limit) if limit else MAX_COUNT_DIGITS


def _count_too_long(key: str, digits: int) -> PreconditionError:
    return PreconditionError(f"the {key} value has more than {digits} digits, "
                             "the limit of a counts report")


def _generator_count_left(n: int, l: int, digits: int) -> int:
    """C(n, l) for n >= l >= 0, refused unevaluated when its lower bound
    (n // k)**k, k = min(l, n - l), has more than `digits` digits.  Under
    that bound, with at most MAX_COUNT_DIGITS digits, k < 14,285 and
    C(n, l) < 2**(3.5 * 14,285), so the `comb` that runs is quick."""
    k = min(l, n - l)
    if k and k * ((n // k).bit_length() - 1) >= (10 ** digits).bit_length():
        raise _count_too_long("generators", digits)
    return comb(n, l)


def _cmd_counts(args) -> tuple:
    digest = _args_digest({"n": args.n, "l": args.l})
    if args.n is None:
        raise PreconditionError("counts needs --n" + ("" if args.l is None else " alongside --l"))
    digits = _count_digits()
    if args.l is None:
        payload = {"n": args.n,
                   "dim": invariant_dim_lr(args.n),
                   "generators": generator_count_lr(args.n),
                   "lower_bound": lower_bound_lr(args.n)}
    else:
        # the lower bound checks l >= 2 and n >= l, so comb never sees n < 0
        payload = {"l": args.l, "n": args.n,
                   "lower_bound": lower_bound_left(args.l, args.n),
                   "dim": invariant_dim_left(args.l, args.n),
                   "generators": _generator_count_left(args.n, args.l, digits)}
    ceiling = 10 ** digits
    for key, value in payload.items():
        if abs(value) >= ceiling:
            raise _count_too_long(key, digits)
    return digest, payload


def _args_digest(params: dict) -> str:
    canon = json.dumps(params, sort_keys=True)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


# -- report emission ----------------------------------------------------------


def _emit(args, digest: str, payload) -> None:
    report = {"command": args.command,
              "arguments": {k: v for k, v in sorted(vars(args).items()) if k != "format"},
              "input_digest": f"sha256:{digest}",
              "result": payload,
              "version": __version__}
    if args.format == "text":
        _emit_text(report)
    else:
        sys.stdout.write(json.dumps(report, sort_keys=True, indent=2) + "\n")


def _emit_text(report) -> None:
    """Write the report as indented `key: value` lines, in one write, so
    a failure while formatting it leaves stdout empty."""
    lines = []

    def walk(value, key, indent):
        pad = "  " * indent
        if isinstance(value, dict):
            lines.append(f"{pad}{key}:\n")
            for k in sorted(value):
                walk(value[k], k, indent + 1)
        elif isinstance(value, list):
            lines.append(f"{pad}{key}: {json.dumps(value, sort_keys=True)}\n")
        else:
            lines.append(f"{pad}{key}: {value}\n")
    for k in sorted(report):
        walk(report[k], k, 0)
    sys.stdout.write("".join(lines))


# -- argument parsing ---------------------------------------------------------


class _Command(NamedTuple):
    help: str
    # document kind -> payload function, or the function of a command
    # that reads no document (it takes the parsed arguments)
    action: object
    options: tuple = ()   # (flag, add_argument keywords) after --format


_SIZES = (("--n", {"type": int, "default": None}), ("--l", {"type": int, "default": None}))

_COMMANDS = {
    "invariants": _Command("evaluate generating invariants or minors",
                           {"lr-tuple": _invariants_lr, "left-matrix": _invariants_left}),
    "separate": _Command("decide separation of a pair, with witness",
                         {"lr-pair": lambda a, b: _witness_json(separated_lr(a, b)),
                          "left-pair": _separate_left}),
    "stability": _Command("stability test",
                          {"lr-tuple": _stability_lr,
                           "left-matrix": lambda A: {"stable": is_stable_left(A)}}),
    "nullcone": _Command("nullcone membership",
                         {"lr-tuple": lambda t: {"member": nullcone_member_lr(t)},
                          "left-matrix": lambda A: {"member": nullcone_member_left(A)}}),
    "phi": _Command("diagonal repacking of an upper pair", {"lr-pair": _phi}),
    "classify": _Command("component flags of a non-separated pair", {"lr-pair": _classify}),
    "graph": _Command("graph-closure membership tests",
                      {"lr-pair": _graph_lr, "left-pair": _graph_left}),
    "curve": _Command("witness curve for a left-action nullcone pair", {"left-pair": _curve}),
    "certify": _Command("certify component dimensions", _cmd_certify, _SIZES + (
        ("--claims", {"type": str, "default": None,
                      "help": "comma-separated claim names to certify"}),
        ("--trials", {"type": int, "default": 5}),
        ("--seed", {"type": int, "default": 0}))),
    "identities": _Command("run the symbolic identity oracle", _cmd_identities),
    "counts": _Command("dimension, generator count and lower bound", _cmd_counts, _SIZES),
}


def _build_parser(argv: list) -> argparse.ArgumentParser:
    """The parser for one command line.  Every subcommand is named, for
    the root usage, help and choice errors, but only the one argv names
    gets its -h, `file`, --format and options; the others are bare
    subparsers with no action at all.  argparse dispatches on the first
    argv element that is a subcommand name (the root's only option, -h,
    takes no value), and a subparser's arguments, help included, appear
    only in its own parse, usage, help and errors."""
    named = next((arg for arg in argv if arg in _COMMANDS), None)
    # Each stock formatter queries the terminal for this width; query it once.
    formatter = partial(argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2)
    parser = argparse.ArgumentParser(
        prog="matsep", formatter_class=formatter,
        description="Exact decision procedures for matrix semi-invariants. "
                    "Row/column labels follow the explicit diagonal "
                    "proportionality patterns; the upper-pair correspondence "
                    "maps the row pattern onto column-proportional nullcone "
                    "tuples and vice versa.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help, formatter_class=formatter,
                           add_help=name == named)
        if name != named:
            continue
        if isinstance(command.action, dict):
            p.add_argument("file", help="input document (JSON with exact rationals)")
        p.add_argument("--format", choices=("structured", "text"), default="structured")
        for flag, keywords in command.options:
            p.add_argument(flag, **keywords)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # The parser is all reference cycles: with the collector paused it dies young, unpromoted.
    enabled = gc.isenabled()
    gc.disable()
    try:
        args = _build_parser(argv).parse_args(argv)
    finally:
        if enabled:
            gc.enable()
    try:
        digest, payload = _run(args)
    except (InputError, ShapeError) as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return 2
    except PreconditionError as exc:
        sys.stderr.write(f"precondition violated: {exc}\n")
        return 3
    except CertificationError as exc:
        sys.stderr.write(f"certification failure: {exc}\n")
        return 4
    except _CertifyFailure as fail:
        _emit(args, *fail.args)
        sys.stderr.write("certification failure: not all claims certified\n")
        return 4
    _emit(args, digest, payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
