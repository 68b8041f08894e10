"""Batch command-line interface.

Reads self-describing JSON documents with exact rational entries (ints
or "p/q" strings, never decimals), runs the requested decision procedure
and writes a deterministic report: identical inputs, flags and seed give
byte-identical output.  Exit codes: 0 success, 2 input error, 3
precondition violation, 4 certification failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from fractions import Fraction

from . import __version__
from .certify import CERTIFIED, certify_builtin, verify_bracket_identity, verify_xi_identity
from .errors import CertificationError, InputError, PreconditionError, ShapeError
from .geometry_left import (graph_member_l23, graph_necessary, is_stable_left,
                            nullcone_member_left, stack, witness_curve_auto)
from .geometry_lr import (GAMMA, UpperPair, classify_pair, classify_pair_any,
                          graph_member_upper, is_stable_lr, m_matrix,
                          nullcone_member_lr, phi)
from .invariants import (LeftMatrix, MatrixTupleLR, generator_count_lr,
                         generators_lr, invariant_dim_left, invariant_dim_lr,
                         lower_bound_left, lower_bound_lr, minor_column_sets,
                         minors_left)
from .matrix import RMatrix
from .rational import format_rational, parse_rational
from .separation import separated_left, separated_lr


# -- input documents ----------------------------------------------------------


def _entry(value) -> Fraction:
    if isinstance(value, bool) or isinstance(value, float):
        raise InputError(f"entries must be integers or 'p/q' strings, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return parse_rational(value)
        except ValueError as exc:
            raise InputError(str(exc)) from None
    raise InputError(f"entries must be integers or 'p/q' strings, got {value!r}")


def _parse_matrix2(data) -> RMatrix:
    if (not isinstance(data, list) or len(data) != 2
            or any(not isinstance(r, list) or len(r) != 2 for r in data)):
        raise InputError("a 2x2 matrix must be a list of two rows of two entries")
    return RMatrix(2, 2, [_entry(e) for row in data for e in row])


def _parse_tuple(data, n: int) -> MatrixTupleLR:
    if not isinstance(data, list) or len(data) != n:
        raise InputError(f"expected {n} matrices")
    return MatrixTupleLR(tuple(_parse_matrix2(m) for m in data))


def _parse_left(data, l: int, n: int) -> LeftMatrix:
    if not isinstance(data, list) or len(data) != l:
        raise InputError(f"expected {l} rows")
    rows = []
    for row in data:
        if not isinstance(row, list) or len(row) != n:
            raise InputError(f"expected rows of length {n}")
        rows.append([_entry(e) for e in row])
    return LeftMatrix(RMatrix.from_rows(rows))


def _size(data: dict, key: str) -> int:
    value = data[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"field {key!r} must be an integer, got {value!r}")
    return value


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
    if not isinstance(data, dict) or "kind" not in data:
        raise InputError("document must be an object with a 'kind' field")
    kind = data["kind"]
    try:
        if kind == "lr-tuple":
            n = _size(data, "n")
            return {"kind": kind, "digest": digest,
                    "tuple": _parse_tuple(data["matrices"], n)}
        if kind == "lr-pair":
            n = _size(data, "n")
            return {"kind": kind, "digest": digest,
                    "first": _parse_tuple(data["first"], n),
                    "second": _parse_tuple(data["second"], n)}
        if kind == "left-matrix":
            l, n = _size(data, "l"), _size(data, "n")
            return {"kind": kind, "digest": digest,
                    "matrix": _parse_left(data["rows"], l, n)}
        if kind == "left-pair":
            l, n = _size(data, "l"), _size(data, "n")
            return {"kind": kind, "digest": digest,
                    "first": _parse_left(data["first"], l, n),
                    "second": _parse_left(data["second"], l, n)}
    except KeyError as exc:
        raise InputError(f"missing field {exc}") from None
    except ShapeError as exc:
        raise InputError(str(exc)) from None
    raise InputError(f"unknown document kind {kind!r}")


def document_to_json(doc: dict) -> dict:
    """Serialize a parsed document back to its JSON shape."""
    kind = doc["kind"]
    if kind == "lr-tuple":
        t = doc["tuple"]
        return {"kind": kind, "n": t.n, "matrices": [_mat_json(m) for m in t.matrices]}
    if kind == "lr-pair":
        f, s = doc["first"], doc["second"]
        return {"kind": kind, "n": f.n,
                "first": [_mat_json(m) for m in f.matrices],
                "second": [_mat_json(m) for m in s.matrices]}
    if kind == "left-matrix":
        m = doc["matrix"]
        return {"kind": kind, "l": m.l, "n": m.n, "rows": _mat_json(m.matrix)}
    f, s = doc["first"], doc["second"]
    return {"kind": kind, "l": f.l, "n": f.n,
            "first": _mat_json(f.matrix), "second": _mat_json(s.matrix)}


# -- serialization helpers ----------------------------------------------------


def _mat_json(m: RMatrix):
    return [[format_rational(m.at(r, c)) for c in range(m.cols)]
            for r in range(m.rows)]


def _vec_json(vec):
    return [format_rational(v) for v in vec]


def _laurent_json(lm):
    return [[{str(e): format_rational(c) for e, c in sorted(lm.at(r, c).terms.items())}
             for c in range(lm.cols)] for r in range(lm.rows)]


def _witness_json(report):
    if not report.separated:
        return {"separated": False, "witness": None, "values": None}
    kind, indices = report.witness
    return {"separated": True,
            "witness": {"kind": kind, "indices": list(indices)},
            "values": [format_rational(report.values[0]),
                       format_rational(report.values[1])]}


# -- commands -----------------------------------------------------------------


def _cmd_invariants(args) -> tuple:
    doc = load_document(args.file)
    if doc["kind"] == "lr-tuple":
        gv = generators_lr(doc["tuple"])
        values = [{"kind": k, "indices": list(idx), "value": format_rational(v)}
                  for (k, idx), v in gv.labeled()]
        return doc, {"count": len(gv), "values": values}
    if doc["kind"] == "left-matrix":
        A = doc["matrix"]
        minors = [{"columns": list(cols), "value": format_rational(v)}
                  for cols, v in zip(minor_column_sets(A.l, A.n), minors_left(A))]
        return doc, {"count": len(minors), "minors": minors}
    raise PreconditionError("invariants needs an lr-tuple or left-matrix document")


def _cmd_separate(args) -> tuple:
    doc = load_document(args.file)
    if doc["kind"] == "lr-pair":
        return doc, _witness_json(separated_lr(doc["first"], doc["second"]))
    if doc["kind"] == "left-pair":
        return doc, _witness_json(separated_left(doc["first"], doc["second"]))
    raise PreconditionError("separate needs an lr-pair or left-pair document")


def _cmd_stability(args) -> tuple:
    doc = load_document(args.file)
    if doc["kind"] == "lr-tuple":
        rep = is_stable_lr(doc["tuple"])
        out = {"stable": rep.stable,
               "common_direction": None if rep.common_direction is None
               else _vec_json(rep.common_direction),
               "triangularizer": None if rep.triangularizer is None
               else {"g1": _mat_json(rep.triangularizer.g1),
                     "g2": _mat_json(rep.triangularizer.g2)}}
        return doc, out
    if doc["kind"] == "left-matrix":
        return doc, {"stable": is_stable_left(doc["matrix"])}
    raise PreconditionError("stability needs an lr-tuple or left-matrix document")


def _cmd_nullcone(args) -> tuple:
    doc = load_document(args.file)
    if doc["kind"] == "lr-tuple":
        return doc, {"member": nullcone_member_lr(doc["tuple"])}
    if doc["kind"] == "left-matrix":
        return doc, {"member": nullcone_member_left(doc["matrix"])}
    raise PreconditionError("nullcone needs an lr-tuple or left-matrix document")


def _cmd_phi(args) -> tuple:
    doc = load_document(args.file)
    if doc["kind"] != "lr-pair":
        raise PreconditionError("phi needs an lr-pair document")
    pair = UpperPair(doc["first"], doc["second"])
    img = phi(pair)
    return doc, {"B": [_mat_json(m) for m in img.B.matrices],
                 "b": _vec_json(img.b), "b2": _vec_json(img.b2),
                 "nullcone_member": nullcone_member_lr(img.B),
                 "separated": separated_lr(pair.first, pair.second).separated}


def _cmd_classify(args) -> tuple:
    doc = load_document(args.file)
    if doc["kind"] != "lr-pair":
        raise PreconditionError("classify needs an lr-pair document")
    first, second = doc["first"], doc["second"]
    if first.is_upper() and second.is_upper():
        flags = classify_pair(UpperPair(first, second))
        upper = True
    else:
        flags = classify_pair_any(first, second)
        upper = False
    return doc, {"flags": sorted(flags), "upper_input": upper}


def _cmd_graph(args) -> tuple:
    doc = load_document(args.file)
    if doc["kind"] == "lr-pair":
        first, second = doc["first"], doc["second"]
        if first.is_upper() and second.is_upper():
            pair = UpperPair(first, second)
            return doc, {"member": graph_member_upper(pair),
                         "stacked_rank": m_matrix(pair).rank()}
        flags = classify_pair_any(first, second)
        return doc, {"member": GAMMA in flags, "stacked_rank": None}
    if doc["kind"] == "left-pair":
        first, second = doc["first"], doc["second"]
        necessary = graph_necessary(first, second)
        if first.l in (2, 3):
            member = graph_member_l23(first, second)
            note = None
        else:
            member = None
            note = "necessary-only"
        return doc, {"necessary": necessary, "member": member, "note": note,
                     "stacked_rank": stack(first, second).rank()}
    raise PreconditionError("graph needs an lr-pair or left-pair document")


def _cmd_curve(args) -> tuple:
    doc = load_document(args.file)
    if doc["kind"] != "left-pair":
        raise PreconditionError("curve needs a left-pair document")
    w = witness_curve_auto(doc["first"], doc["second"])
    la, lb = w.limits()
    limits_match = (la == doc["first"] and lb == doc["second"])
    return doc, {"g": _laurent_json(w.g_curve),
                 "a": _laurent_json(w.a_curve),
                 "a2": _laurent_json(w.a2_curve),
                 "verified": w.verify(),
                 "limits_match": limits_match}


def _cmd_certify(args) -> tuple:
    names = args.claims.split(",") if args.claims else None
    certs = certify_builtin(n=args.n, l=args.l, names=names,
                            trials=args.trials, seed=args.seed)
    payload = {"certificates": [
        {"name": c.name, "claimed": c.claimed, "achieved_rank": c.achieved_rank,
         "trials": c.trials, "verdict": c.verdict,
         "witness_point": None if c.witness_point is None else _vec_json(c.witness_point)}
        for c in certs]}
    doc = {"kind": "certify", "digest": _args_digest(
        {"n": args.n, "l": args.l, "claims": args.claims,
         "trials": args.trials, "seed": args.seed})}
    if any(c.verdict != CERTIFIED for c in certs):
        raise _CertifyFailure(doc, payload)
    return doc, payload


class _CertifyFailure(Exception):
    def __init__(self, doc, payload):
        self.doc = doc
        self.payload = payload


def _cmd_identities(args) -> tuple:
    doc = {"kind": "identities", "digest": _args_digest({})}
    return doc, {"xi_identity": verify_xi_identity(),
                 "bracket_identity": verify_bracket_identity()}


def _cmd_counts(args) -> tuple:
    doc = {"kind": "counts", "digest": _args_digest({"n": args.n, "l": args.l})}
    if args.l is None:
        if args.n is None:
            raise PreconditionError("counts needs --n")
        payload = {"n": args.n,
                   "dim": invariant_dim_lr(args.n),
                   "generators": generator_count_lr(args.n),
                   "lower_bound": lower_bound_lr(args.n)}
    else:
        if args.n is None:
            raise PreconditionError("counts needs --n alongside --l")
        from math import comb
        payload = {"l": args.l, "n": args.n,
                   "dim": invariant_dim_left(args.l, args.n),
                   "generators": comb(args.n, args.l),
                   "lower_bound": lower_bound_left(args.l, args.n)}
    return doc, payload


def _args_digest(params: dict) -> str:
    canon = json.dumps(params, sort_keys=True)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


# -- report emission ----------------------------------------------------------


def _emit(command: str, args, doc, payload) -> None:
    report = {"command": command,
              "arguments": _echo_args(args),
              "input_digest": f"sha256:{doc['digest']}",
              "result": payload,
              "version": __version__}
    if getattr(args, "format", "structured") == "text":
        _emit_text(report)
    else:
        sys.stdout.write(json.dumps(report, sort_keys=True, indent=2) + "\n")


def _echo_args(args) -> dict:
    skip = {"func", "format"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def _emit_text(report, prefix="") -> None:
    def walk(value, key, indent):
        pad = "  " * indent
        if isinstance(value, dict):
            sys.stdout.write(f"{pad}{key}:\n")
            for k in sorted(value):
                walk(value[k], k, indent + 1)
        elif isinstance(value, list):
            sys.stdout.write(f"{pad}{key}: {json.dumps(value, sort_keys=True)}\n")
        else:
            sys.stdout.write(f"{pad}{key}: {value}\n")
    for k in sorted(report):
        walk(report[k], k, 0)


# -- argument parsing ---------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matsep",
        description="Exact decision procedures for matrix semi-invariants. "
                    "Row/column labels follow the explicit diagonal "
                    "proportionality patterns; the upper-pair correspondence "
                    "maps the row pattern onto column-proportional nullcone "
                    "tuples and vice versa.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text, needs_file=True):
        p = sub.add_parser(name, help=help_text)
        if needs_file:
            p.add_argument("file", help="input document (JSON with exact rationals)")
        p.add_argument("--format", choices=("structured", "text"),
                       default="structured")
        p.set_defaults(func=fn)
        return p

    add("invariants", _cmd_invariants, "evaluate generating invariants or minors")
    add("separate", _cmd_separate, "decide separation of a pair, with witness")
    add("stability", _cmd_stability, "stability test")
    add("nullcone", _cmd_nullcone, "nullcone membership")
    add("phi", _cmd_phi, "diagonal repacking of an upper pair")
    add("classify", _cmd_classify, "component flags of a non-separated pair")
    add("graph", _cmd_graph, "graph-closure membership tests")
    add("curve", _cmd_curve, "witness curve for a left-action nullcone pair")

    p = add("certify", _cmd_certify, "certify component dimensions", needs_file=False)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--l", type=int, default=None)
    p.add_argument("--claims", type=str, default=None,
                   help="comma-separated claim names to certify")
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)

    add("identities", _cmd_identities, "run the symbolic identity oracle",
        needs_file=False)

    p = add("counts", _cmd_counts, "dimension, generator count and lower bound",
            needs_file=False)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--l", type=int, default=None)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        doc, payload = args.func(args)
    except InputError as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return 2
    except ShapeError as exc:
        sys.stderr.write(f"input error: {exc}\n")
        return 2
    except PreconditionError as exc:
        sys.stderr.write(f"precondition violated: {exc}\n")
        return 3
    except CertificationError as exc:
        sys.stderr.write(f"certification failure: {exc}\n")
        return 4
    except _CertifyFailure as fail:
        _emit(args.command, args, fail.doc, fail.payload)
        sys.stderr.write("certification failure: not all claims certified\n")
        return 4
    _emit(args.command, args, doc, payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
