"""Span tracing of matsep from outside the package.

``Tracer.install`` replaces each traced function by a wrapper that
records a span: name, start, end, parent span and op id, plus a small
note taken from the arguments or result where a ratio needs one.  A
function bound by ``from .x import y`` lives in several module
namespaces, so every binding in every loaded ``matsep`` module is
replaced; methods are replaced on their class.  Spans stay in memory
and are reduced to per-layer metrics once the traced run ends.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from itertools import combinations
from math import comb
from time import perf_counter


def _canonical_position(args, result):
    """1-based position of the separation witness in the canonical order,
    or the full generator count when the pair is not separated."""
    n = args[0].n
    if not result.separated:
        return n + comb(n, 2) + comb(n, 4)
    kind, indices = result.witness
    if kind == "det":
        return indices[0]
    if kind == "bracket":
        return n + list(combinations(range(1, n + 1), 2)).index(tuple(indices)) + 1
    return n + comb(n, 2) + list(combinations(range(1, n + 1), 4)).index(tuple(indices)) + 1


def _claimed(args, kwargs):
    return kwargs["claimed"] if "claimed" in kwargs else args[1]


# (module, class or None, attribute, note taken from (args, kwargs, result))
TARGETS = (
    ("cli", None, "main", None),
    ("cli", None, "load_document", None),
    ("separation", None, "separated_lr", lambda a, k, r: _canonical_position(a, r)),
    ("separation", None, "separated_left", None),
    ("separation", None, "act_lr", None),
    ("invariants", None, "generators_lr", None),
    ("invariants", None, "xi", None),
    ("invariants", None, "bracket", None),
    ("invariants", None, "det_inv", None),
    ("invariants", None, "minors_left", None),
    ("matrix", "RMatrix", "det", None),
    ("matrix", "RMatrix", "rank", lambda a, k, r: r),
    ("matrix", "RMatrix", "rref", None),
    ("binform", None, "binary_form_gcd", None),
    ("binform", None, "rational_projective_roots", None),
    ("geometry_lr", None, "classify_pair", None),
    ("geometry_lr", None, "classify_pair_any", None),
    ("geometry_lr", None, "is_stable_lr", None),
    ("geometry_lr", None, "triangularizer_for_direction", None),
    ("geometry_lr", None, "graph_member_upper", None),
    ("geometry_left", None, "witness_curve_auto", None),
    ("geometry_left", "CurveWitness", "verify", None),
    ("geometry_left", None, "echelon_sl", None),
    ("geometry_left", None, "graph_necessary", None),
    ("laurent", "LaurentMatrix", "__matmul__", None),
    ("laurent", "LaurentMatrix", "det", None),
    ("dual", None, "jacobian_of", lambda a, k, r: r.rows * r.cols),
    ("certify", None, "certify_dimension", lambda a, k, r: _claimed(a, k)),
    ("sparsepoly", None, "poly_expand_det", None),
)

NAME, START, END, PARENT, OP, NOTE = range(6)
RAISED = object()   # NOTE of a span whose call raised


def span_name(module, cls, attr):
    return ".".join(p for p in (module, cls, attr) if p)


def matsep_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "matsep" or name.startswith("matsep."))]


class Tracer:
    """Records spans around the traced functions while installed."""

    def __init__(self):
        self.spans = []
        self.op = -1
        self._stack = []
        self._restore = []     # (namespace owner, attribute, original)
        self._originals = set()   # ids of the wrapped plain functions
        self._methods = []     # (class, attribute, wrapper)

    def _wrap(self, name, fn, note):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[NOTE] = RAISED
                raise
            finally:
                span[END] = perf_counter()
                stack.pop()
            if note is not None:
                span[NOTE] = note(args, kwargs, result)
            return result
        return wrapper

    def install(self):
        modules = matsep_modules()
        for module, cls, attr, note in TARGETS:
            name = span_name(module, cls, attr)
            home = sys.modules[f"matsep.{module}"]
            if cls is not None:
                owner = getattr(home, cls)
                original = owner.__dict__[attr]
                wrapper = self._wrap(name, original, note)
                self._restore.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                self._methods.append((owner, attr, wrapper))
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(name, original, note)
            self._originals.add(id(original))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def uncovered(self):
        """References to traced functions that calls could still reach
        without passing a wrapper: module globals, module-level
        containers, class attributes and default arguments."""
        missed = [f"{owner.__name__}.{attr}" for owner, attr, wrapper in self._methods
                  if owner.__dict__[attr] is not wrapper]
        for mod in matsep_modules():
            for where, value in _references(mod):
                if id(value) in self._originals:
                    missed.append(f"{mod.__name__}.{where}")
        return missed


def _references(mod):
    """(place, object) for everything a module holds one level deep."""
    for key, value in vars(mod).items():
        yield key, value
        if isinstance(value, dict):
            for k, v in value.items():
                yield f"{key}[{k!r}]", v
        elif isinstance(value, (list, tuple, set, frozenset)):
            for v in value:
                yield f"{key}[...]", v
        elif isinstance(value, type) and value.__module__ == mod.__name__:
            for k, v in vars(value).items():
                yield f"{key}.{k}", getattr(v, "__func__", v)
        if callable(value) and getattr(value, "__module__", None) == mod.__name__:
            for v in getattr(value, "__defaults__", None) or ():
                yield f"{key}(default)", v


def layer_metrics(spans, scales):
    """Per-function calls and self time, and the ratios built on spans.

    ``scales[op]`` converts the wall seconds of op ``op`` to reference
    seconds."""
    child_time = defaultdict(float)
    for s in spans:
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += s[END] - s[START]
    calls, self_s = Counter(), defaultdict(float)
    for i, s in enumerate(spans):
        calls[s[NAME]] += 1
        self_s[s[NAME]] += (s[END] - s[START] - child_time[i]) * scales[s[OP]]

    def has_ancestor(s, name):
        p = s[PARENT]
        while p >= 0:
            if spans[p][NAME] == name:
                return spans[p][NOTE] is not RAISED
            p = spans[p][PARENT]
        return False

    def returned(name):
        return sum(1 for s in spans if s[NAME] == name and s[NOTE] is not RAISED)

    def parent_name(s):
        return spans[s[PARENT]][NAME] if s[PARENT] >= 0 else None

    dets_in_xi = sum(1 for s in spans
                     if s[NAME] == "matrix.RMatrix.det" and parent_name(s) == "invariants.xi")
    generator_evals = sum(1 for s in spans
                          if s[NAME] in ("invariants.det_inv", "invariants.bracket",
                                         "invariants.xi")
                          and has_ancestor(s, "separation.separated_lr"))
    witness_positions = sum(s[NOTE] for s in spans if s[NAME] == "separation.separated_lr"
                            and s[NOTE] is not RAISED)
    seps_in_classify = sum(1 for s in spans if s[NAME] == "separation.separated_lr"
                           and has_ancestor(s, "geometry_lr.classify_pair"))
    gcds_in_any = sum(1 for s in spans if s[NAME] == "binform.binary_form_gcd"
                      and has_ancestor(s, "geometry_lr.classify_pair_any"))

    ranks = defaultdict(list)
    for s in spans:
        if s[NAME] == "matrix.RMatrix.rank" and parent_name(s) == "certify.certify_dimension":
            ranks[s[PARENT]].append(s[NOTE])
    trials = useful = 0
    for i, found in ranks.items():
        claimed = spans[i][NOTE]
        trials += len(found)
        useful += found.index(claimed) + 1 if claimed in found else len(found)
    jacobian_entries = sum(s[NOTE] for s in spans if s[NAME] == "dual.jacobian_of"
                           and s[NOTE] is not RAISED)

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for module, cls, attr, _ in TARGETS:
        name = span_name(module, cls, attr)
        out[f"{name}.calls"] = (calls[name], "count")
        out[f"{name}.self_s"] = (self_s[name], "s")
    out.update({
        "invariants.xi.dets_per_call": (ratio(dets_in_xi, calls["invariants.xi"]), "ratio"),
        "separation.generator_evals": (generator_evals, "count"),
        "separation.useful_generator_ratio": (ratio(witness_positions, generator_evals), "ratio"),
        "geometry_lr.separations_per_classify": (
            ratio(seps_in_classify, returned("geometry_lr.classify_pair")), "ratio"),
        "geometry_lr.gcds_per_classify_any": (
            ratio(gcds_in_any, returned("geometry_lr.classify_pair_any")), "ratio"),
        "certify.trials": (trials, "count"),
        "certify.useful_trial_ratio": (ratio(useful, trials), "ratio"),
        "certify.jacobian_entries": (jacobian_entries, "count"),
    })
    return out
