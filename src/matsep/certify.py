"""Randomized exact certification of component dimensions.

Every dimension claim is backed by an explicit rational parameterization
of the component.  The exact Jacobian of the parameterization at a
random integer point lower-bounds the dimension of the image closure (a
rank-r differential forces an r-dimensional image), so achieving the
claimed rank certifies the dimension from below; matching the claimed
value is recorded as CERTIFIED.  A computed rank exceeding the claim is
impossible for a correct parameterization and raises immediately.

Trials draw integer coordinates in [-20, 20] from a generator seeded by
(seed, trial index), so every certificate is reproducible from its seed
and recorded witness point.  `trials` is a budget: no rank exceeds
min(rows, cols) of the Jacobian, the same shape in every trial, so the
trials stop once a rank reaches it; no later trial could change the
certificate or raise (a claim below it runs them all), save one whose
samples all hit a chart singularity, which is then never drawn.

The saturations G.C and graph closures {(A, g.A)} are the grouped
claims, each declared once as an `Orbit`: a base map P(p), free of the
chart coordinates t, whose outputs are blocks of matrices, and per
output block the base block it shows and the determinant-one charts
acting on it from the left and, by their inverse, from the right (a
graph closure shows its one block A twice, the second time moved).
With g(t) the product of the charts and L_g its linear action on the
outputs, Phi(p, t) = L_g(t).P(p) has dPhi = L_g.[dP | dL(g^-1 d_t g).P].
Each chart reads its parameters off matrix entries, so it is an open
immersion on its guarded domain and the columns g^-1 d_t g span the Lie
algebra at every guarded t.  So the rank at (p, t) is that of
[dP | dL(X).P] at t = 0, the identity (for a saturation, the dimension
of T_p C + Lie(G).P(p)), and each grouped trial builds that matrix with
no chart evaluated: dP once per base block, then per chart coordinate
(r, c) of an s x s chart (row-major, bottom-right left out) with tangent
T = E_rc off the diagonal and E_rr - E_zz on it (z = s - 1), the column
T.M for a left chart and -M.T for a right one, M the integer values of
P's matrices.  A base block's later outputs are written minus its first:
rows [0 | C - C_1], C their chart columns and C_1 the first's.  So a
graph closure's moved copy is [0 | C], its rank #A + rank(C), and
elimination never revisits the A columns.  Subtracting rows is
invertible, so the rank is that of `jacobian` at (p, 0), whose matrix
this is once the same rows are subtracted from it; Phi serves `jacobian`
and the witness, the sampled point.  The lower bound stays sound
whatever is declared, since no point's rank exceeds the generic rank.
Every other parameterization, user ones included, differentiates its
evaluator with `group_coords` set to 0.

Each trial stays in integers from its sample to its rank: the sample is
drawn as ints and seeded as they are, and the evaluators run on integer
dual numbers, each output integer numerators over one shared
denominator, whose partial numerators are the Jacobian row that the
Bareiss rank reads, with no Fraction arithmetic and no rounding or
modular shortcut.

Each builtin claim is one row of `_LR_CLAIMS` or `_LEFT_CLAIMS`: its name,
claimed dimension, description and parameterization factory, each called
with the family's sizes ((n,) or (l, n)), the factory after the name.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from itertools import accumulate, islice
from typing import Callable, List, Optional, Sequence, Tuple

from .dual import integer_rows, jacobian_of, seed_point
from .errors import CertificationError, ChartSingularityError, PreconditionError
from .matrix import RMatrix, adjugate, cofactor_det, grid_product as _gmul
from .rational import rat
from .sparsepoly import SparsePoly, poly_expand_det

CERTIFIED = "CERTIFIED"
LOWER_BOUND_ONLY = "LOWER_BOUND_ONLY"
FAILED = "FAILED"

# Each trial builds its Jacobian as dense rows of Python ints, about 20
# bytes an entry, so certify_dimension refuses a parameterization whose
# output_count * param_count exceeds this (some 80 MB a trial) rather
# than run out of memory.  Every builtin claim up to n = 100 and up to
# (l, n) = (10, 40) stays below it.
MAX_JACOBIAN_ENTRIES = 4_000_000
# A claim below its rank bound runs every trial, about 0.5 ms each at
# n = 4 and more at larger n, so more trials than this are refused.
MAX_TRIALS = 100


@dataclass(frozen=True)
class Orbit:
    """A grouped claim's base map and the charts acting on its outputs.

    `base(ps)` returns the base blocks, each a list of matrices of
    `shape`; it is polynomial, so its values at integer points are
    integers.  Output block b is `blocks[b]` = (base block, offset of the
    chart acting from the left, offset of the one acting from the right
    by its inverse), either offset None; a base block may recur.
    """

    base: Callable[[Sequence], tuple]
    shape: Tuple[int, int]
    blocks: Tuple[Tuple[int, Optional[int], Optional[int]], ...]

    def evaluate(self, ps) -> list:
        """Phi: every output block, its base block moved by its charts."""
        mats_of = self.base(ps)
        out = []
        for src, left, right in self.blocks:
            mats = mats_of[src]
            if left is not None:
                g = _sl_chart_g(self.shape[0], ps[left:])
                mats = [_gmul(g, m) for m in mats]
            if right is not None:
                h = adjugate(_sl_chart_g(self.shape[1], ps[right:]))
                mats = [_gmul(m, h) for m in mats]
            out += _flatten_mats(mats)
        return out

    @cached_property
    def _chart_terms(self) -> list:
        """(base block, first output of it?, terms) per output block: each
        chart column entry at the identity gains coef * M[ij] for its term
        (row, column, ij, coef), M each of the block's matrices, flattened.
        A later output also carries its base block's first terms, negated."""
        nr, nc = self.shape
        terms, firsts = [], {}
        for src, left, right in self.blocks:
            own = [(r * nc + j, col, c * nc + j, coef) for col, r, c, coef in _tangents(left, nr)
                   for j in range(nc)]
            own += [(i * nc + c, col, i * nc + r, -coef)
                    for col, r, c, coef in _tangents(right, nc) for i in range(nr)]
            first = firsts.setdefault(src, own)
            terms.append((src, first is own,
                          own if first is own else own + [(*t[:3], -t[3]) for t in first]))
        return terms

    def identity_jacobian(self, at: Sequence[int]) -> RMatrix:
        """[dP | dL(X).P] at an integer point whose chart coordinates are
        0, each later output of a base block minus its first (see the
        module docstring), with no chart evaluated: P runs once, on the
        seeded duals, for both its integer values and dP."""
        k, size = len(at), self.shape[0] * self.shape[1]
        mats_of = self.base(seed_point(at))
        values, dp, _ = integer_rows(_flatten_mats(sum(mats_of, [])), k)
        starts = list(accumulate((len(mats) * size for mats in mats_of), initial=0))
        rows = []
        for src, first, terms in self._chart_terms:
            start, stop = starts[src], starts[src + 1]
            block = dp[start:stop] if first else [[0] * k for _ in range(stop - start)]
            for t in range(0, stop - start, size):
                out, m = block[t:t + size], values[start + t:start + t + size]
                for row, col, ij, coef in terms:
                    out[row][col] += coef * m[ij]
            rows += block
        return RMatrix.from_integer_rows(rows, k, [1] * len(rows))


@dataclass(frozen=True)
class Parameterization:
    """A rational map from a parameter cube into a flattened point space.

    The evaluator accepts a list of scalars (exact rationals or dual
    numbers) and must stay inside +, -, *, / by chart denominators; the
    chart guards are the denominators that must not vanish at a sample.

    `group_coords` are the coordinates t of determinant-one charts g(t)
    acting linearly on the outputs, the map L_g(t).P(p) with P free of t
    and t = 0 the identity, where `certify_dimension` takes each rank
    (see the module docstring): from the `orbit`, which the builtin
    grouped claims derive all else from, or else from the evaluator.
    """

    name: str
    param_count: int
    output_count: int
    evaluator: Callable[[Sequence], List]
    chart_guards: Tuple[Callable[[Sequence], Fraction], ...] = ()
    group_coords: Tuple[int, ...] = ()
    orbit: Optional[Orbit] = None


@dataclass(frozen=True)
class DimensionCertificate:
    name: str
    claimed: int
    achieved_rank: int
    trials: int
    witness_point: Optional[Tuple[Fraction, ...]]
    verdict: str


@dataclass(frozen=True)
class ClaimRow:
    name: str
    claimed: int
    description: str


def jacobian(param: Parameterization, point: Sequence) -> RMatrix:
    """Exact Jacobian (output rows by parameter columns) at a point."""
    if len(point) != param.param_count:
        raise PreconditionError("point length must equal the parameter count")
    return jacobian_of(param.evaluator, point, param.chart_guards)


def certify_dimension(param: Parameterization, claimed: int,
                      trials: int = 5, seed: int = 0) -> DimensionCertificate:
    """Maximize the Jacobian rank over at most `trials` random integer
    sample points, stopping at min(rows, cols) (see the module docstring).

    Each rank is taken at the sample moved to the identity of its group
    charts, where it is the same (see the module docstring); the
    witness is the sample itself.  A Jacobian of more than
    MAX_JACOBIAN_ENTRIES entries, or more than MAX_TRIALS trials, is
    refused before any sample.
    """
    if trials < 1:
        raise PreconditionError("at least one trial is required")
    if trials > MAX_TRIALS:
        raise PreconditionError(f"{trials} trials exceed the limit of {MAX_TRIALS}")
    if param.output_count * param.param_count > MAX_JACOBIAN_ENTRIES:
        raise PreconditionError(
            f"{param.name}: a {param.output_count} x {param.param_count} Jacobian "
            f"exceeds the limit of {MAX_JACOBIAN_ENTRIES} entries")
    best, witness = -1, None
    group = set(param.group_coords)
    rng = random.Random()
    for trial in range(trials):
        rng.seed(seed * 1_000_003 + trial)
        point = _sample_point(param, rng)
        at = [0 if i in group else x for i, x in enumerate(point)]
        jac = param.orbit.identity_jacobian(at) if param.orbit else jacobian(param, at)
        rank = jac.rank()
        if rank > claimed:
            raise CertificationError(
                f"{param.name}: rank {rank} exceeds claimed dimension {claimed}; "
                "the parameterization does not land in the claimed component")
        if rank > best:
            best, witness = rank, tuple(map(Fraction, point))
        if best == min(jac.rows, jac.cols):
            break
    verdict = CERTIFIED if best == claimed else LOWER_BOUND_ONLY if best > 0 else FAILED
    return DimensionCertificate(param.name, claimed, best, trials, witness, verdict)


def _sample_point(param: Parameterization, rng: random.Random) -> List[int]:
    """The first of 100 draws off every chart singularity.  A coordinate is
    getrandbits(6), redrawn while 41 or more, minus 20: randint(-20, 20)'s
    draw, written down so that certificates rest on getrandbits alone."""
    bits, count = rng.getrandbits, param.param_count
    for _ in range(100):
        point = []
        while len(point) < count:
            x = bits(6)
            if x < 41:
                point.append(x - 20)
        if all(guard(point) != 0 for guard in param.chart_guards):
            return point
    raise ChartSingularityError(f"{param.name}: all samples hit chart singularities")


# -- determinant-one charts --------------------------------------------------


def sl2_chart(alpha, beta, gamma) -> RMatrix:
    """[[1+a, b], [c, (1+bc)/(1+a)]], an exact determinant-one matrix."""
    params = [rat(alpha), rat(beta), rat(gamma)]
    if _sl_chart_guard(2, 0)(params) == 0:
        raise ChartSingularityError("chart singularity at alpha = -1")
    return RMatrix.from_rows(_sl_chart_g(2, params))


def _sl_chart_grid(l: int, params) -> tuple:
    """The l x l grid of identity plus the l*l - 1 free parameters in
    row-major order, bottom-right left unset, and its leading principal
    (l-1)-minor."""
    grid = [[None] * l for _ in range(l)]
    for idx in range(l * l - 1):
        r, c = divmod(idx, l)
        grid[r][c] = params[idx] + 1 if r == c else params[idx]
    return grid, cofactor_det([row[:l - 1] for row in grid[:l - 1]])


def _sl_chart_g(l: int, params) -> list:
    """l x l determinant-one chart around the identity: every entry but the
    bottom-right is identity plus a free parameter, and the bottom-right is
    solved from the determinant, legitimate while the leading principal
    (l-1)-minor is nonzero."""
    grid, minor = _sl_chart_grid(l, params)
    grid[l - 1][l - 1] = 0
    rest = cofactor_det(grid)
    grid[l - 1][l - 1] = (1 - rest) / minor
    return grid


def _sl_chart_guard(l: int, offset: int) -> Callable[[Sequence], Fraction]:
    def guard(point: Sequence) -> Fraction:
        return _sl_chart_grid(l, point[offset:offset + l * l - 1])[1]
    return guard


def _tangents(offset: Optional[int], size: int):
    """(column, row, col, coefficient) terms of the tangents at the
    identity of the size x size chart at `offset`, none for no chart:
    E_rc off the diagonal and E_rr - E_zz on it, z = size - 1."""
    if offset is None:
        return
    for idx in range(size * size - 1):
        r, c = divmod(idx, size)
        yield offset + idx, r, c, 1
        if r == c:
            yield offset + idx, size - 1, size - 1, -1


def _orbit_param(name: str, base_count: int, output_count: int,
                 orbit: Orbit) -> Parameterization:
    """Phi of an orbit whose charts follow its `base_count` base parameters."""
    spans = [(o, size) for _, *pair in orbit.blocks for o, size in zip(pair, orbit.shape)
             if o is not None]
    return Parameterization(
        name, base_count + sum(s * s - 1 for _, s in spans), output_count, orbit.evaluate,
        tuple(_sl_chart_guard(s, o) for o, s in spans),
        tuple(i for o, s in spans for i in range(o, o + s * s - 1)), orbit)


# -- generic small-matrix arithmetic (works on rationals and duals) ----------
# _gmul sums from the first product; _gmul([coeffs], rows)[0] is coeffs . rows


def _flatten_mats(mats):
    return [e for m in mats for row in m for e in row]


# -- builtin parameterizations for the 2x2 family -----------------------------


def _gamma_pair(name: str, n: int) -> Parameterization:
    """(A, g.A) with A free and g a pair of determinant-one charts."""
    def base(ps):
        return ([[[ps[4 * i], ps[4 * i + 1]], [ps[4 * i + 2], ps[4 * i + 3]]] for i in range(n)],)
    return _orbit_param(name, 4 * n, 8 * n,
                        Orbit(base, (2, 2), ((0, None, None), (0, 4 * n, 4 * n + 3))))


def _cr_pairs(a, b, b2, d2, lam) -> tuple:
    """Row-pattern pairs ([[a, b], [0, lam d']], [[lam a, b'], [0, d']])."""
    return ([[[x, y], [0, lam * w]] for x, y, w in zip(a, b, d2)],
            [[[lam * x, y], [0, w]] for x, y, w in zip(a, b2, d2)])


def _cr_pair_eval(n: int):
    """Row-pattern pairs from (a, b, b', d', lam)."""
    def pairs(ps):
        return _cr_pairs(*(ps[k * n:(k + 1) * n] for k in range(4)), ps[4 * n])
    return pairs, 4 * n + 1


def _cc_pair_eval(n: int):
    """Column-pattern pairs from (a, a', b, b', lam)."""
    def pairs(ps):
        a, a2, b, b2 = (ps[k * n:(k + 1) * n] for k in range(4))
        lam = ps[4 * n]
        return ([[[x, y], [0, lam * w]] for x, y, w in zip(a, b, a2)],
                [[[w, y], [0, lam * x]] for x, y, w in zip(a, b2, a2)])
    return pairs, 4 * n + 1


def _span_cr_pair_eval(n: int):
    """Row-pattern pairs whose four defining vectors span <= 3 dimensions."""
    def pairs(ps):
        u = [ps[0:n], ps[n:2 * n], ps[2 * n:3 * n]]
        c = ps[3 * n:3 * n + 12]
        return _cr_pairs(*(_gmul([c[o:o + 3]], u)[0] for o in (0, 3, 6, 9)), ps[3 * n + 12])
    return pairs, 3 * n + 13


def _cr_cc_pair_eval(n: int):
    """Pairs in both patterns, from (a, b, b', lam, mu)."""
    def pairs(ps):
        a, b, b2 = ps[0:n], ps[n:2 * n], ps[2 * n:3 * n]
        lam, mu = ps[3 * n], ps[3 * n + 1]
        return ([[[x, y], [0, mu * (lam * x)]] for x, y in zip(a, b)],
                [[[lam * x, y], [0, mu * x]] for x, y in zip(a, b2)])
    return pairs, 3 * n + 2


def _pair_param(pair_eval_factory, name: str, n: int, saturated: bool) -> Parameterization:
    pairs, base = pair_eval_factory(n)
    if saturated:
        return _orbit_param(name, base, 8 * n,
                            Orbit(pairs, (2, 2), ((0, base, base + 3), (1, base + 6, base + 9))))
    return Parameterization(name, base, 8 * n, lambda ps: _flatten_mats(sum(pairs(ps), [])))


# -- builtin parameterizations for the left family ---------------------------


def _gamma_left_param(name: str, l: int, n: int) -> Parameterization:
    def base(ps):
        return ([[list(ps[r * n:(r + 1) * n]) for r in range(l)]],)
    return _orbit_param(name, l * n, 2 * l * n,
                        Orbit(base, (l, n), ((0, None, None), (0, l * n, None))))


def _nullcone_rows(l: int, n: int, ps, offset: int):
    """Rank-deficient l x n block: free top rows, dependent last row."""
    rows = [list(ps[offset + r * n:offset + (r + 1) * n]) for r in range(l - 1)]
    coeffs = ps[offset + (l - 1) * n:offset + (l - 1) * n + (l - 1)]
    return rows + _gmul([coeffs], rows)


def _nullcone_left_param(name: str, l: int, n: int, copies: int = 1) -> Parameterization:
    """`copies` independent nullcone points, stacked."""
    each = (l - 1) * (n + 1)

    def evaluator(ps):
        return _flatten_mats([_nullcone_rows(l, n, ps, k * each) for k in range(copies)])
    return Parameterization(name, copies * each, copies * l * n, evaluator)


def _z_left_param(name: str, l: int, n: int) -> Parameterization:
    """Stacked 2l x n matrices with both row blocks rank-deficient and a
    common span of dimension at most l."""
    def evaluator(ps):
        params = iter(ps)

        def take(k):
            return list(islice(params, k))
        a_rows = [take(n) for _ in range(l - 1)]
        a_last = _gmul([take(l - 1)], a_rows)
        span = a_rows + [take(n)]
        bs = span[-1:] + [_gmul([take(l)], span)[0] for _ in range(l - 2)]
        bs += _gmul([take(l - 1)], bs)
        return _flatten_mats([a_rows, a_last, bs])
    return Parameterization(name, l * n + l * l - 2, 2 * l * n, evaluator)


# -- claim tables -------------------------------------------------------------


_LR_CLAIMS = (
    ("gamma", lambda n: 4 * n + 6, "graph closure of the two-sided action", _gamma_pair),
    ("sat-cr", lambda n: 4 * n + 5, "saturation of the row-pattern component",
     partial(_pair_param, _cr_pair_eval, saturated=True)),
    ("sat-cc", lambda n: 4 * n + 5, "saturation of the column-pattern component",
     partial(_pair_param, _cc_pair_eval, saturated=True)),
    ("gamma-sat-cr", lambda n: 3 * n + 8,
     "intersection of the graph closure with the saturated row pattern",
     partial(_pair_param, _span_cr_pair_eval, saturated=True)),
    ("sat-cr-cc", lambda n: 3 * n + 6, "saturation of the double-pattern locus",
     partial(_pair_param, _cr_cc_pair_eval, saturated=True)),
    ("gamma-cr", lambda n: 3 * n + 4,
     "row-pattern pairs inside the graph closure (spanning rank <= 3)",
     partial(_pair_param, _span_cr_pair_eval, saturated=False)),
    ("cr-cc", lambda n: 3 * n + 2, "pairs satisfying both patterns",
     partial(_pair_param, _cr_cc_pair_eval, saturated=False)),
)

_LEFT_CLAIMS = (
    ("gamma-left", lambda l, n: l * n + l * l - 1, "graph closure of the left action",
     _gamma_left_param),
    ("nullcone-left", lambda l, n: (l - 1) * (n + 1), "left-action nullcone",
     _nullcone_left_param),
    ("nullcone-pair-left", lambda l, n: 2 * (l - 1) * (n + 1),
     "pairs of left-action nullcone points", partial(_nullcone_left_param, copies=2)),
    ("z-left", lambda l, n: l * n + l * l - 2,
     "stacked matrices with both blocks rank-deficient and joint rank <= l",
     _z_left_param),
)


def _family(n: Optional[int], l: Optional[int]) -> tuple:
    """The claim rows of the selected family and the sizes its rows take."""
    return (_LR_CLAIMS, (n,)) if l is None else (_LEFT_CLAIMS, (l, n))


def builtin_claims(n: Optional[int] = None, l: Optional[int] = None) -> List[ClaimRow]:
    """Claim table for the selected family.

    With only n given: the 2x2 family (valid for n >= 4).  With l given:
    the left family at (l, n), needing l >= 2 and n >= l.
    """
    if l is None:
        if n is None or n < 4:
            raise PreconditionError("2x2 family claims need n >= 4")
    elif l < 2:
        raise PreconditionError("left family needs l >= 2")
    elif n is None or n < l:
        raise PreconditionError("left family needs n >= l")
    rows, sizes = _family(n, l)
    where = f"n = {n}" if l is None else f"l = {l}, n = {n}"
    return [ClaimRow(name, dim(*sizes), f"{desc}, {where}") for name, dim, desc, _ in rows]


def builtin_parameterization(name: str, n: Optional[int] = None,
                             l: Optional[int] = None) -> Parameterization:
    if n is None:
        raise PreconditionError("n is required")
    rows, sizes = _family(n, l)
    for row_name, _, _, build in rows:
        if row_name == name:
            return build(name, *sizes)
    family = "2x2" if l is None else "left"
    raise PreconditionError(f"unknown {family} family claim {name!r}")


def certify_builtin(n: Optional[int] = None, l: Optional[int] = None,
                    names: Optional[Sequence[str]] = None,
                    trials: int = 5, seed: int = 0) -> List[DimensionCertificate]:
    """Certify every builtin claim of a family (optionally filtered)."""
    rows = builtin_claims(n, l)
    if names is not None:
        wanted = set(names)
        unknown = wanted - {r.name for r in rows}
        if unknown:
            raise PreconditionError(f"unknown claim names: {sorted(unknown)}")
        rows = [r for r in rows if r.name in wanted]
    out = []
    for row in rows:
        param = builtin_parameterization(row.name, n, l)
        out.append(certify_dimension(param, row.claimed, trials, seed))
    return out


# -- symbolic identity oracle -------------------------------------------------


_XI_VARS = tuple(f"{base}_{s}" for base in ("a", "b", "d", "e") for s in "ijkl")


def verify_xi_identity() -> bool:
    """Expand the doubled block determinant for generic upper-triangular
    symbols and pin down the quadrilinear coefficient.

    Checks that the determinant factors as

        (e_i e_l a_i a_l - e_j e_k a_j a_k)(e_i e_l d_i d_l - e_j e_k d_j d_k)

    and that the coefficient of e_i e_j e_k e_l is exactly
    -(a_i a_l d_j d_k + a_j a_k d_i d_l).
    """
    vs = _XI_VARS
    a = {s: SparsePoly.var(vs, f"a_{s}") for s in "ijkl"}
    b = {s: SparsePoly.var(vs, f"b_{s}") for s in "ijkl"}
    d = {s: SparsePoly.var(vs, f"d_{s}") for s in "ijkl"}
    e = {s: SparsePoly.var(vs, f"e_{s}") for s in "ijkl"}
    zero = SparsePoly.zero(vs)
    grid = [
        [e["i"] * a["i"], e["i"] * b["i"], e["j"] * a["j"], e["j"] * b["j"]],
        [zero, e["i"] * d["i"], zero, e["j"] * d["j"]],
        [e["k"] * a["k"], e["k"] * b["k"], e["l"] * a["l"], e["l"] * b["l"]],
        [zero, e["k"] * d["k"], zero, e["l"] * d["l"]],
    ]
    det = poly_expand_det(grid)
    factored = ((e["i"] * e["l"] * a["i"] * a["l"] - e["j"] * e["k"] * a["j"] * a["k"])
                * (e["i"] * e["l"] * d["i"] * d["l"] - e["j"] * e["k"] * d["j"] * d["k"]))
    if det != factored:
        return False
    coeff = det.coefficient_of({"e_i": 1, "e_j": 1, "e_k": 1, "e_l": 1})
    closed = -(a["i"] * a["l"] * d["j"] * d["k"] + a["j"] * a["k"] * d["i"] * d["l"])
    return coeff == closed


_BR_VARS = tuple(f"{base}_{s}" for base in ("a", "d", "ap", "dp") for s in "ijkl")


def verify_bracket_identity() -> bool:
    """Verify the bracket combination expressing the quadrilinear
    difference through pairwise-bracket differences.

    With P_pq = a_p d_q + a_q d_p (the pairing of upper-triangular
    matrices), P'_pq its primed copy and D_pq = P_pq - P'_pq, the
    identity

        2*(a_i a_l d_j d_k + a_j a_k d_i d_l - primed copy)
          = P_ij D_kl + P'_kl D_ij + P_ik D_jl
            + P'_jl D_ik - P_il D_jk - P'_jk D_il

    holds in all sixteen symbols, so the quadrilinear invariants agree
    as soon as every pairing agrees.  The expansion behind it,

        P_ij P_kl + P_ik P_jl - P_il P_jk
          = 2*(a_i a_l d_j d_k + a_j a_k d_i d_l),

    is checked first.
    """
    vs = _BR_VARS
    a = {s: SparsePoly.var(vs, f"a_{s}") for s in "ijkl"}
    d = {s: SparsePoly.var(vs, f"d_{s}") for s in "ijkl"}
    ap = {s: SparsePoly.var(vs, f"ap_{s}") for s in "ijkl"}
    dp = {s: SparsePoly.var(vs, f"dp_{s}") for s in "ijkl"}

    def P(p, q):
        return a[p] * d[q] + a[q] * d[p]

    def Pp(p, q):
        return ap[p] * dp[q] + ap[q] * dp[p]

    def D(p, q):
        return P(p, q) - Pp(p, q)

    plain = a["i"] * a["l"] * d["j"] * d["k"] + a["j"] * a["k"] * d["i"] * d["l"]
    primed = ap["i"] * ap["l"] * dp["j"] * dp["k"] + ap["j"] * ap["k"] * dp["i"] * dp["l"]

    quad = P("i", "j") * P("k", "l") + P("i", "k") * P("j", "l") - P("i", "l") * P("j", "k")
    if quad != plain * 2:
        return False

    lhs = (plain - primed) * 2
    rhs = (P("i", "j") * D("k", "l") + Pp("k", "l") * D("i", "j")
           + P("i", "k") * D("j", "l") + Pp("j", "l") * D("i", "k")
           - P("i", "l") * D("j", "k") - Pp("j", "k") * D("i", "l"))
    return lhs == rhs
