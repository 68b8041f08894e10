"""Seeded input documents and ground-truth checks for the three workloads.

Every op is one ``matsep`` command line plus, for commands that read a
file, the JSON document it reads.  Each document is built so that the
right answer is known from its construction (an orbit pair is never
separated, a tuple conjugated from an upper-triangular one has
closed-form invariants, a certificate reaches the formula dimension),
and each op carries a check of the ``result`` section against that
answer.  The arithmetic here is plain ``Fraction`` code that shares
nothing with ``matsep``, so the checks are independent of the program
under test.

The same (workload, seed) always yields byte-identical documents; the
program only ever sees the documents, never the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction as F
from itertools import combinations
from math import comb
from typing import Callable, List, Optional

Check = Callable[[dict], Optional[str]]


@dataclass(frozen=True)
class Op:
    """One command: ``argv`` with ``"{doc}"`` standing for the fixture path."""

    label: str
    argv: tuple
    doc: Optional[dict]
    exit_code: int
    check: Optional[Check]

    @property
    def command(self) -> str:
        return self.argv[0]


# -- exact helpers (independent of matsep) ------------------------------------


def fmt(x) -> str:
    x = F(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def small(rng: random.Random, nonzero: bool = False) -> F:
    """|numerator| <= 9, denominator in {1, 2, 3}."""
    while True:
        x = F(rng.randint(-9, 9), rng.choice((1, 2, 3)))
        if x or not nonzero:
            return x


def mul2(X, Y):
    a, b, c, d = X
    e, f, g, h = Y
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def det2(X):
    return X[0] * X[3] - X[1] * X[2]


def inv_det1(X):
    a, b, c, d = X
    return (d, -b, -c, a)


def act2(g, mats):
    """g1 * X * g2^{-1} for every X."""
    g2i = inv_det1(g[1])
    return [mul2(mul2(g[0], X), g2i) for X in mats]


def pairing(X, Y):
    return (X[0] + X[3]) * (Y[0] + Y[3]) - (
        X[0] * Y[0] + X[1] * Y[2] + X[2] * Y[1] + X[3] * Y[3])


def sl2(rng: random.Random):
    """Determinant-one 2x2 matrix [[1, s], [0, 1]] [[1, 0], [t, 1]]."""
    s = F(rng.randint(-3, 3), rng.choice((1, 2)))
    t = F(rng.randint(-3, 3), rng.choice((1, 2)))
    return mul2((F(1), s, F(0), F(1)), (F(1), F(0), t, F(1)))


def group2(rng: random.Random):
    return (sl2(rng), sl2(rng))


def rank(rows) -> int:
    m = [list(map(F, r)) for r in rows]
    rk, ncols = 0, len(m[0]) if m else 0
    for c in range(ncols):
        piv = next((r for r in range(rk, len(m)) if m[r][c] != 0), None)
        if piv is None:
            continue
        m[rk], m[piv] = m[piv], m[rk]
        for r in range(rk + 1, len(m)):
            f = m[r][c] / m[rk][c]
            if f:
                m[r] = [x - f * y for x, y in zip(m[r], m[rk])]
        rk += 1
    return rk


def det(rows) -> F:
    m = [list(map(F, r)) for r in rows]
    n, out = len(m), F(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c] != 0), None)
        if piv is None:
            return F(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            out = -out
        out *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            if f:
                m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return out


def matmul(A, B):
    return [[sum((a * b for a, b in zip(row, col)), F(0)) for col in zip(*B)] for row in A]


def sl_left(rng: random.Random, l: int):
    """Determinant-one l x l matrix: a product of elementary row additions."""
    g = [[F(int(r == c)) for c in range(l)] for r in range(l)]
    for _ in range(2 * l):
        i, j = rng.sample(range(l), 2)
        k = rng.choice((-2, -1, 1, 2))
        g[i] = [x + k * y for x, y in zip(g[i], g[j])]
    return g


def tuple_doc(mats) -> dict:
    return {"kind": "lr-tuple", "n": len(mats),
            "matrices": [[[fmt(X[0]), fmt(X[1])], [fmt(X[2]), fmt(X[3])]] for X in mats]}


def pair_doc(first, second) -> dict:
    return {"kind": "lr-pair", "n": len(first),
            "first": tuple_doc(first)["matrices"], "second": tuple_doc(second)["matrices"]}


def rows_json(rows):
    return [[fmt(x) for x in row] for row in rows]


def left_doc(rows) -> dict:
    return {"kind": "left-matrix", "l": len(rows), "n": len(rows[0]), "rows": rows_json(rows)}


def left_pair_doc(first, second) -> dict:
    return {"kind": "left-pair", "l": len(first), "n": len(first[0]),
            "first": rows_json(first), "second": rows_json(second)}


def expect(pairs) -> Check:
    """Check that each (key, value) of the result equals the expectation."""
    def check(result):
        for key, want in pairs:
            got = result.get(key)
            if got != want:
                return f"{key}: expected {want!r}, got {got!r}"
        return None
    return check


# -- two-sided action -------------------------------------------------------


def random_tuple(rng, n):
    return [tuple(small(rng) for _ in range(4)) for _ in range(n)]


def upper_closed_forms(U):
    """All generators of an upper-triangular tuple from the closed forms.

    det = a d, pairing = a_i d_j + a_j d_i and
    xi = -(a_i a_l d_j d_k + a_j a_k d_i d_l); conjugation keeps them.
    """
    n = len(U)
    a = [X[0] for X in U]
    d = [X[3] for X in U]
    out = [("det", [i + 1], a[i] * d[i]) for i in range(n)]
    out += [("bracket", [i + 1, j + 1], a[i] * d[j] + a[j] * d[i])
            for i, j in combinations(range(n), 2)]
    out += [("xi", [i + 1, j + 1, k + 1, l + 1],
             -(a[i] * a[l] * d[j] * d[k] + a[j] * a[k] * d[i] * d[l]))
            for i, j, k, l in combinations(range(n), 4)]
    return out


def random_upper(rng, n):
    return [(small(rng), small(rng), F(0), small(rng)) for _ in range(n)]


def only_direction_e1(U) -> bool:
    """True when e1 is the only common direction of the upper tuple U.

    det(U_i v, U_j v) = v2 * ((a_i d_j - a_j d_i) v1 + (b_i d_j - b_j d_i) v2),
    so a second common direction is a common root of these linear forms,
    which exists exactly when their coefficient rows have rank below 2.
    """
    return rank([(U[i][0] * U[j][3] - U[j][0] * U[i][3], U[i][1] * U[j][3] - U[j][1] * U[i][3])
                 for i, j in combinations(range(len(U)), 2)]) == 2


def not_separated(result):
    if result != {"separated": False, "witness": None, "values": None}:
        return f"expected a non-separated pair, got {result!r}"
    return None


def witness_check(kind, indices, x, y) -> Check:
    want = {"separated": True, "witness": {"kind": kind, "indices": indices},
            "values": [fmt(x), fmt(y)]}

    def check(result):
        return None if result == want else f"expected {want!r}, got {result!r}"
    return check


def sep_orbit_op(rng, n):
    A = random_tuple(rng, n)
    return Op(f"separate/orbit/n{n}", ("separate", "{doc}"),
              pair_doc(A, act2(group2(rng), A)), 0, not_separated)


def det_block_pair(rng, n):
    """(A, g.A') where A' scales one component: the first difference is det(A_k)."""
    while True:
        A = random_tuple(rng, n)
        k = rng.randrange(n)
        c = rng.choice((F(2), F(3), F(-2), F(1, 2), F(-2, 3)))
        if det2(A[k]) != 0:
            break
    B = list(A)
    B[k] = tuple(c * x for x in A[k])
    return A, act2(group2(rng), B), ("det", [k + 1], det2(A[k]), c * c * det2(A[k]))


def sep_det_op(rng, n):
    A, B, (kind, idx, x, y) = det_block_pair(rng, n)
    return Op(f"separate/det-block/n{n}", ("separate", "{doc}"), pair_doc(A, B), 0,
              witness_check(kind, idx, x, y))


def sep_bracket_op(rng, n):
    """(A, g.A') where A' moves one component alone: dets agree, brackets do not."""
    while True:
        A = random_tuple(rng, n)
        k = rng.randrange(n)
        B = list(A)
        B[k] = act2(group2(rng), [A[k]])[0]
        diff = next(((i, j) for i, j in combinations(range(n), 2)
                     if pairing(A[i], A[j]) != pairing(B[i], B[j])), None)
        if diff is not None:
            break
    i, j = diff
    return Op(f"separate/bracket-block/n{n}", ("separate", "{doc}"),
              pair_doc(A, act2(group2(rng), B)), 0,
              witness_check("bracket", [i + 1, j + 1], pairing(A[i], A[j]),
                            pairing(B[i], B[j])))


def pattern_pair(rng, n, pattern):
    """Upper pair phi_inverse(B) for a structured nullcone tuple B.

    B_i = [[-a_i, a'_i], [-d'_i, d_i]].  Row-proportional B gives the
    column pattern (flag CC), column-proportional B the row pattern
    (flag CR), and B proportional both ways all three flags.
    """
    while True:
        x = [small(rng, True) for _ in range(n)]
        y = [small(rng, True) for _ in range(n)]
        s, t = small(rng, True), small(rng, True)
        if pattern == "row-prop":
            B = [(x[i], y[i], t * x[i], t * y[i]) for i in range(n)]
            flags = ["CC"]
        elif pattern == "col-prop":
            B = [(x[i], s * x[i], y[i], s * y[i]) for i in range(n)]
            flags = ["CR"]
        else:
            B = [(x[i], s * x[i], t * x[i], t * s * x[i]) for i in range(n)]
            flags = ["CC", "CR", "GAMMA"]
        b = [small(rng) for _ in range(n)]
        b2 = [small(rng) for _ in range(n)]
        first = [(-Bi[0], b[i], F(0), Bi[3]) for i, Bi in enumerate(B)]
        second = [(Bi[1], b2[i], F(0), -Bi[2]) for i, Bi in enumerate(B)]
        a, d = [X[0] for X in first], [X[3] for X in first]
        a2, d2 = [X[0] for X in second], [X[3] for X in second]
        stacked = rank([a, b, d, a2, b2, d2])
        found = sorted(flag for flag, holds in (
            ("GAMMA", stacked <= 3), ("CR", rank([d2 + a, d + a2]) <= 1),
            ("CC", rank([a2 + a, d + d2]) <= 1)) if holds)
        # redraw the rare draws whose flags exceed the construction
        if found == flags:
            return first, second, B, b, b2, flags, stacked


def pattern_ops(rng, n, pattern, commands):
    first, second, B, b, b2, flags, stacked = pattern_pair(rng, n, pattern)
    doc = pair_doc(first, second)
    tag = f"{pattern}/n{n}"
    ops = []
    if "classify" in commands:
        ops.append(Op(f"classify/upper/{tag}", ("classify", "{doc}"), doc, 0,
                      expect([("flags", flags), ("upper_input", True)])))
    if "graph" in commands:
        ops.append(Op(f"graph/upper/{tag}", ("graph", "{doc}"), doc, 0,
                      expect([("member", "GAMMA" in flags), ("stacked_rank", stacked)])))
    if "phi" in commands:
        ops.append(Op(f"phi/upper/{tag}", ("phi", "{doc}"), doc, 0, expect([
            ("B", tuple_doc(B)["matrices"]), ("b", [fmt(v) for v in b]),
            ("b2", [fmt(v) for v in b2]), ("nullcone_member", True),
            ("separated", False)])))
    if "classify-any" in commands:
        # redraw the rare group elements that leave both tuples upper-triangular
        while True:
            conj_first, conj_second = act2(group2(rng), first), act2(group2(rng), second)
            if any(X[2] != 0 for X in conj_first + conj_second):
                break
        conj = pair_doc(conj_first, conj_second)
        ops.append(Op(f"classify/conjugated/{tag}", ("classify", "{doc}"), conj, 0,
                      expect([("flags", flags), ("upper_input", False)])))
    return ops


def invariants_lr_op(rng, n):
    U = random_upper(rng, n)
    want = [{"kind": k, "indices": idx, "value": fmt(v)} for k, idx, v in upper_closed_forms(U)]
    return Op(f"invariants/conjugated-upper/n{n}", ("invariants", "{doc}"),
              tuple_doc(act2(group2(rng), U)), 0,
              expect([("count", len(want)), ("values", want)]))


def classify_separated_op(rng, n):
    A, B, _ = det_block_pair(rng, n)
    return Op(f"classify/separated/n{n}", ("classify", "{doc}"), pair_doc(A, B), 3, None)


def lr_decide(rng) -> List[Op]:
    # n rotates across the ops of each command, so every command sees
    # every n and each sweep stays a few seconds long.  Op costs fall in
    # four clusters: one n = 5 separation (~25 ms), one n = 6 separation
    # (~75 ms), one n = 7 separation (~190 ms) and the n = 7
    # classifications (500-800 ms).  The counts put op_p50_ms in the
    # middle of the second cluster, and the n = 7 classifications run
    # about thirty times a run, so op_tail_ms lands inside that cluster
    # instead of on a single draw.
    ops = []
    for n in (5, 6, 5, 7):
        ops += [sep_orbit_op(rng, n), sep_det_op(rng, n), sep_bracket_op(rng, n)]
    patterns = ("row-prop", "col-prop", "double")
    for r, command in enumerate(("classify", "graph", "phi")):
        for p, pattern in enumerate(patterns):
            ops += pattern_ops(rng, 5 + (p + r) % 3, pattern, (command,))
    for pattern in patterns:
        ops += pattern_ops(rng, 7, pattern, ("classify-any",))
    ops += [invariants_lr_op(rng, 7), classify_separated_op(rng, 5),
            classify_separated_op(rng, 6)]
    return ops


# -- certification ------------------------------------------------------------

LR_CLAIMS = {
    "gamma": lambda n: 4 * n + 6,
    "sat-cr": lambda n: 4 * n + 5,
    "sat-cc": lambda n: 4 * n + 5,
    "gamma-sat-cr": lambda n: 3 * n + 8,
    "sat-cr-cc": lambda n: 3 * n + 6,
    "gamma-cr": lambda n: 3 * n + 4,
    "cr-cc": lambda n: 3 * n + 2,
}

LEFT_CLAIMS = {
    "gamma-left": lambda l, n: l * n + l * l - 1,
    "nullcone-left": lambda l, n: (l - 1) * (n + 1),
    "nullcone-pair-left": lambda l, n: 2 * (l - 1) * (n + 1),
    "z-left": lambda l, n: l * n + l * l - 2,
}


def certified(name, dim) -> Check:
    def check(result):
        certs = result.get("certificates")
        if not certs or len(certs) != 1:
            return f"expected one certificate, got {certs!r}"
        c = certs[0]
        if (c["name"], c["claimed"], c["achieved_rank"], c["verdict"]) != \
                (name, dim, dim, "CERTIFIED") or c["witness_point"] is None:
            return f"expected {name} CERTIFIED at {dim}, got {c!r}"
        return None
    return check


def certify(rng) -> List[Op]:
    """Five rounds of one certificate per builtin claim, then `identities`.

    Each claim's cost depends on its random sample points, so five draws
    per claim keep the median and the tail of a sweep from resting on a
    few draws.  A sweep takes about 35 reference seconds, so a run holds
    one, and its tail is the 11th-slowest of these draws.
    """
    ops = []
    for _ in range(5):
        ops += certify_round(rng)
    ops.append(Op("identities", ("identities",), None, 0,
                  expect([("xi_identity", True), ("bracket_identity", True)])))
    return ops


def certify_round(rng) -> List[Op]:
    ops = []
    for n in (4, 5, 6):
        for name, dim in LR_CLAIMS.items():
            seed = str(rng.randrange(10**6))
            ops.append(Op(f"certify/{name}/n{n}",
                          ("certify", "--n", str(n), "--claims", name,
                           "--trials", "5", "--seed", seed),
                          None, 0, certified(name, dim(n))))
    for l, n in ((3, 5), (4, 6), (4, 8)):
        for name, dim in LEFT_CLAIMS.items():
            seed = str(rng.randrange(10**6))
            ops.append(Op(f"certify/{name}/l{l}n{n}",
                          ("certify", "--l", str(l), "--n", str(n), "--claims", name,
                           "--seed", seed),
                          None, 0, certified(name, dim(l, n))))
    return ops


# -- small decisions ----------------------------------------------------------


def combination(rng, rows, nonzero=False):
    """A random linear combination of equal-length rows."""
    coeffs = [small(rng, nonzero) for _ in rows]
    return [sum((k * r[c] for k, r in zip(coeffs, rows)), F(0)) for c in range(len(rows[0]))]


def random_left(rng, l, n, rank_=None):
    """l x n matrix of the given rank (full by default), redrawn until exact."""
    want = min(l, n) if rank_ is None else rank_
    while True:
        base = [[small(rng) for _ in range(n)] for _ in range(want)]
        rows = base + [combination(rng, base) for _ in range(l - want)]
        if rank(rows) == want:
            return rows


def left_sep_orbit_op(rng, l, n):
    A = random_left(rng, l, n)
    return Op(f"separate/left-orbit/l{l}n{n}", ("separate", "{doc}"),
              left_pair_doc(A, matmul(sl_left(rng, l), A)), 0, not_separated)


def left_graph_op(rng, l, n, inside):
    """Nullcone pair; inside=True draws the second rows from a shared span."""
    A = random_left(rng, l, n, l - 1)
    if inside:
        extra = [small(rng) for _ in range(n)]
        span = A[:l - 1] + [extra]
        B = [combination(rng, span) for _ in range(l - 1)]
        B.append(combination(rng, B))
    else:
        B = random_left(rng, l, n, l - 1)
    B = matmul(sl_left(rng, l), B)
    if rank(B) >= l:
        raise AssertionError("second component must be rank-deficient")
    stacked = rank(A + B)
    necessary = stacked <= l
    exact = l in (2, 3)
    return Op(f"graph/left-{'inside' if inside else 'outside'}/l{l}n{n}",
              ("graph", "{doc}"), left_pair_doc(A, B), 0,
              expect([("necessary", necessary), ("member", necessary if exact else None),
                      ("note", None if exact else "necessary-only"),
                      ("stacked_rank", stacked)]))


def curve_op(rng, l, n, shape):
    """Conjugated SL-reducible pair with stacked rank <= l, zero bottom rows first."""
    zero = [F(0)] * n
    if l == 2:
        R1 = [[small(rng, True) for _ in range(n)], zero]
        R2 = [[small(rng, True) for _ in range(n)], zero]
    else:
        u = [[small(rng) for _ in range(n)] for _ in range(3)]
        r1, r2, s1, s2 = (combination(rng, u, True) for _ in range(4))
        c = small(rng, True)
        if shape == "second-collapsed":
            s2 = [c * x for x in s1]
        elif shape == "first-collapsed":
            r2 = [c * x for x in r1]
        R1, R2 = [r1, r2, zero], [s1, s2, zero]
    A = matmul(sl_left(rng, l), R1)
    B = matmul(sl_left(rng, l), R2)
    return Op(f"curve/{shape}/l{l}n{n}", ("curve", "{doc}"), left_pair_doc(A, B), 0,
              expect([("verified", True), ("limits_match", True)]))


def left_matrix_ops(rng, l, n, full):
    A = random_left(rng, l, n, None if full else l - 1)
    if not full:
        A = matmul(sl_left(rng, l), A)
    doc = left_doc(A)
    tag = f"{'full' if full else 'deficient'}/l{l}n{n}"
    minors = [{"columns": [c + 1 for c in cols],
               "value": fmt(det([[row[c] for c in cols] for row in A]))}
              for cols in combinations(range(n), l)]
    return [Op(f"stability/left-{tag}", ("stability", "{doc}"), doc, 0,
               expect([("stable", full)])),
            Op(f"nullcone/left-{tag}", ("nullcone", "{doc}"), doc, 0,
               expect([("member", not full)])),
            Op(f"invariants/left-{tag}", ("invariants", "{doc}"), doc, 0,
               expect([("count", comb(n, l)), ("minors", minors)]))]


def is_prime(m: int) -> bool:
    """Deterministic Miller-Rabin, exact for m < 3.4e12."""
    if m < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13):
        if m % p == 0:
            return m == p
    d, r = m - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in (2, 3, 5, 7, 11, 13):
        x = pow(a, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(r - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def prime_of_bits(rng, bits: int) -> int:
    """A prime in [2^(bits-1), 2^(bits-1) + 2^(bits-8))."""
    low = 1 << (bits - 1)
    while True:
        m = rng.randrange(low, low + (low >> 7)) | 1
        if is_prime(m):
            return m


def wide_direction_op(rng, n, bits):
    """g.U with U upper and g2 sending e1 to (p, q), p and q primes of ``bits`` bits.

    The common direction of g.U is exactly [p : q]; the reported
    triangularizer must send the tuple back to upper-triangular form.
    The rational-root search divides by trial up to sqrt(p) and sqrt(q);
    primes in a narrow range keep its cost the same for every seed,
    where a composite draw would multiply it by the divisor counts.
    """
    p = prime_of_bits(rng, bits)
    q = prime_of_bits(rng, bits)
    while q == p:
        q = prime_of_bits(rng, bits)
    U = random_upper(rng, n)
    # redraw the rare U with a second common direction, which the program may report instead
    while not only_direction_e1(U):
        U = random_upper(rng, n)
    g1 = sl2(rng)
    g2 = (F(p), F(0), F(q), F(1, p))
    A = act2((g1, g2), U)

    def check(result):
        if result.get("stable") is not False:
            return f"expected non-stable, got {result!r}"
        if result.get("common_direction") != [fmt(F(p, q)), "1"]:
            return f"expected direction {p}/{q}, got {result.get('common_direction')!r}"
        tri = result.get("triangularizer")
        if tri is None:
            return "missing triangularizer"
        h1 = tuple(F(x) for row in tri["g1"] for x in row)
        h2 = tuple(F(x) for row in tri["g2"] for x in row)
        if det2(h1) != 1 or det2(h2) != 1:
            return "triangularizer factors must have determinant 1"
        if any(X[2] != 0 for X in act2((h1, h2), A)):
            return "triangularizer does not make the tuple upper-triangular"
        return None
    return Op(f"stability/wide-direction/{bits}bit/n{n}", ("stability", "{doc}"), tuple_doc(A), 0, check)


def stable_tuple(rng, n):
    """g.(c*I, diag(1, r), [[0, 1], [s, 0]], ...): the first three share no
    direction (roots {e1, e2} versus v2^2 = s v1^2), so the tuple is stable."""
    c = small(rng, True)
    r = small(rng, True)
    while r == 1:
        r = small(rng, True)
    s = small(rng, True)
    core = [(c, F(0), F(0), c), (F(1), F(0), F(0), r), (F(0), F(1), s, F(0))]
    mats = core + random_tuple(rng, n - 3)
    rng.shuffle(mats)
    return act2(group2(rng), mats)


def lr_small_ops(rng, n):
    stable = tuple_doc(stable_tuple(rng, n))
    x = [small(rng, True) for _ in range(n)]
    y = [small(rng, True) for _ in range(n)]
    t = small(rng, True)
    nullcone = tuple_doc(act2(group2(rng), [(x[i], y[i], t * x[i], t * y[i]) for i in range(n)]))
    return [Op(f"stability/stable/n{n}", ("stability", "{doc}"), stable, 0,
               expect([("stable", True), ("common_direction", None),
                       ("triangularizer", None)])),
            Op(f"nullcone/stable/n{n}", ("nullcone", "{doc}"), stable, 0,
               expect([("member", False)])),
            Op(f"nullcone/row-prop/n{n}", ("nullcone", "{doc}"), nullcone, 0,
               expect([("member", True)]))]


def counts_ops(n, l=None):
    if l is None:
        dim = {1: 1, 2: 3}.get(n, 4 * n - 6)
        want = {"n": n, "dim": dim, "generators": (n**4 - 6 * n**3 + 23 * n**2 + 6 * n) // 24,
                "lower_bound": max(dim, 5 * n - 9)}
        return Op(f"counts/n{n}", ("counts", "--n", str(n)), None, 0,
                  expect(sorted(want.items())))
    dim = l * n - l * l + 1
    want = {"l": l, "n": n, "dim": dim, "generators": comb(n, l),
            "lower_bound": max(dim, (2 * l - 2) * n - 2 * (l * l - l))}
    return Op(f"counts/l{l}n{n}", ("counts", "--n", str(n), "--l", str(l)), None, 0,
              expect(sorted(want.items())))


def small_round(rng) -> List[Op]:
    ops = []
    for l, n in ((3, 5), (4, 6), (5, 7)):
        ops.append(left_sep_orbit_op(rng, l, n))
    for l, n in ((2, 5), (3, 6), (4, 7)):
        ops += [left_graph_op(rng, l, n, True), left_graph_op(rng, l, n, False)]
    ops += [curve_op(rng, 2, 8, "generic"), curve_op(rng, 2, 12, "generic")]
    for shape in ("generic", "second-collapsed", "first-collapsed"):
        ops.append(curve_op(rng, 3, 12, shape))
    for l, n in ((2, 6), (3, 6), (4, 7)):
        ops += left_matrix_ops(rng, l, n, True) + left_matrix_ops(rng, l, n, False)
    for n, bits in ((3, 16), (4, 20), (5, 24)):
        ops.append(wide_direction_op(rng, n, bits))
    for n in (3, 5):
        ops += lr_small_ops(rng, n)
    ops += [counts_ops(n) for n in (4, 7)] + [counts_ops(6, 3)]
    return ops


def small_decisions(rng) -> List[Op]:
    """Eight independent rounds of cheap ops, then one 36-bit direction.

    The rounds average the cost of a sweep over many draws.  The single
    wide direction (about 2^19 trial divisions) is the slowest op and
    runs about twenty times in a run, so op_tail_ms lands inside its
    cluster and tracks the cost of the rational-root search.
    """
    ops = []
    for _ in range(8):
        ops += small_round(rng)
    ops.append(wide_direction_op(rng, 4, 36))
    return ops


WORKLOADS = {
    "lr-decide": lr_decide,
    "certify": certify,
    "small-decisions": small_decisions,
}


def build(workload: str, seed: int) -> List[Op]:
    """The sweep of ops for a workload; identical for identical seeds."""
    rng = random.Random(f"matsep-bench/{workload}/{seed}")
    return WORKLOADS[workload](rng)
