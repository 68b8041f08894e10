from fractions import Fraction
from random import Random

import pytest
from hypothesis import assume, given, settings, strategies as st

from matsep import (CertificationError, ChartSingularityError, LeftMatrix,
                    MatrixTupleLR, Parameterization, PreconditionError,
                    RMatrix, UpperPair, builtin_claims, builtin_parameterization,
                    certify_builtin, certify_dimension, generators_lr,
                    is_stable_lr, jacobian, m_matrix, act_lr, separated_lr,
                    sl2_chart, verify_bracket_identity, verify_xi_identity)
from matsep.certify import (CERTIFIED, FAILED, LOWER_BOUND_ONLY, MAX_JACOBIAN_ENTRIES,
                            MAX_TRIALS)
from helpers import bareiss_rank, certify_all_trials, rand_fraction


def test_sl2_chart_examples():
    """The 2x2 chart is the l = 2 chart [[1+a, b], [c, (1+bc)/(1+a)]], in
    values and in dual partials."""
    from matsep.certify import _sl_chart_g
    from matsep.dual import seed_point
    assert sl2_chart(0, 0, 0) == RMatrix.identity(2)
    rng = Random(808)
    for _ in range(1000):
        a, b, c = (rand_fraction(rng, -6, 6) for _ in range(3))
        if 1 + a == 0:
            continue
        assert sl2_chart(a, b, c).det() == 1
        assert sl2_chart(a, b, c) == RMatrix.from_rows([[1 + a, b], [c, (1 + b * c) / (1 + a)]])
        da, db, dc = seed_point([a, b, c])
        assert _sl_chart_g(2, [da, db, dc]) == [[1 + da, db], [dc, (1 + db * dc) / (1 + da)]]
    with pytest.raises(ChartSingularityError):
        sl2_chart(-1, 2, 3)


def test_chart_action_preserves_generators():
    rng = Random(809)
    from matsep import GroupElementLR
    done = 0
    while done < 20:
        n = rng.randint(1, 4)
        A = MatrixTupleLR.from_entries(
            [[rand_fraction(rng) for _ in range(4)] for _ in range(n)])
        params = [rand_fraction(rng, -3, 3) for _ in range(6)]
        if params[0] == -1 or params[3] == -1:
            continue
        g = GroupElementLR(sl2_chart(*params[:3]), sl2_chart(*params[3:]))
        assert generators_lr(act_lr(g, A)) == generators_lr(A)
        done += 1


def test_jacobian_of_parameterization():
    m = RMatrix.from_rows([[2, 1], [0, 3], [1, 1]])
    p = Parameterization(
        name="linear", param_count=2, output_count=3,
        evaluator=lambda ps: [2 * ps[0] + ps[1], 3 * ps[1], ps[0] + ps[1]])
    assert jacobian(p, [5, -7]) == m
    with pytest.raises(PreconditionError):
        jacobian(p, [1, 2, 3])


def test_constant_map_certifies_zero():
    p = Parameterization("const", 3, 2, lambda ps: [Fraction(4), Fraction(0)])
    cert = certify_dimension(p, 0, trials=3, seed=1)
    assert cert.verdict == CERTIFIED
    assert cert.achieved_rank == 0


def test_constant_map_fails_positive_claim():
    p = Parameterization("const", 3, 2, lambda ps: [Fraction(4), Fraction(0)])
    cert = certify_dimension(p, 2, trials=3, seed=1)
    assert cert.verdict == FAILED


def test_rank_above_claim_is_a_hard_failure():
    p = builtin_parameterization("gamma", n=4)
    with pytest.raises(CertificationError):
        certify_dimension(p, claimed=5, trials=5, seed=0)


def test_certificates_reproducible_from_witness():
    """The full chart Jacobian at the recorded witness reaches the
    achieved rank, for every builtin claim."""
    for l, n in ((None, 4), (None, 5), (2, 4), (3, 5)):
        for row in builtin_claims(n, l):
            p = builtin_parameterization(row.name, n, l)
            cert = certify_dimension(p, claimed=row.claimed, trials=3, seed=7)
            assert cert.verdict == CERTIFIED, row.name
            assert jacobian(p, list(cert.witness_point)).rank() == cert.achieved_rank
            again = certify_dimension(p, claimed=row.claimed, trials=3, seed=7)
            assert again == cert


def test_user_parameterization_named_gamma_is_certified_from_its_evaluator():
    """The trial matrix follows the declaration, not the name: a user map
    named like a builtin grouped claim is differentiated through its own
    evaluator, at the sample with its group coordinates set to 0.  Its
    3x2 Jacobian reaches rank 2 in the first trial, which ends the budget."""
    seen = []

    def evaluator(ps):
        seen.append(ps[1].value)
        return [ps[0] * ps[1], ps[0] + ps[1], 2 * ps[0]]
    p = Parameterization("gamma", 2, 3, evaluator, group_coords=(1,))
    cert = certify_dimension(p, 2, trials=3, seed=0)
    assert (cert.verdict, cert.achieved_rank) == (CERTIFIED, 2)
    assert seen == [0]


def test_user_parameterization_below_its_rank_bound_runs_every_trial_at_group_zero():
    """A user map of rank 1 < min(3, 2) runs its whole budget, each trial
    at the sample with its group coordinate set to 0."""
    seen = []

    def evaluator(ps):
        seen.append(ps[1].value)
        s = ps[0] + ps[1]
        return [s, 2 * s, 3 * s]
    p = Parameterization("gamma", 2, 3, evaluator, group_coords=(1,))
    cert = certify_dimension(p, 1, trials=3, seed=0)
    assert (cert.verdict, cert.achieved_rank) == (CERTIFIED, 1)
    assert seen == [0, 0, 0]


def test_all_guards_singular_reports():
    p = Parameterization(
        "singular", 2, 1, lambda ps: [ps[0]],
        chart_guards=(lambda pt: Fraction(0),))
    with pytest.raises(ChartSingularityError):
        certify_dimension(p, 1, trials=2, seed=0)


def test_builtin_claims_tables():
    rows = {r.name: r.claimed for r in builtin_claims(n=5)}
    assert rows["gamma"] == 26
    assert rows["sat-cr"] == rows["sat-cc"] == 25
    assert rows["gamma-sat-cr"] == 23
    assert rows["sat-cr-cc"] == 21
    assert rows["gamma-cr"] == 19
    assert rows["cr-cc"] == 17

    left = {r.name: r.claimed for r in builtin_claims(n=4, l=3)}
    assert left["gamma-left"] == 20
    assert left["nullcone-pair-left"] == 20  # same dimension at n = l + 1
    left5 = {r.name: r.claimed for r in builtin_claims(n=5, l=3)}
    assert left5["nullcone-pair-left"] == 24 > left5["gamma-left"] == 23

    with pytest.raises(PreconditionError):
        builtin_claims(n=3)
    with pytest.raises(PreconditionError):
        builtin_claims(n=2, l=3)


def test_certify_builtin_filter_and_unknown():
    certs = certify_builtin(n=4, names=["gamma"], trials=2, seed=0)
    assert len(certs) == 1 and certs[0].verdict == CERTIFIED
    with pytest.raises(PreconditionError):
        certify_builtin(n=4, names=["nope"], trials=1, seed=0)


def _image_pair(param, point, n):
    values = param.evaluator(point)
    first = MatrixTupleLR.from_entries(
        [values[4 * i:4 * i + 4] for i in range(n)])
    second = MatrixTupleLR.from_entries(
        [values[4 * n + 4 * i:4 * n + 4 * i + 4] for i in range(n)])
    return first, second


def test_saturated_pattern_images_never_separated():
    rng = Random(810)
    n = 4
    for name in ("sat-cr", "sat-cc"):
        param = builtin_parameterization(name, n=n)
        for _ in range(100):
            point = [Fraction(rng.randint(-9, 9)) for _ in range(param.param_count)]
            if any(g(point) == 0 for g in param.chart_guards):
                continue
            first, second = _image_pair(param, point, n)
            assert not separated_lr(first, second).separated


def test_graph_pattern_images_rank_at_most_three():
    rng = Random(811)
    n = 4
    param = builtin_parameterization("gamma-sat-cr", n=n)
    for _ in range(100):
        point = [Fraction(rng.randint(-9, 9)) for _ in range(param.param_count)]
        if any(g(point) == 0 for g in param.chart_guards):
            continue
        first, second = _image_pair(param, point, n)
        assert not separated_lr(first, second).separated
        rep1 = is_stable_lr(first)
        rep2 = is_stable_lr(second)
        assert not rep1.stable and not rep2.stable
        pair = UpperPair(act_lr(rep1.triangularizer, first),
                         act_lr(rep2.triangularizer, second))
        assert m_matrix(pair).rank() <= 3


def test_z_images_satisfy_defining_rank_conditions():
    rng = Random(812)
    for l, n in ((2, 4), (3, 5), (4, 6)):
        param = builtin_parameterization("z-left", n=n, l=l)
        for _ in range(30):
            point = [Fraction(rng.randint(-9, 9)) for _ in range(param.param_count)]
            values = param.evaluator(point)
            rows = [values[r * n:(r + 1) * n] for r in range(2 * l)]
            top = RMatrix.from_rows(rows[:l])
            bottom = RMatrix.from_rows(rows[l:])
            assert top.rank() <= l - 1
            assert bottom.rank() <= l - 1
            assert top.vstack(bottom).rank() <= l


def test_nullcone_left_images_are_nullcone():
    rng = Random(813)
    param = builtin_parameterization("nullcone-left", n=5, l=3)
    for _ in range(30):
        point = [Fraction(rng.randint(-9, 9)) for _ in range(param.param_count)]
        values = param.evaluator(point)
        rows = [values[r * 5:(r + 1) * 5] for r in range(3)]
        from matsep import nullcone_member_left
        assert nullcone_member_left(LeftMatrix(RMatrix.from_rows(rows)))


def test_identities():
    assert verify_xi_identity()
    assert verify_bracket_identity()


@pytest.mark.parametrize("l,n", [(None, 4), (None, 5), (None, 6),
                                 (3, 5), (4, 6), (4, 8)])
def test_builtin_jacobian_ranks_match_eager_bareiss(l, n):
    """Three seeded integer sample points per builtin claim, drawn as
    certify draws them."""
    rng = Random(816 + 10 * n + (l or 0))
    for row in builtin_claims(n, l):
        param = builtin_parameterization(row.name, n, l)
        points = 0
        while points < 3:
            point = [Fraction(rng.randint(-20, 20)) for _ in range(param.param_count)]
            if any(guard(point) == 0 for guard in param.chart_guards):
                continue
            points += 1
            jac = jacobian(param, point)
            assert jac.rank() == bareiss_rank(jac)


def test_gmul_sums_from_the_first_product(monkeypatch):
    from matsep import DualScalar
    from matsep.certify import _gmul

    def no_int_operand(self, other):
        raise AssertionError(f"{other!r} + dual")
    monkeypatch.setattr(DualScalar, "__radd__", no_int_operand)
    values = [[1, 2, 3], [4, 5, 6]]
    x = [[DualScalar.variable(v, 3 * r + k, 6) for k, v in enumerate(row)]
         for r, row in enumerate(values)]
    y = [[Fraction(1, 2), 2], [3, Fraction(-4, 3)], [5, 7]]
    product = _gmul(x, y)
    assert [[e.value for e in row] for row in product] == [
        [sum(v * y[k][c] for k, v in enumerate(row)) for c in range(2)] for row in values]
    assert product[1][0].partials == (0, 0, 0, Fraction(1, 2), 3, 5)


@pytest.mark.parametrize("l,n", [(2, 3), (3, 5), (4, 6)])
def test_left_evaluators_never_add_a_dual_to_int_zero(monkeypatch, l, n):
    from matsep import DualScalar
    add = DualScalar.__add__

    def checked_add(self, other):
        if type(other) is int and other == 0:
            raise AssertionError("dual added to int 0")
        return add(self, other)
    monkeypatch.setattr(DualScalar, "__add__", checked_add)
    monkeypatch.setattr(DualScalar, "__radd__", checked_add)
    rng = Random(l * 100 + n)
    for row in builtin_claims(n, l):
        param = builtin_parameterization(row.name, n, l)
        point = [Fraction(rng.randint(2, 9)) for _ in range(param.param_count)]
        assert jacobian(param, point).rank() <= row.claimed


# -- ranks at the identity of the group charts --------------------------------
# certify takes each rank at the sample with its group-chart coordinates
# set to 0, from a matrix built off the base map that must equal the full
# chart Jacobian there; the full chart Jacobian at the sample itself is
# the rank oracle.

_GROUPED_SIZES = [(None, n) for n in range(4, 8)] + [(2, 4), (3, 3), (3, 5), (4, 6), (4, 8), (5, 7)]
_GROUPED = [(l, n, row.name) for l, n in _GROUPED_SIZES for row in builtin_claims(n, l)
            if builtin_parameterization(row.name, n, l).group_coords]


def _at_identity(param, point):
    """The point with its group coordinates set to a 0 of its own type."""
    group = set(param.group_coords)
    return [type(x)(0) if i in group else x for i, x in enumerate(point)]


def _block_reduced(orbit, at, jac):
    """`jac`'s integer rows with each repeat of a base block taken minus
    the rows of that block's first output."""
    nr, nc = orbit.shape
    sizes = [len(mats) * nr * nc for mats in orbit.base(at)]
    rows, scales = jac._integer_rows()[0], jac._scales
    first, out, start = {}, [], 0
    for src, _, _ in orbit.blocks:
        block = range(start, start + sizes[src])
        start += sizes[src]
        if src in first:
            assert [scales[r] for r in block] == [scales[r] for r in first[src]]
            out += [[a - b for a, b in zip(rows[r], rows[f])] for r, f in zip(block, first[src])]
        else:
            first[src] = block
            out += [rows[r] for r in block]
    return out


def _assert_trial_matrix_is_the_chart_jacobian(param, point):
    """certify's matrix at the moved integer sample is `jacobian` there
    with each repeated base block's first-output rows subtracted, integer
    rows and scales alike, and has the full chart rank at the sample."""
    at = _at_identity(param, point)
    built, oracle = param.orbit.identity_jacobian(at), jacobian(param, at)
    assert built._integer_rows()[0] == _block_reduced(param.orbit, at, oracle), param.name
    assert built._scales == oracle._scales, param.name
    assert built.rank() == jacobian(param, point).rank(), param.name


def test_grouped_claims_are_the_saturations_and_graph_closures():
    assert sorted({name for _, _, name in _GROUPED}) == [
        "gamma", "gamma-left", "gamma-sat-cr", "sat-cc", "sat-cr", "sat-cr-cc"]


@pytest.mark.parametrize("l,n", _GROUPED_SIZES)
def test_rank_at_identity_equals_full_rank_at_sample(l, n):
    """Three seeded samples per grouped claim, drawn as certify draws them."""
    rng = Random(817 + 10 * n + (l or 0))
    for row in builtin_claims(n, l):
        param = builtin_parameterization(row.name, n, l)
        if not param.group_coords:
            continue
        points = 0
        while points < 3:
            point = [rng.randint(-20, 20) for _ in range(param.param_count)]
            if any(guard(point) == 0 for guard in param.chart_guards):
                continue
            points += 1
            _assert_trial_matrix_is_the_chart_jacobian(param, point)


@settings(max_examples=60)
@given(st.sampled_from(_GROUPED), st.data())
def test_rank_at_identity_equals_full_rank_far_from_identity(case, data):
    """Chart coordinates in -1000..1000, the rest as certify draws them;
    samples on a chart singularity are skipped."""
    l, n, name = case
    param = builtin_parameterization(name, n, l)
    group = set(param.group_coords)
    chart = iter(data.draw(st.lists(st.integers(-1000, 1000),
                                    min_size=len(group), max_size=len(group))))
    base = iter(data.draw(st.lists(st.integers(-20, 20), min_size=param.param_count - len(group),
                                   max_size=param.param_count - len(group))))
    point = [next(chart if i in group else base) for i in range(param.param_count)]
    assume(all(guard(point) != 0 for guard in param.chart_guards))
    _assert_trial_matrix_is_the_chart_jacobian(param, point)


def _polynomial_base(ps):
    """One base block of two 2x2 matrices, polynomial in three parameters,
    so its Jacobian D is not the identity."""
    return ([[[ps[0] * ps[1], ps[0] + ps[2]], [ps[1] * ps[2], ps[0]]],
             [[ps[2] * ps[2], ps[1]], [ps[0] - ps[1], ps[0] * ps[2]]]],)


@pytest.mark.parametrize("blocks", [((0, None, None), (0, 3, 6)), ((0, 3, None), (0, None, 6))],
                         ids=["chart-free-first", "charted-first"])
def test_user_orbit_repeating_a_polynomial_block(blocks):
    """A user-declared orbit whose repeated base block is a polynomial map:
    each trial's rank is the rank of the full chart Jacobian at its sample,
    and the built matrix is that Jacobian at the moved sample with the
    repeat's first-output rows subtracted, entry for entry."""
    from matsep.certify import Orbit, _orbit_param
    param = _orbit_param("user", 3, 16, Orbit(_polynomial_base, (2, 2), blocks))
    assert param.group_coords == tuple(range(3, 9))
    for seed in range(12):
        cert = certify_dimension(param, param.param_count, trials=1, seed=seed)
        point = [int(x) for x in cert.witness_point]
        assert cert.achieved_rank == jacobian(param, point).rank() > 3
        _assert_trial_matrix_is_the_chart_jacobian(param, point)


@pytest.mark.parametrize("l,n", [(None, 4), (3, 3), (4, 6)])
def test_grouped_trials_evaluate_no_chart(l, n, monkeypatch):
    """Every grouped claim certifies, with the same certificate, while
    evaluating a chart raises."""
    import matsep.certify as certify
    grouped = [row for row in builtin_claims(n, l)
               if builtin_parameterization(row.name, n, l).orbit]
    expected = [certify_dimension(builtin_parameterization(row.name, n, l), row.claimed, 2, 3)
                for row in grouped]

    def no_chart(*_):
        raise AssertionError("a grouped trial evaluated a chart")
    monkeypatch.setattr(certify, "_sl_chart_g", no_chart)
    assert [certify_dimension(builtin_parameterization(row.name, n, l), row.claimed, 2, 3)
            for row in grouped] == expected
    assert all(cert.verdict == CERTIFIED for cert in expected)


def _flat_pairs(pairs, point):
    first, second = pairs(point)
    return [e for mats in (first, second) for m in mats for row in m for e in row]


@pytest.mark.parametrize("l,n", _GROUPED_SIZES)
def test_group_coords_are_the_charts_and_zero_is_the_identity(l, n):
    """At the moved sample every chart guard reads 1 and the group acts
    as the identity: a graph closure outputs (A, A) and a saturation its
    unsaturated pattern pairs, both read at the unmoved sample."""
    from matsep.certify import (_cc_pair_eval, _cr_cc_pair_eval, _cr_pair_eval,
                                _span_cr_pair_eval)
    saturated = {"sat-cr": _cr_pair_eval, "sat-cc": _cc_pair_eval,
                 "gamma-sat-cr": _span_cr_pair_eval, "sat-cr-cc": _cr_cc_pair_eval}
    rng = Random(818 + 10 * n + (l or 0))
    for _, _, name in (c for c in _GROUPED if c[:2] == (l, n)):
        param = builtin_parameterization(name, n, l)
        point = [Fraction(rng.randint(1, 20)) for _ in range(param.param_count)]
        at = _at_identity(param, point)
        assert [guard(at) for guard in param.chart_guards] == [1] * len(param.chart_guards)
        moved = param.evaluator(at)
        if name in saturated:
            assert moved == _flat_pairs(saturated[name](n)[0], point), name
        else:
            half = param.output_count // 2
            base = param.evaluator(point)[:half]
            assert moved == base + base, name


# -- the trial budget -----------------------------------------------------------
# certify stops its trials once a rank reaches min(rows, cols) of the trial
# Jacobian; `certify_all_trials` runs the whole budget, and both must give
# the same certificate or raise the same exception.

_BUDGET_SIZES = [(None, 4), (None, 5), (2, 4), (3, 5), (4, 6)]
_BUDGET_CLAIMS = [(l, n, row.name, row.claimed) for l, n in _BUDGET_SIZES
                  for row in builtin_claims(n, l)]


def _outcomes_agreeing_with_every_trial(param, claimed):
    """The verdicts and exception types over seeds 0-4 and budgets 1-5,
    each asserted to be the one the all-trials loop gives."""
    outcomes = set()
    for seed in range(5):
        for trials in range(1, 6):
            try:
                expected = certify_all_trials(param, claimed, trials, seed)
            except (CertificationError, PreconditionError) as exc:
                with pytest.raises((CertificationError, PreconditionError)) as info:
                    certify_dimension(param, claimed, trials, seed)
                assert type(info.value) is type(exc), (param.name, seed, trials)
                outcomes.add(type(exc))
                continue
            assert certify_dimension(param, claimed, trials, seed) == expected, (
                param.name, seed, trials)
            outcomes.add(expected.verdict)
    return outcomes


@pytest.mark.parametrize("l,n,name,claimed", _BUDGET_CLAIMS,
                         ids=[f"{l}-{n}-{name}" for l, n, name, _ in _BUDGET_CLAIMS])
def test_builtin_certificates_match_the_all_trials_loop(l, n, name, claimed):
    param = builtin_parameterization(name, n, l)
    assert _outcomes_agreeing_with_every_trial(param, claimed) == {CERTIFIED}


_CONSTANT = Parameterization("const", 3, 2, lambda ps: [Fraction(4), Fraction(0)])
_DEFICIENT = Parameterization(
    "deficient", 3, 3, lambda ps: [ps[0] + ps[1], ps[1] + ps[2], ps[0] + 2 * ps[1] + ps[2]])
_LINEAR = Parameterization(
    "linear", 2, 3, lambda ps: [2 * ps[0] + ps[1], 3 * ps[1], ps[0] + ps[1]])
_X0 = Random(0).randint(-20, 20)   # the first coordinate of seed 0's first sample
# rank 1 where x = x0, so at seed 0's first sample only, else 2
_DEGENERATE_FIRST = Parameterization(
    "degenerate-first", 2, 2, lambda ps: [ps[0], (ps[0] - _X0) * ps[1]])


@pytest.mark.parametrize("param,claimed,outcomes", [
    (_CONSTANT, 0, {CERTIFIED}), (_CONSTANT, 2, {FAILED}), (_DEFICIENT, 2, {CERTIFIED}),
    (_LINEAR, 3, {LOWER_BOUND_ONLY}), (_LINEAR, 1, {CertificationError}),
    (_DEGENERATE_FIRST, 1, {CERTIFIED, CertificationError})],
    ids=["constant-0", "constant-2", "deficient", "above-bound", "below-rank",
         "exceeded-after-a-first-trial-at-the-claim"])
def test_user_certificates_match_the_all_trials_loop(param, claimed, outcomes):
    assert _outcomes_agreeing_with_every_trial(param, claimed) == outcomes


def test_a_stopped_budget_never_draws_a_later_singular_trial():
    """The one outcome the stop changes: a map whose chart guard vanishes
    everywhere but at the first sample of trial 0 reaches its rank bound
    there, so trial 1, whose samples would all be singular, is never drawn."""
    rng = Random(0)
    first = [rng.randint(-20, 20) for _ in range(2)]
    p = Parameterization("lucky", 2, 2, lambda ps: [ps[0], ps[1]],
                         chart_guards=(lambda pt: Fraction(list(pt) == first),))
    with pytest.raises(ChartSingularityError):
        certify_all_trials(p, 2, trials=2, seed=0)
    cert = certify_dimension(p, 2, trials=2, seed=0)
    assert (cert.verdict, cert.trials, cert.witness_point) == (
        CERTIFIED, 2, tuple(map(Fraction, first)))


def test_sample_point_draws_what_randint_draws():
    """The written-down draw is randint(-20, 20)'s, for seeds 0-999 and
    1 to 60 coordinates: a point of c coordinates is the first c draws."""
    from matsep.certify import _sample_point
    params = [Parameterization("free", c, c, list) for c in range(1, 61)]
    for s in range(1000):
        rng = Random(s)
        want = [rng.randint(-20, 20) for _ in range(60)]
        for c, param in enumerate(params, 1):
            assert _sample_point(param, Random(s)) == want[:c], (s, c)


def _counted_samples(monkeypatch) -> list:
    import matsep.certify as certify
    calls, draw = [], certify._sample_point

    def counted(param, rng):
        calls.append(param.name)
        return draw(param, rng)
    monkeypatch.setattr(certify, "_sample_point", counted)
    return calls


@pytest.mark.parametrize("l,n,name", [(None, 4, "gamma"), (None, 5, "cr-cc"),
                                      (3, 5, "gamma-left"), (3, 5, "nullcone-left"),
                                      (4, 6, "nullcone-pair-left"), (2, 4, "z-left")])
def test_a_first_trial_at_the_rank_bound_draws_one_sample(monkeypatch, l, n, name):
    claimed = {row.name: row.claimed for row in builtin_claims(n, l)}[name]
    calls = _counted_samples(monkeypatch)
    cert = certify_dimension(builtin_parameterization(name, n, l), claimed, trials=5, seed=0)
    assert (cert.verdict, cert.trials, calls) == (CERTIFIED, 5, [name])


def test_a_saturation_at_its_claim_below_the_bound_draws_every_trial(monkeypatch):
    """sat-cr at n = 4 reaches its claim 21 in trial 1, below the bound
    min(32, 29); the later trials still run, each able to exceed the claim."""
    param = builtin_parameterization("sat-cr", n=4)
    assert certify_all_trials(param, 21, trials=1).achieved_rank == 21
    calls = _counted_samples(monkeypatch)
    cert = certify_dimension(param, 21, trials=5, seed=0)
    assert (cert.verdict, len(calls)) == (CERTIFIED, 5)


@pytest.mark.parametrize("l,n", [(None, 100), (10, 40)])
def test_the_jacobian_limit_admits_every_builtin_claim(l, n):
    for row in builtin_claims(n, l):
        param = builtin_parameterization(row.name, n, l)
        assert param.output_count * param.param_count <= MAX_JACOBIAN_ENTRIES, row.name


@pytest.mark.parametrize("l,n,name", [(None, 100_000, "gamma"), (None, 354, "gamma"),
                                      (10, 10**9, "nullcone-pair-left")])
def test_an_oversize_jacobian_is_refused_before_any_sample(monkeypatch, l, n, name):
    param = builtin_parameterization(name, n, l)
    calls = _counted_samples(monkeypatch)
    limit = f"exceeds the limit of {MAX_JACOBIAN_ENTRIES} entries"
    with pytest.raises(PreconditionError, match=limit):
        certify_dimension(param, 1, trials=1, seed=0)
    assert calls == []


def test_the_trial_limit_admits_its_count_and_refuses_one_more_before_any_sample(monkeypatch):
    """A rank-one map into two coordinates never reaches its bound, so it
    runs every trial: MAX_TRIALS of them, or none when one more is asked."""
    p = Parameterization("diagonal", 2, 2, lambda ps: [ps[0], ps[0]])
    calls = _counted_samples(monkeypatch)
    cert = certify_dimension(p, 1, trials=MAX_TRIALS, seed=0)
    assert (cert.verdict, cert.trials, len(calls)) == (CERTIFIED, MAX_TRIALS, MAX_TRIALS)
    calls.clear()
    with pytest.raises(PreconditionError,
                       match=f"^{MAX_TRIALS + 1} trials exceed the limit of {MAX_TRIALS}$"):
        certify_dimension(p, 1, trials=MAX_TRIALS + 1, seed=0)
    assert calls == []
