import re
from fractions import Fraction
from itertools import count
from math import inf
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condreal import gadgets
from condreal import realfns as realfns_module
from condreal import terms as terms_module
from condreal.elementary import constant_fn, default_functions, uniform_from_rule
from condreal.gadgets import CORE, GadgetRegistry, constant, left, mu, pair, right
from condreal.naming import (
    NameTriple,
    NatFun,
    TripleStream,
    approx,
    constant_values,
    rational_name,
    recording,
    triple_reader,
    validate_name,
)
from condreal.realfns import (
    Ball,
    ProcOperator,
    BallCover,
    BudgetExhausted,
    ConditionalFn,
    Neighborhood,
    Reals,
    SpaceMismatch,
    TermOperator,
    UniformFn,
    apply_conditional,
    apply_conditional_at,
    apply_uniform,
    compose_conditional,
    dispatch_index,
    embed_uniform,
    find_parameter,
    glue_compact,
    identity,
    identity_uniform,
    joint,
    localize,
    _apply_ops,
    _constant,
    _Wire,
    _diagonal,
    _index,
    _lift,
    _patch,
    _reindex,
    _select,
    _slot,
    _subst,
    separation_violations,
)
from condreal.gadgets import ball_indicator
from condreal.elementary import OutsideDomain
from condreal.metric import (
    OrdinaryName,
    builtin_spaces,
    code_ball_indicator,
    make_discrete,
    make_mn,
    metric_axiom_violations,
    mn_code,
    mn_decode,
    mn_name,
    translate_conditional,
    translate_conditional_back,
    translate_uniform,
    translate_uniform_back,
    tuple_conditional,
    validate_ordinary_name,
)
from condreal.sampling import random_natfun, random_term
from condreal.suites import (
    COMPOSITES,
    _PARTS,
    add_one_fn,
    composite_check,
    double_fn,
    frozen_certificates,
    identity_fn,
    negate_fn,
    negate_term_fn,
    one_ball,
    three_ball_cover,
    three_ball_values,
    two_ball_cover,
    two_ball_values,
)
from condreal.terms import (
    Apply,
    ArityMismatch,
    Base,
    OperatorTerm,
    Proj,
    TermProgram,
    eval_term,
    parse_term,
    print_term,
    support_bound,
)

from conftest import assert_check, linear_scan

REGISTRY = default_functions()
RECIP = REGISTRY.get("recip").fn


def term_component(slot):
    return TermOperator(OperatorTerm(3, 1, Apply(slot, Proj(1))))


def abs_term_fn():
    f = Apply(1, Proj(1))
    g = Apply(2, Proj(1))
    spread = Base(
        CORE.get("conj"),
        (Base(CORE.get("monus"), (f, g)), Base(CORE.get("monus"), (g, f))),
    )
    zero = Base(constant(0), (Proj(1),))
    return UniformFn(
        1,
        TermOperator(OperatorTerm(3, 1, spread)),
        TermOperator(OperatorTerm(3, 1, zero)),
        term_component(3),
    )


def as_proc(op):
    # the same operator, no longer recognizable as a term
    return ProcOperator(op.arity, op.apply, "wrapped")


def agree(a, b, fns, ts=range(12)):
    fa, fb = a.apply(fns), b.apply(fns)
    return all(fa(t) == fb(t) for t in ts)


# ---------------------------------------------------------------------------
# application and embedding
# ---------------------------------------------------------------------------


def test_identity_uniform_is_term_backed_and_names_its_input():
    fn = identity_uniform()
    assert isinstance(fn.F, TermOperator)
    out = apply_uniform(fn, [rational_name(Fraction(-5, 3))])
    assert validate_name(out, Fraction(-5, 3), 100).passed


def test_negate_as_a_pure_term():
    out = apply_uniform(negate_term_fn(), [rational_name(Fraction(7, 4))])
    assert validate_name(out, Fraction(-7, 4), 100).passed


def test_abs_as_a_pure_term():
    for q in (Fraction(-2, 3), Fraction(0), Fraction(5, 2)):
        out = apply_uniform(abs_term_fn(), [rational_name(q)])
        assert validate_name(out, abs(q), 100).passed


def test_embed_uniform_certifies_at_zero():
    embedded = embed_uniform(double_fn())
    name = rational_name(Fraction(3, 2))
    assert find_parameter(embedded, [name], 10) == 0
    out = apply_conditional(embedded, [name], 10)
    assert validate_name(out, Fraction(3), 100).passed


def test_apply_rejects_wrong_argument_counts():
    from condreal.terms import ArityMismatch

    with pytest.raises(ArityMismatch):
        apply_uniform(double_fn(), [])
    with pytest.raises(ArityMismatch):
        find_parameter(RECIP, [], 10)


def test_budget_exhausted_carries_context():
    with pytest.raises(BudgetExhausted) as info:
        find_parameter(RECIP, [rational_name(0)], 25)
    assert info.value.budget == 25
    assert "25" in str(info.value)


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("case", COMPOSITES, ids=lambda case: f"{case[0]} after {case[1]}")
def test_composition_splits_and_validates(case):
    assert_check(composite_check(*case))


def test_known_composite_parameter_decomposition():
    composed = compose_conditional(RECIP, RECIP)
    name = rational_name(Fraction(2, 3))
    s = find_parameter(composed, [name], 1000)
    assert s == 11
    assert (left(s), right(s)) == (1, 3)


def test_composition_substitutes_a_binary_inner():
    composed = compose_conditional(RECIP, embed_uniform(REGISTRY.get("add").fn))
    names = [rational_name(Fraction(1, 3)), rational_name(Fraction(1, 6))]
    s = find_parameter(composed, names, 1000)
    assert s == linear_scan(composed.E, tuple(fn for name in names for fn in name), 1000) == 14
    out = apply_conditional_at(composed, names, s)
    assert validate_name(out, Fraction(2), 200).passed


def test_composition_checks_that_the_inner_values_lie_in_the_outer_domain():
    with pytest.raises(ArityMismatch) as info:
        compose_conditional(embed_uniform(REGISTRY.get("add").fn), RECIP)
    assert info.type is SpaceMismatch


def test_term_backed_composition_stays_term_backed():
    composed = compose_conditional(
        embed_uniform(negate_term_fn()), embed_uniform(identity_uniform())
    )
    assert isinstance(composed.E, TermOperator)
    assert isinstance(composed.F, TermOperator)
    name = rational_name(Fraction(-9, 5))
    out = apply_conditional(composed, [name], 100)
    assert validate_name(out, Fraction(9, 5), 200).passed


def test_a_300_fold_term_backed_negation_chain_composes_and_evaluates():
    negate = embed_uniform(negate_term_fn())
    chain = embed_uniform(identity_uniform())
    for _ in range(300):
        chain = compose_conditional(negate, chain)
    assert isinstance(chain.F, TermOperator)
    out = apply_conditional(chain, [rational_name(Fraction(-9, 5))], 100)
    assert validate_name(out, Fraction(-9, 5), 20).passed


def test_composition_is_associative_at_the_value_level():
    add_one = embed_uniform(add_one_fn())
    lhs = compose_conditional(compose_conditional(RECIP, RECIP), add_one)
    rhs = compose_conditional(RECIP, compose_conditional(RECIP, add_one))
    name = rational_name(Fraction(1))
    for composed in (lhs, rhs):
        out = apply_conditional(composed, [name], 100_000)
        assert validate_name(out, Fraction(2), 120).passed


# ---------------------------------------------------------------------------
# composite search: the diagonal walk against the linear scan
# ---------------------------------------------------------------------------


def _least_or_none(fn, names, budget):
    try:
        return find_parameter(fn, names, budget)
    except BudgetExhausted:
        return None


@pytest.mark.parametrize("case", COMPOSITES, ids=lambda case: f"{case[0]} after {case[1]}")
def test_a_catalogue_composite_search_returns_the_linear_scans_s(case):
    outer, inner, point, _value = case
    composite = compose_conditional(_PARTS[outer](), _PARTS[inner]())
    names = [rational_name(Fraction(point))]
    s = linear_scan(composite.E, tuple(names[0]), 10**6)
    assert find_parameter(composite, names, 10**6) == s
    assert find_parameter(composite, names, s + 1) == s
    with pytest.raises(BudgetExhausted):
        find_parameter(composite, names, s)


# the building blocks of random nestings, procedure- and term-backed
NESTED_PARTS = {
    "recip": RECIP,
    "negate": embed_uniform(negate_fn()),
    "negate-term": embed_uniform(negate_term_fn()),
    "double": embed_uniform(double_fn()),
    "identity": embed_uniform(identity_fn()),
    "identity-term": embed_uniform(identity_uniform()),
}
# a part, or an (outer, inner) pair of nestings: up to three compositions
# deep, recip drawn about half the time so that searches go past s = 0
nested_parts = st.one_of(st.just("recip"), st.sampled_from(sorted(NESTED_PARTS)))
nestings = st.recursive(nested_parts, lambda kids: st.tuples(kids, kids), max_leaves=4)
search_points = st.sampled_from(["0", "1", "-2/3", "3/2", "1/4", "-5"]).map(Fraction)


def _nested(tree, parts, compose):
    if isinstance(tree, str):
        return parts[tree]
    outer, inner = tree
    return compose(_nested(outer, parts, compose), _nested(inner, parts, compose))


@settings(max_examples=60, deadline=None)
@given(tree=nestings, point=search_points, budget=st.integers(0, 1500))
def test_a_nested_composite_search_returns_the_linear_scans_s(tree, point, budget):
    fn = _nested(tree, NESTED_PARTS, compose_conditional)
    name = rational_name(point)
    assert _least_or_none(fn, [name], budget) == linear_scan(fn.E, tuple(name), budget)


def _by_table(certifies):
    """A unary conditional function searched by a table, naming its parameter.

    ``certifies(s, x)`` says whether s certifies the argument whose f reads
    x at index 0; the value name's f is the parameter, so an outer table
    sees which inner parameter fed it.
    """
    cert = ProcOperator(3, lambda fns: NatFun(lambda s: 0 if certifies(s, fns[0](0)) else 1))
    zero = ProcOperator(4, lambda _fns: NatFun.constant(0))
    return ConditionalFn(1, cert, ProcOperator(4, lambda fns: fns[3]), zero, zero)


row = st.lists(st.booleans(), min_size=8, max_size=8)


@settings(max_examples=60, deadline=None)
@given(inner=row, outer=st.lists(row, min_size=8, max_size=8), budget=st.integers(0, 60))
def test_a_composite_search_over_tables_returns_the_linear_scans_s(inner, outer, budget):
    # the outer table depends on the inner parameter, so that several s on
    # one diagonal can certify and only the least may be returned
    fn = compose_conditional(
        _by_table(lambda s0, s1: s0 < 8 and s1 < 8 and outer[s0][s1]),
        _by_table(lambda s1, _x: s1 < 8 and inner[s1]),
    )
    name = rational_name(Fraction(1, 3))
    assert _least_or_none(fn, [name], budget) == linear_scan(fn.E, tuple(name), budget)


def test_a_composite_search_stops_at_the_same_budget_as_the_linear_scan():
    composite = compose_conditional(RECIP, RECIP)
    names = [rational_name(Fraction(1, 50))]
    with pytest.raises(BudgetExhausted):
        find_parameter(composite, names, 5050)
    assert find_parameter(composite, names, 5051) == 5050 == pair(0, 100)


def test_a_composite_search_probes_the_inner_certificate_once_per_diagonal():
    # every evaluation of the composite certificate reads its inner one once,
    # so inner reads count the walk's probes plus its candidates
    reads = 0

    def counted(fns):
        certificate = RECIP.E.apply(fns)

        def probe(s):
            nonlocal reads
            reads += 1
            return certificate(s)

        return NatFun(probe)

    inner = ConditionalFn(1, ProcOperator(3, counted), RECIP.F, RECIP.G, RECIP.H)
    composite = compose_conditional(RECIP, inner)
    s = find_parameter(composite, [rational_name(Fraction(1, 800))], 2 * 10**6)
    assert s == 1_280_800 == pair(0, 1600)
    assert reads <= 1602  # 1,601 inner probes on diagonals 0..1600, 1 candidate


def test_a_120_level_procedure_chain_evaluates_at_the_default_recursion_limit():
    # a read through the chain costs interpreter frames at every level
    neg = embed_uniform(REGISTRY.get("negate").fn)
    chain = neg
    for _ in range(119):
        chain = compose_conditional(neg, chain)
    third = TripleStream(lambda _t: (1, 0, 2), "third").name()  # read per index, not exact
    assert validate_name(apply_conditional(chain, [third], 10), Fraction(1, 3), 5).passed


@pytest.mark.parametrize("budget", [-3, True, 2.5, Fraction(10)])
def test_a_budget_that_is_not_a_natural_is_refused(budget):
    name = rational_name(Fraction(1, 2))
    for search in (find_parameter, apply_conditional, localize):
        with pytest.raises(ValueError, match="budget must be a natural"):
            search(RECIP, [name] if search is not localize else name, budget)
    with pytest.raises(ValueError, match="budget must be a natural"):
        find_parameter(compose_conditional(RECIP, RECIP), [name], budget)


@pytest.mark.parametrize(
    "q, order, s",
    [(Fraction(1, 3), lambda _fns, b: [b + 5], 15), (Fraction(1, 10), lambda _fns, b: count(), 10)],
    ids=["past the budget", "every natural"],
)
def test_a_search_order_past_the_budget_is_refused(q, order, s):
    # the least certifying s is 6 at 1/3 and 20 at 1/10; a budget of 10 ends the search
    fn = ConditionalFn(1, RECIP.E, *RECIP.values, order=order)
    with pytest.raises(ValueError, match=f"s = {s}, not below the budget 10"):
        find_parameter(fn, [rational_name(q)], 10)


# ---------------------------------------------------------------------------
# patching
# ---------------------------------------------------------------------------


def test_the_procedure_patch_freezes_a_prefix():
    inner = NatFun.identity()
    patched = _patch(1, 1, [100, 101, 102]).apply((inner,))
    assert [patched(t) for t in range(6)] == [100, 101, 102, 3, 4, 5]


def test_mu_chain_patch_agrees_with_the_case_definition():
    rng = Random(5)
    for k in range(5):
        for _ in range(12):
            anchor = random_natfun(rng)
            inner = random_natfun(rng)
            chain = _patch(1, 1, [anchor(t) for t in range(k)])
            assert isinstance(chain, TermOperator)
            direct = NatFun.patched(anchor, k, inner)
            chained = TermOperator(chain.term).apply((inner,))
            for t in range(12):
                assert chained(t) == direct(t)


# ---------------------------------------------------------------------------
# operator combinators: the term form and the procedure form agree
# ---------------------------------------------------------------------------
#
# A combinator over operators takes its form from them: the same term
# operators wrapped by ``as_proc`` give the procedure form.


def random_ops(rng, k, count):
    return [TermOperator(random_term(rng, k, 1, 3)) for _ in range(count)]


def test_combinators_without_operator_inputs_agree_in_both_forms():
    # a wire applied runs its closure; its term, applied as a plain term operator, agrees
    rng = Random(11)
    for _ in range(40):
        k = rng.randrange(1, 4)
        i = rng.randrange(1, k + 1)
        fns = tuple(random_natfun(rng) for _ in range(k))
        values = [rng.randrange(9) for _ in range(rng.randrange(5))]
        c = rng.randrange(9)
        through = rng.choice([CORE.get(name) for name in ("left", "right", "succ")])
        wires = [_slot(k, i), _lift(through, [_slot(k, i)]), _constant(k, c), _patch(k, i, values)]
        for wire in wires:
            assert isinstance(wire, TermOperator)
            assert wire.arity == wire.term.k == k
            assert agree(wire, TermOperator(wire.term), fns)


def test_combinators_over_operators_agree_in_both_forms():
    rng = Random(12)
    bases = [CORE.get(name) for name in ("conj", "left", "monus", "pair")]
    indices = [CORE.get(name) for name in ("left", "right", "succ")]
    for _ in range(60):
        k = rng.randrange(1, 4)
        fns = tuple(random_natfun(rng) for _ in range(k))
        base, index = rng.choice(bases), rng.choice(indices)
        ops = random_ops(rng, k, base.arity)
        outer = TermOperator(random_term(rng, 2, 1, 3))
        inners = random_ops(rng, k, 2)
        wide = TermOperator(random_term(rng, k + 1, 1, 3))
        procs = [as_proc(op) for op in ops]
        pairs = [
            (_lift(base, ops), _lift(base, procs)),
            (_subst([outer], inners)[0], _subst([as_proc(outer)], list(map(as_proc, inners)))[0]),
            (_reindex(ops[0], index), _reindex(procs[0], index)),
            (_diagonal(wide), _diagonal(as_proc(wide))),
        ]
        for term_form, proc_form in pairs:
            assert isinstance(term_form, TermOperator)
            assert isinstance(proc_form, ProcOperator)
            assert agree(term_form, proc_form, fns)


def test_combinators_over_wires_only_keep_the_wires():
    # a wire's application runs its build; its term, as a plain term operator,
    # agrees, and so does the procedure form of the same combinator
    rng = Random(14)
    bases = [CORE.get(name) for name in ("conj", "left", "monus", "pair")]
    indices = [CORE.get(name) for name in ("left", "right", "succ")]
    indicators = [ball_indicator((Fraction(-2),), Fraction(3)), ball_indicator((Fraction(3),), 2)]
    for _ in range(40):
        k = rng.randrange(1, 4)
        fns = tuple(random_natfun(rng) for _ in range(k))
        values = [rng.randrange(9) for _ in range(rng.randrange(5))]
        wires = [_slot(k, rng.randrange(1, k + 1)), _constant(k, rng.randrange(9)), _index(k)]
        wide = rng.choice([_slot(k + 1, k + 1), _patch(k + 1, rng.randrange(1, k + 2), values)])
        base, index = rng.choice(bases), rng.choice(indices)
        ops = [
            _index(k),
            _lift(base, [rng.choice(wires) for _ in range(base.arity)]),
            _reindex(rng.choice(wires), index),
            _diagonal(wide),
        ]
        for op in ops:
            assert isinstance(op, _Wire)
            assert op.arity == op.term.k == k
            assert agree(op, TermOperator(op.term), fns)
        # substitution and select make one wire per result, components of one build
        outers = [_slot(2, 2), _lift(base, [_slot(2, 1 + i % 2) for i in range(base.arity)])]
        inners = [rng.choice(wires) for _ in range(2)]
        edge, trio = rng.randrange(6), tuple(random_natfun(rng) for _ in range(3))
        branches = [[rng.choice([_slot(3, 1), _constant(3, 2), _index(3)]) for _ in indicators]]
        joints = [
            (fns, _subst(outers, inners), _subst(list(map(as_proc, outers)), inners)),
            (trio, _select(indicators, edge, branches * 2),
             _select(indicators, edge, [list(map(as_proc, row)) for row in branches * 2])),
        ]
        for args, wired, procs in joints:
            assert len({op.build for op in wired}) == 1
            assert [op.pick for op in wired] == list(range(len(wired)))
            for op, proc in zip(wired, procs):
                assert isinstance(op, _Wire)
                assert op.arity == op.term.k == len(args)
                assert agree(op, TermOperator(op.term), args)
                assert agree(op, proc, args)
    # a glued cover of wires is made of wires, and applies the select build
    glued = glue_compact(BallCover((Ball((0,), 1, identity_uniform()),), 3))
    assert all(isinstance(op, _Wire) for op in glued.values)


def test_select_agrees_in_both_forms():
    rng = Random(13)
    indicators = [ball_indicator((Fraction(-2),), Fraction(3)), ball_indicator((Fraction(3),), 2)]
    for _ in range(40):
        fns = tuple(random_natfun(rng) for _ in range(3))
        components = [random_ops(rng, 3, 2) for _ in range(2)]
        k = rng.randrange(6)
        term_forms = _select(indicators, k, components)
        proc_forms = _select(indicators, k, [list(map(as_proc, ops)) for ops in components])
        for term_form, proc_form in zip(term_forms, proc_forms):
            assert isinstance(term_form, TermOperator)
            assert isinstance(proc_form, ProcOperator)
            assert agree(term_form, proc_form, fns)


# ---------------------------------------------------------------------------
# constructions: one procedure-backed ingredient gives the procedure form
# ---------------------------------------------------------------------------


SAMPLE_POINTS = [Fraction(n, 7) for n in range(-9, 10, 3)]


def agree_on_names(a, b, points=SAMPLE_POINTS, ts=range(0, 60, 7)):
    for q in points:
        out_a = apply_uniform(a, [rational_name(q)])
        out_b = apply_uniform(b, [rational_name(q)])
        assert [approx(out_a, t) for t in ts] == [approx(out_b, t) for t in ts]


def test_composition_procedure_form_agrees_with_the_term_form():
    outer, inner = embed_uniform(negate_term_fn()), embed_uniform(abs_term_fn())
    term_form = compose_conditional(outer, inner)
    proc_form = compose_conditional(outer, ConditionalFn(1, inner.E, as_proc(inner.F), inner.G, inner.H))
    assert all(isinstance(op, TermOperator) for op in (term_form.E, term_form.F))
    assert all(isinstance(op, ProcOperator) for op in (proc_form.E, proc_form.F))
    rng = Random(14)
    for _ in range(20):
        fns = tuple(random_natfun(rng) for _ in range(3))
        assert agree(term_form.E, proc_form.E, fns, range(40))
        with_s = fns + (random_natfun(rng),)
        for a, b in zip((term_form.F, term_form.G, term_form.H), (proc_form.F, proc_form.G, proc_form.H)):
            assert agree(a, b, with_s)


def test_localization_procedure_form_agrees_with_the_term_form():
    composed = compose_conditional(embed_uniform(negate_term_fn()), embed_uniform(identity_uniform()))
    wrapped = ConditionalFn(1, composed.E, composed.F, as_proc(composed.G), composed.H)
    at = rational_name(Fraction(2, 7))
    hood_t, term_form = localize(composed, at, 100)
    hood_p, proc_form = localize(wrapped, at, 100)
    assert hood_t == hood_p
    assert isinstance(term_form.F, TermOperator)
    assert isinstance(proc_form.F, ProcOperator)
    points = [Fraction(2, 7) + Fraction(n, 100) for n in range(-9, 10, 3)]
    agree_on_names(term_form, proc_form, points)


# ---------------------------------------------------------------------------
# mixed forms: each operator is a term exactly when everything it is built from is
# ---------------------------------------------------------------------------


def operators(fn):
    return [fn.E, *fn.values] if isinstance(fn, ConditionalFn) else list(fn.values)


def with_procs(fn, *positions):
    """``fn`` rebuilt, order kept, with the operators at ``positions`` (E is 0) as procedures."""
    ops = [as_proc(op) if i in positions else op for i, op in enumerate(operators(fn))]
    if isinstance(fn, ConditionalFn):
        return ConditionalFn(fn.domain, *ops, codomain=fn.codomain, order=fn.order)
    return UniformFn(fn.domain, *ops, codomain=fn.codomain)


def _glue_two(left_local, right_local):
    balls = (Ball((-1,), Fraction(3, 2), left_local), Ball((1,), Fraction(3, 2), right_local))
    return glue_compact(BallCover(balls, separation=3))


NEGATE_C, ABS_C = embed_uniform(negate_term_fn()), embed_uniform(abs_term_fn())
COMPOSED = compose_conditional(NEGATE_C, embed_uniform(identity_uniform()))
CODED_ID = embed_uniform(identity(make_mn(1)))

# (what, construction, all-term ingredients, mixed ingredients, which of the
# mixed result's operators -- E first -- are terms)
MIXED_FORMS = [
    ("compose, inner with a term E and procedure values", compose_conditional,
     (NEGATE_C, ABS_C), (NEGATE_C, with_procs(ABS_C, 1, 2, 3)), [False] * 4),
    ("compose, procedure outer after a term inner", compose_conditional,
     (NEGATE_C, ABS_C), (with_procs(NEGATE_C, 0, 1, 2, 3), ABS_C), [False] * 4),
    # the certificate alone reads the procedure inner certificate
    ("compose, a procedure inner certificate and term values", compose_conditional,
     (NEGATE_C, ABS_C), (NEGATE_C, with_procs(ABS_C, 0)), [False, True, True, True]),
    ("localize, one procedure value", lambda fn: localize(fn, rational_name(Fraction(2, 7)), 100)[1],
     (COMPOSED,), (with_procs(COMPOSED, 2),), [False] * 3),
    ("glue, a term branch and a procedure branch", _glue_two,
     (negate_term_fn(), identity_uniform()),
     (negate_term_fn(), with_procs(identity_uniform(), 0, 1, 2)), [False] * 3),
    # the certificate is built from the component certificates alone
    ("tuple, term certificates and procedure values", lambda *fns: tuple_conditional(fns),
     (CODED_ID, CODED_ID), (with_procs(CODED_ID, 1),) * 2, [True, False]),
    # and the value from the component values alone
    ("tuple, procedure certificates and term values", lambda *fns: tuple_conditional(fns),
     (CODED_ID, CODED_ID), (with_procs(CODED_ID, 0),) * 2, [False, True]),
]


@pytest.mark.parametrize("case", MIXED_FORMS, ids=lambda case: case[0])
def test_a_mixed_construction_follows_the_form_rule_and_agrees_with_the_all_term_one(case):
    _, construct, term_inputs, mixed_inputs, forms = case
    whole, mixed = construct(*term_inputs), construct(*mixed_inputs)
    assert all(isinstance(op, TermOperator) for op in operators(whole))
    assert [isinstance(op, TermOperator) for op in operators(mixed)] == forms
    rng = Random(16)
    for _ in range(6):
        fns = tuple(random_natfun(rng) for _ in range(whole.domain.width + 1))
        for a, b in zip(operators(whole), operators(mixed)):
            assert agree(a, b, fns[: a.arity], range(61))


def test_only_a_term_backed_localization_builds_its_mu_chains(monkeypatch):
    built = []
    monkeypatch.setattr(gadgets, "mu", lambda j, value: built.append(j) or mu(j, value))
    at = rational_name(Fraction(2, 7))
    hood, local = localize(RECIP, at, 100)
    assert isinstance(local.F, ProcOperator)
    assert built == []
    # a localization of wires builds its chain when its term is first read
    coded = embed_uniform(identity(make_mn(1)))
    hood, local = localize(compose_conditional(coded, coded), mn_name((Fraction(2, 7),)), 100)
    assert isinstance(local.values[0], _Wire)
    assert built == []
    assert local.values[0].term.k == 1
    assert built == list(range(hood.cutoff + 1))
    # and a plain term one builds the chains of its three slots at once
    del built[:]
    hood, local = localize(COMPOSED, rational_name(Fraction(2, 7)), 100)
    assert type(local.F) is TermOperator
    assert built == list(range(hood.cutoff + 1)) * 3


def test_the_coded_identity_passes_its_name_through():
    name = mn_name((Fraction(2, 7),))
    assert apply_uniform(identity(make_mn(1)), name).f is name.f


def test_localizations_leave_the_gadget_registry_as_it_was():
    # the mu and const gadgets of each anchor are built per localization
    names = CORE.names()
    identity = embed_uniform(identity_uniform())
    composed = compose_conditional(identity, identity)
    for i in range(200):
        _, local = localize(composed, rational_name(Fraction(i, 7)), 100)
        assert isinstance(local.F, TermOperator)
    assert CORE.resolve("mu_3_9").fn(3, 0) == 9
    assert CORE.names() == names


def test_gluing_procedure_form_agrees_with_the_term_form():
    negate = negate_term_fn()
    balls = lambda first: (  # noqa: E731
        Ball((Fraction(-1),), Fraction(3, 2), first),
        Ball((Fraction(1),), Fraction(3, 2), identity_uniform()),
    )
    term_form = glue_compact(BallCover(balls(negate), separation=3))
    wrapped = UniformFn(1, negate.F, negate.G, as_proc(negate.H))
    proc_form = glue_compact(BallCover(balls(wrapped), separation=3))
    assert isinstance(term_form.F, TermOperator)
    assert isinstance(proc_form.F, ProcOperator)
    agree_on_names(term_form, proc_form, SAMPLE_POINTS + [Fraction(9, 2)])


def constant_term_fn(c):
    zero = TermOperator(OperatorTerm(3, 1, Base(constant(0), (Proj(1),))))
    return UniformFn(1, TermOperator(OperatorTerm(3, 1, Base(constant(c), (Proj(1),)))), zero, zero)


def test_glued_procedure_picks_the_dispatched_ball():
    # ball i outputs the constant i, so the output tells which ball was picked
    cover = BallCover(
        tuple(
            Ball((Fraction(c),), Fraction(3, 4), UniformFn(1, *map(as_proc, (fn.F, fn.G, fn.H))))
            for c, fn in ((-1, constant_term_fn(1)), (0, constant_term_fn(2)), (1, constant_term_fn(3)))
        ),
        separation=7,
    )
    glued = glue_compact(cover)
    assert isinstance(glued.F, ProcOperator)
    for n in range(-16, 17):
        q = Fraction(n, 8)
        picked = dispatch_index(cover, [rational_name(q)])
        out = apply_uniform(glued, [rational_name(q)])
        assert approx(out, 5) == (picked or 0)


def test_glued_procedure_reads_its_arguments_only_when_read():
    cover = BallCover(
        (
            Ball((Fraction(-1),), Fraction(3, 2), negate_fn()),
            Ball((Fraction(1),), Fraction(3, 2), identity_fn()),
        ),
        separation=3,
    )
    glued = glue_compact(cover)
    fns, log = recording(tuple(rational_name(Fraction(1, 2))))
    out = apply_uniform(glued, [NameTriple(*fns)])
    assert not any(log.values())
    assert approx(out, 4) == Fraction(1, 2)
    assert any(log.values())
    # the composite's certificate never reads the glued value, so nothing is read
    composed = compose_conditional(embed_uniform(identity_fn()), embed_uniform(glued))
    fns, log = recording(tuple(rational_name(Fraction(1, 2))))
    cert = composed.E.apply(fns)
    assert find_parameter(composed, [rational_name(Fraction(1, 2))], 10) == 0
    for t in range(10):
        cert(t)
    assert not any(log.values())


# ---------------------------------------------------------------------------
# localization
# ---------------------------------------------------------------------------


def test_localize_reciprocal_at_one():
    hood, local = localize(RECIP, rational_name(Fraction(1)), 100)
    assert hood.cutoff == 2
    assert hood.contains(Fraction(1))
    assert hood.contains(Fraction(3, 4))
    assert hood.contains(Fraction(5, 4))
    assert not hood.contains(Fraction(2, 3))  # boundary: distance exactly 1/3
    assert not hood.contains(Fraction(4, 3))
    assert not hood.contains(Fraction(2))
    for q in (Fraction(3, 4), Fraction(4, 5), Fraction(1), Fraction(9, 8), Fraction(5, 4)):
        assert hood.contains(q)
        out = apply_uniform(local, [rational_name(q)])
        assert validate_name(out, 1 / q, 300).passed


def test_localize_cuts_off_a_stream_anchor_where_it_cuts_off_a_constant_anchor():
    for q in (Fraction(1), Fraction(-2, 7), Fraction(1, 40)):
        triple = tuple(fn(0) for fn in rational_name(q))
        stream_anchor = TripleStream(lambda _t, v=triple: v, "anchor").name()
        hood_c, _ = localize(RECIP, rational_name(q), 1000)
        hood_s, _ = localize(RECIP, stream_anchor, 1000)
        assert hood_s == hood_c


def test_localize_keeps_the_certificate_frozen_under_patching():
    assert_check(frozen_certificates)


def interval(hood):
    # a real neighborhood's members form the open interval
    # max_t(a_t - 1/(t+1)) < q < min_t(a_t + 1/(t+1)), a_t the anchor's rational at t
    at = [Fraction(x - y, z + 1) for x, y, z in hood.anchor]
    low = max((a - Fraction(1, t) for t, a in enumerate(at, 1)), default=-inf)
    return low, min((a + Fraction(1, t) for t, a in enumerate(at, 1)), default=inf)


@st.composite
def neighborhoods(draw):
    # approximations of one center, each with a jitter that may leave its
    # ball around the center: the interval may be empty
    center = draw(st.fractions(-3, 3, max_denominator=8))
    anchor = []
    for t in range(draw(st.integers(0, 6))):
        z = draw(st.integers(0, 4 * (t + 1)))
        x = round(center * (z + 1)) + draw(st.integers(-1, 1))
        anchor.append((max(x, 0), max(-x, 0), z))
    return Neighborhood(Reals(1), len(anchor) - 1, tuple(anchor))


@settings(max_examples=300, deadline=None)
@given(hood=neighborhoods(), points=st.lists(st.fractions(-4, 4, max_denominator=24), max_size=6))
def test_a_real_neighborhood_decides_membership_as_its_interval_does(hood, points):
    low, high = interval(hood)
    ends = [end for end in (low, high) if end not in (-inf, inf)]
    if len(ends) == 2:
        ends.append((low + high) / 2)
    for q in [*points, *ends]:
        assert hood.contains(q) == (low < q < high)
    assert not any(hood.contains(end) for end in ends[:2])


@pytest.mark.parametrize("space", [Reals(1), make_mn(1), make_discrete(8)], ids=str)
def test_a_localization_in_any_space_cuts_out_a_neighborhood_of_its_domain(space):
    fn = compose_conditional(*[embed_uniform(identity(space))] * 2)
    hood, _ = localize(fn, a_point(Random(5), space), 100)
    assert type(hood) is Neighborhood
    assert hood.space is fn.domain


def test_localize_a_composed_function():
    composed = compose_conditional(RECIP, RECIP)
    at = rational_name(Fraction(2, 3))
    hood, local = localize(composed, at, 1000)
    for offset in (Fraction(0), Fraction(1, 128), Fraction(-1, 128)):
        q = Fraction(2, 3) + offset
        assert hood.contains(q)
        out = apply_uniform(local, [rational_name(q)])
        assert validate_name(out, q, 200).passed
    assert not hood.contains(Fraction(1, 2))


def test_localize_an_embedded_uniform_queries_nothing():
    embedded = embed_uniform(identity_uniform())
    hood, local = localize(embedded, rational_name(Fraction(5)), 10)
    assert hood.cutoff == 0
    assert hood.contains(Fraction(9, 2))
    assert not hood.contains(Fraction(4))  # boundary: distance exactly 1
    out = apply_uniform(local, [rational_name(Fraction(9, 2))])
    assert validate_name(out, Fraction(9, 2), 100).passed


def zero_argument_term_fn(triple):
    consts = [Base(constant(c), (Proj(1),)) for c in triple]
    return UniformFn(0, *(TermOperator(OperatorTerm(0, 1, node)) for node in consts))


def test_a_zero_argument_function_embeds_and_composes():
    # a constant is a uniform function on Reals(0), applied to no argument names
    const = REGISTRY.get("const_2/3").fn
    assert approx(apply_conditional(embed_uniform(const), [], 10), 5) == Fraction(2, 3)
    out = apply_conditional(compose_conditional(RECIP, embed_uniform(const)), [], 10**6)
    assert validate_name(out, Fraction(3, 2), 300).passed
    embedded = embed_uniform(zero_argument_term_fn((2, 0, 2)))
    assert all(type(op) is TermOperator for op in embedded.values)
    assert approx(apply_conditional(embedded, [], 10), 5) == Fraction(2, 3)


def test_localize_requires_a_certifiable_anchor():
    with pytest.raises(BudgetExhausted):
        localize(RECIP, rational_name(Fraction(0)), 50)


# ---------------------------------------------------------------------------
# gluing
# ---------------------------------------------------------------------------


def test_two_ball_gluing_on_its_exactly_dispatched_region():
    assert_check(two_ball_values)


def test_two_ball_gluing_misdispatches_between_zero_and_a_quarter():
    # the first ball's membership test fires up to 1/4 past 0 (its rule
    # is negation, wrong there); pinning the stray value documents the
    # boundary of the warranted region
    glued = glue_compact(two_ball_cover())
    out = apply_uniform(glued, [rational_name(Fraction(1, 8))])
    assert approx(out, 40) == Fraction(-1, 8)


def test_dispatch_picks_the_unique_deep_ball():
    cover = two_ball_cover()
    for q in (Fraction(-1), Fraction(-3, 4), Fraction(-1, 2)):
        assert dispatch_index(cover, [rational_name(q)]) == 1
    for q in (Fraction(1, 2), Fraction(3, 4), Fraction(1)):
        assert dispatch_index(cover, [rational_name(q)]) == 2
    assert dispatch_index(cover, [rational_name(Fraction(4))]) is None


def test_three_ball_gluing_is_correct_on_the_whole_interval():
    assert_check(three_ball_values)


def test_separation_holds_on_the_sound_cover_and_fails_on_a_sparse_one():
    grid = [(Fraction(n, 16),) for n in range(-16, 17)]
    assert separation_violations(three_ball_cover(), grid) == []

    sparse = BallCover(
        (
            Ball((Fraction(-1),), Fraction(1, 2), negate_fn()),
            Ball((Fraction(1),), Fraction(1, 2), identity_fn()),
        ),
        separation=3,
    )
    bad = separation_violations(sparse, grid)
    assert (Fraction(0),) in bad


@pytest.mark.parametrize("separation", [1.5, True, -1])
def test_a_cover_refuses_a_separation_that_is_not_a_natural(separation):
    with pytest.raises(ValueError, match="separation index must be a natural"):
        BallCover((Ball((0,), 1, negate_fn()),), separation)


@pytest.mark.parametrize("n", [-1, True, 1.5, "1"])
def test_reals_refuses_an_n_that_is_not_a_natural(n):
    with pytest.raises(ValueError, match="takes a natural n"):
        Reals(n)


_ONE_BALL = BallCover((Ball((0,), 1, identity_uniform()),), 3)

# refusals no other test reaches: (what, call, exception, message)
REALFNS_REFUSALS = [
    ("procedure applied to too few functions",
     lambda: ProcOperator(2, lambda fns: fns[0], "first").apply([NatFun.identity()]),
     ArityMismatch, "operator wants 2 functions, got 1"),
    ("term operator with two numeric arguments",
     lambda: TermOperator(OperatorTerm(1, 2, Proj(1))),
     ArityMismatch, "single numeric argument"),
    ("procedure of negative arity", lambda: ProcOperator(-1, lambda fns: fns[0]),
     ValueError, "arity must be a natural, got -1"),
    ("joint of fractional width", lambda: joint(1, 2.5, lambda fns: fns),
     ValueError, "width must be a natural, got 2.5"),
    ("joint of negative width", lambda: joint(1, -1, lambda fns: fns),
     ValueError, "width must be a natural, got -1"),
    ("joint of fractional arity", lambda: joint(1.5, 2, lambda fns: fns),
     ValueError, "arity must be a natural, got 1.5"),
    ("point of Reals(2)", lambda: Reals(2).point(rational_name(1)),
     ArityMismatch, "unary real functions"),
    ("ball centre of the wrong dimension", lambda: Ball((1, 2), 1, identity_uniform()),
     ArityMismatch, "ball center dimension"),
    ("empty cover", lambda: BallCover((), 3), ValueError, "at least one ball"),
    ("2-D point on a 1-D cover", lambda: separation_violations(_ONE_BALL, [(0, 0)]),
     ArityMismatch, "sample point dimension"),
    # operands that are not operators, refused when the record is built
    ("a function as a value operator", lambda: UniformFn(1, lambda x: x, 1, 2),
     ValueError, "value operators must be"),
    ("a term node as a coded value operator",
     lambda: UniformFn(make_mn(1), Proj(1), codomain=make_mn(1)),
     ValueError, "value operators must be"),
    ("a string as a term", lambda: TermOperator("x"), ValueError, "takes an OperatorTerm"),
    ("a node as a term", lambda: TermOperator(Apply(1, Proj(1))),
     ValueError, "takes an OperatorTerm"),
    ("an int as a certificate", lambda: ConditionalFn(1, 0, *RECIP.values),
     ValueError, "certificate must be"),
    ("a NatFun as a certificate", lambda: ConditionalFn(1, NatFun.identity(), *RECIP.values),
     ValueError, "certificate must be"),
    ("a range as a search order",
     lambda: ConditionalFn(1, RECIP.E, *RECIP.values, order=range(3)),
     ValueError, "None or callable"),
    # a record of the wrong kind, refused at the call that gets it
    ("a search of a uniform function", lambda: find_parameter(double_fn(), [rational_name(1)], 9),
     ValueError, "expected a ConditionalFn, got UniformFn"),
    ("a uniform function applied as conditional",
     lambda: apply_conditional(double_fn(), [rational_name(1)], 9),
     ValueError, "expected a ConditionalFn, got UniformFn"),
    ("a uniform function applied at a parameter",
     lambda: apply_conditional_at(double_fn(), [rational_name(1)], 0),
     ValueError, "expected a ConditionalFn, got UniformFn"),
    ("a uniform function localized", lambda: localize(double_fn(), rational_name(1), 9),
     ValueError, "expected a ConditionalFn, got UniformFn"),
    ("a conditional function applied as uniform",
     lambda: apply_uniform(RECIP, [rational_name(1)]),
     ValueError, "expected a UniformFn, got ConditionalFn"),
    ("a conditional function embedded", lambda: embed_uniform(RECIP),
     ValueError, "expected a UniformFn, got ConditionalFn"),
    ("a uniform outer function composed", lambda: compose_conditional(double_fn(), RECIP),
     ValueError, "expected a ConditionalFn, got UniformFn"),
    ("a uniform inner function composed", lambda: compose_conditional(RECIP, double_fn()),
     ValueError, "expected a ConditionalFn, got UniformFn"),
    ("a conditional function on a ball", lambda: Ball((0,), 1, RECIP),
     ValueError, "expected a UniformFn, got ConditionalFn"),
    ("a function as a ball", lambda: BallCover((identity_uniform(),), 3),
     ValueError, "expected a Ball, got UniformFn"),
    ("a function glued as a cover", lambda: glue_compact(identity_uniform()),
     ValueError, "expected a BallCover, got UniformFn"),
    ("a function as a cover to dispatch",
     lambda: dispatch_index(identity_uniform(), [rational_name(0)]),
     ValueError, "expected a BallCover, got UniformFn"),
    ("a function as a cover to check", lambda: separation_violations(identity_uniform(), [(0,)]),
     ValueError, "expected a BallCover, got UniformFn"),
    # a non-space where a space is expected
    ("a float as the space of an identity", lambda: identity(2.5),
     ValueError, "expected a space, got float"),
    ("a string as the space of an identity", lambda: identity("x"),
     ValueError, "expected a space, got str"),
    ("an int as a coded codomain",
     lambda: UniformFn(make_mn(1), *identity(make_mn(1)).values, codomain=2),
     ValueError, "expected a space, got int"),
    ("a name localized", lambda: localize(rational_name(1), rational_name(1), 9),
     ValueError, "expected a ConditionalFn, got NameTriple"),
    ("a code as the centre of a real ball", lambda: Ball(3, 1, identity_uniform()),
     SpaceMismatch, "takes a ball centre of rationals"),
]


@pytest.mark.parametrize("case", REALFNS_REFUSALS, ids=lambda case: case[0])
def test_realfns_refusals_raise_their_documented_errors(case):
    _, call, error, message = case
    with pytest.raises(error, match=message):
        call()


def test_identity_reads_an_int_as_the_reals_of_that_dimension():
    name, ts = [rational_name(Fraction(-2, 7))], range(20)
    assert identity(1).domain == Reals(1)
    expected = read_whole(apply_uniform(identity_uniform(), name), ts)
    assert read_whole(apply_uniform(identity(1), name), ts) == expected
    with pytest.raises(SpaceMismatch, match="real functions take real values"):
        identity(3)


def test_term_backed_cover_glues_to_a_term_backed_function():
    cover = BallCover(
        (
            Ball((Fraction(-1),), Fraction(3, 2), negate_term_fn()),
            Ball((Fraction(1),), Fraction(3, 2), identity_uniform()),
        ),
        separation=3,
    )
    glued = glue_compact(cover)
    assert isinstance(glued.F, TermOperator)
    reference = glue_compact(two_ball_cover())
    for n in (-8, -5, -2, 0, 4, 8):
        q = Fraction(n, 8)
        term_out = apply_uniform(glued, [rational_name(q)])
        proc_out = apply_uniform(reference, [rational_name(q)])
        for t in range(0, 60, 7):
            assert abs(approx(term_out, t) - abs(q)) < Fraction(1, t + 1)
        assert validate_name(proc_out, abs(q), 60).passed


def slot_uniform(n_args, slot):
    # the term-backed n-ary function whose value is its slot-th argument
    k = 3 * n_args
    ops = [TermOperator(OperatorTerm(k, 1, Apply(3 * slot - 2 + c, Proj(1)))) for c in range(3)]
    return UniformFn(n_args, *ops)


@pytest.mark.parametrize(
    "cover",
    [
        BallCover(
            (
                Ball((Fraction(-1),), Fraction(5, 4), negate_term_fn()),
                Ball((Fraction(1, 3),), Fraction(3, 2), identity_uniform()),
            ),
            separation=3,
        ),
        BallCover(
            (
                Ball((Fraction(-1, 2), Fraction(0)), Fraction(1), slot_uniform(2, 1)),
                Ball((Fraction(1), Fraction(-2, 3)), Fraction(7, 5), slot_uniform(2, 2)),
            ),
            separation=4,
        ),
    ],
    ids=["1-D", "2-D"],
)
def test_term_backed_glued_functions_print_and_parse_back_equal(cover):
    glued = glue_compact(cover)
    for op in (glued.F, glued.G, glued.H):
        text = print_term(op.term)
        assert "ball_" in text
        again = parse_term(text, op.term.k, 1, CORE.resolve)
        assert again == op.term
        assert print_term(again) == text
    assert glued.F.term == glued_term_reference(cover)


def glued_term_reference(cover):
    # delta_K over ball_i(f_1(const_k), ...), each followed by ball i's F, then const_0
    k, width = cover.separation, cover.domain.width
    probes = tuple(Apply(i, Base(constant(k), (Proj(1),))) for i in range(1, width + 1))
    margin = Fraction(1, k + 1)
    guards = [Base(ball_indicator(b.center, b.radius - margin), probes) for b in cover.balls]
    subs = [node for guard, b in zip(guards, cover.balls) for node in (guard, b.local.F.term.node)]
    selected = Base(gadgets.delta_k(len(cover.balls)), (*subs, Base(constant(0), (Proj(1),))))
    return OperatorTerm(width, 1, selected)


def test_a_term_backed_name_reads_each_distinct_node_once_per_index():
    # glued F, G, H share one bound program: its three probes at k are
    # index-free, read once per application, and the settled select
    # keeps one branch, which reads the three arguments once per index
    cover = BallCover(
        (
            Ball((Fraction(-1),), Fraction(3, 2), negate_term_fn()),
            Ball((Fraction(1),), Fraction(3, 2), identity_uniform()),
        ),
        separation=3,
    )
    reads = []
    name = [
        NameTriple(*(NatFun(lambda t, c=c: reads.append(t) or c) for c in (0, 3, 3)))
    ]
    out = apply_uniform(glue_compact(cover), name)
    assert isinstance(triple_reader(*out), TripleStream)
    assert [(out.f(t), out.g(t), out.h(t)) for t in range(20)] == [(3, 0, 3)] * 20
    assert sorted(reads) == sorted([3] * 3 + list(range(20)) * 3)


def test_an_all_wire_glued_name_picks_its_ball_once():
    # the glued F, G, H of two identity balls are wires of one select build,
    # which runs once: three probes at k, then one read per index and function
    balls = tuple(Ball((c,), Fraction(3, 2), identity_uniform()) for c in (-1, 1))
    glued = glue_compact(BallCover(balls, separation=3))
    assert all(isinstance(op, _Wire) for op in glued.values)
    reads = []
    name = [NameTriple(*(NatFun(lambda t, c=c: reads.append(t) or c) for c in (0, 3, 3)))]
    out = apply_uniform(glued, name)
    assert read_whole(out, range(20)) == [(0, 3, 3)] * 20
    assert sorted(reads) == sorted([3] * 3 + list(range(20)) * 3)


def reads_at(index: int) -> UniformFn:
    """The argument's approximation at a fixed index, at every output index."""
    at = Base(constant(index), (Proj(1),))
    return UniformFn(1, *(TermOperator(OperatorTerm(3, 1, Apply(j, at))) for j in (1, 2, 3)))


@pytest.mark.parametrize(
    "triple, value, branch_reads",
    [
        # at -3/4, in the first ball: the second ball's reads at 7 never happen
        ((0, 3, 3), (3, 0, 3), list(range(20)) * 3),
        # at 3/4, in the second ball: its reads at 7 are index-free, made once
        ((3, 0, 3), (3, 0, 3), [7] * 3),
    ],
)
def test_a_bound_glued_name_reads_only_the_chosen_branch_even_at_a_constant_index(
    triple, value, branch_reads
):
    cover = BallCover(
        (
            Ball((Fraction(-1),), Fraction(3, 2), negate_term_fn()),
            Ball((Fraction(1),), Fraction(3, 2), reads_at(7)),
        ),
        separation=3,
    )
    reads = []
    name = [NameTriple(*(NatFun(lambda t, c=c: reads.append(t) or c) for c in triple))]
    out = apply_uniform(glue_compact(cover), name)
    assert [(out.f(t), out.g(t), out.h(t)) for t in range(20)] == [value] * 20
    assert sorted(reads) == sorted([3] * 3 + branch_reads)


def reads_its_parameter() -> ConditionalFn:
    """A term-backed conditional whose values read the parameter slot.

    s certifies from f(2) on, so localizing it patches the argument below
    index 3; F reads f at the parameter and G multiplies g by it.
    """
    param = Apply(4, Proj(1))
    values = (Apply(1, param), Base(CORE.get("mul"), (Apply(2, Proj(1)), param)), Apply(3, Proj(1)))
    cert = Base(CORE.get("monus"), (Apply(1, Base(constant(2), (Proj(1),))), Proj(1)))
    return ConditionalFn(
        1,
        TermOperator(OperatorTerm(3, 1, cert)),
        *(TermOperator(OperatorTerm(4, 1, node)) for node in values),
    )


@st.composite
def term_locals(draw) -> UniformFn:
    kind = draw(st.sampled_from(["identity", "negate", "constant"]))
    if kind == "identity":
        return identity_uniform()
    if kind == "negate":
        return negate_term_fn()
    return UniformFn(1, *(_constant(3, draw(st.integers(0, 9))) for _ in range(3)))


halves = st.integers(-6, 6).map(lambda n: Fraction(n, 2))


@st.composite
def glued_term_fns(draw) -> UniformFn:
    balls = draw(
        st.lists(
            st.builds(Ball, st.tuples(halves), halves.filter(lambda r: r > 0), term_locals()),
            min_size=1,
            max_size=4,
        )
    )
    return glue_compact(BallCover(tuple(balls), separation=draw(st.integers(0, 50))))


@st.composite
def localized_term_fns(draw) -> UniformFn:
    fn = draw(
        st.sampled_from(
            [
                reads_its_parameter(),
                compose_conditional(embed_uniform(negate_term_fn()), reads_its_parameter()),
            ]
        )
    )
    anchor = Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 4)))
    return localize(fn, rational_name(anchor), 10**4)[1]


@st.composite
def overridden_term_fns(draw) -> UniformFn:
    # a const_c or delta_k entry replaced under its own name by a callable
    # that carries nothing to fold, re-parsed into the same terms
    fn = draw(st.one_of(glued_term_fns(), localized_term_fns()))
    terms = [op.term for op in (fn.F, fn.G, fn.H)]
    spelled = re.compile(r"(?:const|delta)_\d+")
    names = {name for term in terms for name in spelled.findall(print_term(term))}
    name = draw(st.sampled_from(sorted(names)))
    entry = CORE.resolve(name)
    if name.startswith("const"):
        registry = GadgetRegistry({name: entry}).override(name, lambda x: (x + 1) % 4)
    else:
        registry = GadgetRegistry({name: entry}).override(name, lambda *args: max(args) % 5)

    def resolve(spelled):
        return registry.get(spelled) if spelled in registry else CORE.resolve(spelled)

    return UniformFn(1, *(TermOperator(parse_term(print_term(t), 3, 1, resolve)) for t in terms))


def _recorded(fns, log):
    # a live function behind a spy logging (slot, index); a constant as it is
    return tuple(
        f if constant_values(f) else NatFun(lambda t, i=i, f=f: log.add((i, t)) or f(t))
        for i, f in enumerate(fns)
    )


@settings(max_examples=40, deadline=None)
@given(
    fn=st.one_of(glued_term_fns(), localized_term_fns(), overridden_term_fns()),
    seed=st.integers(0, 2**16),
    exact=st.lists(st.booleans(), min_size=3, max_size=3),
)
def test_a_bound_program_agrees_with_full_evaluation_and_reads_less(fn, seed, exact):
    rng = Random(seed)
    # each argument a NatFun.constant or a recorded live function
    fns = tuple(NatFun.constant(rng.randrange(40)) if c else random_natfun(rng) for c in exact)
    terms = [op.term for op in (fn.F, fn.G, fn.H)]
    # the three together, as an applied name runs them, and each alone
    for group in (terms, *([term] for term in terms)):
        program = TermProgram(group)
        bound_log, full_log = set(), set()
        read = program.bind(_recorded(fns, bound_log))
        full = _recorded(fns, full_log)
        for t in range(201):
            bound_log.clear()
            full_log.clear()
            # a bound program that reads no index is its values
            assert (read if isinstance(read, tuple) else read(t)) == eval_term(program, full, (t,))
            assert bound_log <= full_log
            assert len(full_log) <= sum(map(support_bound, group))


def test_reading_the_term_composite_on_a_literal_evaluates_no_term(monkeypatch):
    chain = embed_uniform(identity_uniform())
    for _ in range(8):
        chain = compose_conditional(embed_uniform(negate_term_fn()), chain)
    exact = rational_name(Fraction(-2, 7))
    plain = NameTriple(*(NatFun(lambda _t, c=f(0): c) for f in exact))
    exact_out, plain_out = (apply_conditional(chain, [name], 10**4) for name in (exact, plain))
    calls = []
    eval_ = terms_module.eval_term
    monkeypatch.setattr(terms_module, "eval_term", lambda *args: calls.append(1) or eval_(*args))
    expected = [(0, 2, 6)] * 151  # negate^8 is the identity
    assert read_whole(exact_out, range(151)) == expected
    assert calls == []  # no term evaluation once applied
    assert read_whole(plain_out, range(151)) == expected
    assert len(calls) == 151  # the per-index path: one program run per index


def test_a_term_operator_compiles_its_program_once(monkeypatch):
    compiled = []
    program = realfns_module.TermProgram
    monkeypatch.setattr(
        realfns_module, "TermProgram", lambda terms: compiled.append(len(terms)) or program(terms)
    )
    fn = negate_term_fn()
    for q in (Fraction(1, 3), Fraction(-2), Fraction(5, 7)):
        name = rational_name(q)
        assert validate_name(apply_uniform(fn, [name]), -q, 20).passed
        assert fn.F.apply(tuple(name))(0) == name.g(0)
    # once for F, G and H applied together, kept on F, and once for F alone
    assert sorted(compiled) == [1, 3]


@pytest.mark.parametrize("form", [lambda op: op, as_proc], ids=["term", "procedure"])
def test_a_reindexed_slot_on_a_constant_is_that_constant(form):
    fns = tuple(rational_name(Fraction(-5, 3)))
    out = _reindex(form(_slot(3, 2)), CORE.get("left")).apply(fns)
    assert constant_values(out) == (5,)
    live = tuple(NatFun(lambda t, c=f(0): c + t) for f in fns)
    out = _reindex(form(_slot(3, 2)), CORE.get("left")).apply(live)
    assert constant_values(out) is None
    assert [out(n) for n in range(20)] == [5 + left(n) for n in range(20)]


def test_single_ball_cover_reduces_to_its_local_function():
    assert_check(one_ball)


@pytest.mark.parametrize(
    "local,sign",
    [(identity_uniform(), 1), (REGISTRY.get("negate").fn, -1)],
    ids=["term", "procedure"],
)
def test_one_ball_cover_with_a_wide_separation_glues(local, sign):
    glued = glue_compact(BallCover((Ball((Fraction(0),), Fraction(1), local),), separation=1000))
    assert isinstance(glued.F, TermOperator) == isinstance(local.F, TermOperator)
    for q in (Fraction(0), Fraction(1, 3), Fraction(-1, 2)):
        out = apply_uniform(glued, [rational_name(q)])
        assert validate_name(out, sign * q, 40).passed


def test_ball_rejects_nonpositive_radius():
    with pytest.raises(ValueError):
        Ball((Fraction(0),), Fraction(0), identity_fn())


# ---------------------------------------------------------------------------
# joint names: constructions over one-joint functions stay joint
# ---------------------------------------------------------------------------


def counted_fn(calls, scale=1):
    # a procedure-backed q -> scale * q whose rule logs every evaluation
    return uniform_from_rule(
        1, lambda a: calls.append(a) or scale * a, lambda t, names: t, f"times {scale}"
    )


def read_whole(name, ts):
    return [(name.f(t), name.g(t), name.h(t)) for t in ts]


def is_component(op):
    return isinstance(op, ProcOperator) and op.pick is not None


def components_alone(fn, fns, ts):
    alone = [op.apply(fns) for op in (fn.F, fn.G, fn.H)]
    return [tuple(c(t) for c in alone) for t in ts]


def test_embedded_and_glued_joint_functions_run_the_rule_once_per_index():
    calls = []
    ts = range(60)
    embedded = embed_uniform(counted_fn(calls, 2))
    assert is_component(embedded.F)
    out = apply_conditional(embedded, [rational_name(Fraction(3, 5))], 10)
    assert read_whole(out, ts) == [(6, 0, 4)] * 60
    assert len(calls) == 60

    del calls[:]
    cover = BallCover(
        (
            Ball((Fraction(-1),), Fraction(3, 2), counted_fn(calls, -1)),
            Ball((Fraction(1),), Fraction(3, 2), counted_fn(calls, 1)),
        ),
        separation=3,
    )
    glued = glue_compact(cover)
    assert is_component(glued.F)
    name = [rational_name(Fraction(-1, 2))]
    assert read_whole(apply_uniform(glued, name), ts) == [(1, 0, 1)] * 60
    assert len(calls) == 60
    fns = tuple(name[0])
    assert components_alone(glued, fns, ts) == [(1, 0, 1)] * 60


def test_localized_and_composed_joint_functions_agree_with_their_components():
    calls = []
    ts = range(0, 80, 3)
    composed = compose_conditional(RECIP, embed_uniform(counted_fn(calls, -1)))
    assert all(map(is_component, (composed.F, composed.G, composed.H)))
    for q in (Fraction(2, 3), Fraction(-5, 2)):
        names = [rational_name(q)]
        s = find_parameter(composed, names, 1000)
        out = apply_conditional_at(composed, names, s)
        assert validate_name(out, -1 / q, 79).passed
        fns = tuple(names[0]) + (NatFun.constant(s),)
        assert read_whole(out, ts) == components_alone(composed, fns, ts)

    hood, local = localize(RECIP, rational_name(Fraction(1, 2)), 100)
    assert is_component(local.F)
    q = Fraction(1, 2) + Fraction(1, 10 * (hood.cutoff + 2))
    out = apply_uniform(local, [rational_name(q)])
    assert validate_name(out, 1 / q, 79).passed
    assert read_whole(out, ts) == components_alone(local, tuple(rational_name(q)), ts)


def test_mixed_operators_are_applied_one_by_one():
    # F and H are negate's joint, which ``_apply_ops`` builds once for both;
    # G is identity's joint, built on its own
    a, b = negate_fn(), identity_fn()
    mixed = UniformFn(1, a.F, b.G, a.H)
    out = apply_uniform(mixed, [rational_name(Fraction(-3, 4))])
    assert read_whole(out, range(5)) == [(3, 3, 3)] * 5


def counting_joint(builds, width=3):
    # results t -> f(t) + pick of one function argument; logs every build
    def build(fns):
        builds.append(fns)
        return [NatFun(lambda t, p=p: fns[0](t) + p) for p in range(width)]

    return joint(1, width, build, "counted")


@pytest.mark.parametrize("picks", [(0, 1, 2), (2, 0, 1), (1,), (2, 0), (1, 1, 0, 2)])
def test_apply_ops_builds_a_joint_once_for_any_order_and_subset(picks):
    builds = []
    parts = counting_joint(builds)
    out = _apply_ops([parts[p] for p in picks], (NatFun(lambda t: 10 * t),))
    assert len(builds) == 1
    assert [fn(3) for fn in out] == [30 + p for p in picks]


def test_apply_ops_builds_each_of_two_interleaved_joints_once():
    a_builds, b_builds = [], []
    a, b = counting_joint(a_builds), counting_joint(b_builds, 2)
    out = _apply_ops([b[1], a[2], b[0], a[0]], (NatFun(lambda t: t),))
    assert (len(a_builds), len(b_builds)) == (1, 1)
    assert [fn(5) for fn in out] == [6, 7, 5, 5]


def test_a_procedure_lift_builds_the_joint_of_its_inputs_once():
    builds = []
    f, g, _ = counting_joint(builds)
    lifted = _lift(CORE.get("conj"), [g, f]).apply((NatFun(lambda t: t),))
    assert [lifted(t) for t in range(4)] == [2 * t + 1 for t in range(4)]
    assert len(builds) == 1


# ---------------------------------------------------------------------------
# every public entry point, in every space, returns or raises a documented error
# ---------------------------------------------------------------------------


DOCUMENTED_ERRORS = (ArityMismatch, SpaceMismatch, ValueError, BudgetExhausted, OutsideDomain)
SPACES = [Reals(1), Reals(2), make_mn(1), make_mn(2), make_discrete(8), Reals(0)]
NOT_SPACES = [2.5, "x", None, identity_uniform(), 3]
BUDGETS = [-1, True, False, 0, 1, 3, 20]


def any_rational(rng):
    return Fraction(rng.randrange(-9, 10), rng.randrange(1, 9))


def a_point(rng, space):
    """One name of a point of ``space``: what ``localize`` takes as its anchor."""
    if isinstance(space, Reals):
        return rational_name(any_rational(rng))
    if space.dimension is None:
        return OrdinaryName(NatFun.constant(rng.randrange(8)), space)
    return mn_name([any_rational(rng) for _ in range(space.dimension)])


def some_names(rng, space):
    """The argument names of ``space``, sometimes one too few or too many."""
    if not isinstance(space, Reals):
        return a_point(rng, space)
    return [a_point(rng, space) for _ in range(space.n + rng.choice([0, 0, 0, -1, 1]))]


def a_uniform(rng, space):
    if space == Reals(0):
        return constant_fn(any_rational(rng))
    if space == Reals(1):
        return rng.choice([identity_uniform, negate_term_fn, double_fn, abs_term_fn])()
    if space == Reals(2):
        return REGISTRY.get("add").fn
    if space == make_mn(1) and rng.randrange(2):
        return translate_uniform(negate_fn())
    return identity(space)


def a_conditional(rng, space):
    roll = rng.randrange(4)
    if roll == 0 and space == Reals(1):
        return RECIP
    if roll == 0 and space == make_mn(1):
        return translate_conditional(RECIP)
    if roll == 1 and space == make_mn(1):
        return tuple_conditional([embed_uniform(translate_uniform(negate_fn()))] * 2)
    return embed_uniform(a_uniform(rng, space))


def by_hand(rng, space):
    """A record built from another record's operators, maybe across spaces."""
    other = a_conditional(rng, rng.choice(SPACES))
    codomain = rng.choice(SPACES + NOT_SPACES[:1])
    if rng.randrange(2):
        return UniformFn(space, *other.values, codomain=codomain)
    order = rng.choice([None, other.order, 3, range(3)])
    return ConditionalFn(space, other.E, *other.values, codomain=codomain, order=order)


def a_center(rng, space):
    if isinstance(space, Reals):
        return tuple(any_rational(rng) for _ in range(space.n + rng.choice([0, 0, 1])))
    return rng.randrange(8)


def a_ball(rng, space):
    radius = rng.choice([Fraction(3, 2), 2, 0, -1])
    return Ball(a_center(rng, space), radius, a_uniform(rng, space))


def a_cover(rng, space):
    balls = [a_ball(rng, space) for _ in range(rng.randrange(1, 3))]
    if rng.randrange(3) == 0:  # a foreign ball, or a record where a ball goes
        balls.append(rng.choice([a_ball(rng, rng.choice(SPACES)), a_uniform(rng, space)]))
    return BallCover(tuple(balls), rng.choice(BUDGETS))


KINDS = {
    "uniform": a_uniform,
    "conditional": a_conditional,
    "by hand": by_hand,
    "names": some_names,
    "point": a_point,
    "budget": lambda rng, _space: rng.choice(BUDGETS),
    "space": lambda rng, space: rng.choice([space, space, *NOT_SPACES]),
    "cover": a_cover,
    "ball": a_ball,
    "center": a_center,
    "points": lambda rng, _space: [a_center(rng, rng.choice(SPACES[:2])) for _ in range(2)],
    "codes": lambda rng, _space: [rng.randrange(40) for _ in range(3)],
    "rationals": lambda rng, _space: [any_rational(rng) for _ in range(rng.randrange(1, 3))],
    "conditionals": lambda rng, _space: [an_argument(rng, "conditional") for _ in range(2)],
    "operator": lambda rng, space: a_conditional(rng, space).E,
    "operators": lambda rng, space: list(a_conditional(rng, space).values),
    "order": lambda rng, space: rng.choice([None, a_conditional(rng, space).order, 3, range(3)]),
}

# each public function of realfns and metric, with the kind of each argument
ENTRY_POINTS = {
    "find_parameter": (find_parameter, ["conditional", "names", "budget"]),
    "apply_conditional": (apply_conditional, ["conditional", "names", "budget"]),
    "apply_conditional_at": (apply_conditional_at, ["conditional", "names", "budget"]),
    "apply_uniform": (apply_uniform, ["uniform", "names"]),
    "embed_uniform": (embed_uniform, ["uniform"]),
    "compose_conditional": (compose_conditional, ["conditional", "conditional"]),
    "localize": (localize, ["conditional", "point", "budget"]),
    "identity": (identity, ["space"]),
    "identity_uniform": (identity_uniform, []),
    "glue_compact": (glue_compact, ["cover"]),
    "dispatch_index": (dispatch_index, ["cover", "names"]),
    "separation_violations": (separation_violations, ["cover", "points"]),
    "UniformFn": (lambda space, ops, codomain: UniformFn(space, *ops, codomain=codomain),
                  ["space", "operators", "space"]),
    "ConditionalFn": (
        lambda space, e, ops, codomain, order:
            ConditionalFn(space, e, *ops, codomain=codomain, order=order),
        ["space", "operator", "operators", "space", "order"],
    ),
    "by hand": (lambda fn: fn, ["by hand"]),
    "Ball": (Ball, ["center", "budget", "uniform"]),
    "BallCover": (lambda ball, separation: BallCover((ball,), separation), ["ball", "budget"]),
    "Reals": (Reals, ["budget"]),
    "joint": (lambda arity, width: joint(arity, width, lambda fns: fns), ["budget", "budget"]),
    "make_mn": (make_mn, ["budget"]),
    "make_discrete": (make_discrete, ["budget"]),
    "builtin_spaces": (builtin_spaces, []),
    "mn_code": (mn_code, ["rationals"]),
    "mn_decode": (mn_decode, ["budget", "budget"]),
    "mn_name": (mn_name, ["rationals"]),
    "code_ball_indicator": (code_ball_indicator, ["budget", "budget", "budget"]),
    "validate_ordinary_name": (validate_ordinary_name, ["point", "budget", "budget"]),
    "metric_axiom_violations": (metric_axiom_violations, ["space", "codes"]),
    "translate_uniform": (translate_uniform, ["uniform"]),
    "translate_uniform_back": (translate_uniform_back, ["uniform"]),
    "translate_conditional": (translate_conditional, ["conditional"]),
    "translate_conditional_back": (translate_conditional_back, ["conditional"]),
    "tuple_conditional": (tuple_conditional, ["conditionals"]),
}


RECORDS_AND_NAMES = ["uniform", "conditional", "by hand", "names", "point"]


def an_argument(rng, kind):
    """An argument of ``kind`` in some space; where a record or a name goes, sometimes another."""
    if kind in RECORDS_AND_NAMES and rng.randrange(4) == 0:
        kind = rng.choice(RECORDS_AND_NAMES)
    return KINDS[kind](rng, rng.choice(SPACES))


def read(rng, out):
    """Read a result: a name at a few indices, a record applied to names of its domain,
    a ball or a cover glued."""
    if isinstance(out, NameTriple):
        return [fn(t) for fn in out for t in range(3)]
    if isinstance(out, OrdinaryName):
        return [out.f(t) for t in range(3)]
    if isinstance(out, UniformFn):
        return read(rng, apply_uniform(out, some_names(rng, out.domain)))
    if isinstance(out, ConditionalFn):
        return read(rng, apply_conditional(out, some_names(rng, out.domain), 30))
    if isinstance(out, tuple) and len(out) == 2 and isinstance(out[1], UniformFn):
        return read(rng, out[1])  # a localization's neighborhood and local function
    if isinstance(out, (Ball, BallCover)):
        return read(rng, glue_compact(BallCover((out,), 3) if isinstance(out, Ball) else out))
    return out


@settings(max_examples=500, deadline=None)
@given(st.sampled_from(sorted(ENTRY_POINTS)), st.integers(min_value=0, max_value=10**6))
def test_every_public_realfns_and_metric_function_returns_or_raises_a_documented_error(name, seed):
    rng = Random(seed)
    call, kinds = ENTRY_POINTS[name]
    try:
        args = [an_argument(rng, kind) for kind in kinds]
    except DOCUMENTED_ERRORS:
        return  # an argument refused while being built
    try:
        read(rng, call(*args))
    except DOCUMENTED_ERRORS:
        pass
