import re
from fractions import Fraction
from math import inf
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condreal.elementary import default_functions, uniform_from_rule
from condreal.gadgets import CORE, GadgetRegistry, constant, left, pair, right
from condreal.naming import (
    NameTriple,
    NatFun,
    TripleStream,
    approx,
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
    JointComponent,
    JointOperator,
    Neighborhood,
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
    identity_uniform,
    localize,
    _apply_ops,
    _constant,
    _diagonal,
    _lift,
    _patch,
    _reindex,
    _select,
    _slot,
    _subst,
    patch_operator,
    separation_violations,
)
from condreal.gadgets import ball_indicator
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


@pytest.mark.parametrize("budget", [-3, True, 2.5, Fraction(10)])
def test_a_budget_that_is_not_a_natural_is_refused(budget):
    name = rational_name(Fraction(1, 2))
    for search in (find_parameter, apply_conditional, localize):
        with pytest.raises(ValueError, match="budget must be a natural"):
            search(RECIP, [name] if search is not localize else name, budget)
    with pytest.raises(ValueError, match="budget must be a natural"):
        find_parameter(compose_conditional(RECIP, RECIP), [name], budget)


# ---------------------------------------------------------------------------
# patching
# ---------------------------------------------------------------------------


def test_patch_operator_freezes_a_prefix():
    anchor = NatFun(lambda t: 100 + t)
    inner = NatFun.identity()
    patched = patch_operator(anchor, 3).apply((inner,))
    assert [patched(t) for t in range(6)] == [100, 101, 102, 3, 4, 5]


def test_mu_chain_patch_agrees_with_the_case_definition():
    rng = Random(5)
    for k in range(5):
        for _ in range(12):
            anchor = random_natfun(rng)
            inner = random_natfun(rng)
            chain = _patch(1, 1, [anchor(t) for t in range(k)], term=True)
            assert isinstance(chain, TermOperator)
            direct = NatFun.patched(anchor, k, inner)
            chained = chain.apply((inner,))
            for t in range(12):
                assert chained(t) == direct(t)


# ---------------------------------------------------------------------------
# operator combinators: the term form and the procedure form agree
# ---------------------------------------------------------------------------


def random_ops(rng, k, count):
    return [TermOperator(random_term(rng, k, 1, 3)) for _ in range(count)]


def test_combinators_without_operator_inputs_agree_in_both_forms():
    rng = Random(11)
    for _ in range(40):
        k = rng.randrange(1, 4)
        i = rng.randrange(1, k + 1)
        fns = tuple(random_natfun(rng) for _ in range(k))
        values = [rng.randrange(9) for _ in range(rng.randrange(5))]
        c = rng.randrange(9)
        pairs = [
            (_slot(k, i, True), _slot(k, i, False)),
            (_constant(k, c, True), _constant(k, c, False)),
            (_patch(k, i, values, True), _patch(k, i, values, False)),
        ]
        for term_form, proc_form in pairs:
            assert isinstance(term_form, TermOperator)
            assert isinstance(proc_form, ProcOperator)
            assert agree(term_form, proc_form, fns)


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
        pairs = [
            (_lift(base, ops, True), _lift(base, ops, False)),
            (_subst([outer], inners, True)[0], _subst([outer], inners, False)[0]),
            (_reindex(ops[0], index, True), _reindex(ops[0], index, False)),
            (_diagonal(wide, True), _diagonal(wide, False)),
        ]
        for term_form, proc_form in pairs:
            assert isinstance(term_form, TermOperator)
            assert isinstance(proc_form, ProcOperator)
            assert agree(term_form, proc_form, fns)


def test_select_agrees_in_both_forms():
    rng = Random(13)
    indicators = [ball_indicator((Fraction(-2),), Fraction(3)), ball_indicator((Fraction(3),), 2)]
    for _ in range(40):
        fns = tuple(random_natfun(rng) for _ in range(3))
        components = [random_ops(rng, 3, 2) for _ in range(2)]
        k = rng.randrange(6)
        term_forms = _select(indicators, k, components, True)
        proc_forms = _select(indicators, k, components, False)
        for term_form, proc_form in zip(term_forms, proc_forms):
            assert isinstance(term_form, TermOperator)
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


def contains_by_index(hood, q):
    # the definition: within 1/(t+1) of the anchor's approximation at each t
    return all(
        abs(Fraction(x - y, z + 1) - q) < Fraction(1, t + 1)
        for t, (x, y, z) in enumerate(hood.anchor)
    )


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
    return Neighborhood(len(anchor) - 1, tuple(anchor))


@settings(max_examples=300, deadline=None)
@given(hood=neighborhoods(), points=st.lists(st.fractions(-4, 4, max_denominator=24), max_size=6))
def test_a_neighborhood_decides_membership_by_its_interval_as_the_index_loop_does(hood, points):
    low, high = hood.interval
    ends = [end for end in (low, high) if end not in (-inf, inf)]
    if len(ends) == 2:
        ends.append((low + high) / 2)
    for q in [*points, *ends]:
        assert hood.contains(q) == contains_by_index(hood, q)
    assert not any(hood.contains(end) for end in ends[:2])


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
    return UniformFn(1, *(_constant(3, draw(st.integers(0, 9)), True) for _ in range(3)))


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
    return tuple(NatFun(lambda t, i=i, f=f: log.add((i, t)) or f(t)) for i, f in enumerate(fns))


@settings(max_examples=40, deadline=None)
@given(
    fn=st.one_of(glued_term_fns(), localized_term_fns(), overridden_term_fns()),
    seed=st.integers(0, 2**16),
)
def test_a_bound_program_agrees_with_full_evaluation_and_reads_less(fn, seed):
    rng = Random(seed)
    fns = tuple(random_natfun(rng) for _ in range(3))
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
            assert read(t) == eval_term(program, full, (t,))
            assert bound_log <= full_log
            assert len(full_log) <= sum(map(support_bound, group))


def test_single_ball_cover_reduces_to_its_local_function():
    assert_check(one_ball)


@pytest.mark.parametrize(
    "local,sign",
    [(identity_uniform(), 1), (REGISTRY.get("negate").fn, -1)],
    ids=["term", "procedure"],
)
def test_one_ball_cover_with_a_wide_separation_glues(local, sign):
    glued = glue_compact(BallCover((Ball((Fraction(0),), Fraction(1), local),), separation=1000))
    assert isinstance(glued.F, type(local.F))
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


def components_alone(fn, fns, ts):
    alone = [op.apply(fns) for op in (fn.F, fn.G, fn.H)]
    return [tuple(c(t) for c in alone) for t in ts]


def test_embedded_and_glued_joint_functions_run_the_rule_once_per_index():
    calls = []
    ts = range(60)
    embedded = embed_uniform(counted_fn(calls, 2))
    assert isinstance(embedded.F, JointComponent)
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
    assert isinstance(glued.F, JointComponent)
    name = [rational_name(Fraction(-1, 2))]
    assert read_whole(apply_uniform(glued, name), ts) == [(1, 0, 1)] * 60
    assert len(calls) == 60
    fns = tuple(name[0])
    assert components_alone(glued, fns, ts) == [(1, 0, 1)] * 60


def test_localized_and_composed_joint_functions_agree_with_their_components():
    calls = []
    ts = range(0, 80, 3)
    composed = compose_conditional(RECIP, embed_uniform(counted_fn(calls, -1)))
    assert all(isinstance(op, JointComponent) for op in (composed.F, composed.G, composed.H))
    for q in (Fraction(2, 3), Fraction(-5, 2)):
        names = [rational_name(q)]
        s = find_parameter(composed, names, 1000)
        out = apply_conditional_at(composed, names, s)
        assert validate_name(out, -1 / q, 79).passed
        fns = tuple(names[0]) + (NatFun.constant(s),)
        assert read_whole(out, ts) == components_alone(composed, fns, ts)

    hood, local = localize(RECIP, rational_name(Fraction(1, 2)), 100)
    assert isinstance(local.F, JointComponent)
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

    return JointOperator(1, width, build, "counted")


@pytest.mark.parametrize("picks", [(0, 1, 2), (2, 0, 1), (1,), (2, 0), (1, 1, 0, 2)])
def test_apply_ops_builds_a_joint_once_for_any_order_and_subset(picks):
    builds = []
    parts = counting_joint(builds).components()
    out = _apply_ops([parts[p] for p in picks], (NatFun(lambda t: 10 * t),))
    assert len(builds) == 1
    assert [fn(3) for fn in out] == [30 + p for p in picks]


def test_apply_ops_builds_each_of_two_interleaved_joints_once():
    a_builds, b_builds = [], []
    a, b = counting_joint(a_builds).components(), counting_joint(b_builds, 2).components()
    out = _apply_ops([b[1], a[2], b[0], a[0]], (NatFun(lambda t: t),))
    assert (len(a_builds), len(b_builds)) == (1, 1)
    assert [fn(5) for fn in out] == [6, 7, 5, 5]


def test_a_procedure_lift_builds_the_joint_of_its_inputs_once():
    builds = []
    f, g, _ = counting_joint(builds).components()
    lifted = _lift(CORE.get("conj"), [g, f], False).apply((NatFun(lambda t: t),))
    assert [lifted(t) for t in range(4)] == [2 * t + 1 for t in range(4)]
    assert len(builds) == 1
