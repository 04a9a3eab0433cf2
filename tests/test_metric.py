from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condreal import metric, realfns, suites
from condreal.elementary import default_functions, uniform_from_rule
from condreal.gadgets import conj, pair, tuple_pack, tuple_part, tuple_parts
from condreal.metric import (
    EffectiveSpace,
    MsBall,
    MsBallCover,
    OrdinaryName,
    SpaceMismatch,
    apply_conditional_ms,
    apply_uniform_ms,
    builtin_spaces,
    code_ball_indicator,
    compose_conditional_ms,
    embed_uniform_ms,
    find_parameter_ms,
    glue_compact_ms,
    localize_ms,
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
from condreal.naming import NatFun, approx, constant_values, rational_name
from condreal.realfns import (
    Ball,
    BallCover,
    BudgetExhausted,
    ConditionalFn,
    ProcOperator,
    Reals,
    TermOperator,
    UniformFn,
    apply_conditional_at,
    apply_uniform,
    embed_uniform,
    find_parameter,
    identity,
    separation_violations,
)
from condreal.suites import identity_fn, negate_fn, two_ball_cover
from condreal.terms import Apply, ArityMismatch, Base, BaseFunction, OperatorTerm, Proj

from conftest import assert_check, linear_scan

REGISTRY = default_functions()
RECIP = REGISTRY.get("recip").fn
ADD = REGISTRY.get("add").fn

M1 = make_mn(1)
M2 = make_mn(2)

# negation on M_1 codes: swap the first two parts of the code's triple
NEGATE_CODE = BaseFunction(
    "negate_code", 1, lambda c: (lambda x, y, z: tuple_pack([y, x, z]))(*tuple_parts(3, c))
)
NEGATE_MS = UniformFn(
    M1, TermOperator(OperatorTerm(1, 1, Base(NEGATE_CODE, (Apply(1, Proj(1)),)))), codomain=M1
)

rational = st.fractions(min_value=-50, max_value=50, max_denominator=40)


# ---------------------------------------------------------------------------
# spaces and codes
# ---------------------------------------------------------------------------


def test_spaces_are_canonical():
    assert make_mn(1) is M1
    assert make_mn(2) is not M1
    assert make_discrete(5) is make_discrete(5)


def test_packed_triple_decodes_coordinatewise():
    assert M1.alpha(tuple_pack([1, 0, 1])) == (Fraction(1, 2),)
    assert M2.alpha(tuple_pack([1, 0, 1, 0, 3, 0]))[1] == Fraction(-3)


@given(st.lists(rational, min_size=1, max_size=3))
def test_code_decode_round_trip(point):
    n = len(point)
    assert mn_decode(n, mn_code(point)) == tuple(point)


def test_every_natural_is_a_valid_mn_code():
    for code in range(50):
        assert M1.code_domain(code)
        assert len(M2.alpha(code)) == 2


def test_distance_is_the_exact_max_norm():
    a = mn_code((Fraction(3, 5),))
    b = mn_code((Fraction(1, 2),))
    assert M1.dist(a, b) == Fraction(1, 10)
    assert M1.dist_lt(a, b, Fraction(11, 100))
    assert not M1.dist_lt(a, b, Fraction(1, 10))  # strict comparison

    c = mn_code((Fraction(0), Fraction(1)))
    d = mn_code((Fraction(1, 4), Fraction(-1)))
    assert M2.dist(c, d) == Fraction(2)


def test_metric_axioms_hold_on_sampled_codes():
    assert metric_axiom_violations(M2, range(25)) == []
    assert metric_axiom_violations(make_discrete(6), range(6)) == []


def test_metric_axiom_violations_name_each_broken_axiom():
    # d(2,2) = 1, d(0,1) != d(1,0), d(0,2) = d(2,0) = -1, and
    # d(1,2) = 5 > d(1,0) + d(0,2) = 1
    table = {(0, 1): 1, (1, 0): 2, (0, 2): -1, (2, 0): -1, (1, 2): 5, (2, 1): 5, (2, 2): 1}
    broken = EffectiveSpace(
        "broken",
        lambda n: n in (0, 1, 2),
        Fraction,
        lambda n, m: Fraction(table.get((n, m), 0)),
        lambda n, m, r: table.get((n, m), 0) < r,
    )
    bad = metric_axiom_violations(broken, range(3))
    for message in ("d(2,2) != 0", "d(0,1) asymmetric", "d(0,2) negative", "triangle fails at (1,0,2)"):
        assert message in bad
    assert all(m not in bad for m in ("d(0,0) != 0", "d(1,2) asymmetric", "d(0,1) negative"))


def test_builtin_spaces_listing():
    names = [space.name for space in builtin_spaces()]
    assert names == ["M_1", "M_2", "M_3", "discrete_8"]


def test_discrete_space_codes_are_bounded():
    disc = make_discrete(4)
    assert disc.code_domain(3)
    assert not disc.code_domain(4)
    assert disc.dist(2, 2) == 0
    assert disc.dist(0, 3) == 1


# ---------------------------------------------------------------------------
# names and application
# ---------------------------------------------------------------------------


def test_canonical_tuple_names_validate():
    point = (Fraction(2, 3), Fraction(-5))
    name = mn_name(point)
    assert validate_ordinary_name(name, mn_code(point), 200) == []


def test_validate_ordinary_name_lists_violations():
    # constant code of 1/2 as a name of 0: fails once 1/(t+1) <= 1/2
    name = OrdinaryName(NatFun.constant(mn_code((Fraction(1, 2),))), M1)
    bad = validate_ordinary_name(name, mn_code((Fraction(0),)), 6)
    assert bad == [1, 2, 3, 4, 5, 6]


def test_validate_ordinary_name_checks_the_code_domain():
    disc = make_discrete(3)
    name = OrdinaryName(NatFun.constant(9), disc)
    assert validate_ordinary_name(name, 1, 3) == [0, 1, 2, 3]


def test_identity_map_and_space_checks():
    ident = identity(M1)
    name = mn_name((Fraction(7, 3),))
    out = apply_uniform_ms(ident, name)
    assert out.space is M1
    assert validate_ordinary_name(out, mn_code((Fraction(7, 3),)), 100) == []
    with pytest.raises(SpaceMismatch):
        apply_uniform_ms(identity(M2), name)


def test_a_name_of_the_wrong_kind_is_a_space_mismatch():
    real, coded = realfns.identity_uniform(), identity(M1)
    for fn, names in (
        (real, mn_name((1,))),
        (real, [mn_name((1,))]),
        (real, rational_name(1)),  # one name triple, not a list of them
        (coded, [rational_name(1)]),
        (coded, [mn_name((1,))]),
    ):
        with pytest.raises(SpaceMismatch):
            apply_uniform(fn, names)
    with pytest.raises(SpaceMismatch):
        find_parameter(RECIP, mn_name((1,)), 10)


def test_embedded_uniform_certifies_at_zero():
    embedded = embed_uniform_ms(identity(M1))
    name = mn_name((Fraction(4),))
    assert find_parameter_ms(embedded, name, 5) == 0


def test_term_backed_inputs_give_term_backed_results():
    negate = embed_uniform_ms(NEGATE_MS)
    ident = embed_uniform_ms(identity(M1))
    point = mn_name((Fraction(3, 4),))
    _hood, local = localize_ms(negate, point, 10)
    one = mn_code((Fraction(1),))
    cover = MsBallCover(
        (
            MsBall(mn_code((Fraction(-1),)), Fraction(1), NEGATE_MS),
            MsBall(one, Fraction(1), identity(M1), code_ball_indicator(1, one, Fraction(1, 2))),
        ),
        separation=4,
    )
    built = {
        "identity_ms": identity(M1),
        "embed_uniform_ms": ident,
        "compose_conditional_ms": compose_conditional_ms(negate, ident),
        "localize_ms": local,
        "glue_compact_ms": glue_compact_ms(cover),
        "tuple_conditional": tuple_conditional([negate, ident, negate]),
    }
    for label, fn in built.items():
        ops = [*fn.values, *([fn.E] if hasattr(fn, "E") else [])]
        assert all(isinstance(op, TermOperator) for op in ops), label
    out = apply_conditional_at(built["tuple_conditional"], point, 0)
    target = mn_code((Fraction(-3, 4), Fraction(3, 4), Fraction(-3, 4)))
    assert validate_ordinary_name(out, target, 100) == []


# ---------------------------------------------------------------------------
# translations
# ---------------------------------------------------------------------------


def test_translated_addition_names_the_sum():
    assert_check(suites.translated_addition)


def test_translated_reciprocal_finds_the_same_parameter():
    recip_ms = translate_conditional(RECIP)
    for q, expected in ((Fraction(1, 3), 6), (Fraction(1), 2), (Fraction(-3, 2), 1)):
        name = mn_name((q,))
        s = find_parameter_ms(recip_ms, name, 100)
        assert s == find_parameter(RECIP, [rational_name(q)], 100) == expected
        out = apply_conditional_at(recip_ms, name, s)
        real = apply_conditional_at(RECIP, [rational_name(q)], s)
        for t in range(40):
            assert M1.alpha(out.f(t)) == (approx(real, t),)


def test_uniform_translation_round_trip_is_pointwise_exact():
    assert_check(suites.uniform_round_trip)


def test_conditional_translation_round_trip_is_pointwise_exact():
    assert_check(suites.conditional_round_trip)


def test_ms_translation_round_trip_is_code_exact():
    assert_check(suites.ms_uniform_round_trip)


def test_translations_run_a_joint_rule_once_per_index():
    calls = []
    counted = uniform_from_rule(
        1, lambda a: calls.append(a) or 3 * a, lambda t, names: t, "triple"
    )
    out = apply_uniform_ms(translate_uniform(counted), mn_name((Fraction(-2, 9),)))
    assert [M1.alpha(out.f(t)) for t in range(50)] == [(Fraction(-2, 3),)] * 50
    assert len(calls) == 50

    del calls[:]
    recip_ms = translate_conditional(RECIP)
    argument = apply_uniform_ms(translate_uniform(counted), mn_name((Fraction(1, 4),)))
    s = find_parameter_ms(recip_ms, argument, 100)
    del calls[:]
    out = apply_conditional_at(recip_ms, argument, s)
    assert validate_ordinary_name(out, mn_code((Fraction(4, 3),)), 39) == []
    assert len(calls) == 40


def test_translations_back_run_a_joint_rule_once_per_index():
    calls = []
    counted = uniform_from_rule(
        1, lambda a: calls.append(a) or 3 * a, lambda t, names: t, "triple"
    )
    argument = [rational_name(Fraction(-2, 9))]
    out = apply_uniform(translate_uniform_back(translate_uniform(counted)), argument)
    assert [approx(out, t) for t in range(50)] == [Fraction(-2, 3)] * 50
    assert len(calls) == 50

    del calls[:]
    back = translate_conditional_back(translate_conditional(embed_uniform(counted)))
    assert find_parameter(back, argument, 10) == 0
    out = apply_conditional_at(back, argument, 0)
    assert [approx(out, t) for t in range(40)] == [Fraction(-2, 3)] * 40
    assert len(calls) == 40


def test_translated_sum_decodes_each_coordinate_once_per_index(monkeypatch):
    add = default_functions().get("add").fn
    point = (Fraction(-3, 7), Fraction(5, 2))
    n = 100
    # the per-component decode: one tuple_part walk per component per index
    code = NatFun.constant(mn_code(point))
    parts = [NatFun(lambda t, i=i: tuple_part(6, i, code(t))) for i in range(1, 7)]
    outs = [op.apply(parts) for op in (add.F, add.G, add.H)]
    expected = [tuple_pack([out(t) for out in outs]) for t in range(n + 1)]

    walks = []
    walk = metric.tuple_parts
    monkeypatch.setattr(metric, "tuple_parts", lambda k, c: walks.append(k) or walk(k, c))
    # a code stream that is not a constant: decoded at every index read
    stream = OrdinaryName(NatFun(lambda t: mn_code(point)), make_mn(2))
    out = apply_uniform_ms(translate_uniform(add), stream)
    assert [out.f(t) for t in range(n + 1)] == expected
    # both coordinates share one walk per argument index (2t + 1)
    assert walks == [6] * (n + 1)


def test_translated_sum_decodes_a_constant_code_once(monkeypatch):
    add = default_functions().get("add").fn
    point = (Fraction(-3, 7), Fraction(5, 2))
    n = 100
    expected = [mn_code((point[0] + point[1],))] * (n + 1)
    walks = []
    walk = metric.tuple_parts
    monkeypatch.setattr(metric, "tuple_parts", lambda k, c: walks.append(k) or walk(k, c))
    out = apply_uniform_ms(translate_uniform(add), mn_name(point))
    assert walks == [6]  # at application, into constant coordinate names
    assert [out.f(t) for t in range(n + 1)] == expected
    assert walks == [6]


def _coded_cases():
    # (label, map, dimension): each builtin translated, and a tuple of two
    for entry in REGISTRY:
        if entry.kind == "uniform":
            yield entry.name, embed_uniform_ms(translate_uniform(entry.fn)), entry.n_args
        else:
            yield entry.name, translate_conditional(entry.fn), entry.n_args
    negate = embed_uniform_ms(translate_uniform(REGISTRY.get("negate").fn))
    yield "tuple", tuple_conditional([translate_conditional(RECIP), negate]), 1


@pytest.mark.parametrize("case", list(_coded_cases()), ids=lambda case: case[0])
@settings(max_examples=8, deadline=None)
@given(st.lists(st.fractions(max_denominator=1000).filter(bool), min_size=2, max_size=2))
def test_exact_codes_give_what_plain_copies_give(case, point):
    # the values computed once at application against the per-index path
    _label, fn, n = case
    exact = mn_name(point[:n])
    code = exact.f(0)
    plain = OrdinaryName(NatFun(lambda _t: code), exact.space)
    s = find_parameter_ms(fn, exact, 10**5)
    assert find_parameter_ms(fn, plain, 10**5) == s
    fast, slow = apply_conditional_at(fn, exact, s), apply_conditional_at(fn, plain, s)
    assert constant_values(fast.f) is not None
    assert [fast.f(t) for t in range(201)] == [slow.f(t) for t in range(201)]


def _exact_cases(space):
    """(label, function) pairs on ``space`` whose outputs are exact on exact arguments."""
    # builtins (translated on M_1) are procedures, exact on exact arguments
    negate_proc, abs_proc = (REGISTRY.get(name).fn for name in ("negate", "abs"))
    if space == M1:
        negate, negate_proc, abs_proc = NEGATE_MS, *map(translate_uniform, (negate_proc, abs_proc))
        center = lambda q: mn_code((q,))  # noqa: E731
    else:
        negate, center = suites.negate_term_fn(), lambda q: (q,)
    chain = embed_uniform(identity(space))
    for _ in range(8):
        chain = realfns.compose_conditional(embed_uniform(negate), chain)
    one, quarter = Fraction(1), Fraction(1, 4)
    term_cover = [Ball(center(-one), one, negate), Ball(center(one), one, identity(space))]
    proc_cover = [Ball(center(-one), one, negate_proc), Ball(center(one), one, abs_proc)]
    proc_cover.append(Ball(center(Fraction(0)), quarter, abs_proc))
    yield "negate^8 after identity", chain
    yield "glued terms", realfns.glue_compact(BallCover(term_cover, separation=15))
    yield "glued procedures", realfns.glue_compact(BallCover(proc_cover, separation=15))
    yield "embedded", embed_uniform(negate_proc)
    yield "embedded term", embed_uniform(negate)
    yield "identity", identity(space)


def _exact_and_plain(space, q):
    """An exact name of ``q`` in ``space`` and a copy made of plain functions."""
    if space == M1:
        exact = mn_name((q,))
        return exact, OrdinaryName(NatFun(lambda _t, c=exact.f(0): c), M1)
    exact = rational_name(q)
    return [exact], [realfns.NameTriple(*(NatFun(lambda _t, c=f(0): c) for f in exact))]


def _apply_both(fn, exact, plain):
    if isinstance(fn, ConditionalFn):
        s = find_parameter(fn, exact, 10**5)
        assert find_parameter(fn, plain, 10**5) == s
        return apply_conditional_at(fn, exact, s), apply_conditional_at(fn, plain, s)
    return apply_uniform(fn, exact), apply_uniform(fn, plain)


_EXACT_CASES = [
    (space, label, fn) for space in (Reals(1), M1) for label, fn in _exact_cases(space)
]


@pytest.mark.parametrize(
    "space,label,fn", _EXACT_CASES, ids=[f"{sp}-{label}" for sp, label, _ in _EXACT_CASES]
)
@settings(max_examples=6, deadline=None)
@given(st.fractions(min_value=-2, max_value=2, max_denominator=100))
def test_term_programs_gluing_and_reindexing_keep_exact_arguments_exact(space, label, fn, q):
    # the values computed at application against the per-index path on a plain copy
    exact, plain = _exact_and_plain(space, q)
    fast, slow = _apply_both(fn, exact, plain)
    fast_fns, slow_fns = (space.functions([o] if space == Reals(1) else o) for o in (fast, slow))
    assert constant_values(*fast_fns) is not None
    assert constant_values(*slow_fns) is None
    for f, g in zip(fast_fns, slow_fns):
        assert [f(t) for t in range(201)] == [g(t) for t in range(201)]


@pytest.mark.parametrize("space", [Reals(1), M1], ids=str)
def test_a_root_that_reads_the_index_is_not_folded(space):
    # the embedded certificate is (proj 1); a composite's is a diagonalized term
    exact, plain = _exact_and_plain(space, Fraction(1, 3))
    fns, plain_fns = space.functions(exact), space.functions(plain)
    chain = dict(_exact_cases(space))["negate^8 after identity"]
    embedded = embed_uniform(identity(space))
    for certificate in (embedded.E, chain.E):
        fast, slow = certificate.apply(fns), certificate.apply(plain_fns)
        assert constant_values(fast) is None
        assert [fast(s) for s in range(60)] == [slow(s) for s in range(60)]
    assert [embedded.E.apply(fns)(s) for s in range(10)] == list(range(10))


@pytest.mark.parametrize(
    "fn,space",
    [
        (RECIP, Reals(1)),
        (realfns.compose_conditional(RECIP, RECIP), Reals(1)),
        (translate_conditional(RECIP), M1),
    ],
    ids=["recip", "recip-after-recip", "translated-recip"],
)
def test_localize_at_an_exact_anchor_records_the_cutoff_of_a_plain_anchor(fn, space):
    # its recording spies are not constants, so the certificate is read, not folded
    for q in (Fraction(1, 2), Fraction(-3, 4), Fraction(5, 3)):
        exact, plain = _exact_and_plain(space, q)
        exact, plain = (exact[0], plain[0]) if space == Reals(1) else (exact, plain)
        hood, _ = realfns.localize(fn, exact, 10**5)
        assert hood.cutoff > 0
        assert hood.cutoff == realfns.localize(fn, plain, 10**5)[0].cutoff


def test_translation_refuses_a_coded_map():
    # a coded map is no real function: a space mismatch, not an AttributeError
    with pytest.raises(SpaceMismatch):
        translate_uniform(identity(M1))
    with pytest.raises(SpaceMismatch):
        translate_conditional(embed_uniform_ms(identity(M1)))


def test_translation_back_requires_coordinate_spaces():
    bogus = identity(make_discrete(3))
    with pytest.raises(SpaceMismatch):
        translate_uniform_back(bogus)
    with pytest.raises(SpaceMismatch):
        translate_conditional_back(embed_uniform_ms(bogus))


def test_translation_back_refuses_a_real_function():
    # one record type for every space: a real function is not a coded map
    with pytest.raises(SpaceMismatch):
        translate_uniform_back(ADD)
    with pytest.raises(SpaceMismatch):
        translate_conditional_back(RECIP)


# ---------------------------------------------------------------------------
# composition, localization, gluing through the translations
# ---------------------------------------------------------------------------


def test_composition_agrees_with_the_real_path():
    assert_check(suites.translated_composition)


def test_localization_agrees_with_the_real_path():
    assert_check(suites.translated_localization)


def test_gluing_agrees_with_the_real_path():
    assert_check(suites.translated_gluing)


@pytest.mark.parametrize("space", [Reals(1), Reals(2), M1, M2, make_discrete(8)], ids=str)
def test_one_record_check_serves_every_space(space):
    codomain = Reals(1) if isinstance(space, Reals) else space
    w, m = space.width, codomain.width
    cert = ProcOperator(w, lambda _fns: NatFun.constant(0))
    values = [ProcOperator(w, lambda fns: fns[0])] * m
    params = [ProcOperator(w + 1, lambda fns: fns[0])] * m
    uniform = UniformFn(space, *values, codomain=codomain)
    conditional = ConditionalFn(space, cert, *params, codomain=codomain)
    for fn in (uniform, conditional):
        assert (fn.domain, fn.codomain, len(fn.values)) == (space, codomain, m)
    bad = [
        lambda: UniformFn(space, *values[1:], codomain=codomain),  # too few values
        lambda: UniformFn(space, *values, values[0], codomain=codomain),  # too many
        lambda: UniformFn(space, *params, codomain=codomain),  # value arity
        lambda: ConditionalFn(space, cert, *values, codomain=codomain),  # value arity
        lambda: ConditionalFn(space, cert, *params[1:], codomain=codomain),  # too few
        lambda: ConditionalFn(space, params[0], *params, codomain=codomain),  # cert arity
    ]
    for build in bad:
        with pytest.raises(ArityMismatch) as info:
            build()
        assert info.type is ArityMismatch


def test_a_real_domain_takes_real_values_and_an_int_names_it():
    T = ProcOperator(3, lambda fns: fns[0])
    with pytest.raises(SpaceMismatch):
        UniformFn(Reals(1), T, codomain=M1)
    with pytest.raises(SpaceMismatch):
        UniformFn(1, T, codomain=M1)
    assert UniformFn(1, T, T, T).domain == Reals(1)
    assert type(translate_conditional(RECIP)) is ConditionalFn
    assert type(translate_uniform(ADD)) is UniformFn


def test_ms_ball_requires_positive_radius():
    with pytest.raises(ValueError):
        MsBall(0, Fraction(0), identity(M1))


def test_the_ms_names_are_the_shared_constructions():
    for alias, shared in [
        ("find_parameter_ms", "find_parameter"),
        ("apply_uniform_ms", "apply_uniform"),
        ("apply_conditional_ms", "apply_conditional"),
        ("embed_uniform_ms", "embed_uniform"),
        ("compose_conditional_ms", "compose_conditional"),
        ("localize_ms", "localize"),
        ("glue_compact_ms", "glue_compact"),
        ("MsConditionalFn", "ConditionalFn"),
        ("MsBall", "Ball"),
        ("MsBallCover", "BallCover"),
    ]:
        assert getattr(metric, alias) is getattr(realfns, shared), alias


@pytest.mark.parametrize(
    "balls",
    [
        [Ball((0,), 1, identity_fn()), Ball((0, 0), 1, ADD)],
        [Ball(0, 1, identity(M1)), Ball(0, 1, identity(M2))],
    ],
    ids=["reals", "coded"],
)
def test_a_cover_needs_one_domain(balls):
    with pytest.raises(SpaceMismatch):
        BallCover(balls, separation=3)


def test_separation_is_checked_on_real_covers_only():
    real = two_ball_cover()
    coded = BallCover(
        [Ball(mn_code(b.center), b.radius, translate_uniform(b.local)) for b in real.balls],
        separation=real.separation,
    )
    assert separation_violations(real, [(Fraction(1, 2),)]) == []
    with pytest.raises(SpaceMismatch):
        separation_violations(coded, [(Fraction(1, 2),)])


# ---------------------------------------------------------------------------
# tupling and substitution
# ---------------------------------------------------------------------------


def test_single_component_tuple_behaves_like_the_component():
    recip_ms = translate_conditional(RECIP)
    bundled = tuple_conditional([recip_ms])
    name = mn_name((Fraction(1, 2),))
    s = find_parameter_ms(bundled, name, 100)
    out = apply_conditional_at(bundled, name, s)
    assert validate_ordinary_name(out, mn_code((Fraction(2),)), 150) == []


def test_two_component_tuple_names_the_value_pair():
    ident = embed_uniform_ms(translate_uniform(identity_fn()))
    recip_ms = translate_conditional(RECIP)
    bundled = tuple_conditional([ident, recip_ms])
    assert bundled.codomain is M2
    name = mn_name((Fraction(1, 2),))
    s = find_parameter_ms(bundled, name, 100)
    assert s == 10  # pair of the component parameters 0 and 4
    out = apply_conditional_at(bundled, name, s)
    assert validate_ordinary_name(out, mn_code((Fraction(1, 2), Fraction(2))), 150) == []


def test_tuple_components_must_share_their_domain():
    recip_ms = translate_conditional(RECIP)
    other = embed_uniform_ms(identity(M2))
    with pytest.raises(SpaceMismatch):
        tuple_conditional([recip_ms, other])
    with pytest.raises(ValueError):
        tuple_conditional([])


def test_tupling_then_composing_reproduces_two_argument_substitution():
    assert_check(suites.substitution)


def _tupled_cert_oracle(fns, f):
    # the hand-written tupled certificate: component i read at part i of s
    k = len(fns)
    certs = [fn.E.apply((f,)) for fn in fns]

    def ev(s):
        total = 0
        for i, cert in enumerate(certs, start=1):
            total = conj(total, cert(tuple_part(k, i, s)))
        return total

    return NatFun(ev, label="tupled-cert")


def _tupled_value_oracle(fns, f, e):
    # the hand-written tupled value: the components' code triples, interleaved
    k = len(fns)
    outs = [
        fn.values[0].apply((f, NatFun(lambda t, i=i: tuple_part(k, i, e(t)))))
        for i, fn in enumerate(fns, start=1)
    ]
    return NatFun(lambda t: tuple_pack([v for out in outs for v in tuple_parts(3, out(t))]))


TUPLE_COMPONENTS = {
    "recip": translate_conditional(RECIP),
    "double": embed_uniform_ms(
        translate_uniform(
            uniform_from_rule(1, lambda a: 2 * a, lambda t, names: 2 * t + 1, "double")
        )
    ),
    "identity": embed_uniform_ms(identity(M1)),
    "negate": embed_uniform_ms(NEGATE_MS),
}


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.sampled_from(sorted(TUPLE_COMPONENTS)), min_size=1, max_size=3),
    st.fractions(min_value=Fraction(1, 2), max_value=5, max_denominator=9),
    st.booleans(),
)
def test_tupling_agrees_with_the_hand_written_builders(labels, q, negative):
    fns = [TUPLE_COMPONENTS[label] for label in labels]
    bundled = tuple_conditional(fns)
    name = mn_name((-q if negative else q,))
    cert, oracle = bundled.E.apply((name.f,)), _tupled_cert_oracle(fns, name.f)
    assert [cert(s) for s in range(200)] == [oracle(s) for s in range(200)]
    s = find_parameter_ms(bundled, name, 5000)
    out = apply_conditional_at(bundled, name, s).f
    expected = _tupled_value_oracle(fns, name.f, NatFun.constant(s))
    assert [out(t) for t in range(100)] == [expected(t) for t in range(100)]


# ---------------------------------------------------------------------------
# composite search: the diagonal walk against the linear scan
# ---------------------------------------------------------------------------


def _least_or_none(fn, name, budget):
    try:
        return find_parameter_ms(fn, name, budget)
    except BudgetExhausted:
        return None


# the building blocks of random nestings on M_1, procedure- and term-backed
NESTED_PARTS = {
    "recip": translate_conditional(RECIP),
    "negate": translate_conditional(embed_uniform(negate_fn())),
    "negate-term": embed_uniform_ms(NEGATE_MS),
    "double": TUPLE_COMPONENTS["double"],
    "identity": translate_conditional(embed_uniform(identity_fn())),
    "identity-term": embed_uniform_ms(identity(M1)),
}
# up to three compositions deep, recip drawn about half the time
nestings = st.recursive(
    st.one_of(st.just("recip"), st.sampled_from(sorted(NESTED_PARTS))),
    lambda kids: st.tuples(kids, kids),
    max_leaves=4,
)


def _nested(tree):
    if isinstance(tree, str):
        return NESTED_PARTS[tree]
    outer, inner = tree
    return compose_conditional_ms(_nested(outer), _nested(inner))


@settings(max_examples=40, deadline=None)
@given(
    tree=nestings,
    point=st.sampled_from(["0", "1", "-2/3", "3/2", "1/4", "-5"]).map(Fraction),
    budget=st.integers(0, 1000),
)
def test_a_nested_coded_composite_search_returns_the_linear_scans_s(tree, point, budget):
    fn, name = _nested(tree), mn_name((point,))
    assert _least_or_none(fn, name, budget) == linear_scan(fn.E, (name.f,), budget)


@pytest.mark.parametrize("q", [Fraction(1, 2), Fraction(2), Fraction(-1, 3), Fraction(1, 9)])
def test_a_substitution_search_returns_the_linear_scans_s(q):
    pieces = tuple_conditional([NESTED_PARTS["recip"], NESTED_PARTS["double"]])
    composed = compose_conditional_ms(embed_uniform_ms(translate_uniform(ADD)), pieces)
    name = mn_name((q,))
    s = linear_scan(composed.E, (name.f,), 10**5)
    assert find_parameter_ms(composed, name, 10**5) == s
    with pytest.raises(BudgetExhausted):
        find_parameter_ms(composed, name, s)


# tuple components on M_1, one of which never certifies
TUPLE_PARTS = {
    **{label: NESTED_PARTS[label] for label in ("recip", "negate", "double", "identity-term")},
    "never": ConditionalFn(
        M1, ProcOperator(1, lambda _fns: NatFun.constant(1)), *NESTED_PARTS["negate"].values,
        codomain=M1,
    ),
}


@settings(max_examples=40, deadline=None)
@given(
    labels=st.lists(st.sampled_from(sorted(TUPLE_PARTS)), min_size=1, max_size=3),
    point=st.sampled_from(["0", "1", "-2/3", "3/2", "1/4", "1/9"]).map(Fraction),
    budget=st.integers(0, 800),
)
def test_a_tuple_search_returns_the_linear_scans_s(labels, point, budget):
    fn, name = tuple_conditional([TUPLE_PARTS[label] for label in labels]), mn_name((point,))
    assert _least_or_none(fn, name, budget) == linear_scan(fn.E, (name.f,), budget)


@pytest.mark.parametrize("q,s", [(Fraction(1, 50), 20200), (Fraction(-1, 20), pair(40, 40))])
def test_a_tuple_of_reciprocals_starts_at_the_pack_of_their_least_parameters(q, s):
    fn, name = tuple_conditional([NESTED_PARTS["recip"]] * 2), mn_name((q,))
    assert linear_scan(fn.E, (name.f,), s + 1) == s
    assert list(fn.order((name.f,), s + 1)) == [s]
    assert find_parameter_ms(fn, name, s + 1) == s
    with pytest.raises(BudgetExhausted):
        find_parameter_ms(fn, name, s)


RECIP_MS = translate_conditional(RECIP)


@settings(max_examples=60, deadline=None)
@given(
    code=st.one_of(
        st.just(0),
        st.integers(0, 10**9),
        rational.map(lambda q: mn_code((q,))),
    ),
    budget=st.integers(0, 3000),
)
def test_the_translated_reciprocal_search_returns_the_linear_scans_s(code, budget):
    # the real certificate's order, read through the decoding of an exact code
    name = OrdinaryName(NatFun.constant(code), M1)
    assert _least_or_none(RECIP_MS, name, budget) == linear_scan(RECIP_MS.E, (name.f,), budget)


def test_a_translation_back_follows_the_coded_search_order():
    # the coded order, read through the packing: nothing on the exact zero,
    # the least s first on 1/10, and the linear scan's s for a composite
    back = translate_conditional_back(RECIP_MS)
    zero, tenth = rational_name(0), rational_name(Fraction(1, 10))
    assert next(iter(back.order(tuple(zero), 10**9)), None) is None
    s = linear_scan(back.E, tuple(tenth), 10**4)
    assert next(iter(back.order(tuple(tenth), 10**4))) == s
    composite = translate_conditional_back(compose_conditional_ms(RECIP_MS, RECIP_MS))
    s = linear_scan(composite.E, tuple(tenth), 10**4)
    assert find_parameter(composite, [tenth], 10**4) == s == 210


def test_the_translated_reciprocal_probes_nothing_at_an_exact_zero():
    name = mn_name((0,))
    assert next(iter(RECIP_MS.order((name.f,), 10**9)), None) is None
    with pytest.raises(BudgetExhausted):
        find_parameter_ms(RECIP_MS, name, 10**9)


@pytest.mark.parametrize("budget", [-1, False, 3.0])
def test_a_coded_budget_that_is_not_a_natural_is_refused(budget):
    recip_ms, name = NESTED_PARTS["recip"], mn_name((Fraction(1, 2),))
    for search in (find_parameter_ms, apply_conditional_ms, localize_ms):
        with pytest.raises(ValueError, match="budget must be a natural"):
            search(recip_ms, name, budget)


# ---------------------------------------------------------------------------
# coded ball indicators
# ---------------------------------------------------------------------------


@settings(max_examples=80)
@given(st.integers(min_value=0, max_value=5000))
def test_code_ball_indicator_agrees_with_dist_lt(code):
    center = mn_code((Fraction(1, 2),))
    radius = Fraction(3, 4)
    ind = code_ball_indicator(1, center, radius)
    assert (ind(code) == 0) == M1.dist_lt(code, center, radius)


def test_code_ball_indicator_in_two_dimensions():
    center = mn_code((Fraction(0), Fraction(1)))
    ind = code_ball_indicator(2, center, Fraction(1, 2))
    inside = mn_code((Fraction(1, 4), Fraction(9, 8)))
    outside = mn_code((Fraction(1, 4), Fraction(3, 2)))
    assert ind(inside) == 0
    assert ind(outside) != 0


# refusals no other test reaches: (what, call, exception, message)
METRIC_REFUSALS = [
    ("M_0", lambda: make_mn(0), ValueError, "dimension must be at least 1"),
    ("a discrete space of no points", lambda: make_discrete(0), ValueError, "at least one point"),
    ("axioms without a distance",
     lambda: metric_axiom_violations(replace(make_mn(1), dist=None), [0, 1]),
     ValueError, "M_1 has no exact distance oracle"),
    # a record of the wrong kind, refused at the call that gets it
    ("a conditional function translated as uniform", lambda: translate_uniform(RECIP),
     ValueError, "expected a UniformFn, got ConditionalFn"),
    ("a uniform function translated as conditional", lambda: translate_conditional(ADD),
     ValueError, "expected a ConditionalFn, got UniformFn"),
    ("a coded conditional translated back as uniform",
     lambda: translate_uniform_back(RECIP_MS),
     ValueError, "expected a UniformFn, got ConditionalFn"),
    ("a coded uniform map translated back as conditional",
     lambda: translate_conditional_back(NEGATE_MS),
     ValueError, "expected a ConditionalFn, got UniformFn"),
    ("a coded uniform map in a tuple",
     lambda: tuple_conditional([RECIP_MS, translate_uniform(REGISTRY.get("neg").fn)]),
     ValueError, "expected a ConditionalFn, got UniformFn"),
    ("a name triple checked as an ordinary name",
     lambda: validate_ordinary_name(rational_name(1), 0, 3),
     ValueError, "expected an OrdinaryName, got NameTriple"),
    ("a function's axioms checked as a space", lambda: metric_axiom_violations(ADD, [0]),
     ValueError, "expected an EffectiveSpace, got UniformFn"),
    ("a rational tuple as the centre of a coded ball",
     lambda: Ball((1, 2), 1, NEGATE_MS), SpaceMismatch, "takes a code as a ball centre"),
]


@pytest.mark.parametrize("case", METRIC_REFUSALS, ids=lambda case: case[0])
def test_metric_refusals_raise_their_documented_errors(case):
    _, call, error, message = case
    with pytest.raises(error, match=message):
        call()
