from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condreal import metric
from condreal.elementary import default_functions, uniform_from_rule
from condreal.gadgets import tuple_pack, tuple_part
from condreal.metric import (
    MsBall,
    MsBallCover,
    OrdinaryName,
    SpaceMismatch,
    apply_conditional_ms,
    apply_conditional_ms_at,
    apply_uniform_ms,
    builtin_spaces,
    code_ball_indicator,
    compose_conditional_ms,
    dispatch_index_ms,
    embed_uniform_ms,
    find_parameter_ms,
    glue_compact_ms,
    identity_ms,
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
from condreal.naming import NatFun, approx, rational_name, validate_name
from condreal.realfns import (
    apply_conditional_at,
    apply_uniform,
    compose_conditional,
    find_parameter,
    glue_compact,
    localize,
    Ball,
    BallCover,
)

REGISTRY = default_functions()
RECIP = REGISTRY.get("recip").fn
ADD = REGISTRY.get("add").fn

M1 = make_mn(1)
M2 = make_mn(2)

rational = st.fractions(min_value=-50, max_value=50, max_denominator=40)


def proc_negate_fn():
    return uniform_from_rule(1, lambda a: -a, lambda t, names: t, "negate")


def proc_identity_fn():
    return uniform_from_rule(1, lambda a: a, lambda t, names: t, "identity")


def double_fn():
    return uniform_from_rule(1, lambda a: 2 * a, lambda t, names: 2 * t + 1, "double")


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
    ident = identity_ms(M1)
    name = mn_name((Fraction(7, 3),))
    out = apply_uniform_ms(ident, name)
    assert out.space is M1
    assert validate_ordinary_name(out, mn_code((Fraction(7, 3),)), 100) == []
    with pytest.raises(SpaceMismatch):
        apply_uniform_ms(identity_ms(M2), name)


def test_embedded_uniform_certifies_at_zero():
    embedded = embed_uniform_ms(identity_ms(M1))
    name = mn_name((Fraction(4),))
    assert find_parameter_ms(embedded, name, 5) == 0


# ---------------------------------------------------------------------------
# translations
# ---------------------------------------------------------------------------


def test_translated_addition_names_the_sum():
    add_ms = translate_uniform(ADD)
    assert add_ms.domain is M2
    name = mn_name((Fraction(1, 2), Fraction(1, 3)))
    out = apply_uniform_ms(add_ms, name)
    assert validate_ordinary_name(out, mn_code((Fraction(5, 6),)), 200) == []


def test_translated_reciprocal_finds_the_same_parameter():
    recip_ms = translate_conditional(RECIP)
    for q, expected in ((Fraction(1, 3), 6), (Fraction(1), 2), (Fraction(-3, 2), 1)):
        name = mn_name((q,))
        s = find_parameter_ms(recip_ms, name, 100)
        assert s == find_parameter(RECIP, [rational_name(q)], 100) == expected
        out = apply_conditional_ms_at(recip_ms, name, s)
        real = apply_conditional_at(RECIP, [rational_name(q)], s)
        for t in range(40):
            assert M1.alpha(out.f(t)) == (approx(real, t),)


def test_uniform_translation_round_trip_is_pointwise_exact():
    rng = Random(13)
    back = translate_uniform_back(translate_uniform(ADD))
    for _ in range(30):
        a = Fraction(rng.randrange(-20, 21), rng.randrange(1, 9))
        b = Fraction(rng.randrange(-20, 21), rng.randrange(1, 9))
        names = [rational_name(a), rational_name(b)]
        direct = apply_uniform(ADD, names)
        routed = apply_uniform(back, names)
        for t in range(0, 30, 3):
            assert routed.f(t) == direct.f(t)
            assert routed.g(t) == direct.g(t)
            assert routed.h(t) == direct.h(t)


def test_conditional_translation_round_trip_is_pointwise_exact():
    back = translate_conditional_back(translate_conditional(RECIP))
    name = [rational_name(Fraction(2, 7))]
    s_direct = find_parameter(RECIP, name, 100)
    s_routed = find_parameter(back, name, 100)
    assert s_routed == s_direct
    direct = apply_conditional_at(RECIP, name, s_direct)
    routed = apply_conditional_at(back, name, s_routed)
    for t in range(25):
        assert approx(routed, t) == approx(direct, t)


def test_ms_translation_round_trip_is_code_exact():
    add_ms = translate_uniform(ADD)
    again = translate_uniform(translate_uniform_back(add_ms))
    name = mn_name((Fraction(1, 5), Fraction(3, 4)))
    out1 = apply_uniform_ms(add_ms, name)
    out2 = apply_uniform_ms(again, name)
    for t in range(25):
        assert out1.f(t) == out2.f(t)


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
    out = apply_conditional_ms_at(recip_ms, argument, s)
    assert validate_ordinary_name(out, mn_code((Fraction(4, 3),)), 39) == []
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


def test_translation_back_requires_coordinate_spaces():
    bogus = identity_ms(make_discrete(3))
    with pytest.raises(SpaceMismatch):
        translate_uniform_back(bogus)
    with pytest.raises(SpaceMismatch):
        translate_conditional_back(embed_uniform_ms(bogus))


# ---------------------------------------------------------------------------
# composition, localization, gluing through the translations
# ---------------------------------------------------------------------------


def test_composition_agrees_with_the_real_path():
    real = compose_conditional(RECIP, RECIP)
    ms = compose_conditional_ms(translate_conditional(RECIP), translate_conditional(RECIP))
    q = Fraction(2, 3)
    s_real = find_parameter(real, [rational_name(q)], 1000)
    s_ms = find_parameter_ms(ms, mn_name((q,)), 1000)
    assert s_ms == s_real == 11
    real_out = apply_conditional_at(real, [rational_name(q)], s_real)
    ms_out = apply_conditional_ms_at(ms, mn_name((q,)), s_ms)
    for t in range(50):
        assert M1.alpha(ms_out.f(t)) == (approx(real_out, t),)


def test_localization_agrees_with_the_real_path():
    hood_real, local_real = localize(RECIP, rational_name(Fraction(1)), 100)
    hood_ms, local_ms = localize_ms(translate_conditional(RECIP), mn_name((Fraction(1),)), 100)
    assert hood_ms.cutoff == hood_real.cutoff == 2
    for q in (Fraction(3, 4), Fraction(1), Fraction(9, 8), Fraction(2, 3), Fraction(7, 5)):
        assert hood_ms.contains_code(mn_code((q,))) == hood_real.contains(q)
    for q in (Fraction(3, 4), Fraction(1), Fraction(9, 8)):
        ms_out = apply_uniform_ms(local_ms, mn_name((q,)))
        real_out = apply_uniform(local_real, [rational_name(q)])
        for t in range(40):
            assert M1.alpha(ms_out.f(t)) == (approx(real_out, t),)
        assert validate_ordinary_name(ms_out, mn_code((1 / q,)), 150) == []


def test_gluing_agrees_with_the_real_path():
    negate, identity = proc_negate_fn(), proc_identity_fn()
    real_cover = BallCover(
        (
            Ball((Fraction(-1),), Fraction(3, 2), negate),
            Ball((Fraction(1),), Fraction(3, 2), identity),
        ),
        separation=3,
    )
    ms_cover = MsBallCover(
        (
            MsBall(mn_code((Fraction(-1),)), Fraction(3, 2), translate_uniform(negate)),
            MsBall(mn_code((Fraction(1),)), Fraction(3, 2), translate_uniform(identity)),
        ),
        separation=3,
    )
    real_glued = glue_compact(real_cover)
    ms_glued = glue_compact_ms(ms_cover)
    points = [Fraction(n, 8) for n in range(-8, 1)] + [Fraction(n, 8) for n in range(2, 9)]
    for q in points:
        real_out = apply_uniform(real_glued, [rational_name(q)])
        ms_out = apply_uniform_ms(ms_glued, mn_name((q,)))
        for t in range(0, 40, 5):
            assert M1.alpha(ms_out.f(t)) == (approx(real_out, t),)
        assert dispatch_index_ms(ms_cover, mn_name((q,))) == (1 if q <= 0 else 2)


def test_ms_ball_requires_positive_radius():
    with pytest.raises(ValueError):
        MsBall(0, Fraction(0), identity_ms(M1))


# ---------------------------------------------------------------------------
# tupling and substitution
# ---------------------------------------------------------------------------


def test_single_component_tuple_behaves_like_the_component():
    recip_ms = translate_conditional(RECIP)
    bundled = tuple_conditional([recip_ms])
    name = mn_name((Fraction(1, 2),))
    s = find_parameter_ms(bundled, name, 100)
    out = apply_conditional_ms_at(bundled, name, s)
    assert validate_ordinary_name(out, mn_code((Fraction(2),)), 150) == []


def test_two_component_tuple_names_the_value_pair():
    ident = embed_uniform_ms(translate_uniform(proc_identity_fn()))
    recip_ms = translate_conditional(RECIP)
    bundled = tuple_conditional([ident, recip_ms])
    assert bundled.codomain is M2
    name = mn_name((Fraction(1, 2),))
    s = find_parameter_ms(bundled, name, 100)
    assert s == 10  # pair of the component parameters 0 and 4
    out = apply_conditional_ms_at(bundled, name, s)
    assert validate_ordinary_name(out, mn_code((Fraction(1, 2), Fraction(2))), 150) == []


def test_tuple_components_must_share_their_domain():
    recip_ms = translate_conditional(RECIP)
    other = embed_uniform_ms(identity_ms(M2))
    with pytest.raises(SpaceMismatch):
        tuple_conditional([recip_ms, other])
    with pytest.raises(ValueError):
        tuple_conditional([])


def test_tupling_then_composing_reproduces_two_argument_substitution():
    # q  |->  add(recip(q), double(q)), assembled from unary pieces
    bundle = tuple_conditional(
        [translate_conditional(RECIP), embed_uniform_ms(translate_uniform(double_fn()))]
    )
    outer = embed_uniform_ms(translate_uniform(ADD))
    composed = compose_conditional_ms(outer, bundle)
    oracle = lambda q: 1 / q + 2 * q
    for q in (Fraction(1, 2), Fraction(2), Fraction(-1, 3)):
        name = mn_name((q,))
        out = apply_conditional_ms(composed, name, 100_000)
        assert validate_ordinary_name(out, mn_code((oracle(q),)), 150) == []


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
