import tracemalloc
from fractions import Fraction
from itertools import product
from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from condreal import suites
from condreal.gadgets import (
    CORE,
    GadgetRegistry,
    ball_indicator,
    conj,
    constant,
    decency_check,
    default_registry,
    delta_1,
    delta_k,
    derive_constant,
    gamma,
    gt,
    left,
    lt,
    monus,
    mu,
    pair,
    prefix,
    right,
    succ,
    tuple_pack,
    tuple_part,
    tuple_parts,
)

from condreal.metric import make_discrete, make_mn
from condreal.naming import NatFun
from condreal.sexpr import SexprError
from condreal.terms import Apply, Base, OperatorTerm, Proj, eval_term, parse_term, print_term

from conftest import assert_check

nats = st.integers(min_value=0, max_value=10_000)
small = st.integers(min_value=0, max_value=30)


# ---------------------------------------------------------------------------
# core arithmetic
# ---------------------------------------------------------------------------


@given(nats)
def test_succ(x):
    assert succ(x) == x + 1


@given(nats, nats)
def test_monus_is_truncated_subtraction(x, y):
    assert monus(x, y) == max(x - y, 0)


@given(nats, nats)
def test_conj_vanishes_exactly_when_both_do(u, v):
    assert (conj(u, v) == 0) == (u == 0 and v == 0)


def test_delta_1_dispatches_on_zero():
    for x, y, z in product(range(4), repeat=3):
        assert delta_1(x, y, z) == (y if x == 0 else z)


# ---------------------------------------------------------------------------
# pairing and tuples
# ---------------------------------------------------------------------------


@given(nats, nats)
def test_pairing_round_trip(u, v):
    n = pair(u, v)
    assert left(n) == u
    assert right(n) == v


@given(nats)
def test_pairing_is_surjective(n):
    assert pair(left(n), right(n)) == n


def test_pairing_is_a_bijection_on_an_initial_segment():
    seen = {pair(u, v) for u in range(40) for v in range(40)}
    assert len(seen) == 1600
    assert set(range(40 * 41 // 2)) <= seen


@given(st.lists(small, min_size=1, max_size=5))
def test_tuple_pack_parts_invert(values):
    packed = tuple_pack(values)
    k = len(values)
    for i, v in enumerate(values, start=1):
        assert tuple_part(k, i, packed) == v


@given(st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=7))
def test_tuple_parts_walks_to_every_tuple_part(values):
    code = tuple_pack(values)
    k = len(values)
    assert tuple_parts(k, code) == tuple(values)
    assert tuple_parts(k, code) == tuple(tuple_part(k, i, code) for i in range(1, k + 1))


def test_tuple_part_validates_indices():
    with pytest.raises(ValueError):
        tuple_part(3, 0, 5)
    with pytest.raises(ValueError):
        tuple_part(3, 4, 5)


# ---------------------------------------------------------------------------
# selectors and comparators
# ---------------------------------------------------------------------------


def test_delta_k_matches_first_zero_dispatch():
    assert_check(suites.delta_k_dispatch)


def delta_recursive(k, args):
    # the paper's recursion, delta_{K+1}(x1, y1, rest) = delta_1(x1, y1,
    # delta_K(rest)): the oracle for the iterative evaluation
    if k == 0:
        return args[0]
    return delta_1(args[0], args[1], delta_recursive(k - 1, args[2:]))


def test_delta_k_matches_its_recursion_exhaustively():
    for k in range(5):
        fn = delta_k(k).fn
        for args in product(range(3), repeat=2 * k + 1):
            assert fn(*args) == delta_recursive(k, args)


def test_delta_k_evaluates_long_argument_lists():
    # far past the interpreter's recursion limit
    k = 3000
    assert delta_k(k).fn(*([1] * (2 * k) + [4])) == 4
    assert delta_k(k).fn(*([1] * (2 * k - 2) + [0, 7, 4])) == 7


def test_mu_matches_its_case_rule_and_its_dispatch_formula():
    assert_check(suites.mu_cases)


def test_gamma_positivity_encodes_the_sum_comparison():
    assert_check(suites.gamma_sign)


def gamma_recursive(b, c, args):
    # the paper's recursion on (b, c), one argument peeled per step: the
    # oracle for the iterative evaluation
    xs, ys = args[:b], args[b:]
    if b == 1 and c == 1:
        return monus(xs[0], ys[0])
    if b == 1:
        return gamma_recursive(1, c - 1, (monus(xs[0], ys[-1]),) + tuple(ys[:-1]))
    if c == 1:
        guard = monus(xs[-1], ys[0])
        if guard == 0:
            return gamma_recursive(b - 1, 1, tuple(xs[:-1]) + (monus(ys[0], xs[-1]),))
        return guard
    guard = monus(xs[-1], ys[-1])
    if guard == 0:
        return gamma_recursive(
            b - 1, c, tuple(xs[:-1]) + tuple(ys[:-1]) + (monus(ys[-1], xs[-1]),)
        )
    return gamma_recursive(b, c - 1, tuple(xs[:-1]) + (guard,) + tuple(ys[:-1]))


def test_gamma_matches_its_recursion_exhaustively():
    for b, c in product(range(1, 5), repeat=2):
        fn = gamma(b, c).fn
        for args in product(range(4 if b + c <= 6 else 3), repeat=b + c):
            assert fn(*args) == gamma_recursive(b, c, args)


@given(
    st.lists(small, min_size=1, max_size=12),
    st.lists(small, min_size=1, max_size=12),
)
def test_gamma_matches_its_recursion_on_sampled_arguments(xs, ys):
    args = tuple(xs + ys)
    assert gamma(len(xs), len(ys)).fn(*args) == gamma_recursive(len(xs), len(ys), args)


@given(
    st.lists(small, min_size=1, max_size=40),
    st.lists(small, min_size=1, max_size=40),
)
def test_closed_form_gamma_is_the_value_of_its_recursion(xs, ys):
    args = tuple(xs + ys)
    assert gamma(len(xs), len(ys)).fn(*args) == gamma_recursive(len(xs), len(ys), args)


def lt_recursive(a, x, y, z):
    # lt_a as the paper builds it: gamma_{b,c} of b copies of one side
    # against c copies of the other, evaluated by the recursion
    if a == 0:
        return monus(y, x)
    if a > 0:
        b, c = a.numerator, a.denominator
        return gamma_recursive(b, c, (z + 1,) * b + (monus(x, y),) * c)
    c, b = -a.numerator, a.denominator
    return gamma_recursive(b, c, (monus(y, x),) * b + (z + 1,) * c)


@given(
    st.integers(min_value=-40, max_value=40),
    st.integers(min_value=1, max_value=40),
    small,
    small,
    small,
)
def test_lt_gt_values_are_the_values_of_the_gamma_recursion(p, d, x, y, z):
    a = Fraction(p, d)
    assert lt(a).fn(x, y, z) == lt_recursive(a, x, y, z)
    assert gt(a).fn(x, y, z) == lt_recursive(-a, y, x, z)


def _sign_cases(a):
    # triples on, just below and just above the threshold, and far off
    p, d = a.numerator, a.denominator
    cases = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (10**15, 0, 0), (0, 10**15, 2)]
    for scale in (1, 3):
        for delta in (-1, 0, 1):
            num, den = scale * p + delta, scale * d
            cases.append((max(num, 0), max(-num, 0), den - 1))
    return cases


@pytest.mark.parametrize(
    "test, a",
    [
        (lt, Fraction(10**12)),
        (gt, Fraction(-(10**12))),
        (lt, Fraction(10**9 + 1, 10**9)),
        (gt, Fraction(10**9 + 1, 10**9)),
    ],
)
def test_sign_tests_with_huge_thresholds_run_in_constant_memory(test, a):
    tracemalloc.start()
    try:
        fn = test(a).fn
        values = [(fn(*xyz), xyz) for xyz in _sign_cases(a)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000
    for value, (x, y, z) in values:
        q = Fraction(x - y, z + 1)
        assert (value > 0) == (q < a if test is lt else q > a), (x, y, z)


def test_a_ball_of_huge_radius_runs_in_constant_memory():
    center, radius = Fraction(3, 7), Fraction(10**6)
    tracemalloc.start()
    try:
        fn = ball_indicator((center,), radius).fn
        cases = _sign_cases(center + radius) + _sign_cases(center - radius)
        values = [(fn(*xyz), xyz) for xyz in cases]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000
    for value, (x, y, z) in values:
        inside = abs(Fraction(x - y, z + 1) - center) < radius
        assert (value == 0) == inside, (x, y, z)


def test_gamma_evaluates_long_argument_lists():
    # far past the interpreter's recursion limit
    b, c = 3000, 2999
    assert gamma(b, c).fn(*([1] * (b + c))) == 1
    assert gamma(b, c).fn(*([1] * b + [2] * c)) == 0


def test_gamma_rejects_empty_sides():
    with pytest.raises(ValueError):
        gamma(0, 1)
    with pytest.raises(ValueError):
        gamma(1, 0)


def test_lt_gt_match_exact_rational_comparison():
    assert_check(suites.sign_tests)


def test_ball_indicator_matches_max_norm_membership():
    assert_check(suites.ball_membership)


def test_ball_indicator_with_nonpositive_radius_never_passes():
    ind = ball_indicator((Fraction(0),), Fraction(0))
    for x, y, z in product(range(3), repeat=3):
        assert ind.fn(x, y, z) != 0


def test_derive_constant_from_the_core_operations():
    for c in range(7):
        fn = derive_constant(c)
        assert fn.arity == 1
        assert [fn.fn(x) for x in range(5)] == [c] * 5


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


def test_core_registry_has_the_eight_base_entries():
    for name in ("succ", "monus", "mul", "delta_1", "conj", "pair", "left", "right"):
        assert name in CORE.names()
        assert CORE.get(name).name == name


def test_resolve_spells_out_families():
    assert CORE.resolve("delta_3").arity == 7
    assert CORE.resolve("const_4").fn(9) == 4
    assert CORE.resolve("mu_2_5").fn(2, 0) == 5
    assert CORE.resolve("gamma_2_1").arity == 3
    assert CORE.resolve("lt_1/2").fn(0, 1, 0) > 0
    assert CORE.resolve("gt_-3").fn(0, 1, 0) > 0
    with pytest.raises(KeyError):
        CORE.resolve("nosuch")
    with pytest.raises(KeyError):
        CORE.resolve("delta_x")


def test_resolve_is_consistent_with_direct_constructors():
    got = CORE.resolve("gamma_2_2")
    for args in product(range(3), repeat=4):
        assert got.fn(*args) == gamma(2, 2).fn(*args)


FAMILY_MEMBERS = [
    *(delta_k(k) for k in (0, 1, 2, 3)),
    *(constant(c) for c in (0, 7, 10**30)),
    mu(0, 0),
    mu(3, 9),
    prefix(0, 0),
    prefix(3, 9),
    prefix(10**6, 7),
    gamma(1, 1),
    gamma(2, 3),
    *(make(a) for make in (lt, gt) for a in (0, 2, -3, Fraction(5, 7), Fraction(-1, 2))),
    ball_indicator((0,), 1),
    ball_indicator((Fraction(-1),), Fraction(5, 4)),
    ball_indicator((Fraction(1, 2), Fraction(-3)), Fraction(1, 3)),
    ball_indicator((Fraction(0), Fraction(0)), Fraction(-1, 2)),
]


@pytest.mark.parametrize("member", FAMILY_MEMBERS, ids=lambda fn: fn.name)
def test_resolve_rebuilds_every_family_member_from_its_name(member):
    got = CORE.resolve(member.name)
    assert (got.name, got.arity) == (member.name, member.arity)
    rng = Random(member.name)
    for _ in range(300):
        args = [rng.randrange(5) for _ in range(member.arity)]
        assert got.fn(*args) == member.fn(*args)


@pytest.mark.parametrize("k,c", [(0, 0), (1, 5), (300, 1), (10**9, 2)])
def test_a_prefix_cut_prints_parses_back_and_is_the_run_of_mu_overrides(k, c):
    # one node, whatever the cut: the mu overrides of 0..k-1, all to c
    node = Base(prefix(k, c), (Proj(1), Apply(1, Proj(1))))
    term = OperatorTerm(1, 1, node)
    text = print_term(term)
    assert text == f"(base prefix_{k}_{c} (proj 1) (apply 1 (proj 1)))"
    assert parse_term(text, 1, 1, CORE.resolve) == term
    f = NatFun(lambda t: 3 * t + 1)
    for t in [0, 1, k - 1, k, k + 1, 2 * k + 5]:
        if t >= 0:
            assert eval_term(term, [f], [t]) == (c if t < k else f(t))
    assert prefix(k, c).fn.prefix_cut == k


@pytest.mark.parametrize(
    "name",
    ["ball_0", "ball_r_1", "ball__r_1", "ball_0_1", "ball_0_r", "ball_0_r_1_r_2", "ball_0_r_x"],
)
def test_resolve_refuses_malformed_ball_spellings(name):
    with pytest.raises(KeyError):
        CORE.resolve(name)


NON_CANONICAL = {
    "lt_2/4": "lt_1/2",
    "lt_0.5": "lt_1/2",
    "const_007": "const_7",
    "delta_+3": "delta_3",
    "delta_00": "delta_0",
    "mu_1_ 2": "mu_1_2",
    "prefix_03_1": "prefix_3_1",
    "ball_0/2_r_1": "ball_0_r_1",
}


@pytest.mark.parametrize("spelling", sorted(NON_CANONICAL))
def test_resolve_refuses_spellings_the_constructors_never_produce(spelling):
    # the same parameters in their canonical spelling resolve
    assert CORE.resolve(NON_CANONICAL[spelling]).name == NON_CANONICAL[spelling]
    with pytest.raises(KeyError):
        CORE.resolve(spelling)
    with pytest.raises(SexprError):
        parse_term(f"(base {spelling} (proj 1))", 1, 1, CORE.resolve)


def test_registry_without_drops_a_name():
    reg = default_registry().without("mul")
    assert "mul" not in reg.names()
    with pytest.raises(KeyError):
        reg.get("mul")
    assert "mul" in CORE.names()


def test_registry_override_replaces_behavior():
    reg = default_registry().override("succ", lambda x: x + 2)
    assert reg.get("succ").fn(0) == 2
    assert CORE.get("succ").fn(0) == 1


def test_decency_check_passes_on_the_default_registry():
    report = decency_check(CORE)
    assert report.passed
    assert all(line.endswith("ok") for line in report.lines())


def test_decency_check_fails_on_wrapping_subtraction():
    wrapped = default_registry().override("monus", lambda x, y: (x - y) % 2**16)
    report = decency_check(wrapped)
    assert not report.passed
    assert any("monus" in line for line in report.lines() if "FAIL" in line)


ENTRIES = ["entry succ", "entry monus", "entry delta_1"]
BEHAVIOR = ["succ behavior", "monus behavior", "delta_1 behavior"]
WITNESSES = [
    f"{w} witness" for w in ("projection", "composition", "substitution", "diagonalization")
]


@pytest.mark.parametrize(
    "registry,verdicts",
    [
        (CORE, dict.fromkeys(ENTRIES + BEHAVIOR + WITNESSES, True)),
        (CORE.without("delta_1"), {**dict.fromkeys(ENTRIES, True), "entry delta_1": False}),
        (
            default_registry().override("succ", lambda x: x + 2),
            {**dict.fromkeys(ENTRIES + BEHAVIOR, True), "succ behavior": False},
        ),
        (
            default_registry().override("monus", lambda x, y: (x - y) % 2**16),
            {**dict.fromkeys(ENTRIES + BEHAVIOR, True), "monus behavior": False},
        ),
        (
            default_registry().override("delta_1", lambda x, y, z: 0),
            {**dict.fromkeys(ENTRIES + BEHAVIOR, True), "delta_1 behavior": False},
        ),
    ],
    ids=["core", "no-delta_1", "succ+2", "wrapping-monus", "constant-delta_1"],
)
def test_decency_check_names_order_and_verdicts(registry, verdicts):
    # a stage runs only when every check before it passed
    report = decency_check(registry)
    assert [(c.name, c.passed) for c in report.checks] == list(verdicts.items())


def test_decency_check_fails_on_broken_dispatch():
    broken = default_registry().override("delta_1", lambda x, y, z: y)
    assert not decency_check(broken).passed


# refusals no other test reaches: (what, call, exception, message)
GADGETS_REFUSALS = [
    ("pack no values", lambda: tuple_pack([]), ValueError, "at least one value"),
    ("parts of a 0-tuple", lambda: tuple_parts(0, 5), ValueError, "at least one component"),
    ("indicator with no coordinate", lambda: ball_indicator([], 1), ValueError, "at least one coordinate"),
]


@pytest.mark.parametrize("case", GADGETS_REFUSALS, ids=lambda case: case[0])
def test_gadgets_refusals_raise_their_documented_errors(case):
    _, call, error, message = case
    with pytest.raises(error, match=message):
        call()


# constructors taking naturals, each called with ``v`` where a natural goes
NATURAL_PARAMETERS = {
    "make_mn": make_mn,
    "make_discrete": make_discrete,
    "constant": constant,
    "derive_constant": derive_constant,
    "mu k": lambda v: mu(v, 2),
    "mu c": lambda v: mu(2, v),
    "prefix k": lambda v: prefix(v, 2),
    "prefix c": lambda v: prefix(2, v),
    "delta_k": delta_k,
    "gamma b": lambda v: gamma(v, 1),
    "gamma c": lambda v: gamma(1, v),
    "patched": lambda v: NatFun.patched(NatFun.constant(0), v, NatFun.identity()),
}


@pytest.mark.parametrize("value", [True, 1.5, "2"], ids=repr)
@pytest.mark.parametrize("what", sorted(NATURAL_PARAMETERS))
def test_constructors_refuse_a_parameter_that_is_not_a_natural(what, value):
    with pytest.raises(ValueError):
        NATURAL_PARAMETERS[what](value)
