import sys
import tracemalloc
from fractions import Fraction
from itertools import product
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condreal import elementary, naming
from condreal.elementary import (
    DEFAULT_GRID,
    Entry,
    FunctionRegistry,
    OutsideDomain,
    constant_fn,
    default_functions,
    reciprocal_fn,
    register_builtins,
    registry_validate,
    uniform_from_rule,
)
from condreal.naming import (
    MEMO_CAP,
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
    BudgetExhausted,
    ConditionalFn,
    ProcOperator,
    apply_conditional,
    apply_conditional_at,
    apply_uniform,
    find_parameter,
)

from conftest import linear_scan


@pytest.fixture(scope="module")
def registry():
    return default_functions()


def test_builtin_names_and_aliases(registry):
    assert registry.names() == [
        "abs", "add", "max", "min", "mul", "negate", "recip", "sub",
    ]
    assert registry.get("neg") is registry.get("negate")
    assert registry.get("reciprocal") is registry.get("recip")
    assert "neg" in registry
    assert "nosuch" not in registry


def test_entry_kinds(registry):
    assert registry.get("add").kind == "uniform"
    assert registry.get("recip").kind == "conditional"
    assert registry.get("recip").n_args == 1


def test_addition_names_the_sum(registry):
    add = registry.get("add").fn
    out = apply_uniform(add, [rational_name(Fraction(1, 2)), rational_name(Fraction(1, 3))])
    assert validate_name(out, Fraction(5, 6), 400).passed


def test_absolute_value_names_the_magnitude(registry):
    out = apply_uniform(registry.get("abs").fn, [rational_name(Fraction(-7, 5))])
    assert validate_name(out, Fraction(7, 5), 400).passed


def test_multiplication_handles_large_magnitudes(registry):
    mul = registry.get("mul").fn
    out = apply_uniform(mul, [rational_name(Fraction(22, 7)), rational_name(Fraction(-3, 2))])
    assert validate_name(out, Fraction(-33, 7), 400).passed


def test_oracles_are_exact(registry):
    assert registry.get("sub").oracle(Fraction(1, 3), Fraction(1, 2)) == Fraction(-1, 6)
    assert registry.get("min").oracle(Fraction(2), Fraction(-3)) == Fraction(-3)
    with pytest.raises(OutsideDomain):
        registry.get("recip").oracle(Fraction(0))


def test_reciprocal_certificate_parameters(registry):
    recip = registry.get("recip").fn
    cases = {
        Fraction(1): 2,
        Fraction(1, 2): 4,
        Fraction(1, 3): 6,
        Fraction(-3, 2): 1,
        Fraction(2): 1,
    }
    for q, expected in cases.items():
        assert find_parameter(recip, [rational_name(q)], 1000) == expected


def test_reciprocal_parameter_growth_tracks_smallness(registry):
    recip = registry.get("recip").fn
    found = [
        find_parameter(recip, [rational_name(Fraction(1, d))], 100_000)
        for d in (1, 10, 100, 1000)
    ]
    assert found == sorted(found)
    assert found[-1] == 2000


def test_reciprocal_names_the_inverse(registry):
    recip = registry.get("recip").fn
    for q in (Fraction(1, 2), Fraction(-3, 2), Fraction(22, 7)):
        out = apply_conditional(recip, [rational_name(q)], 10_000)
        assert validate_name(out, 1 / q, 400).passed


def test_reciprocal_at_zero_exhausts_any_small_budget(registry):
    recip = registry.get("recip").fn
    zero = rational_name(Fraction(0))
    for budget in (1, 10, 1000):
        with pytest.raises(BudgetExhausted) as info:
            find_parameter(recip, [zero], budget)
        assert info.value.budget == budget


def test_constant_family_resolves_on_demand(registry):
    entry = registry.get("const_2/4")
    assert entry.name == "const_1/2"
    assert entry.n_args == 0
    again = registry.get("const_1/2")
    assert again.name == "const_1/2"
    assert again.oracle() == entry.oracle() == Fraction(1, 2)
    out = apply_uniform(entry.fn, [])
    assert approx(out, 17) == Fraction(1, 2)
    with pytest.raises(KeyError):
        registry.get("const_one")


def test_constant_lookups_leave_the_registry_unchanged():
    registry = default_functions()
    names = registry.names()
    for i in range(2000):
        assert registry.get(f"const_{i}/7").oracle() == Fraction(i, 7)
        assert f"const_{i}/13" in registry
    assert registry.names() == names
    assert "const_1e5000" not in registry
    with pytest.raises(ValueError):
        registry.get("const_1e5000")
    assert "const_one" not in registry
    assert registry.names() == names


def test_duplicate_registration_is_rejected(registry):
    with pytest.raises(ValueError):
        register_builtins(registry)


def test_registration_validates_against_the_oracle():
    reg = FunctionRegistry()
    lying = Entry(
        "lying",
        1,
        uniform_from_rule(1, lambda a: a, lambda t, names: t, "lying"),
        lambda a: a + 1,
    )
    with pytest.raises(ValueError):
        reg.register(lying)
    assert "lying" not in reg.names()


def test_registry_validate_passes_on_builtins(registry):
    report = registry_validate(registry, t_max=120)
    assert report.passed
    assert report.failures() == []
    entries = {check.entry for check in report.checks}
    assert entries == set(registry.names())
    # reciprocal skips 0: one grid point fewer than the grid size
    recip_checks = [c for c in report.checks if c.entry == "recip"]
    assert len(recip_checks) == len(DEFAULT_GRID) - 1


def test_registry_validate_flags_a_sabotaged_entry():
    reg = FunctionRegistry()
    drift = Fraction(1, 8)
    sabotaged = Entry(
        "add",
        2,
        uniform_from_rule(2, lambda a, b: a + b + drift, lambda t, names: 2 * t + 1, "add"),
        lambda a, b: a + b,
    )
    reg.register(sabotaged, validate=False)
    report = registry_validate(reg, t_max=120)
    assert not report.passed
    first = report.failures()[0]
    assert first.entry == "add"
    assert first.first_failure == 7
    assert any("FAIL" in line for line in report.lines())


def test_registry_validate_on_an_empty_registry():
    report = registry_validate(FunctionRegistry(), t_max=10)
    assert report.passed
    assert report.checks == ()


def test_constant_fn_is_exact_everywhere():
    out = apply_uniform(constant_fn(Fraction(-22, 7)), [])
    assert validate_name(out, Fraction(-22, 7), 200).passed


def test_uniform_from_rule_checks_rule_arity():
    fn = uniform_from_rule(2, lambda a, b: max(a, b), lambda t, names: 2 * t + 1, "max2")
    out = apply_uniform(fn, [rational_name(Fraction(1, 3)), rational_name(Fraction(1, 2))])
    assert validate_name(out, Fraction(1, 2), 200).passed


def test_reciprocal_fn_is_freshly_buildable():
    recip = reciprocal_fn()
    out = apply_conditional(recip, [rational_name(Fraction(-1, 4))], 100)
    assert validate_name(out, Fraction(-4), 200).passed


# ---------------------------------------------------------------------------
# one rational per index: the joint name against its components
# ---------------------------------------------------------------------------


def seeded_points(rng, n_args, count=6):
    def rational():
        q = Fraction(rng.randrange(-999, 1000), rng.randrange(1, 300))
        return q if q != 0 else Fraction(1, 7)

    return [tuple(rational() for _ in range(n_args)) for _ in range(count)]


def test_joint_names_equal_their_components_applied_separately(registry):
    rng = Random(404)
    ts = range(201)
    for entry in registry:
        fn = entry.fn
        assert all(isinstance(op, ProcOperator) and op.pick is not None for op in (fn.F, fn.G, fn.H))
        for point in seeded_points(rng, entry.n_args):
            names = [rational_name(q) for q in point]
            fns = [f for name in names for f in name]
            if isinstance(fn, ConditionalFn):
                s = find_parameter(fn, names, 10_000)
                joint = apply_conditional_at(fn, names, s)
                fns.append(NatFun.constant(s))
            else:
                joint = apply_uniform(fn, names)
            # each component built and read on its own
            alone = [op.apply(fns) for op in (fn.F, fn.G, fn.H)]
            assert [[c(t) for t in ts] for c in joint] == [[c(t) for t in ts] for c in alone]


def test_reading_a_whole_name_runs_the_rule_once_per_index():
    calls = []

    def rule(a, b):
        calls.append((a, b))
        return a * b + 1

    fn = uniform_from_rule(2, rule, lambda t, names: 2 * t + 1, "counted")
    out = apply_uniform(fn, [rational_name(Fraction(1, 3)), rational_name(Fraction(-2))])
    n = 150
    for t in range(n + 1):
        out.f(t), out.g(t), out.h(t)
    for t in reversed(range(n + 1)):
        approx(out, t)
    assert len(calls) == n + 1


class _CountingStream(TripleStream):
    """A stream that counts how often it is read."""

    def __init__(self, fn):
        super().__init__(fn, "counted")
        self.reads = 0

    def __call__(self, t):
        self.reads += 1
        return super().__call__(t)


def test_whole_outputs_read_each_argument_stream_once_per_index():
    calls = []
    negate = uniform_from_rule(1, lambda a: calls.append(a) or -a, lambda t, names: t, "negate")
    add = uniform_from_rule(2, lambda a, b: calls.append(a) or a + b, lambda t, names: 2 * t + 1, "add")
    n = 120
    for fn in (negate, add):
        streams = [_CountingStream(lambda t, c=c: (t + c, 1, 2)) for c in range(fn.n_args)]
        del calls[:]
        out = apply_uniform(fn, [stream.name() for stream in streams])
        for t in range(n + 1):
            out.f(t), out.g(t), out.h(t)
        assert len(calls) == n + 1
        assert [stream.reads for stream in streams] == [n + 1] * fn.n_args


def test_reciprocal_reads_its_argument_once_per_output_index(registry):
    calls = []
    counted = uniform_from_rule(1, lambda a: calls.append(a) or a, lambda t, names: t, "counted")
    argument = apply_uniform(counted, [rational_name(Fraction(3, 4))])
    recip = registry.get("recip").fn
    s = find_parameter(recip, [argument], 100)
    del calls[:]
    out = apply_conditional_at(recip, [argument], s)
    for t in range(40):
        approx(out, t)
    # one argument index per output index, each computed once
    assert len(calls) == 40


def test_the_reciprocal_of_an_exact_argument_is_exact_at_any_parameter(registry):
    # the parameter only schedules reads of the argument, and an exact one is read once
    fns = (*rational_name(Fraction(-7, 3)), NatFun.identity())
    outs = [op.apply(fns) for op in registry.get("recip").fn.values]
    assert naming.constant_values(*outs) == naming._rational_triple(Fraction(-3, 7))


def test_every_builtin_schedule_rises_and_reads_no_earlier_than_its_index():
    # what a builtin's piece path assumes: at(t) >= t and at nondecreasing, at any
    # magnitude of the product's arguments and at any constant reciprocal parameter
    big, small = rational_name(Fraction(10**30 + 1, 3)), rational_name(Fraction(-7, 10**20))
    products = ([big, small], [big, big], [small, small])
    cases = [
        (elementary._at_t, [big], ()),
        (elementary._twice_plus_one, [big, small], ()),
        *((elementary._product_schedule, names, ()) for names in products),
        *((elementary._recip_schedule, [small], (NatFun.constant(s),)) for s in (0, 1, 7, 10**6)),
    ]
    every = {v for v in vars(elementary).values() if isinstance(v, elementary._Schedule)}
    assert {schedule for schedule, _, _ in cases} == every
    ts = [*range(301), 10**6, 10**12]
    for schedule, names, params in cases:
        reads = [schedule.bind(names, *params)(t) for t in ts]
        assert all(read >= t for read, t in zip(reads, ts))
        assert reads == sorted(reads)


def test_exhausting_search_memory_does_not_grow_with_the_budget(registry):
    sub, recip = registry.get("sub").fn, registry.get("recip").fn

    def peak(budget):
        # a name that is not exact, so the search scans the whole budget
        zero = apply_uniform(sub, [_plain(Fraction(1, 3))] * 2)
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExhausted):
                find_parameter(recip, [zero], budget)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(20_000), peak(200_000)
    assert large < 2 * small


def test_a_search_finds_the_least_s_and_keeps_its_argument_memo_within_the_cap(registry):
    sub, recip = registry.get("sub").fn, registry.get("recip").fn
    zero = apply_uniform(sub, [_plain(Fraction(1, 3))] * 2)
    stream = triple_reader(*zero)
    assert isinstance(stream, TripleStream)
    with pytest.raises(BudgetExhausted):
        find_parameter(recip, [zero], 20_000)
    assert len(stream._memo) <= MEMO_CAP
    rng = Random(707)
    for _ in range(8):
        a = Fraction(rng.randrange(-999, 1000), rng.randrange(1, 50))
        q = Fraction(rng.choice((-1, 1)) * rng.randrange(1, 40), rng.randrange(40, 4000))
        names = [_plain(a), _plain(a - q)]
        near = apply_uniform(sub, names)
        s = find_parameter(recip, [near], 10**4)
        # the least s with |q| (s + 1) > 2, and what the spied read finds
        assert s == 2 * q.denominator // abs(q.numerator)
        assert s == find_parameter(recip, [apply_uniform(sub, [_recorded(n) for n in names])], 10**4)
        assert len(triple_reader(*near)._memo) <= MEMO_CAP


# ---------------------------------------------------------------------------
# constant arguments, decoded once per application
# ---------------------------------------------------------------------------

nonzero = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4).filter(
    lambda q: q != 0
)


def _plain(q):
    """The canonical name of ``q`` built from plain functions, not constants."""
    return NameTriple(*(NatFun(lambda _t, c=c: c) for c in naming._rational_triple(q)))


def _recorded(name):
    # the same functions behind recording spies: read through the fallback
    return NameTriple(*recording(tuple(name))[0])


def _reads(name, t_max=200):
    return [(name.f(t), name.g(t), name.h(t)) for t in range(t_max + 1)]


@pytest.mark.parametrize("entry", sorted(default_functions().names()))
@settings(max_examples=15, deadline=None)
@given(st.lists(nonzero, min_size=2, max_size=2))
def test_constant_arguments_give_what_the_fallback_reads_give(entry, point):
    # exact names, whose values are computed once at application, against
    # recording spies and plain copies, read per index
    fn = default_functions().get(entry).fn
    constants = [rational_name(q) for q in point[: fn.n_args]]
    spied = [_recorded(name) for name in constants]
    plain = [_plain(q) for q in point[: fn.n_args]]
    if isinstance(fn, ConditionalFn):
        s = find_parameter(fn, constants, 10**5)
        assert find_parameter(fn, spied, 10**5) == find_parameter(fn, plain, 10**5) == s
        outs = [apply_conditional_at(fn, names, s) for names in (constants, spied, plain)]
    else:
        outs = [apply_uniform(fn, names) for names in (constants, spied, plain)]
    assert naming.constant_values(*outs[0]) is not None
    assert _reads(outs[0]) == _reads(outs[1]) == _reads(outs[2])


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(st.just(Fraction(0)), st.fractions(min_value=-3, max_value=3, max_denominator=4000)),
    st.integers(0, 5000),
)
def test_an_exact_reciprocal_search_returns_the_linear_scans_s(x, budget):
    recip = default_functions().get("recip").fn
    name = rational_name(x)
    s = linear_scan(recip.E, tuple(name), budget)
    if s is None:
        with pytest.raises(BudgetExhausted):
            find_parameter(recip, [name], budget)
    else:
        assert find_parameter(recip, [name], budget) == s


def test_reciprocal_finds_the_same_least_s_on_constant_and_spied_differences(registry):
    sub, recip = registry.get("sub").fn, registry.get("recip").fn
    rng = Random(606)
    for _ in range(6):
        a = Fraction(rng.randrange(-9999, 10**4), rng.randrange(1, 100))
        b = a - Fraction(rng.choice((-1, 1)), rng.randrange(100, 1000))
        constants = [rational_name(a), rational_name(b)]
        fast = apply_uniform(sub, constants)
        slow = apply_uniform(sub, [_recorded(name) for name in constants])
        s = find_parameter(recip, [fast], 10**4)
        assert s == find_parameter(recip, [slow], 10**4)
        assert s > 100
        assert _reads(apply_conditional_at(recip, [fast], s), 50) == _reads(
            apply_conditional_at(recip, [slow], s), 50
        )


@pytest.mark.parametrize("bad", [-1, True, 1.0])
def test_a_bad_schedule_over_constant_arguments_is_still_refused(bad):
    for n_args in (1, 2):
        fn = uniform_from_rule(n_args, lambda *qs: sum(qs), lambda t, names: bad, "bad")
        out = apply_uniform(fn, [rational_name(Fraction(1, 3))] * n_args)
        with pytest.raises(ValueError):
            out.f(0)


def test_constant_arguments_build_their_fraction_once_per_application(monkeypatch):
    # the builtins decode a triple into an integer pair with ``_pair``; the
    # registry is built after the spy is in place, since it keeps the decode
    decodes = []
    decode = elementary._pair
    monkeypatch.setattr(elementary, "_pair", lambda triple: decodes.append(triple) or decode(triple))
    registry = register_builtins()
    names = [rational_name(Fraction(1, 3)), rational_name(Fraction(-5, 2))]
    for entry, args in (("sub", names), ("mul", names), ("negate", names[:1])):
        del decodes[:]
        out = apply_uniform(registry.get(entry).fn, args)
        _reads(out)
        assert len(decodes) == len(args), entry
    recip = registry.get("recip").fn
    s = find_parameter(recip, names[:1], 100)
    del decodes[:]
    _reads(apply_conditional_at(recip, names[:1], s))
    assert len(decodes) == 1


def test_multiplication_reads_index_zero_once_per_application(registry, monkeypatch):
    mul = registry.get("mul").fn
    a, b = _plain(Fraction(7, 3)), _plain(Fraction(-2, 9))
    calls = []
    approx_ = elementary.approx
    monkeypatch.setattr(elementary, "approx", lambda name, t: calls.append(t) or approx_(name, t))
    out = apply_uniform(mul, [a, b])
    assert calls == []  # applying reads nothing
    expected = _reads(out)
    assert calls == [0, 0]  # one index-0 read per argument, for all 201 indices
    # a name read through its functions is read at index 0 once as well
    zeros = []

    def counted(f):
        def read(t):
            zeros.append(t == 0)
            return f(t)

        return NatFun(read)

    assert _reads(apply_uniform(mul, [NameTriple(*map(counted, a)), b])) == expected
    assert sum(zeros) == 3


def test_multiplication_of_exact_names_reads_nothing(registry, monkeypatch):
    mul = registry.get("mul").fn
    calls = []
    approx_ = elementary.approx
    monkeypatch.setattr(elementary, "approx", lambda name, t: calls.append(t) or approx_(name, t))
    out = apply_uniform(mul, [rational_name(Fraction(7, 3)), rational_name(Fraction(-2, 9))])
    assert naming.constant_values(*out) == naming._rational_triple(Fraction(-14, 27))
    expected = _reads(out)
    assert calls == []  # the product of exact names needs no magnitude bound
    assert expected == _reads(apply_uniform(mul, [_plain(Fraction(7, 3)), _plain(Fraction(-2, 9))]))


def _probe_count(monkeypatch, thunk):
    """How many certificate probes ``thunk`` makes (``NatFun.eval_uncached`` calls)."""
    probes = []
    probe = NatFun.eval_uncached
    monkeypatch.setattr(NatFun, "eval_uncached", lambda fn, s: probes.append(s) or probe(fn, s))
    try:
        thunk()
    finally:
        monkeypatch.undo()
    return len(probes)


def test_an_exact_search_probes_once_or_not_at_all(registry, monkeypatch):
    sub, recip = registry.get("sub").fn, registry.get("recip").fn
    third = rational_name(Fraction(1, 3))
    zero = apply_uniform(sub, [third, third])

    def exhaust():
        with pytest.raises(BudgetExhausted):
            find_parameter(recip, [zero], 10**9)

    assert _probe_count(monkeypatch, exhaust) == 0
    near = apply_uniform(sub, [third, rational_name(Fraction(1, 3) - Fraction(1, 10**6))])
    found = []
    assert _probe_count(monkeypatch, lambda: found.append(find_parameter(recip, [near], 10**9))) == 1
    assert found == [2 * 10**6]
    # a budget that ends at the least s exhausts, as the scan does
    with pytest.raises(BudgetExhausted):
        find_parameter(recip, [near], 2 * 10**6)


# ---------------------------------------------------------------------------
# default registries
# ---------------------------------------------------------------------------


def test_default_registries_are_fresh_and_do_not_share_constants():
    first, second = default_functions(), default_functions()
    assert first is not second
    assert first.get("add") is second.get("add")
    entry = first.get("const_10/6")
    assert entry.name == "const_5/3"
    assert entry.oracle() == Fraction(5, 3)
    assert approx(apply_uniform(entry.fn, []), 9) == Fraction(5, 3)
    assert first.names() == second.names() == default_functions().names()


def test_a_default_registry_still_rejects_a_drifted_entry():
    reg = default_functions()
    drifted = Entry(
        "add_drifted",
        2,
        uniform_from_rule(2, lambda a, b: a + b + Fraction(1, 8), lambda t, names: 2 * t + 1, "add"),
        lambda a, b: a + b,
    )
    with pytest.raises(ValueError, match="failed validation"):
        reg.register(drifted)
    assert "add_drifted" not in reg.names()
    with pytest.raises(ValueError):
        register_builtins(reg)


# ---------------------------------------------------------------------------
# integer kernels against their Fraction oracles
# ---------------------------------------------------------------------------

_SCHEDULES = {
    "negate": elementary._at_t,
    "abs": elementary._at_t,
    "add": elementary._twice_plus_one,
    "sub": elementary._twice_plus_one,
    "min": elementary._twice_plus_one,
    "max": elementary._twice_plus_one,
    "mul": elementary._product_schedule,
}

_HUGE = 10**40
huge_rationals = st.builds(Fraction, st.integers(-_HUGE, _HUGE), st.integers(1, _HUGE))
# two points, or one point twice: a tie for min and max
huge_pairs = st.one_of(
    st.tuples(huge_rationals, huge_rationals), huge_rationals.map(lambda q: (q, q))
)
KINDS = ("constant", "stream", "spy")


def _name_of(kind, q, scale):
    """A name of ``q``: canonical constants, a stream whose triples are
    ``q``'s scaled by a factor that changes with the index (never in
    lowest terms unless the factor is 1), or the constants behind spies."""
    name = rational_name(q)
    if kind == "spy":
        return _recorded(name)
    if kind == "stream":
        x, y, z = name.f(0), name.g(0), name.h(0)

        def scaled(t):
            k = scale + t % 3
            return (k * x, k * y, k * (z + 1) - 1)

        return TripleStream(scaled, "scaled").name()
    return name


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=20, deadline=None)
@given(point=huge_pairs, scale=st.integers(1, 10**6))
def test_every_kernel_gives_what_its_fraction_oracle_gives(kind, point, scale):
    for entry in default_functions():
        if entry.kind != "uniform":
            continue
        # the two arguments differ in scale, so a tie is two spellings
        names = [_name_of(kind, q, scale + j) for j, q in enumerate(point[: entry.n_args])]
        oracle = uniform_from_rule(entry.n_args, entry.oracle, _SCHEDULES[entry.name], entry.name)
        expected = _reads(apply_uniform(oracle, names))
        assert _reads(apply_uniform(entry.fn, names)) == expected, entry.name


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=15, deadline=None)
@given(
    q=huge_rationals.filter(lambda q: abs(q) >= Fraction(1, 1000)),
    scale=st.integers(1, 10**6),
)
def test_the_reciprocal_kernel_gives_what_its_oracle_gives_at_the_least_s(kind, q, scale):
    recip = default_functions().get("recip")
    names = [_name_of(kind, q, scale)]
    s = find_parameter(recip.fn, names, 10**4)
    # at a fixed s the reciprocal's value reads its input at this index
    schedule = lambda t, _names: 2 * (s + 1) * (s + 1) * (t + 1) - 1  # noqa: E731
    oracle = uniform_from_rule(1, recip.oracle, schedule, "recip")
    expected = _reads(apply_uniform(oracle, names))
    assert _reads(apply_conditional_at(recip.fn, names, s)) == expected


def test_builtins_build_no_fraction_per_index(registry, monkeypatch):
    builds = []
    make = Fraction.__dict__["__new__"].__func__

    def counting_new(cls, *args, **kwargs):
        builds.append(args)
        return make(cls, *args, **kwargs)

    cases = (
        ("sub", (Fraction(1, 3), Fraction(1, 3))),
        ("mul", (Fraction(7, 3), Fraction(-2, 9))),
    )
    applications = [
        (entry, [_name_of(kind, q, 2) for q in point])
        for entry, point in cases
        for kind in ("constant", "stream")
    ]
    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    for entry, names in applications:
        del builds[:]
        _reads(apply_uniform(registry.get(entry).fn, names), 1000)
        # mul's magnitude bound is read once; nothing is built per index
        assert len(builds) <= 10, entry


# ---------------------------------------------------------------------------
# the per-index read path
# ---------------------------------------------------------------------------


def _drifting(live, q):
    """A name of ``q + 1/(t+2)`` at index t: a stream whose triples are not
    in lowest terms, or the same behind spies; a constant names ``q``."""
    if live is None:
        return rational_name(q)

    def triple(t):
        x, y, z = naming._rational_triple(q + Fraction(1, t + 2))
        k = 1 + t % 3
        return (k * x, k * y, k * (z + 1) - 1)

    name = TripleStream(triple, "drifting").name()
    return _recorded(name) if live == "spy" else name


_RULE_SCHEDULES = {
    "at_t": elementary._at_t,
    "twice_plus_one": elementary._twice_plus_one,
    "plain": lambda t, _names: 3 * t + 2,
}
_MIXES = [mix for n_args in range(4) for mix in product((False, True), repeat=n_args)]


@pytest.mark.parametrize("mix", _MIXES, ids=lambda mix: "".join("lc"[not m] for m in mix) or "none")
@settings(max_examples=8, deadline=None)
@given(
    points=st.lists(st.fractions(min_value=-50, max_value=50, max_denominator=30), min_size=3, max_size=3),
    live=st.sampled_from(("stream", "spy")),
    schedule=st.sampled_from(sorted(_RULE_SCHEDULES)),
)
def test_a_rule_gives_its_exact_value_of_the_approximations_for_every_constant_live_mix(
    mix, points, live, schedule
):
    def rule(*qs):
        # a different power per position, so a swapped argument shows
        return sum(((j + 2) * q) ** (j + 1) for j, q in enumerate(qs)) - Fraction(1, 7)

    index = _RULE_SCHEDULES[schedule]
    names = [_drifting(live if on else None, q) for on, q in zip(mix, points)]
    out = apply_uniform(uniform_from_rule(len(mix), rule, index, "rule"), names)
    for t in range(201):
        exact = rule(*(approx(name, index(t, names)) for name in names))
        assert (out.f(t), out.g(t), out.h(t)) == naming._rational_triple(exact)


def _python_calls(thunk):
    """How many Python functions ``thunk`` calls (profile "call" events)."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    sys.setprofile(profile)
    try:
        thunk()
    finally:
        sys.setprofile(None)
    return calls - 1  # the thunk's own call


def _stream_name(q):
    """The canonical name of ``q`` as a stream's projections: read per index, not exact."""
    triple = naming._rational_triple(q)
    return TripleStream(lambda _t: triple, "literal").name()


def test_a_probe_and_an_index_read_stay_within_their_call_counts(registry):
    # a deterministic guard on the read path: a recip certificate probe on
    # (sub 1/3 1/3), and one (f, g, h) read of add(2/7, sub(1/3, 1/5)),
    # over names read per index and over exact names, whose values are
    # computed at application
    sub, add, recip = (registry.get(entry).fn for entry in ("sub", "add", "recip"))
    for literal, probe_calls, read_calls in ((_stream_name, 17, 23), (rational_name, 8, 3)):
        third = literal(Fraction(1, 3))
        certificate = recip.E.apply(tuple(apply_uniform(sub, [third, third])))
        probes = [_python_calls(lambda: certificate.eval_uncached(s)) for s in range(100)]
        assert max(probes) <= probe_calls, (literal, probes)
        inner = apply_uniform(sub, [third, literal(Fraction(1, 5))])
        out = apply_uniform(add, [literal(Fraction(2, 7)), inner])
        reads = [_python_calls(lambda: (out.f(t), out.g(t), out.h(t))) for t in range(100)]
        assert max(reads) <= read_calls, (literal, reads)
        assert approx(out, 99) == Fraction(2, 7) + Fraction(1, 3) - Fraction(1, 5)


def test_a_constant_read_is_one_call():
    c = NatFun.constant(7)
    assert _python_calls(lambda: c(5)) == 1
    assert c(5) == c.eval_uncached(5) == 7
    for bad in (-1, True, 1.0):
        with pytest.raises(ValueError):
            c(bad)
