from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from condreal import naming
from condreal.elementary import FunctionRegistry, default_functions, registry_validate
from condreal.metric import mn_name, validate_ordinary_name
from condreal.naming import (
    MEMO_CAP,
    NameTriple,
    NatFun,
    TripleStream,
    approx,
    constant_values,
    format_rational,
    parse_rational,
    piece_values,
    precision_index,
    rational_name,
    recording,
    triple_reader,
    validate_name,
)

rationals = st.fractions(
    min_value=-100, max_value=100, max_denominator=50
)


@given(rationals, st.integers(min_value=0, max_value=200))
def test_rational_name_is_exact_at_every_index(q, t):
    assert approx(rational_name(q), t) == q


@given(rationals)
def test_rational_name_components_are_naturals(q):
    name = rational_name(q)
    for fn in name:
        assert fn(0) >= 0


def test_validate_name_accepts_exact_names():
    report = validate_name(rational_name(Fraction(22, 7)), Fraction(22, 7), 50)
    assert report.passed
    assert report.first_failure is None


def test_validate_name_bound_is_strict():
    # approximation off by exactly 1/(t+1) at t=3 must be rejected
    hits = NatFun(lambda t: 5 if t == 3 else 4)
    name = NameTriple(hits, NatFun.constant(0), NatFun.constant(3))
    report = validate_name(name, Fraction(1), 10)
    assert not report.passed
    assert report.first_failure.t == 3


def test_validate_name_reports_first_failing_index():
    name = rational_name(Fraction(1, 2))
    report = validate_name(name, Fraction(0), 20)
    assert not report.passed
    # |1/2 - 0| = 1/2 >= 1/(t+1) from t = 1 on
    assert report.first_failure.t == 1
    assert any("FAIL" in line for line in report.lines())


def test_precision_index_examples():
    assert precision_index(Fraction(1)) == 0
    assert precision_index(Fraction(1, 1000)) == 999
    assert precision_index(Fraction(2, 7)) == 3
    assert precision_index(3) == 0


@given(st.fractions(min_value="1/10000", max_value=10))
def test_precision_index_is_the_least_sufficient_index(eps):
    t = precision_index(eps)
    assert Fraction(1, t + 1) <= eps
    if t > 0:
        assert Fraction(1, t) > eps


def test_precision_index_rejects_nonpositive():
    with pytest.raises(ValueError):
        precision_index(Fraction(0))


def test_natfun_rejects_bad_arguments_and_values():
    fn = NatFun(lambda t: t - 5)
    with pytest.raises(ValueError):
        fn(-1)
    with pytest.raises(ValueError):
        fn(2)
    assert fn(7) == 2
    with pytest.raises(ValueError, match="must be a natural, got -1"):
        NatFun.constant(-1)


def test_natfun_evaluates_on_every_call():
    calls = []

    def body(t):
        calls.append(t)
        return t

    fn = NatFun(body)
    assert fn(4) == 4
    assert fn(4) == 4
    assert fn.eval_uncached(4) == 4
    assert calls == [4, 4, 4]
    assert fn(1) == 1
    for bad in (-1, True, 1.0):
        with pytest.raises(ValueError):
            fn(bad)
    assert calls == [4, 4, 4, 1]


def counted_stream(calls):
    def body(t):
        calls.append(t)
        return (t, 1, t % 3)

    return TripleStream(body, "counted")


def test_stream_projections_share_one_evaluation_per_index():
    calls = []
    name = counted_stream(calls).name()
    for t in range(30):
        assert (name.h(t), name.f(t), name.g(t)) == (t % 3, t, 1)
    assert calls == list(range(30))
    assert [fn.label for fn in name] == ["counted.f", "counted.g", "counted.h"]
    stream = name.f._source[0]
    assert [fn._source for fn in name] == [(stream, 0), (stream, 1), (stream, 2)]
    # eval_uncached goes through the stream, which keeps what it computes
    assert name.g.eval_uncached(40) == 1 and calls[-1] == 40 and 40 in stream._memo
    assert name.f.eval_uncached(40) == 40 and calls.count(40) == 1


def test_stream_memo_is_bounded_and_keeps_values():
    calls = []
    stream = counted_stream(calls)
    for t in range(MEMO_CAP + 10):
        assert stream(t) == (t, 1, t % 3)
    assert len(stream._memo) <= MEMO_CAP
    # the latest index is still cached; an evicted one is recomputed
    stream(MEMO_CAP + 9)
    assert calls.count(MEMO_CAP + 9) == 1
    assert stream(0) == (0, 1, 0)
    assert calls.count(0) == 2


def test_stream_checks_its_argument_and_its_triples():
    stream = TripleStream(lambda t: (t, 0, 0))
    for bad in (-1, True, 1.0):
        with pytest.raises(ValueError):
            stream(bad)
    for broken in ((1, 2), (1, -1, 0), (1, 0, 0.5), [1, 0, 0]):
        with pytest.raises(ValueError):
            TripleStream(lambda _t, b=broken: b, "broken")(0)
    with pytest.raises(ValueError):
        stream.name().f(-1)


def test_patched_switches_at_the_cutoff():
    patched = NatFun.patched(NatFun.constant(9), 3, NatFun.identity())
    assert [patched(t) for t in range(6)] == [9, 9, 9, 3, 4, 5]


def test_a_patch_of_piecewise_constants_is_a_step():
    # an exact anchor's constant below the cutoff, an exact argument's from it on
    patched = NatFun.patched(NatFun.constant(9), 3, NatFun.constant(4))
    assert piece_values(patched) == ([3], [(9,), (4,)])
    assert [patched(t) for t in range(6)] == [9, 9, 9, 4, 4, 4]
    # a patch of steps keeps their breakpoints on each side of the cutoff
    inner = NatFun.steps([2, 5], [1, 7, 3])
    twice = NatFun.patched(NatFun.steps([1], [0, 8]), 4, inner)
    assert piece_values(twice) == ([1, 4, 5], [(0,), (8,), (7,), (3,)])
    # the same value on both sides, or a cutoff of 0, leaves no breakpoint
    assert constant_values(NatFun.patched(NatFun.constant(4), 3, NatFun.constant(4))) == (4,)
    assert NatFun.patched(NatFun.constant(9), 0, inner).breaks == (2, 5)
    # anything else is patched index by index
    assert piece_values(NatFun.patched(NatFun.constant(9), 3, NatFun.identity())) is None


def test_steps_join_equal_pieces_and_check_their_values():
    fn = NatFun.steps([2, 4, 6], [5, 5, 1, 5])
    assert (fn.breaks, fn.values) == ((4, 6), (5, 1, 5))
    assert [fn(t) for t in range(8)] == [5, 5, 5, 5, 1, 1, 5, 5]
    assert constant_values(NatFun.steps([3], [2, 2])) == (2,)
    assert constant_values(NatFun.steps([], [2])) == (2,)
    with pytest.raises(ValueError, match="step values must be naturals"):
        NatFun.steps([1], [0, -1])
    # breakpoints out of order, at 0, repeated, not naturals, or not one fewer than the values
    bad = [[5, 2], [0, 3], [2, 2], [-1, 2], [1.5, 2], [True, 2]]
    for breaks, values in [*((b, [1, 2, 3]) for b in bad), ([], [1, 2])]:
        with pytest.raises(ValueError, match="increasing positive breaks, one value more"):
            NatFun.steps(breaks, values)
    with pytest.raises(ValueError):
        fn(-1)


def test_piece_values_gives_common_breakpoints_and_one_row_per_piece():
    a, b = NatFun.steps([3], [1, 2]), NatFun.steps([1, 3], [0, 5, 6])
    assert piece_values(a, b, NatFun.constant(7)) == ([1, 3], [(1, 0, 7), (1, 5, 7), (2, 6, 7)])
    assert piece_values(*rational_name(Fraction(-2, 3))) == ([], [(0, 2, 2)])
    assert piece_values(a, NatFun.identity()) is None


def test_recording_logs_every_query_by_slot():
    spies, log = recording((NatFun.identity(), NatFun.constant(2)))
    spies[0](4)
    spies[0](4)
    spies[1](0)
    assert log[1] == {4}
    assert log[2] == {0}
    assert 3 not in log


@given(rationals)
def test_format_parse_rational_round_trip(q):
    assert parse_rational(format_rational(q)) == q


def test_format_rational_spellings():
    assert format_rational(Fraction(3)) == "3"
    assert format_rational(Fraction(-22, 7)) == "-22/7"
    assert parse_rational("4/6") == Fraction(2, 3)


def test_parse_rational_rejects_garbage():
    for text in ("", "one", "1/0", "1//2"):
        with pytest.raises(ValueError):
            parse_rational(text)


def test_a_cached_index_admits_no_bool_or_float_argument():
    fn = NatFun(lambda t: t)
    stream = TripleStream(lambda t: (t, 0, 0))
    projection = stream.name().f
    assert fn(1) == 1 and stream(1) == (1, 0, 0) and projection(1) == 1
    for bad in (True, 1.0):
        with pytest.raises(ValueError):
            fn(bad)
        with pytest.raises(ValueError):
            stream(bad)
    # a projection refuses with the NatFun message, cached index or not
    for bad in (-1, True, 1.0, 2.0):
        with pytest.raises(ValueError, match=r"^NatFun argument must be a natural"):
            projection(bad)


def test_a_projection_refuses_with_the_natfun_message_on_a_hit_and_on_a_miss():
    # True and 1.0 hash as 1, 2.0 as 2: with 1 and 2 stored, they would hit
    for stored in ((), (1, 2)):
        calls = []
        stream = counted_stream(calls)
        for t in stored:
            stream(t)
        for fn in stream.name():
            for bad in (-1, True, 1.0, 2.0):
                with pytest.raises(ValueError, match=r"^NatFun argument must be a natural"):
                    fn(bad)
        assert calls == list(stored)  # a refused argument computes nothing
        assert [fn(2) for fn in stream.name()] == [2, 1, 2]


def test_a_projection_miss_reads_the_stream_which_checks_the_triple():
    calls = []
    name = counted_stream(calls).name()
    stream = name.f._source[0]
    assert name.h(5) == 2 and calls == [5] and stream._memo == {5: (5, 1, 2)}
    assert (name.f(5), name.g(5)) == (5, 1) and calls == [5]
    for broken in ((1, 2), (1, -1, 0), (1, 0, 0.5), [1, 0, 0], (True, 0, 0)):
        for fn in TripleStream(lambda _t, b=broken: b, "broken").name():
            with pytest.raises(ValueError, match=r"^TripleStream broken returned"):
                fn(0)


# ---------------------------------------------------------------------------
# the triple reader
# ---------------------------------------------------------------------------


def _names_of_every_kind():
    stream = TripleStream(lambda t: (t + 3, t // 2, t % 5), "s")
    spies, _log = recording(tuple(stream.name()))
    return {
        "stream": stream.name(),
        "constant": rational_name(Fraction(-7, 3)),
        "spy": NameTriple(*spies),
        "mixed": NameTriple(stream.name().f, NatFun.constant(2), NatFun(lambda t: t % 3)),
    }


def test_triple_reader_reads_what_the_three_functions_give():
    for kind, name in _names_of_every_kind().items():
        read = triple_reader(*name)
        for t in range(201):
            assert read(t) == (name.f(t), name.g(t), name.h(t)), kind


def test_triple_reader_takes_streams_and_constants_whole(monkeypatch):
    stream = TripleStream(lambda t: (t, 1, 2), "s")
    assert triple_reader(*stream.name()) is stream
    const = triple_reader(*rational_name(Fraction(5, 2)))
    spy = triple_reader(*_names_of_every_kind()["spy"])
    calls = []
    # a stream's projections read its memo through their own ``__call__``
    for cls in (NatFun, naming._Projection):
        call = cls.__dict__["__call__"]
        monkeypatch.setattr(cls, "__call__", lambda self, t, call=call: calls.append(t) or call(self, t))
    assert [const(t) for t in range(50)] == [(5, 0, 1)] * 50
    assert [stream(t) for t in range(50)] == [(t, 1, 2) for t in range(50)]
    assert calls == []
    spy(7)
    assert len(calls) == 6  # three spies, each reading one projection


def test_triple_reader_falls_back_for_swapped_or_foreign_projections():
    one = TripleStream(lambda t: (t, 2 * t, 3), "one")
    two = TripleStream(lambda t: (7, t, t + 1), "two")
    f, g, h = one.name()
    swapped = triple_reader(g, f, h)
    mixed = triple_reader(f, two.name().g, h)
    assert swapped is not one and mixed not in (one, two)
    for t in range(50):
        assert swapped(t) == (2 * t, t, 3)
        assert mixed(t) == (t, t, 3)


def test_a_reader_reads_each_source_stream_once_per_index():
    a_calls, b_calls = [], []
    a = TripleStream(lambda t: a_calls.append(t) or (t, 2 * t, 3), "a")
    b = TripleStream(lambda t: b_calls.append(t) or (7, t, t + 1), "b")
    fns = (a.name().f, b.name().g, a.name().h)
    read = triple_reader(*fns)
    assert [read(t) for t in range(3)] == [(t, t, 3) for t in range(3)]
    assert [read(t) for t in range(3)] == [(t, t, 3) for t in range(3)]
    assert a_calls == [0, 1, 2] and b_calls == [0, 1, 2]  # once per index each
    # swapped positions of one stream, and projections beside other functions
    f, g, h = a.name()
    for triple in ((g, f, h), (h, NatFun(lambda t: t + 5), f), (NatFun.constant(4), g, g)):
        del a_calls[:]
        a._memo.clear()
        read = triple_reader(*triple)
        values = [read(t) for t in range(4)]
        assert a_calls == [0, 1, 2, 3]
        assert values == [tuple(fn(t) for fn in triple) for t in range(4)]
    for bad in (-1, True, 1.0):
        with pytest.raises(ValueError):
            triple_reader(*fns)(bad)


def test_every_reader_refuses_non_natural_arguments():
    for kind, name in _names_of_every_kind().items():
        read = triple_reader(*name)
        read(1)  # a cached index must not admit True or 1.0 either
        for bad in (-1, True, 1.0):
            with pytest.raises(ValueError):
                read(bad)
            with pytest.raises(ValueError):
                approx(name, bad)


def test_constant_values_names_three_constants_and_nothing_else():
    kinds = _names_of_every_kind()
    assert constant_values(*kinds["constant"]) == (0, 7, 2)
    assert constant_values(NatFun.constant(4)) == (4,)
    for kind in ("stream", "spy", "mixed"):
        assert constant_values(*kinds[kind]) is None, kind
    assert constant_values(NatFun.constant(1), NatFun(lambda t: 1)) is None


def test_a_constant_label_is_spelled_only_when_asked_for():
    assert NatFun.constant(5).label == "const 5"
    assert repr(NatFun.constant(5)) == "NatFun(const 5)"
    # more digits than int-to-str conversion allows: still a constant name
    big = 10**4400
    name = rational_name(big)
    assert approx(name, 3) == big
    assert constant_values(*name) == (big, 0, 0)
    assert name.f.label.startswith("const <") and "bit" in name.f.label
    spied, _log = recording(tuple(name))
    assert spied[0](0) == big
    with pytest.raises(ValueError, match="too many digits"):
        format_rational(Fraction(big))


VALIDATORS = {
    "validate_name": lambda t_max: validate_name(rational_name(1), 5, t_max),
    "registry_validate": lambda t_max: registry_validate(default_functions(), t_max=t_max),
    "registry_validate, no entries": lambda t_max: registry_validate(FunctionRegistry(), t_max),
    "validate_ordinary_name": lambda t_max: validate_ordinary_name(mn_name((1,)), 5, t_max),
}


@pytest.mark.parametrize("t_max", [-1, 1.5, True])
@pytest.mark.parametrize("validator", VALIDATORS)
def test_a_validator_refuses_a_t_max_that_is_not_a_natural(validator, t_max):
    # -1 used to pass with zero checks, 1.5 to raise TypeError from range
    with pytest.raises(ValueError, match="t_max argument must be a natural"):
        VALIDATORS[validator](t_max)
