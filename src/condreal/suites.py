"""The check catalogue behind ``condreal suite`` and the acceptance criteria.

Every property the library promises about its gadgets, term rewrites,
composition, localization, gluing and coded metric spaces is stated here
once, as a named check in one of six suites.  A check yields one boolean
per case it examines.  ``run_suite`` runs the checks of one suite and
reports a line per check: ``ok: <label> (<n> cases)``, or ``FAIL:`` with
the failing cases, or ``FAIL: <label> [raised <Type>: <message>]`` for a
check that raises.

The acceptance criteria 2, 3, 5, 6, 7 and 8 run these suites at
``t_max=500``; ``condreal suite NAME`` runs the same checks at the same
sizes, validating names to ``--t-max``.  Each check samples from its own
generator, seeded by the caller's seed and the check's label, so its cases
do not depend on which checks ran before it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from random import Random
from typing import Callable, Iterable, Iterator, NamedTuple

from .elementary import default_functions, uniform_from_rule
from .gadgets import (
    CORE,
    ball_indicator,
    decency_check,
    delta_1,
    delta_k,
    gamma,
    gt,
    left,
    lt,
    monus,
    mu,
    pair,
    right,
    tuple_pack,
    tuple_part,
)
from .metric import (
    MsBall,
    MsBallCover,
    MsUniformFn,
    OrdinaryName,
    apply_conditional_ms,
    apply_conditional_ms_at,
    apply_uniform_ms,
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
    mn_name,
    translate_conditional,
    translate_conditional_back,
    translate_uniform,
    translate_uniform_back,
    tuple_conditional,
    validate_ordinary_name,
)
from .naming import NatFun, approx, rational_name, validate_name
from .realfns import (
    Ball,
    BallCover,
    ConditionalFn,
    ProcOperator,
    TermOperator,
    UniformFn,
    apply_conditional_at,
    apply_uniform,
    compose_conditional,
    dispatch_index,
    embed_uniform,
    find_parameter,
    glue_compact,
    identity_uniform,
    localize,
    separation_violations,
)
from .sampling import random_natfun, random_term
from .terms import (
    Apply,
    OperatorTerm,
    Proj,
    compose_terms,
    curry,
    diagonalize,
    eval_term,
    multi_curry,
    uncurry,
)

__all__ = ["SUITE_NAMES", "Check", "SuiteReport", "run_check", "run_suite"]

SUITE_NAMES = (
    "gadgets",
    "curry",
    "composition",
    "localization",
    "gluing",
    "metric-spaces",
)

_ALIASES = {
    "compose": "composition",
    "metric": "metric-spaces",
    "metric_spaces": "metric-spaces",
}


@dataclass(frozen=True)
class Check:
    """One catalogue entry: a label (``{t_max}`` is filled in) and its cases."""

    label: str
    cases: Callable[[Random, int], Iterable[bool]]


class SuiteReport(NamedTuple):
    passed: bool
    lines: list[str]
    cases: list[int]  # per check


_CATALOGUE: dict[str, list[Check]] = {name: [] for name in SUITE_NAMES}


def _check(suite: str, label: str) -> Callable[[Callable[[Random, int], Iterable[bool]]], Check]:
    def register(cases: Callable[[Random, int], Iterable[bool]]) -> Check:
        check = Check(label, cases)
        _CATALOGUE[suite].append(check)
        return check

    return register


def run_check(check: Check, seed: int, t_max: int) -> tuple[bool, str, int]:
    """Run one check; returns (passed, report line, number of cases)."""
    label = check.label.format(t_max=t_max)
    rng = Random(f"{seed}:{check.label}")
    try:
        results = [bool(ok) for ok in check.cases(rng, t_max)]
    except Exception as exc:  # a check that raises is a failed check
        return False, f"FAIL: {label} [raised {type(exc).__name__}: {exc}]", 0
    if results and all(results):
        plural = "" if len(results) == 1 else "s"
        return True, f"ok: {label} ({len(results)} case{plural})", len(results)
    bad = results.count(False)
    first = f", first is case {results.index(False)}" if bad else ""
    return False, f"FAIL: {label} [{bad} of {len(results)} cases failed{first}]", len(results)


def run_suite(name: str, seed: int = 2021, t_max: int = 120) -> SuiteReport:
    """Run every check of one named suite (an alias is accepted)."""
    canonical = _ALIASES.get(name, name)
    if canonical not in _CATALOGUE:
        raise KeyError(name)
    results = [run_check(check, seed, t_max) for check in _CATALOGUE[canonical]]
    return SuiteReport(
        all(ok for ok, _, _ in results),
        [line for _, line, _ in results],
        [n for _, _, n in results],
    )


# ---------------------------------------------------------------------------
# small uniform functions and covers shared by the suites and the tests
# ---------------------------------------------------------------------------


def _same_index(t: int, _names: object) -> int:
    return t


def _finer(t: int, _names: object) -> int:
    return 2 * t + 1


def negate_fn() -> UniformFn:
    return uniform_from_rule(1, lambda a: -a, _same_index, "negate")


def identity_fn() -> UniformFn:
    return uniform_from_rule(1, lambda a: a, _same_index, "identity")


def abs_fn() -> UniformFn:
    return uniform_from_rule(1, abs, _same_index, "abs")


def double_fn() -> UniformFn:
    return uniform_from_rule(1, lambda a: 2 * a, _finer, "double")


def add_one_fn() -> UniformFn:
    return uniform_from_rule(1, lambda a: a + 1, _same_index, "add-one")


def negate_term_fn() -> UniformFn:
    """Negation as a term: swapping the positive and negative parts."""

    def component(slot: int) -> TermOperator:
        return TermOperator(OperatorTerm(3, 1, Apply(slot, Proj(1))))

    return UniformFn(1, component(2), component(1), component(3))


def two_ball_cover() -> BallCover:
    """|q| on [-1, 1] from two balls; the first one's test fires up to 1/4."""
    return BallCover(
        (
            Ball((Fraction(-1),), Fraction(3, 2), negate_fn()),
            Ball((Fraction(1),), Fraction(3, 2), identity_fn()),
        ),
        separation=3,
    )


def three_ball_cover() -> BallCover:
    """|q| on [-1, 1], correct everywhere: a third ball covers the kink."""
    return BallCover(
        (
            Ball((Fraction(-1),), Fraction(1), negate_fn()),
            Ball((Fraction(1),), Fraction(1), identity_fn()),
            Ball((Fraction(0),), Fraction(1, 4), abs_fn()),
        ),
        separation=15,
    )


def _recip() -> ConditionalFn:
    return default_functions().get("recip").fn


def _validates(fn: UniformFn, q: Fraction, value: Fraction, t_max: int) -> bool:
    return validate_name(apply_uniform(fn, [rational_name(q)]), value, t_max).passed


def _fns(rng: Random, k: int) -> tuple[NatFun, ...]:
    return tuple(random_natfun(rng) for _ in range(k))


# ---------------------------------------------------------------------------
# gadgets
# ---------------------------------------------------------------------------


@_check("gadgets", "the core registry passes its decency checks")
def decency(rng: Random, t_max: int) -> Iterator[bool]:
    for check in decency_check(CORE).checks:
        yield check.passed


def _first_zero(k: int, args: tuple[int, ...]) -> int:
    for i in range(k):
        if args[2 * i] == 0:
            return args[2 * i + 1]
    return args[-1]


@_check("gadgets", "delta_k has arity 2k+1 and is first-zero dispatch (k <= 4, arguments < 3)")
def delta_k_dispatch(rng: Random, t_max: int) -> Iterator[bool]:
    for k in range(1, 5):
        fn = delta_k(k)
        yield fn.arity == 2 * k + 1
        for args in product(range(3), repeat=2 * k + 1):
            yield fn.fn(*args) == _first_zero(k, args)


@_check("gadgets", "mu_k_c is its case rule and its delta_1 formula (k, c < 6; x, y < 13)")
def mu_cases(rng: Random, t_max: int) -> Iterator[bool]:
    for k, c in product(range(6), repeat=2):
        fn = mu(k, c).fn
        for x, y in product(range(13), repeat=2):
            formula = delta_1(monus(x, k), delta_1(monus(k, x), c, y), y)
            yield fn(x, y) == (c if x == k else y) == formula


@_check("gadgets", "gamma_b_c has arity b+c, is positive iff the first b sum higher (b, c <= 3)")
def gamma_sign(rng: Random, t_max: int) -> Iterator[bool]:
    for b, c in product(range(1, 4), repeat=2):
        fn = gamma(b, c)
        yield fn.arity == b + c
        for args in product(range(7), repeat=b + c):
            yield (fn.fn(*args) > 0) == (sum(args[:b]) > sum(args[b:]))


_THRESHOLDS = tuple(
    Fraction(a) for a in ("-2", "-3/2", "-1/2", "0", "1/3", "2/3", "1", "5/2")
)


@_check("gadgets", "lt_a, gt_a are positive iff (x-y)/(z+1) is below, above a (8 a; x, y, z < 9)")
def sign_tests(rng: Random, t_max: int) -> Iterator[bool]:
    for a in _THRESHOLDS:
        below, above = lt(a).fn, gt(a).fn
        for x, y, z in product(range(9), repeat=3):
            q = Fraction(x - y, z + 1)
            yield (below(x, y, z) > 0) == (q < a) and (above(x, y, z) > 0) == (q > a)


_BALLS = (
    ((Fraction(0),), Fraction(1)),
    ((Fraction(1, 2),), Fraction(1)),
    ((Fraction(-1, 2),), Fraction(3, 4)),
    ((Fraction(1),), Fraction(1, 4)),
    ((Fraction(1, 2), Fraction(-1)), Fraction(3, 4)),
    ((Fraction(0), Fraction(2)), Fraction(3, 2)),
)


@_check("gadgets", "ball indicators take 3 arguments a coordinate, vanish exactly on the ball")
def ball_membership(rng: Random, t_max: int) -> Iterator[bool]:
    triples = list(product(range(5), repeat=3))
    for center, radius in _BALLS:
        ind = ball_indicator(center, radius)
        yield ind.arity == 3 * len(center)
        for point in product(triples, repeat=len(center)):
            inside = all(
                abs(Fraction(x - y, z + 1) - c) < radius
                for (x, y, z), c in zip(point, center)
            )
            yield (ind.fn(*(n for triple in point for n in triple)) == 0) == inside


@_check("gadgets", "left and right invert pair, tuple_part inverts tuple_pack")
def pairing(rng: Random, t_max: int) -> Iterator[bool]:
    for u, v in product(range(25), repeat=2):
        yield (left(pair(u, v)), right(pair(u, v))) == (u, v)
    packed = tuple_pack([4, 0, 7])
    yield tuple(tuple_part(3, i, packed) for i in (1, 2, 3)) == (4, 0, 7)


# ---------------------------------------------------------------------------
# curry: the term-language rewrites
# ---------------------------------------------------------------------------


@_check("curry", "curry(T)(f, const s; t) = T(f; s, t), uncurry(curry(T)) is T (100 x 100)")
def currying(rng: Random, t_max: int) -> Iterator[bool]:
    for _ in range(100):
        term = random_term(rng, 2, 2, 4)
        curried = curry(term)
        back = uncurry(curried)
        yield back == term
        for _ in range(100):
            fns = _fns(rng, 2)
            s, t = rng.randrange(12), rng.randrange(12)
            direct = eval_term(term, fns, (s, t))
            via_curry = eval_term(curried, fns + (NatFun.constant(s),), (t,))
            yield direct == via_curry == eval_term(back, fns, (s, t))


# Un-currying forgets how the last function slot was probed, so the
# reverse round trip is only promised when that slot holds a constant.
@_check("curry", "uncurry(T)(f; s, t) = T(f, const s; t) = curry(uncurry(T))(...) (100 x 10)")
def uncurrying(rng: Random, t_max: int) -> Iterator[bool]:
    for _ in range(100):
        term = random_term(rng, 2, 1, 4)
        flat = uncurry(term)
        back = curry(flat)
        for _ in range(10):
            f1 = random_natfun(rng)
            s, t = rng.randrange(12), rng.randrange(12)
            fns = (f1, NatFun.constant(s))
            value = eval_term(term, fns, (t,))
            yield eval_term(flat, (f1,), (s, t)) == value == eval_term(back, fns, (t,))


@_check("curry", "multi_curry(T) has 4 function slots, 1 numeric slot, agrees with T (100 x 12)")
def iterated_currying(rng: Random, t_max: int) -> Iterator[bool]:
    for _ in range(100):
        term = random_term(rng, 2, 3, 4)
        flat = multi_curry(term)
        yield (flat.k, flat.m) == (4, 1)
        for _ in range(12):
            fns = _fns(rng, 2)
            s1, s2, t = (rng.randrange(10) for _ in range(3))
            consts = (NatFun.constant(s1), NatFun.constant(s2))
            yield eval_term(term, fns, (s1, s2, t)) == eval_term(flat, fns + consts, (t,))


@_check("curry", "diagonalize(T) has 2 function slots, equals T(f, const n; n) (100 x 12)")
def diagonalization(rng: Random, t_max: int) -> Iterator[bool]:
    for _ in range(100):
        term = random_term(rng, 3, 1, 4)
        diag = diagonalize(term)
        yield diag.k == 2
        for _ in range(12):
            fns = _fns(rng, 2)
            n = rng.randrange(12)
            direct = eval_term(term, fns + (NatFun.constant(n),), (n,))
            yield eval_term(diag, fns, (n,)) == direct


@_check("curry", "compose_terms(T, S) evaluates as T over the staged S (100 x 10)")
def grafting(rng: Random, t_max: int) -> Iterator[bool]:
    for _ in range(100):
        outer = random_term(rng, 2, 1, 3)
        inners = [random_term(rng, 2, 1, 3) for _ in range(2)]
        grafted = compose_terms(outer, inners)
        for _ in range(10):
            gs = _fns(rng, 2)
            n = rng.randrange(10)
            staged = tuple(
                NatFun(lambda t, _i=inner, _g=gs: eval_term(_i, _g, (t,)))
                for inner in inners
            )
            yield eval_term(grafted, gs, (n,)) == eval_term(outer, staged, (n,))


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------


_PARTS: dict[str, Callable[[], ConditionalFn]] = {
    "recip": _recip,
    "add-one": lambda: embed_uniform(add_one_fn()),
    "double": lambda: embed_uniform(double_fn()),
    "identity": lambda: embed_uniform(identity_uniform()),
    "negate": lambda: embed_uniform(negate_term_fn()),  # term-backed
}

# outer, inner, point, value of the composite at the point
COMPOSITES = (
    ("recip", "recip", "2/3", "2/3"),
    ("recip", "add-one", "1", "1/2"),
    ("recip", "double", "-1/4", "-2"),
    ("double", "recip", "1/2", "4"),
    ("identity", "recip", "3", "1/3"),
    ("negate", "negate", "5/7", "5/7"),
    ("add-one", "double", "3", "7"),
    ("add-one", "add-one", "0", "2"),
)


def composite_check(outer: str, inner: str, point: str, value: str) -> Check:
    """The composite's least certificate s splits: right(s) certifies the
    inner function, left(s) the outer one on the inner's output; and the
    composite's output names the value."""

    def cases(rng: Random, t_max: int) -> Iterator[bool]:
        f, g = _PARTS[outer](), _PARTS[inner]()
        composite = compose_conditional(f, g)
        name = rational_name(Fraction(point))
        s = find_parameter(composite, [name], 10**6)
        yield g.E.apply(tuple(name)).eval_uncached(right(s)) == 0
        mid = apply_conditional_at(g, [name], right(s))
        yield f.E.apply(tuple(mid)).eval_uncached(left(s)) == 0
        out = apply_conditional_at(composite, [name], s)
        yield validate_name(out, Fraction(value), t_max).passed

    return Check(
        f"{outer} after {inner} at {point}: the least certificate splits into"
        f" certificates of both, the output names {value} (t <= {{t_max}})",
        cases,
    )


_CATALOGUE["composition"] += [composite_check(*case) for case in COMPOSITES]


# ---------------------------------------------------------------------------
# localization
# ---------------------------------------------------------------------------


def _localized() -> Iterator[tuple]:
    """(fn, anchor name, neighborhood, local fn, value oracle, inside, outside)."""
    recip = _recip()
    near = Fraction(2, 3)
    targets = [
        (
            recip,
            Fraction(1),
            lambda q: 1 / q,
            list(map(Fraction, ("3/4", "4/5", "5/6", "9/10", "1", "9/8", "7/6", "5/4"))),
            list(map(Fraction, ("0", "1/2", "2", "3"))),
        ),
        (
            compose_conditional(recip, recip),
            near,
            lambda q: q,
            [near + Fraction(d) for d in ("0", "1/128", "-1/128", "1/100", "-1/100")],
            [near + 2],
        ),
        (embed_uniform(identity_fn()), Fraction(0), lambda q: q, [Fraction(1, 7)], [Fraction(2)]),
    ]
    for fn, at, value, inside, outside in targets:
        anchor = rational_name(at)
        hood, local = localize(fn, anchor, 1000)
        yield fn, anchor, hood, local, value, inside, outside


@_check("localization", "3 neighborhoods decide membership exactly, inside and outside")
def membership(rng: Random, t_max: int) -> Iterator[bool]:
    for _fn, _anchor, hood, _local, _value, inside, outside in _localized():
        yield from (hood.contains(q) for q in inside)
        yield from (not hood.contains(q) for q in outside)


@_check("localization", "localized functions name their values inside (t <= {t_max})")
def local_values(rng: Random, t_max: int) -> Iterator[bool]:
    for _fn, _anchor, _hood, local, value, inside, _outside in _localized():
        yield from (_validates(local, q, value(q), t_max) for q in inside)


@_check("localization", "patching anchors past the cutoff keeps certificates at 0 (3 x 60)")
def frozen_certificates(rng: Random, t_max: int) -> Iterator[bool]:
    for fn, anchor, hood, *_ in _localized():
        s0 = find_parameter(fn, [anchor], 1000)
        for _ in range(60):
            noisy = tuple(
                NatFun.patched(a, hood.cutoff + 1, random_natfun(rng)) for a in anchor
            )
            yield fn.E.apply(noisy).eval_uncached(s0) == 0


# ---------------------------------------------------------------------------
# gluing
# ---------------------------------------------------------------------------

# where the two-ball cover's dispatched rule is exact: not in (0, 1/4)
_WARRANTED = [Fraction(n, 16) for n in range(-16, 1, 2)] + [Fraction(n, 16) for n in range(4, 17)]
_SIXTEENTHS = [Fraction(n, 16) for n in range(-16, 17)]


@_check("gluing", "the two-ball glued |q| is right where it is warranted (t <= {t_max})")
def two_ball_values(rng: Random, t_max: int) -> Iterator[bool]:
    glued = glue_compact(two_ball_cover())
    yield from (_validates(glued, q, abs(q), t_max) for q in _WARRANTED)


@_check("gluing", "two-ball dispatch picks the unique certifying ball")
def two_ball_dispatch(rng: Random, t_max: int) -> Iterator[bool]:
    cover = two_ball_cover()
    for q in map(Fraction, ("-1", "-3/4", "-5/8", "-1/2", "1/2", "5/8", "3/4", "1")):
        yield dispatch_index(cover, [rational_name(q)]) == (1 if q < 0 else 2)


@_check("gluing", "in (0, 1/4) the first ball still wins: 1/8 glues to -1/8 (known limitation)")
def two_ball_stray(rng: Random, t_max: int) -> Iterator[bool]:
    stray = apply_uniform(glue_compact(two_ball_cover()), [rational_name(Fraction(1, 8))])
    yield approx(stray, 40) == Fraction(-1, 8)


@_check("gluing", "the three-ball glued |q| is right on the sixteenths of [-1, 1] (t <= {t_max})")
def three_ball_values(rng: Random, t_max: int) -> Iterator[bool]:
    glued = glue_compact(three_ball_cover())
    yield from (_validates(glued, q, abs(q), t_max) for q in _SIXTEENTHS)


@_check("gluing", "the three-ball cover is separated on the sixteenths of [-1, 1]")
def three_ball_separation(rng: Random, t_max: int) -> Iterator[bool]:
    yield separation_violations(three_ball_cover(), [(q,) for q in _SIXTEENTHS]) == []


@_check("gluing", "a one-ball cover reduces to its local function (t <= {t_max})")
def one_ball(rng: Random, t_max: int) -> Iterator[bool]:
    glued = glue_compact(BallCover((Ball((Fraction(0),), Fraction(1), identity_fn()),), 1))
    yield from (_validates(glued, q, q, t_max) for q in map(Fraction, ("0", "1/4", "-1/4")))


# ---------------------------------------------------------------------------
# metric spaces
# ---------------------------------------------------------------------------


def _rational(rng: Random) -> Fraction:
    return Fraction(rng.randrange(-40, 41), rng.randrange(1, 12))


def _nonzero(rng: Random) -> Fraction:
    return Fraction(rng.choice((-1, 1)) * rng.randrange(1, 41), rng.randrange(1, 12))


def _agree_in_m1(ms_out: OrdinaryName, real_out, ts: Iterable[int]) -> bool:
    m1 = make_mn(1)
    return all(m1.alpha(ms_out.f(t)) == (approx(real_out, t),) for t in ts)


@_check("metric-spaces", "M_1 decodes the code (1, 0, 1) to 1/2, M_2 compares distances exactly")
def codes(rng: Random, t_max: int) -> Iterator[bool]:
    yield make_mn(1).alpha(tuple_pack([1, 0, 1])) == (Fraction(1, 2),)
    m2 = make_mn(2)
    a, b = mn_code((Fraction(0), Fraction(0))), mn_code((Fraction(1, 2), Fraction(-1, 3)))
    yield m2.dist_lt(a, b, Fraction(3, 5)) and not m2.dist_lt(a, b, Fraction(1, 2))


@_check("metric-spaces", "metric axioms hold on sampled codes of M_2 and discrete_5")
def axioms(rng: Random, t_max: int) -> Iterator[bool]:
    yield metric_axiom_violations(make_mn(2), range(20)) == []
    yield metric_axiom_violations(make_discrete(5), range(5)) == []


@_check("metric-spaces", "the identity of M_1 preserves names (t <= {t_max})")
def identity_map(rng: Random, t_max: int) -> Iterator[bool]:
    out = apply_uniform_ms(identity_ms(make_mn(1)), mn_name((Fraction(2, 3),)))
    yield validate_ordinary_name(out, mn_code((Fraction(2, 3),)), t_max) == []


@_check("metric-spaces", "permutations of discrete_5 compose pointwise")
def discrete_permutations(rng: Random, t_max: int) -> Iterator[bool]:
    disc = make_discrete(5)
    perm1, perm2 = (1, 2, 3, 4, 0), (2, 0, 3, 1, 4)

    def perm_map(table: tuple[int, ...]) -> MsUniformFn:
        def build(fns: tuple[NatFun, ...]) -> NatFun:
            return NatFun(lambda t, _f=fns[0]: table[_f(t)], label="perm")

        return MsUniformFn(disc, disc, ProcOperator(1, build, "perm"))

    composed = compose_conditional_ms(
        embed_uniform_ms(perm_map(perm1)), embed_uniform_ms(perm_map(perm2))
    )
    for start in range(5):
        got = apply_conditional_ms(composed, OrdinaryName(NatFun.constant(start), disc), 10)
        yield got.f(3) == perm1[perm2[start]]


@_check("metric-spaces", "translated addition maps M_2 to M_1 and names 1/2 + 1/3 (t <= {t_max})")
def translated_addition(rng: Random, t_max: int) -> Iterator[bool]:
    add_ms = translate_uniform(default_functions().get("add").fn)
    yield add_ms.domain is make_mn(2) and add_ms.codomain is make_mn(1)
    out = apply_uniform_ms(add_ms, mn_name((Fraction(1, 2), Fraction(1, 3))))
    yield validate_ordinary_name(out, mn_code((Fraction(5, 6),)), t_max) == []


@_check("metric-spaces", "addition translated to M_2 and back gives the same names (100, t < 30)")
def uniform_round_trip(rng: Random, t_max: int) -> Iterator[bool]:
    add = default_functions().get("add").fn
    back = translate_uniform_back(translate_uniform(add))
    pairs = [(_rational(rng), _rational(rng)) for _ in range(99)]
    for a, b in [(Fraction(1, 2), Fraction(1, 3))] + pairs:
        names = [rational_name(a), rational_name(b)]
        direct, routed = apply_uniform(add, names), apply_uniform(back, names)
        yield all(
            (routed.f(t), routed.g(t), routed.h(t))
            == (direct.f(t), direct.g(t), direct.h(t))
            for t in range(30)
        )


@_check("metric-spaces", "addition on M_2, back and forth, gives the same codes (100, t < 25)")
def ms_uniform_round_trip(rng: Random, t_max: int) -> Iterator[bool]:
    add_ms = translate_uniform(default_functions().get("add").fn)
    again = translate_uniform(translate_uniform_back(add_ms))
    pairs = [(_rational(rng), _rational(rng)) for _ in range(99)]
    for point in [(Fraction(1, 5), Fraction(3, 4))] + pairs:
        name = mn_name(point)
        out, out_again = apply_uniform_ms(add_ms, name), apply_uniform_ms(again, name)
        yield all(out.f(t) == out_again.f(t) for t in range(25))


@_check("metric-spaces", "recip via M_1 and back: the same certificate and values (100, t < 25)")
def conditional_round_trip(rng: Random, t_max: int) -> Iterator[bool]:
    recip = _recip()
    back = translate_conditional_back(translate_conditional(recip))
    for q in [Fraction(2, 7)] + [_nonzero(rng) for _ in range(99)]:
        names = [rational_name(q)]
        s = find_parameter(recip, names, 10_000)
        direct = apply_conditional_at(recip, names, s)
        routed = apply_conditional_at(back, names, s)
        yield find_parameter(back, names, 10_000) == s and all(
            approx(routed, t) == approx(direct, t) for t in range(25)
        )


@_check("metric-spaces", "M_1 recip, also back and forth: the real certificate, same codes (100)")
def ms_conditional_round_trip(rng: Random, t_max: int) -> Iterator[bool]:
    recip = _recip()
    recip_ms = translate_conditional(recip)
    again = translate_conditional(translate_conditional_back(recip_ms))
    for q in [Fraction(1, 3)] + [_nonzero(rng) for _ in range(99)]:
        name = mn_name((q,))
        s = find_parameter_ms(recip_ms, name, 10_000)
        s_real = find_parameter(recip, [rational_name(q)], 10_000)
        s_again = find_parameter_ms(again, name, 10_000)
        out = apply_conditional_ms_at(recip_ms, name, s)
        out_again = apply_conditional_ms_at(again, name, s)
        yield s_real == s == s_again and all(out.f(t) == out_again.f(t) for t in range(25))


@_check("metric-spaces", "composition via M_1 matches the real one: certificate 11 at 2/3, t < 60")
def translated_composition(rng: Random, t_max: int) -> Iterator[bool]:
    recip, q = _recip(), Fraction(2, 3)
    real = compose_conditional(recip, recip)
    ms = compose_conditional_ms(translate_conditional(recip), translate_conditional(recip))
    s_real = find_parameter(real, [rational_name(q)], 1000)
    s_ms = find_parameter_ms(ms, mn_name((q,)), 1000)
    yield s_ms == s_real == 11
    real_out = apply_conditional_at(real, [rational_name(q)], s_real)
    ms_out = apply_conditional_ms_at(ms, mn_name((q,)), s_ms)
    yield from (_agree_in_m1(ms_out, real_out, (t,)) for t in range(60))


@_check("metric-spaces", "localization via M_1 matches the real one: cutoff 2, membership, values")
def translated_localization(rng: Random, t_max: int) -> Iterator[bool]:
    recip = _recip()
    hood_real, local_real = localize(recip, rational_name(Fraction(1)), 100)
    hood_ms, local_ms = localize_ms(translate_conditional(recip), mn_name((Fraction(1),)), 100)
    yield hood_ms.cutoff == hood_real.cutoff == 2
    for q in map(Fraction, ("3/4", "1", "9/8", "2/3", "7/5", "13/6")):
        yield hood_ms.contains_code(mn_code((q,))) == hood_real.contains(q)
    for q in (Fraction(3, 4), Fraction(1), Fraction(9, 8)):
        ms_out = apply_uniform_ms(local_ms, mn_name((q,)))
        real_out = apply_uniform(local_real, [rational_name(q)])
        yield from (_agree_in_m1(ms_out, real_out, (t,)) for t in range(40))
        yield validate_ordinary_name(ms_out, mn_code((1 / q,)), t_max) == []


@_check("metric-spaces", "gluing via M_1 matches the real one: 16 points x 8 indices, dispatch")
def translated_gluing(rng: Random, t_max: int) -> Iterator[bool]:
    real_cover = two_ball_cover()
    ms_cover = MsBallCover(
        tuple(
            MsBall(mn_code(ball.center), ball.radius, translate_uniform(ball.local))
            for ball in real_cover.balls
        ),
        separation=real_cover.separation,
    )
    real_glued, ms_glued = glue_compact(real_cover), glue_compact_ms(ms_cover)
    for q in [Fraction(n, 8) for n in range(-8, 9) if n != 1]:
        real_out = apply_uniform(real_glued, [rational_name(q)])
        ms_out = apply_uniform_ms(ms_glued, mn_name((q,)))
        yield from (_agree_in_m1(ms_out, real_out, (t,)) for t in range(0, 40, 5))
        yield dispatch_index_ms(ms_cover, mn_name((q,))) == dispatch_index(
            real_cover, [rational_name(q)]
        ) == (1 if q <= 0 else 2)


@_check("metric-spaces", "a bundle of identity and recip names the value pair (t <= {t_max})")
def bundle(rng: Random, t_max: int) -> Iterator[bool]:
    two = tuple_conditional(
        [embed_uniform_ms(identity_ms(make_mn(1))), translate_conditional(_recip())]
    )
    out = apply_conditional_ms(two, mn_name((Fraction(1, 2),)), 10**4)
    yield validate_ordinary_name(out, mn_code((Fraction(1, 2), Fraction(2))), t_max) == []


@_check("metric-spaces", "tupling, then composing, substitutes: 1/q + 2q (t <= {t_max})")
def substitution(rng: Random, t_max: int) -> Iterator[bool]:
    registry = default_functions()
    pieces = tuple_conditional(
        [translate_conditional(_recip()), embed_uniform_ms(translate_uniform(double_fn()))]
    )
    outer = embed_uniform_ms(translate_uniform(registry.get("add").fn))
    composed = compose_conditional_ms(outer, pieces)
    for q in (Fraction(1, 2), Fraction(2), Fraction(-1, 3)):
        out = apply_conditional_ms(composed, mn_name((q,)), 100_000)
        yield validate_ordinary_name(out, mn_code((1 / q + 2 * q,)), t_max) == []


@_check("metric-spaces", "the code-level ball indicator agrees with dist_lt on codes < 150")
def code_balls(rng: Random, t_max: int) -> Iterator[bool]:
    center = mn_code((Fraction(0),))
    indicator = code_ball_indicator(1, center, Fraction(2, 3))
    for n in range(150):
        yield (indicator(n) == 0) == make_mn(1).dist_lt(n, center, Fraction(2, 3))
