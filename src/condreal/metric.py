"""Effective metric spaces and computability of maps between them.

A space is given by a coded dense subset: a decidable code domain, a
decoding map ``alpha`` from codes to points, and an exact distance
comparison ``dist_lt(n, m, q)`` deciding ``d(alpha(n), alpha(m)) < q``
for rational thresholds.  Points are opaque except through codes and
these comparisons.

An *ordinary name* of a point ``xi`` is a total function ``f`` on the
naturals with ``d(alpha(f(t)), xi) < 1/(t+1)`` for every ``t``.  A map is
*uniformly computable* when one operator T sends names of arguments to
names of values, and *conditionally computable* when a certificate
operator E must first vanish at a searched parameter ``s``, after which
``T(f, const_s)`` names the value.

The records and constructions are written once, in ``condreal.realfns``:
an ``EffectiveSpace`` is a space there as ``Reals(n)`` is (width 1, one
space-checked ``OrdinaryName``, ``near`` and ball indicators from
``dist_lt``), so a coded map is a ``UniformFn`` or ``ConditionalFn``
with one value operator T, and search, application, identity, embedding,
composition, localization, gluing and dispatch take coded maps as they
take real functions; each operator built is a term exactly when every
operator it is built from is one (a slot is both), and decode and pack
are procedures.
This module keeps the spaces, their names, the translations and
tupling; its ``_ms`` names, ``MsConditionalFn``, ``MsBall`` and
``MsBallCover`` are aliases of the ``realfns`` objects, kept for the
benchmark's callers.  The spaces ``M_N`` (rational N-tuples coded by
nested pairing, max-norm distance) translate real-function
computability back and forth losslessly: the coding is two operators,
decode and pack, and each translation substitutes the translated
function's operators between them.  A translated conditional searches
in the real one's ``order``, read through the decoding.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial, reduce
from typing import Callable, Sequence

from . import gadgets
from .gadgets import tuple_pack, tuple_part, tuple_parts
from .naming import NatFun, TripleStream, _natural, _rational_triple, constant_values, triple_reader
from .realfns import (
    Ball,
    BallCover,
    BudgetExhausted,
    ConditionalFn,
    Operator,
    ProcOperator,
    SpaceMismatch,
    UniformFn,
    _CONJ,
    _expect,
    _lift,
    _reindex,
    _same_space,
    _slot,
    _subst,
    apply_conditional,
    apply_uniform,
    compose_conditional,
    embed_uniform,
    find_parameter,
    glue_compact,
    joint,
    localize,
)
from .terms import BaseFunction

__all__ = [
    "EffectiveSpace",
    "MsBall",
    "MsBallCover",
    "MsConditionalFn",
    "OrdinaryName",
    "SpaceMismatch",
    "apply_conditional_ms",
    "apply_uniform_ms",
    "builtin_spaces",
    "code_ball_indicator",
    "compose_conditional_ms",
    "embed_uniform_ms",
    "find_parameter_ms",
    "glue_compact_ms",
    "localize_ms",
    "make_discrete",
    "make_mn",
    "metric_axiom_violations",
    "mn_code",
    "mn_decode",
    "mn_name",
    "translate_conditional",
    "translate_conditional_back",
    "translate_uniform",
    "translate_uniform_back",
    "tuple_conditional",
    "validate_ordinary_name",
]


@dataclass(frozen=True, eq=False)
class EffectiveSpace:
    """A metric space presented through a coded dense subset.

    ``dist_lt`` must decide strict comparisons exactly; ``dist`` is the
    exact rational distance where one exists (it does for every space
    built here) and feeds the metric-axiom spot checks.
    """

    name: str
    code_domain: Callable[[int], bool]
    alpha: Callable[[int], object]
    dist: Callable[[int, int], Fraction] | None
    dist_lt: Callable[[int, int, Fraction | int], bool]
    dimension: int | None = None

    width = 1  # a point's name is one function

    def __repr__(self) -> str:
        return f"EffectiveSpace({self.name})"

    def functions(self, name: OrdinaryName) -> tuple[NatFun]:
        if not isinstance(name, OrdinaryName):
            raise SpaceMismatch(f"{self} takes one ordinary name, got {name!r}")
        _same_space(name.space, self, "argument name lives in the wrong space")
        return (name.f,)

    def name_of(self, fns: Sequence[NatFun]) -> OrdinaryName:
        return OrdinaryName(*fns, self)

    def point(self, name: OrdinaryName) -> OrdinaryName:
        return name

    def center(self, code: int) -> int:
        if not _natural(code):
            raise SpaceMismatch(f"{self} takes a code as a ball centre, got {code!r}")
        return code

    def indicator(self, center: int, radius: Fraction) -> BaseFunction:
        """Zero exactly on the codes within ``radius`` of the centre."""
        return BaseFunction(
            f"{self.name}_ball_{center}_r_{radius}",
            1,
            lambda n: 0 if self.dist_lt(n, center, radius) else 1,
        )

    def near(self, row: tuple[int], code: int, radius: Fraction) -> bool:
        return self.dist_lt(row[0], code, radius)


@dataclass(frozen=True, eq=False)
class OrdinaryName:
    """A code stream converging to a point at rate 1/(t+1)."""

    f: NatFun
    space: EffectiveSpace


# ---------------------------------------------------------------------------
# name checks
# ---------------------------------------------------------------------------


def validate_ordinary_name(
    name: OrdinaryName, target_code: int, t_max: int
) -> list[int]:
    """Indices t <= t_max violating the name contract for the coded target.

    A violation is a t where f(t) leaves the code domain or where the
    decoded point is not strictly within 1/(t+1) of the target.  Empty
    result = valid up to t_max, which must be a natural (else ValueError).
    """
    if not _natural(t_max):
        raise ValueError(f"t_max argument must be a natural, got {t_max!r}")
    space = _expect(OrdinaryName, name).space
    bad = []
    for t in range(t_max + 1):
        code = name.f(t)
        if not space.code_domain(code) or not space.dist_lt(
            code, target_code, Fraction(1, t + 1)
        ):
            bad.append(t)
    return bad


def metric_axiom_violations(space: EffectiveSpace, codes: Sequence[int]) -> list[str]:
    """Spot-check identity, symmetry and the triangle inequality, exactly."""
    if _expect(EffectiveSpace, space).dist is None:
        raise ValueError(f"{space.name} has no exact distance oracle")
    bad = []
    for n in codes:
        if space.dist(n, n) != 0:
            bad.append(f"d({n},{n}) != 0")
    for n in codes:
        for m in codes:
            if space.dist(n, m) != space.dist(m, n):
                bad.append(f"d({n},{m}) asymmetric")
            if space.dist(n, m) < 0:
                bad.append(f"d({n},{m}) negative")
    for n in codes:
        for m in codes:
            for k in codes:
                if space.dist(n, k) > space.dist(n, m) + space.dist(m, k):
                    bad.append(f"triangle fails at ({n},{m},{k})")
    return bad


# The records and constructions are ``condreal.realfns``'s, which take a
# coded space as they take the reals; these names are aliases kept for the
# benchmark's callers.
find_parameter_ms = find_parameter
apply_uniform_ms = apply_uniform
apply_conditional_ms = apply_conditional
embed_uniform_ms = embed_uniform
compose_conditional_ms = compose_conditional
localize_ms = localize
glue_compact_ms = glue_compact
MsConditionalFn = ConditionalFn
MsBall = Ball
MsBallCover = BallCover


# ---------------------------------------------------------------------------
# the spaces M_N of rational N-tuples, and translations
# ---------------------------------------------------------------------------


def make_mn(n_dims: int) -> EffectiveSpace:
    """R^N with the max-norm metric and rational tuples coded by pairing.

    A code decodes through the 3N-tuple projections: coordinate j is
    (c_{3j-2} - c_{3j-1}) / (c_{3j} + 1).  Every natural is a valid code,
    decoding is total, and distance comparisons are exact rational
    arithmetic.  One space per N.
    """
    if not _natural(n_dims) or n_dims < 1:
        raise ValueError(f"dimension must be at least 1, got {n_dims!r}")
    return _mn(n_dims)


@lru_cache(maxsize=None)
def _mn(n_dims: int) -> EffectiveSpace:
    width = 3 * n_dims

    def alpha(n: int) -> tuple[Fraction, ...]:
        parts = tuple_parts(width, n)
        return tuple(
            Fraction(parts[3 * j] - parts[3 * j + 1], parts[3 * j + 2] + 1)
            for j in range(n_dims)
        )

    def dist(n: int, m: int) -> Fraction:
        a, b = alpha(n), alpha(m)
        return max(abs(x - y) for x, y in zip(a, b))

    return EffectiveSpace(
        name=f"M_{n_dims}",
        code_domain=lambda _n: True,
        alpha=alpha,
        dist=dist,
        dist_lt=lambda n, m, q: dist(n, m) < Fraction(q),
        dimension=n_dims,
    )


def mn_decode(n_dims: int, code: int) -> tuple[Fraction, ...]:
    """The rational tuple a code stands for (same map as the space's alpha)."""
    if not _natural(code):
        raise ValueError(f"a code must be a natural, got {code!r}")
    return make_mn(n_dims).alpha(code)


def mn_code(point: Sequence[Fraction | int]) -> int:
    """A canonical code for a rational tuple (decodes back exactly)."""
    return tuple_pack([v for q in point for v in _rational_triple(q)])


def mn_name(point: Sequence[Fraction | int]) -> OrdinaryName:
    """The constant ordinary name of a rational tuple (exact at every t)."""
    point = tuple(map(Fraction, point))
    return OrdinaryName(NatFun.constant(mn_code(point)), make_mn(len(point)))


def make_discrete(size: int) -> EffectiveSpace:
    """Finitely many points, 0/1 metric, codes = points; one space per size."""
    if not _natural(size) or size < 1:
        raise ValueError(f"a discrete space needs at least one point, got {size!r}")
    return _discrete(size)


@lru_cache(maxsize=None)
def _discrete(size: int) -> EffectiveSpace:
    def dist(n: int, m: int) -> Fraction:
        return Fraction(0) if n == m else Fraction(1)

    return EffectiveSpace(
        name=f"discrete_{size}",
        code_domain=lambda n: n < size,
        alpha=lambda n: n,
        dist=dist,
        dist_lt=lambda n, m, q: dist(n, m) < Fraction(q),
        dimension=None,
    )


def builtin_spaces() -> list[EffectiveSpace]:
    return [make_mn(1), make_mn(2), make_mn(3), make_discrete(8)]


def _decoded_parts(n_dims: int, fn: NatFun) -> tuple[NatFun, ...]:
    """The 3N functions an M_N code stream stands for.

    A constant code is decoded once, into constant coordinate names.
    Otherwise each coordinate's name projects its own stream, and the
    streams share one decode of the code per index, so a reader takes a
    coordinate whole and reading every coordinate at an index walks the
    code once.
    """
    width = 3 * n_dims
    code = constant_values(fn)
    if code is not None:
        return tuple(NatFun.constant(v) for v in tuple_parts(width, code[0]))
    last: list[tuple[int, tuple[int, ...]]] = [(-1, ())]

    def walk(t: int) -> tuple[int, ...]:
        entry = last[0]
        if entry[0] != t:
            entry = last[0] = (t, tuple_parts(width, fn(t)))
        return entry[1]

    streams = [
        TripleStream(lambda t, j=j: walk(t)[j : j + 3], "decoded") for j in range(0, width, 3)
    ]
    return tuple(part for stream in streams for part in stream.name())


def _decode(n_dims: int, arity: int) -> list[Operator]:
    """The M_N decoding: slot 1's code stream as its 3N coordinate functions.

    The other slots pass through.  The coordinates are one joint's
    components, so applied together they share one decode per index.
    """
    coords = joint(arity, 3 * n_dims, lambda fns: _decoded_parts(n_dims, fns[0]), "decode")
    return [*coords, *(_slot(arity, i) for i in range(2, arity + 1))]


def _pack(n_dims: int, arity: int) -> list[Operator]:
    """The M_N coding: slots 1..3N, as f, g, h triples, packed into one code stream.

    The other slots pass through; constant triples pack once.
    """
    width = 3 * n_dims

    def build(fns: tuple[NatFun, ...]) -> NatFun:
        values = constant_values(*fns[:width])
        if values is not None:
            return NatFun.constant(tuple_pack(values))
        readers = [triple_reader(*fns[i : i + 3]) for i in range(0, width, 3)]
        return NatFun(lambda t: tuple_pack([v for read in readers for v in read(t)]), "pack")

    rest = (_slot(arity, i) for i in range(width + 1, arity + 1))
    return [ProcOperator(arity, build, "pack"), *rest]


def _coded_dimension(fn: UniformFn | ConditionalFn, kind: type) -> int:
    """N, for a map from M_N to M_1 that is a ``kind`` (else ValueError)."""
    if getattr(_expect(kind, fn).domain, "dimension", None) is None or fn.codomain.dimension != 1:
        raise SpaceMismatch("translation expects a map from M_N to M_1")
    return fn.domain.dimension


def translate_uniform(fn: UniformFn) -> UniformFn:
    """A uniform real function as a uniform map from M_N to M_1.

    The operator decodes the argument-name codes into 3N component
    functions (which are exactly name triples of the coordinates), runs
    the real operators, and packs the output triple back into codes.
    Operators that are one joint's components run once per index.
    """
    n = _expect(UniformFn, fn).n_args
    domain = make_mn(n)  # refuses n = 0: there is no M_0
    values = _subst(_pack(1, 3), _subst(fn.values, _decode(n, 1)))
    return UniformFn(domain, *values, codomain=make_mn(1))


def translate_uniform_back(fn: UniformFn) -> UniformFn:
    """The inverse packaging, for maps between the rational-tuple spaces."""
    n = _coded_dimension(fn, UniformFn)
    return UniformFn(n, *_subst(_decode(1, 1), _subst(fn.values, _pack(n, 3 * n))))


def translate_conditional(fn: ConditionalFn) -> ConditionalFn:
    """A conditional real function as a conditional map from M_N to M_1.

    Where the real function has a search order, the translated one
    decodes the code and follows it.
    """
    n, real = _expect(ConditionalFn, fn).n_args, fn.order
    domain = make_mn(n)  # refuses n = 0: there is no M_0
    (E,) = _subst([fn.E], _decode(n, 1))
    values = _subst(_pack(1, 3), _subst(fn.values, _decode(n, 2)))
    order = None if real is None else lambda fns, b: real(_decoded_parts(n, fns[0]), b)
    return ConditionalFn(domain, E, *values, codomain=make_mn(1), order=order)


def translate_conditional_back(fn: ConditionalFn) -> ConditionalFn:
    """The inverse packaging; a coded search order is followed through the packing."""
    n, coded = _coded_dimension(fn, ConditionalFn), fn.order
    (pack,) = _pack(n, 3 * n)
    (E,) = _subst([fn.E], [pack])
    values = _subst(_decode(1, 1), _subst(fn.values, _pack(n, 3 * n + 1)))
    order = None if coded is None else lambda fns, b: coded((pack.apply(fns),), b)
    return ConditionalFn(n, E, *values, order=order)


def _tuple_order(
    components: Sequence[ConditionalFn], fns: tuple[NatFun, ...], budget: int
) -> list[int]:
    """A tuple's search order: ``tuple_pack`` of the components' least parameters, if below budget.

    The tuple certifies at s exactly when every component certifies at
    ``part_i(s)``.  As ``part_i(s) <= s`` and ``tuple_pack`` increases in
    each coordinate, its least s is the pack of the components' least
    parameters below ``budget``, each found by ``find_parameter`` in the
    component's own order.
    """
    name = components[0].domain.name_of(fns)
    try:
        s = tuple_pack([find_parameter(fn, name, budget) for fn in components])
    except BudgetExhausted:
        return []
    return [s] if s < budget else []


def tuple_conditional(fns: Sequence[ConditionalFn]) -> ConditionalFn:
    """Bundle K conditional maps into M_1 into one map into M_K.

    The parameter decodes into K component parameters ``part_i(s)``; the
    certificate conjoins each component certificate read at its part,
    and the value operator interleaves the component outputs at their
    parts into M_K codes (each component carries full index-t precision,
    so the max-norm error stays under 1/(t+1)).  Each operator is a term
    exactly when every operator it is built from is one: the certificate
    from the component certificates, the value from the component values.
    The search probes only the pack of the components' least parameters.
    """
    fns = tuple(_expect(ConditionalFn, fn) for fn in fns)
    if not fns:
        raise ValueError("tuple_conditional needs at least one component")
    domain = fns[0].domain
    for fn in fns:
        _same_space(fn.domain, domain, "components must share their domain")
        _same_space(fn.codomain, make_mn(1), "components must map into M_1")
    k = len(fns)
    parts = [BaseFunction(f"part_{i}_{k}", 1, partial(tuple_part, k, i)) for i in range(1, k + 1)]
    cert = reduce(
        lambda a, b: _lift(_CONJ, [a, b]), [_reindex(fn.E, part) for fn, part in zip(fns, parts)]
    )
    f = _slot(2, 1)
    outs = [_subst(fn.values, [f, _lift(part, [_slot(2, 2)])])[0] for fn, part in zip(fns, parts)]
    interleave = BaseFunction(
        f"interleave_{k}", k, lambda *cs: tuple_pack([v for c in cs for v in tuple_parts(3, c)])
    )
    order = partial(_tuple_order, fns)
    return ConditionalFn(domain, cert, _lift(interleave, outs), codomain=make_mn(k), order=order)


def code_ball_indicator(
    n_dims: int, center_code: int, radius: Fraction | int
) -> Callable[[int], int]:
    """Zero exactly on codes decoding strictly inside the max-norm ball.

    Composes the triple-level ball indicator with the tuple decodes, so
    it agrees with dist_lt(n, center_code, radius) on every code.
    """
    base = gadgets.ball_indicator(mn_decode(n_dims, center_code), radius)
    return lambda n: base.fn(*tuple_parts(3 * n_dims, n))
