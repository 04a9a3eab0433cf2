"""Uniformly and conditionally computable functions, for the reals and for coded spaces.

An N-argument real function is *uniformly computable* when three 3N-ary
operators F, G, H transform any name triples of the arguments into a name
triple of the value.  It is *conditionally computable* when a fourth
operator E certifies parameters first: a natural ``s`` with

    E(f_1, g_1, h_1, ..., f_N, g_N, h_N)(s) = 0

must exist whenever the arguments are named and lie in the domain, and
every such ``s`` -- not only the first -- makes

    (F(..., const_s), G(..., const_s), H(..., const_s))

a name of the value.  Uniform functions embed into conditional ones with
a certificate that accepts exactly s = 0.

Operators are either operator terms (single numeric argument) or direct
procedures honoring the same contract: total, deterministic, reading
their function arguments only by evaluation.

The records ``UniformFn`` and ``ConditionalFn``, search, application,
``identity``, the embedding of uniform functions, composition of
conditionals (the inner one of any arity), localization of a conditional
to a uniform function near a point, and gluing of local uniform
functions over a finite ball cover are each written once, generic over a
*space*: ``Reals(n)`` for n real arguments named by name triples, or a
coded ``condreal.metric.EffectiveSpace`` with one value operator T where
a real value has F, G, H.  Wiring a construction across different spaces
raises ``SpaceMismatch``, an ``ArityMismatch``.  A construction whose
ingredients are all term-backed stays inside the term language, and
otherwise builds the equivalent procedure form.

A ``JointOperator`` builds several value functions at once -- for a
real value the three functions of a name, projected from one
``TripleStream`` -- and ``components()`` gives its F, G and H.
Application, substitution, localization and gluing build a joint once
wherever its components are used together, so a procedure-backed name
computes its rational once per index; used one at a time, a component
gives the same values.  Term-backed F, G and H applied together run as
one ``TermProgram`` behind one ``TripleStream``.

A search probes in its certificate's order, which skips only parameters
that cannot certify, so it finds the linear scan's least one.  A
composite walks the pairing diagonals, probing its inner certificate once
per diagonal; the reciprocal on an exact argument starts at its least s.

Gluing, in either form, picks its ball once per argument name and
evaluates only that ball's local function; ``support_bound`` still holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence
from weakref import WeakKeyDictionary

from . import gadgets
from .gadgets import CORE
from .naming import NameTriple, NatFun, TripleStream, _natural, constant_values, recording
from .terms import (
    Apply,
    ArityMismatch,
    Base,
    BaseFunction,
    Node,
    OperatorTerm,
    Proj,
    TermProgram,
    _subst_numeric,
    compose_terms,
    diagonalize,
)

if TYPE_CHECKING:
    from .metric import EffectiveSpace

    Space = Reals | EffectiveSpace  # a domain or codomain

__all__ = [
    "Ball",
    "BallCover",
    "BudgetExhausted",
    "ConditionalFn",
    "JointComponent",
    "JointOperator",
    "Neighborhood",
    "Operator",
    "ProcOperator",
    "Reals",
    "SpaceMismatch",
    "TermOperator",
    "UniformFn",
    "apply_conditional",
    "apply_conditional_at",
    "apply_uniform",
    "compose_conditional",
    "dispatch_index",
    "embed_uniform",
    "find_parameter",
    "glue_compact",
    "identity",
    "identity_uniform",
    "localize",
    "patch_operator",
    "separation_violations",
]


class BudgetExhausted(RuntimeError):
    """No certifying parameter found in the searched range.

    Carries the searched range; deliberately *not* a claim that no
    parameter exists beyond it.
    """

    def __init__(self, budget: int, context: str = ""):
        self.budget = budget
        self.context = context
        where = f" while {context}" if context else ""
        super().__init__(f"no parameter s < {budget} certified{where}")


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------


def _arguments(arity: int, fns: Sequence[NatFun]) -> tuple[NatFun, ...]:
    """The function arguments of an ``arity``-ary operator, counted."""
    fns = tuple(fns)
    if len(fns) != arity:
        raise ArityMismatch(f"operator wants {arity} functions, got {len(fns)}")
    return fns


@dataclass(frozen=True, eq=False)
class TermOperator:
    """An operator denoted by a single-argument operator term."""

    term: OperatorTerm

    def __post_init__(self) -> None:
        if self.term.m != 1:
            raise ArityMismatch("operator terms take a single numeric argument")

    @property
    def arity(self) -> int:
        return self.term.k

    def apply(self, fns: Sequence[NatFun]) -> NatFun:
        read = TermProgram((self.term,)).bind(_arguments(self.arity, fns))
        return NatFun(lambda n: read(n)[0], label="term-op")


@dataclass(frozen=True, eq=False)
class ProcOperator:
    """An operator given directly as a procedure building the result function.

    The builder must be pure and must read the argument functions only by
    calling them, so instrumentation sees every query.
    """

    arity: int
    build: Callable[[tuple[NatFun, ...]], NatFun]
    label: str = ""

    def apply(self, fns: Sequence[NatFun]) -> NatFun:
        return self.build(_arguments(self.arity, fns))


class JointOperator:
    """``width`` operators built together: one build gives all their results.

    ``build`` maps the argument functions to ``width`` functions at once;
    for a real value (width 3) that is typically the ``name()`` of a
    ``TripleStream``, which computes each index's rational once.
    ``components()`` is the view of one operator each that functions,
    constructions and terms work with.  Wherever any of a joint's
    components are applied together, the joint is built once.
    """

    __slots__ = ("arity", "width", "build", "label")

    def __init__(
        self,
        arity: int,
        width: int,
        build: Callable[[tuple[NatFun, ...]], Sequence[NatFun]],
        label: str = "",
    ):
        self.arity, self.width, self.build, self.label = arity, width, build, label

    def apply(self, fns: Sequence[NatFun]) -> tuple[NatFun, ...]:
        return tuple(self.build(_arguments(self.arity, fns)))

    def components(self) -> tuple["JointComponent", ...]:
        return tuple(JointComponent(self, pick) for pick in range(self.width))


class JointComponent(ProcOperator):
    """Result ``pick`` of a ``JointOperator``, a procedure on its own.

    Applied alone it builds the joint and keeps its own function, so it
    gives the same values as the joint application.
    """

    def __init__(self, joint: JointOperator, pick: int):
        super().__init__(joint.arity, lambda fns: joint.apply(fns)[pick], f"{joint.label}[{pick}]")
        self.joint = joint
        self.pick = pick


Operator = TermOperator | ProcOperator


def _is_term(op: Operator) -> bool:
    return isinstance(op, TermOperator)


def _apply_ops(ops: Sequence[Operator], fns: Sequence[NatFun]) -> list[NatFun]:
    """Every operator applied to ``fns``, sharing builds.

    The one place that decides which operators build together: each
    joint among the components, in any order and of any subset, is
    built once, and term F, G, H run as one program behind one stream.
    """
    if len(ops) == 3 and all(map(_is_term, ops)):
        read = TermProgram([op.term for op in ops]).bind(fns)
        return list(TripleStream(read, "term-op").name())
    built: dict[JointOperator, tuple[NatFun, ...]] = {}
    out: list[NatFun] = []
    for op in ops:
        if isinstance(op, JointComponent):
            if op.joint not in built:
                built[op.joint] = op.joint.apply(fns)
            out.append(built[op.joint][op.pick])
        else:
            out.append(op.apply(fns))
    return out


# ---------------------------------------------------------------------------
# spaces and function records
# ---------------------------------------------------------------------------


class SpaceMismatch(ArityMismatch):
    """Two constructions were wired across different spaces."""


def _same_space(a: object, b: object, what: str) -> None:
    if a != b:
        raise SpaceMismatch(f"{what}: {a} vs {b}")


@dataclass(frozen=True)
class Reals:
    """R^n, a point named by one name triple per coordinate: a space.

    A space tells the constructions what they need of a domain or
    codomain: ``width``, the number of functions naming a point;
    ``functions(names)``, those functions in order; ``name_of(fns)``, the
    name made of value functions; ``point(name)``, the names of a point
    given by one name, as ``localize`` takes its anchor; ``center`` and
    ``indicator``, a ball's centre and membership test; and
    ``neighborhood``, what a localization's certified prefix cuts out,
    whose ``contains`` decides an exact point (a rational here, a code in
    a coded space).  Real functions take their values in ``Reals(1)``;
    balls are max-norm balls around rational centres.
    """

    n: int

    @property
    def width(self) -> int:
        return 3 * self.n

    def functions(self, names: Sequence[NameTriple]) -> tuple[NatFun, ...]:
        """The functions of ``n`` argument names, counted, in order."""
        if not isinstance(names, (list, tuple)) or {type(nm) for nm in names} - {NameTriple}:
            raise SpaceMismatch(f"{self} takes a list of name triples, got {names!r}")
        if len(names) != self.n:
            raise ArityMismatch(f"{self.n} argument names expected, got {len(names)}")
        return tuple(fn for name in names for fn in name)

    def name_of(self, fns: Sequence[NatFun]) -> NameTriple:
        return NameTriple(*fns)

    def point(self, name: NameTriple) -> list[NameTriple]:
        if self.n != 1:
            raise ArityMismatch("localization is defined for unary real functions")
        return [name]

    def center(self, center: Sequence[Fraction | int]) -> tuple[Fraction, ...]:
        center = tuple(map(Fraction, center))
        if len(center) != self.n:
            raise ArityMismatch("ball center dimension must match the local function")
        return center

    indicator = staticmethod(gadgets.ball_indicator)

    def neighborhood(self, prefix: tuple[tuple[int, int, int], ...]) -> Neighborhood:
        return Neighborhood(len(prefix) - 1, prefix)


@dataclass(frozen=True, eq=False, init=False)
class _Record:
    """What both function records hold: ``domain``, ``codomain``, ``values``.

    ``values`` has one operator per function of a codomain name, each
    ``domain.width``-ary plus its parameter slots; an int domain ``n``
    means ``Reals(n)``, whose functions take values in ``Reals(1)``.
    ``F``, ``G``, ``H`` and ``n_args`` read a real function's record.
    """

    domain: Space
    codomain: Space
    values: tuple[Operator, ...]

    def _store(self, domain: int | Space, codomain: Space, values: tuple, slots: int) -> None:
        """Check the spaces and the value operators, then set the fields."""
        domain = Reals(domain) if isinstance(domain, int) else domain
        if isinstance(domain, Reals):
            _same_space(codomain, Reals(1), "real functions take real values")
        if len(values) != codomain.width:
            raise ArityMismatch(f"{codomain} names take {codomain.width} value operators")
        want = domain.width + slots
        if any(op.arity != want for op in values):
            raise ArityMismatch(f"value operators must be {want}-ary")
        for field, value in (("domain", domain), ("codomain", codomain), ("values", values)):
            object.__setattr__(self, field, value)

    F = property(lambda self: self.values[0])
    G = property(lambda self: self.values[1])
    H = property(lambda self: self.values[2])
    n_args = property(lambda self: self.domain.n)


@dataclass(frozen=True, eq=False, init=False)
class UniformFn(_Record):
    """Value operators sending argument names to value names.

    ``UniformFn(n, F, G, H)`` takes n real arguments;
    ``UniformFn(space, T, codomain=other)`` maps between coded spaces.
    """

    def __init__(self, domain: int | Space, *values: Operator, codomain: Space = Reals(1)):
        self._store(domain, codomain, values, 0)


@dataclass(frozen=True, eq=False, init=False)
class ConditionalFn(_Record):
    """A certificate ``E``, ``domain.width``-ary, and value operators with a parameter slot.

    ``ConditionalFn(n, E, F, G, H)`` takes n real arguments;
    ``ConditionalFn(space, E, T, codomain=other)`` maps between coded spaces.
    """

    E: Operator

    def __init__(
        self, domain: int | Space, E: Operator, *values: Operator, codomain: Space = Reals(1)
    ):
        self._store(domain, codomain, values, 1)
        if E.arity != self.domain.width:
            raise ArityMismatch(f"certificate operator must be {self.domain.width}-ary")
        object.__setattr__(self, "E", E)


# ---------------------------------------------------------------------------
# application and search
# ---------------------------------------------------------------------------


def apply_uniform(fn: UniformFn, names: Sequence[NameTriple]) -> NameTriple:
    """Transform argument names into a (lazily evaluated) value name."""
    return fn.codomain.name_of(_apply_ops(fn.values, fn.domain.functions(names)))


# certificate -> its order: (fns, budget) -> the s < budget to probe, least
# first, leaving out only s that cannot certify; with no entry, every s
_SEARCH_ORDER: WeakKeyDictionary[Operator, Callable[..., Iterable[int]]] = WeakKeyDictionary()


def _candidates(certificate: Operator, fns: tuple[NatFun, ...], budget: int) -> Iterable[int]:
    """The s < budget a search probes, in the certificate's order."""
    if not _natural(budget):
        raise ValueError(f"search budget must be a natural, got {budget!r}")
    order = _SEARCH_ORDER.get(certificate)
    return range(budget) if order is None else order(fns, budget)


def _diagonal_walk(e_inner: Operator, fns: tuple[NatFun, ...], budget: int) -> Iterator[int]:
    """A composite's order: the pairing diagonals, probing the inner certificate.

    A composite certificate at s = pair(s0, s1) is conj(inner(s1), ...) > 0
    wherever the inner one fails at s1.  The walk probes that once per
    diagonal d = s0 + s1, at s1 = d, and yields on diagonal d the s of
    every kept s1, largest s1 (least s) first.
    """
    inner = e_inner.apply(fns)
    kept: list[int] = []
    d = first = 0  # first = pair(0, d), the least s on diagonal d
    while first < budget:
        if inner(d) == 0:
            kept.append(d)
        yield from (s for s in (first + d - s1 for s1 in reversed(kept)) if s < budget)
        d += 1
        first += d


def find_parameter(fn: ConditionalFn, names: Sequence[NameTriple], budget: int) -> int:
    """The least certifying parameter s < budget, the one a linear scan finds.

    The candidates come in the certificate's order (``_candidates``),
    which skips only s that cannot certify, and each is confirmed by
    evaluating the certificate: the first hit, and the budgets that
    raise BudgetExhausted, are the scan's.  Raises ValueError unless
    ``budget`` is a natural.
    """
    fns = fn.domain.functions(names)
    certificate = fn.E.apply(fns)
    for s in _candidates(fn.E, fns, budget):
        if certificate.eval_uncached(s) == 0:
            return s
    raise BudgetExhausted(budget, "searching for a certifying parameter")


def apply_conditional_at(
    fn: ConditionalFn, names: Sequence[NameTriple], s: int
) -> NameTriple:
    """Apply at an already-found parameter (any certified s is valid)."""
    fns = fn.domain.functions(names) + (NatFun.constant(s),)
    return fn.codomain.name_of(_apply_ops(fn.values, fns))


def apply_conditional(
    fn: ConditionalFn, names: Sequence[NameTriple], budget: int
) -> NameTriple:
    """Search for a certificate, then apply; raises BudgetExhausted if none."""
    return apply_conditional_at(fn, names, find_parameter(fn, names, budget))


def embed_uniform(fn: UniformFn) -> ConditionalFn:
    """View a uniform function as conditional: s = 0 certifies.

    The certificate returns the identity whatever its arguments; the
    value operators leave the parameter slot unread.
    """
    k, values = fn.domain.width, fn.values
    if all(map(_is_term, values)):
        cert: Operator = TermOperator(OperatorTerm(k, 1, Proj(1)))
        values = [TermOperator(OperatorTerm(k + 1, 1, op.term.node)) for op in values]
    else:
        cert = ProcOperator(k, lambda _fns: NatFun.identity(), "embedded-cert")
        values = _subst(values, [_slot(k + 1, i, False) for i in range(1, k + 1)], False)
    return ConditionalFn(fn.domain, cert, *values, codomain=fn.codomain)


def identity(space: Space) -> UniformFn:
    """The identity on ``space``, term-backed: passes the name straight through."""
    slots = [_slot(space.width, i, True) for i in range(1, space.width + 1)]
    return UniformFn(space, *slots, codomain=space)


def identity_uniform() -> UniformFn:
    """The identity on reals, ``identity(Reals(1))``."""
    return identity(Reals(1))


# ---------------------------------------------------------------------------
# operator combinators
# ---------------------------------------------------------------------------
#
# Each combinator returns a TermOperator when ``term`` is set, in which case
# every operator input must be a TermOperator, and a procedure otherwise;
# the two forms agree pointwise.  A construction computes ``term`` once
# from all of its ingredients and passes it to every combinator it uses:
# slot, constant and patch have no operator inputs to ask.

_LEFT = CORE.get("left")
_RIGHT = CORE.get("right")
_CONJ = CORE.get("conj")


def _slot(k: int, i: int, term: bool) -> Operator:
    """The k-ary operator returning its i-th function argument."""
    if term:
        return TermOperator(OperatorTerm(k, 1, Apply(i, Proj(1))))
    return ProcOperator(k, lambda fns: fns[i - 1], f"slot {i}")


def _constant(k: int, c: int, term: bool) -> Operator:
    """The k-ary operator returning the constant function c."""
    if term:
        return TermOperator(OperatorTerm(k, 1, Base(gadgets.constant(c), (Proj(1),))))
    return ProcOperator(k, lambda _fns: NatFun.constant(c), f"const {c}")


def _patch(k: int, i: int, values: Sequence[int], term: bool) -> Operator:
    """Slot i with its values below ``len(values)`` replaced by ``values``.

    The term form chains one ``mu`` override per replaced index; the
    procedure form is ``NatFun.patched`` over the prefix.
    """
    values = tuple(values)
    if term:
        node: Node = Apply(i, Proj(1))
        for j, value in enumerate(values):
            node = Base(gadgets.mu(j, value), (Proj(1), node))
        return TermOperator(OperatorTerm(k, 1, node))
    anchor = NatFun(values.__getitem__, label="prefix")
    return ProcOperator(
        k, lambda fns: NatFun.patched(anchor, len(values), fns[i - 1]), f"patch<{len(values)}"
    )


def _lift(base: BaseFunction, ops: Sequence[Operator], term: bool) -> Operator:
    """Pointwise: ``base`` applied to the outputs of ``ops`` at each index (once if constant)."""
    k = ops[0].arity
    if term:
        return TermOperator(OperatorTerm(k, 1, Base(base, tuple(op.term.node for op in ops))))
    fn = base.fn

    def build(fns: tuple[NatFun, ...]) -> NatFun:
        outs = _apply_ops(ops, fns)
        values = constant_values(*outs)
        if values is not None:
            return NatFun.constant(fn(*values))
        return NatFun(lambda t: fn(*[out(t) for out in outs]), label=base.name)

    return ProcOperator(k, build, base.name)


def _subst(outers: Sequence[Operator], inners: Sequence[Operator], term: bool) -> list[Operator]:
    """Substitution: each of ``outers`` applied to the outputs of ``inners``.

    The procedure form is one joint: applied to an argument tuple it
    applies the inner operators once and the outer ones to their outputs.
    """
    if term:
        return [TermOperator(compose_terms(op.term, [i.term for i in inners])) for op in outers]

    def build(fns: tuple[NatFun, ...]) -> list[NatFun]:
        return _apply_ops(outers, _apply_ops(inners, fns))

    return list(JointOperator(inners[0].arity, len(outers), build, "subst").components())


def _reindex(op: Operator, base: BaseFunction, term: bool) -> Operator:
    """Read the output of ``op`` at ``base(n)`` instead of at ``n``."""
    if term:
        node = _subst_numeric(op.term.node, Base(base, (Proj(1),)))
        return TermOperator(OperatorTerm(op.arity, 1, node))
    fn = base.fn

    def build(fns: tuple[NatFun, ...]) -> NatFun:
        out = op.apply(fns)
        return NatFun(lambda n: out(fn(n)), label=f"{base.name}-indexed")

    return ProcOperator(op.arity, build, f"{base.name}-indexed")


def _diagonal(op: Operator, term: bool) -> Operator:
    """Drop the last slot, feeding it ``const_n`` when reading index ``n``."""
    if term:
        return TermOperator(diagonalize(op.term))

    def build(fns: tuple[NatFun, ...]) -> NatFun:
        return NatFun(lambda n: op.apply(fns + (NatFun.constant(n),))(n), label="diagonal")

    return ProcOperator(op.arity - 1, build, "diagonal")


def _first_passing(indicators: Sequence[BaseFunction], probes: Sequence[int]) -> int | None:
    """The 1-based position of the first indicator vanishing at ``probes``."""
    for i, indicator in enumerate(indicators, start=1):
        if indicator.fn(*probes) == 0:
            return i
    return None


def _select(
    indicators: Sequence[BaseFunction],
    k: int,
    components: Sequence[Sequence[Operator]],
    term: bool,
) -> list[Operator]:
    """First-zero select: per component, the branch of the first passing ball.

    Every indicator reads all function arguments at index ``k``; the
    default when none passes is the constant zero.  The term form keeps
    the selector ``delta_m`` in the term, where a bound program settles
    it once.  The procedure form is one joint over all components: the
    first read of any of its results picks the ball for that argument
    tuple, and only that ball's branches are applied, together.
    """
    n = components[0][0].arity
    if term:
        const_k = Base(gadgets.constant(k), (Proj(1),))
        probes = tuple(Apply(i, const_k) for i in range(1, n + 1))
        zero = Base(gadgets.constant(0), (Proj(1),))
        selector = gadgets.delta_k(len(indicators))

        def select_term(branches: Sequence[Operator]) -> Operator:
            subs = [
                node
                for indicator, branch in zip(indicators, branches)
                for node in (Base(indicator, probes), branch.term.node)
            ]
            return TermOperator(OperatorTerm(n, 1, Base(selector, (*subs, zero))))

        return [select_term(branches) for branches in components]

    width = len(components)

    def build(fns: tuple[NatFun, ...]) -> list[NatFun]:
        chosen: list[NatFun] = []

        def branch(j: int) -> NatFun:
            if not chosen:
                i = _first_passing(indicators, [fn(k) for fn in fns])
                if i is None:
                    chosen.extend([NatFun.constant(0)] * width)
                else:
                    chosen.extend(_apply_ops([branches[i - 1] for branches in components], fns))
            return chosen[j]

        return [NatFun(lambda t, _j=j: branch(_j)(t), label="glued") for j in range(width)]

    return list(JointOperator(n, width, build, "glued").components())


# ---------------------------------------------------------------------------
# composition, patching and localization
# ---------------------------------------------------------------------------


def compose_conditional(outer: ConditionalFn, inner: ConditionalFn) -> ConditionalFn:
    """Composite of two conditional functions, ``outer`` after ``inner``.

    The inner function may take any number of arguments; its values must
    lie in the outer function's domain (else SpaceMismatch).  The
    composite's parameter packs the component parameters through the
    diagonal pairing.  At candidate ``s`` the certificate is

        conj(E_inner(names)(right(s)),
             E_outer(inner value name at parameter right(s))(left(s)))

    which vanishes exactly when ``right(s)`` certifies the inner function
    and ``left(s)`` the outer one at the inner output.  The value
    operators feed the packed parameter through the same split.
    Term-backed ingredients yield term-backed results.
    """
    _same_space(inner.codomain, outer.domain, "composition space mismatch")
    term = all(_is_term(op) for fn in (outer, inner) for op in (fn.E, *fn.values))
    w = inner.domain.width
    slots = [_slot(w + 1, i, term) for i in range(1, w + 1)]
    param = _slot(w + 1, w + 1, term)
    # the inner value name, its parameter slot read through `right`
    inner_value = _subst(inner.values, slots + [_lift(_RIGHT, [param], term)], term)
    outer_cert = _reindex(_subst([outer.E], inner_value, term)[0], _LEFT, term)
    cert = _lift(_CONJ, [_reindex(inner.E, _RIGHT, term), _diagonal(outer_cert, term)], term)
    # a term certificate in a fresh wrapper, so nested levels' records can go
    _SEARCH_ORDER[cert] = partial(_diagonal_walk, TermOperator(inner.E.term) if term else inner.E)
    values = _subst(outer.values, inner_value + [_lift(_LEFT, [param], term)], term)
    return ConditionalFn(inner.domain, cert, *values, codomain=outer.codomain)


def patch_operator(anchor: NatFun, k: int) -> ProcOperator:
    """The unary operator replacing values below index k by the anchor's."""
    if k < 0:
        raise ValueError("patch cutoff must be a natural")
    return ProcOperator(
        1, lambda fns: NatFun.patched(anchor, k, fns[0]), f"patch<{k}"
    )


@dataclass(frozen=True)
class Neighborhood:
    """Finitely many exact interval constraints around an anchor name.

    A rational (or real) ``xi`` belongs when, for every ``t <= cutoff``,
    the anchor's index-t approximation is within 1/(t+1) of ``xi``.
    Membership for rationals is decided exactly, by two comparisons.
    """

    cutoff: int
    anchor: tuple[tuple[int, int, int], ...]

    @cached_property
    def interval(self) -> tuple[Fraction | float, Fraction | float]:
        """The members' open interval, ``max_t(a_t - 1/(t+1)) < xi < min_t(a_t + 1/(t+1))``."""
        at = [Fraction(x - y, z + 1) for x, y, z in self.anchor]  # the a_t
        low = max((a - Fraction(1, t) for t, a in enumerate(at, 1)), default=-float("inf"))
        return low, min((a + Fraction(1, t) for t, a in enumerate(at, 1)), default=float("inf"))

    def contains(self, q: Fraction | int) -> bool:
        return self.interval[0] < q < self.interval[1]


def localize(
    fn: ConditionalFn, at: NameTriple, budget: int
) -> tuple[Neighborhood, UniformFn]:
    """Trade conditionality for locality around a named point.

    ``at`` is one name of the anchor point (for reals, of a unary
    function's argument).  Finds the least certificate ``s0`` for it,
    instruments that certificate evaluation to get the largest queried
    index ``u`` (a continuity modulus: the certificate cannot distinguish
    functions agreeing up to ``u``), and returns

    * the neighborhood cut out by the anchor's first ``u+1``
      approximations, and
    * a uniform function that patches every argument name below ``u+1``
      with the anchor and applies the original value operators at the
      frozen parameter ``s0``.

    For any point of the neighborhood, patched names still name it, so
    the frozen certificate stays valid and the output names the value.
    """
    names = fn.domain.point(at)
    s0 = find_parameter(fn, names, budget)
    anchor = fn.domain.functions(names)
    wrapped, log = recording(anchor)
    if fn.E.apply(wrapped)(s0) != 0:
        raise AssertionError("certificate changed value under instrumentation")
    u = max((t for seen in log.values() for t in seen), default=0)
    prefix = tuple(tuple(f(t) for f in anchor) for t in range(u + 1))

    term = all(map(_is_term, fn.values))
    w = len(anchor)
    inners = [_patch(w, i, [point[i - 1] for point in prefix], term) for i in range(1, w + 1)]
    inners.append(_constant(w, s0, term))
    local = UniformFn(fn.domain, *_subst(fn.values, inners, term), codomain=fn.codomain)
    return fn.domain.neighborhood(prefix), local


# ---------------------------------------------------------------------------
# gluing over a finite ball cover
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Ball:
    """Open ball of the local function's domain, with the uniform function valid on it.

    The domain reads the centre: rationals, one per coordinate, for
    ``Reals`` (a max-norm ball), a code for a coded space.  ``indicator``
    (zero exactly when the argument functions' values at the cover's
    separation index k lie within radius - 1/(k+1) of the centre) may be
    supplied; otherwise the domain derives it at gluing time.
    """

    center: object
    radius: Fraction
    local: UniformFn
    indicator: Callable[..., int] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "radius", Fraction(self.radius))
        if self.radius <= 0:
            raise ValueError("ball radius must be positive")
        object.__setattr__(self, "center", self.local.domain.center(self.center))


@dataclass(frozen=True, eq=False)
class BallCover:
    """Finitely many balls plus the separation index k.

    The caller warrants that the balls cover the intended compact domain,
    that each local function computes the target on its ball, and that
    every domain point sits at depth at least 2/(k+1) inside some ball
    (``separation_violations`` spot-checks the latter on sample points).
    """

    balls: tuple[Ball, ...]
    separation: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "balls", tuple(self.balls))
        if not self.balls:
            raise ValueError("a cover needs at least one ball")
        if self.separation < 0:
            raise ValueError("separation index must be a natural")
        for ball in self.balls:
            _same_space(ball.local.domain, self.domain, "cover domain mismatch")
            _same_space(ball.local.codomain, self.codomain, "cover codomain mismatch")

    @property
    def domain(self) -> Space:
        return self.balls[0].local.domain

    @property
    def codomain(self) -> Space:
        return self.balls[0].local.codomain


def _cover_indicators(cover: BallCover) -> list[BaseFunction]:
    margin = Fraction(1, cover.separation + 1)
    space = cover.domain
    return [
        space.indicator(ball.center, ball.radius - margin)
        if ball.indicator is None
        else BaseFunction(f"indicator_{i}", space.width, ball.indicator)
        for i, ball in enumerate(cover.balls, start=1)
    ]


def glue_compact(cover: BallCover) -> UniformFn:
    """One uniform function dispatching among the cover's local functions.

    At output index ``t`` the glued operator reads every argument function
    at the separation index ``k``, asks each ball's indicator whether those
    values certify membership with margin 1/(k+1), and emits the first
    passing ball's local output at ``t`` (the constant-zero functions if
    none passes).  With the warranted separation, some ball always
    certifies and the point provably lies inside every certifying ball.
    Either form makes that choice once per argument name and evaluates
    only the chosen ball's local function.
    """
    components = [list(branches) for branches in zip(*(b.local.values for b in cover.balls))]
    term = all(_is_term(op) for branches in components for op in branches)
    glued = _select(_cover_indicators(cover), cover.separation, components, term)
    return UniformFn(cover.domain, *glued, codomain=cover.codomain)


def dispatch_index(cover: BallCover, names: Sequence[NameTriple]) -> int | None:
    """Which ball (1-based) the glued function would source from, if any."""
    probes = [fn(cover.separation) for fn in cover.domain.functions(names)]
    return _first_passing(_cover_indicators(cover), probes)


def separation_violations(
    cover: BallCover, points: Sequence[Sequence[Fraction | int]]
) -> list[tuple[Fraction, ...]]:
    """Sample points whose depth inside every ball is below 2/(k+1).

    For covers of ``Reals(n)`` only (else SpaceMismatch).  Exact rational
    arithmetic; an empty result on a dense enough sample is evidence (not
    proof) for the warranted separation.
    """
    if not isinstance(cover.domain, Reals):
        raise SpaceMismatch(f"separation is checked on real points, not on {cover.domain}")
    needed = Fraction(2, cover.separation + 1)
    bad: list[tuple[Fraction, ...]] = []
    for point in points:
        p = tuple(Fraction(c) for c in point)
        if len(p) != cover.domain.n:
            raise ArityMismatch("sample point dimension mismatch")
        depth = max(
            ball.radius - max(abs(a - b) for a, b in zip(p, ball.center))
            for ball in cover.balls
        )
        if depth < needed:
            bad.append(p)
    return bad
