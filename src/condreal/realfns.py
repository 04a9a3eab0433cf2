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
raises ``SpaceMismatch``, an ``ArityMismatch``.  Each operator a
construction builds is a term exactly when every operator it is built
from is one, else a procedure; one rule, ``_combine``, decides for every
combinator.  Slots, constants and patches are wires, carrying both
forms, and a combinator over wires only makes wires.

``joint`` gives the components of one build of several value functions
-- for a real value the three functions of a name, projected from one
``TripleStream`` -- each a ``ProcOperator`` that picks its result.
Application, substitution, localization and gluing run that build once
wherever its components are used together, so a procedure-backed name
computes its rational once per index; used one at a time, a component
gives the same values.  Term-backed F, G and H applied together run as
one ``TermProgram`` behind one ``TripleStream``, compiled once and kept.
Exact arguments stay exact through term programs, gluing and reindexing:
an output that does not depend on the index is a constant.

A search probes in its function's ``order``, which never skips the least
certifying parameter, so it finds the linear scan's least one.  A
composite walks the pairing diagonals, probing its inner certificate once
per diagonal; the reciprocal on an exact argument starts at its least s.

Gluing, in either form, picks its ball once per argument name and
evaluates only that ball's local function; ``support_bound`` still holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property, partial
from itertools import chain
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Sequence

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
    "joint",
    "localize",
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
    pick = None  # not a joint's component: applied alone, or with F, G, H as one program

    def __post_init__(self) -> None:
        if not isinstance(self.term, OperatorTerm):
            raise ValueError(f"a term operator takes an OperatorTerm, got {self.term!r}")
        if self.term.m != 1:
            raise ArityMismatch("operator terms take a single numeric argument")

    @cached_property
    def arity(self) -> int:
        return self.term.k

    def apply(self, fns: Sequence[NatFun]) -> NatFun:
        return _apply_terms((self,), fns)[0]


def _apply_terms(ops: Sequence[TermOperator], fns: Sequence[NatFun]) -> list[NatFun]:
    """Term operators applied together as one program, compiled once and kept
    on the first operator; constants when the program reads no index."""
    ops, key = tuple(ops), "_alone" if len(ops) == 1 else "_joint"
    kept = ops[0].__dict__.get(key)
    if kept is None or kept[0] != ops[1:]:
        kept = ops[0].__dict__[key] = (ops[1:], TermProgram([op.term for op in ops]))
    read = kept[1].bind(fns)
    if isinstance(read, tuple):
        return [NatFun.constant(v) for v in read]
    if len(ops) == 1:
        return [NatFun(lambda n: read(n)[0], label="term-op")]
    return list(TripleStream(read, "term-op").name())


@dataclass(frozen=True, eq=False)
class ProcOperator:
    """An operator given directly as a procedure building the result function.

    The builder must be pure and must read the argument functions only by
    calling them, so instrumentation sees every query.  With ``pick`` set,
    ``build`` returns several functions and the operator is result
    ``pick`` of them: one of the components ``joint`` makes.
    """

    arity: int
    build: Callable[[tuple[NatFun, ...]], NatFun | Sequence[NatFun]]
    label: str = ""
    pick: int | None = None

    def __post_init__(self) -> None:
        if not _natural(self.arity):
            raise ValueError(f"an operator's arity must be a natural, got {self.arity!r}")

    def apply(self, fns: Sequence[NatFun]) -> NatFun:
        out = self.build(_arguments(self.arity, fns))
        return out if self.pick is None else tuple(out)[self.pick]


def joint(arity: int, width: int, build: Callable, label: str = "") -> tuple[ProcOperator, ...]:
    """The ``width`` components of one ``build`` returning all their results at once.

    For a real value (width 3) ``build`` typically returns the ``name()``
    of a ``TripleStream``, which computes each index's rational once.
    Components applied together run it once; one alone runs it for itself.
    """
    for what, value in (("arity", arity), ("width", width)):
        if not _natural(value):
            raise ValueError(f"a joint's {what} must be a natural, got {value!r}")
    return tuple(ProcOperator(arity, build, f"{label}[{pick}]", pick) for pick in range(width))


class _Wire(TermOperator):
    """A term built when first read, applied as a ``ProcOperator``: result ``pick`` of ``build``."""

    def __init__(self, arity: int, node: Callable, build: Callable, pick: int | None = None):
        self.__dict__.update(arity=arity, _node=node, build=build, pick=pick)

    term = cached_property(lambda self: OperatorTerm(self.arity, 1, self._node()))
    apply = ProcOperator.apply


Operator = TermOperator | ProcOperator


def _apply_ops(ops: Sequence[Operator], fns: Sequence[NatFun]) -> list[NatFun]:
    """Every operator applied to ``fns``, sharing builds.

    The one place that decides which operators build together: the
    components of each joint build, wires included, in any order and of
    any subset, run it once; plain term F, G, H run as one program behind one stream.
    """
    if len(ops) == 3 and type(ops[0]) is type(ops[1]) is type(ops[2]) is TermOperator:
        return _apply_terms(ops, fns)
    built: dict[Callable, tuple[NatFun, ...]] = {}
    out: list[NatFun] = []
    for op in ops:
        if op.pick is not None:
            if op.build not in built:
                built[op.build] = tuple(op.build(_arguments(op.arity, fns)))
            out.append(built[op.build][op.pick])
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


def _expect(kind: type, record: Any) -> Any:
    """``record``, refused with a ValueError naming ``kind`` unless it is one."""
    if not isinstance(record, kind):
        article = "an" if kind.__name__[0] in "AEIO" else "a"
        raise ValueError(f"expected {article} {kind.__name__}, got {type(record).__name__}")
    return record


def _space(space: Any) -> Space:
    """``space``, refused with a ValueError unless it is a space."""
    if not isinstance(getattr(space, "width", None), int):
        raise ValueError(f"expected a space, got {type(space).__name__}")
    return space


@dataclass(frozen=True)
class Reals:
    """R^n, a point named by one name triple per coordinate: a space.

    A space tells the constructions what they need of a domain or
    codomain: ``width``, the number of functions naming a point;
    ``functions(names)``, those functions in order; ``name_of(fns)``, the
    name made of value functions; ``point(name)``, the names of a point
    given by one name, as ``localize`` takes its anchor; ``center`` and
    ``indicator``, a ball's centre and membership test; and
    ``near(row, point, radius)``, whether the point one index's values
    stand for is strictly within ``radius`` of an exact point (a rational
    here, a code in a coded space).  Real functions take their values in
    ``Reals(1)``; balls are max-norm balls around rational centres.
    """

    n: int

    def __post_init__(self) -> None:
        if not _natural(self.n):
            raise ValueError(f"Reals(n) takes a natural n, got {self.n!r}")

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
        if not isinstance(center, (list, tuple)):
            raise SpaceMismatch(f"{self} takes a ball centre of rationals, got {center!r}")
        center = tuple(map(Fraction, center))
        if len(center) != self.n:
            raise ArityMismatch("ball center dimension must match the local function")
        return center

    indicator = staticmethod(gadgets.ball_indicator)

    def near(self, row: tuple[int, int, int], q: Fraction | int, radius: Fraction) -> bool:
        x, y, z = row  # localization is unary for the reals
        return abs(Fraction(x - y, z + 1) - q) < radius


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
        domain = _space(Reals(domain) if isinstance(domain, int) else domain)
        if isinstance(domain, Reals):
            _same_space(codomain, Reals(1), "real functions take real values")
        if not all(isinstance(op, Operator) for op in values):
            raise ValueError(f"value operators must be TermOperators or ProcOperators: {values!r}")
        if len(values) != _space(codomain).width:
            raise ArityMismatch(f"{codomain} names take {codomain.width} value operators")
        want = domain.width + slots
        if any(op.arity != want for op in values):
            raise ArityMismatch(f"value operators must be {want}-ary")
        for field, value in (("domain", domain), ("codomain", codomain), ("values", values)):
            object.__setattr__(self, field, value)

    F = property(lambda self: self.values[0])
    G = property(lambda self: self.values[1])
    H = property(lambda self: self.values[2])

    @property
    def n_args(self) -> int:
        if not isinstance(self.domain, Reals):
            raise SpaceMismatch(f"a map on {self.domain} takes no real arguments")
        return self.domain.n


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
    ``order`` maps ``(fns, budget)`` to the s < budget a search probes, least
    first, never leaving out the least that certifies; ``None`` probes every s.
    """

    E: Operator
    order: Callable[[tuple[NatFun, ...], int], Iterable[int]] | None

    def __init__(
        self,
        domain: int | Space,
        E: Operator,
        *values: Operator,
        codomain: Space = Reals(1),
        order: Callable[[tuple[NatFun, ...], int], Iterable[int]] | None = None,
    ):
        self._store(domain, codomain, values, 1)
        if not isinstance(E, Operator):
            raise ValueError(f"a certificate must be a TermOperator or ProcOperator, got {E!r}")
        if E.arity != self.domain.width:
            raise ArityMismatch(f"certificate operator must be {self.domain.width}-ary")
        if order is not None and not callable(order):
            raise ValueError(f"a search order must be None or callable, got {order!r}")
        object.__setattr__(self, "E", E)
        object.__setattr__(self, "order", order)


# ---------------------------------------------------------------------------
# application and search
# ---------------------------------------------------------------------------


def apply_uniform(fn: UniformFn, names: Sequence[NameTriple]) -> NameTriple:
    """Transform argument names into a (lazily evaluated) value name."""
    _expect(UniformFn, fn)
    return fn.codomain.name_of(_apply_ops(fn.values, fn.domain.functions(names)))


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

    The candidates come in ``fn.order``, which never skips the least
    certifying s, and each is confirmed by evaluating the certificate: the
    first hit, and the budgets that raise BudgetExhausted, are the
    scan's.  Raises ValueError on a ``budget`` that is not a natural or an ordered s >= budget.
    """
    fns = _expect(ConditionalFn, fn).domain.functions(names)
    if not _natural(budget):
        raise ValueError(f"search budget must be a natural, got {budget!r}")
    certificate = fn.E.apply(fns)
    for s in range(budget) if fn.order is None else fn.order(fns, budget):
        if s >= budget:
            raise ValueError(f"the search order gave s = {s}, not below the budget {budget}")
        if certificate.eval_uncached(s) == 0:
            return s
    raise BudgetExhausted(budget, "searching for a certifying parameter")


def apply_conditional_at(
    fn: ConditionalFn, names: Sequence[NameTriple], s: int
) -> NameTriple:
    """Apply at an already-found parameter (any certified s is valid)."""
    fns = _expect(ConditionalFn, fn).domain.functions(names) + (NatFun.constant(s),)
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
    k = _expect(UniformFn, fn).domain.width
    values = _subst(fn.values, [_slot(k + 1, i) for i in range(1, k + 1)], k + 1)
    return ConditionalFn(fn.domain, _index(k), *values, codomain=fn.codomain)


def identity(space: int | Space) -> UniformFn:
    """The identity on ``space`` (an int n: ``Reals(n)``), term-backed: passes names through.

    On ``Reals(n)`` for n > 1 it raises ``SpaceMismatch``, as a real function takes
    its values in ``Reals(1)``; a coded ``metric.make_mn(n)`` has an identity."""
    space = _space(Reals(space) if isinstance(space, int) else space)
    slots = [_slot(space.width, i) for i in range(1, space.width + 1)]
    return UniformFn(space, *slots, codomain=space)


def identity_uniform() -> UniformFn:
    """The identity on reals, ``identity(Reals(1))``."""
    return identity(Reals(1))


# ---------------------------------------------------------------------------
# operator combinators
# ---------------------------------------------------------------------------
#
# Each combinator gives ``_combine`` its operators, its result nodes and its
# build, and ``_combine`` decides the form: a procedure among the operators
# gives procedures (the joint's components when the build has several
# results), wires only give wires, other terms give plain terms; the forms
# agree pointwise.  Slot, index, constant and patch are wires: TermOperators
# whose term is built when first read and which apply as a ProcOperator.

_LEFT = CORE.get("left")
_RIGHT = CORE.get("right")
_CONJ = CORE.get("conj")


def _slot(k: int, i: int) -> Operator:
    """The k-ary operator returning its i-th argument."""
    return _Wire(k, lambda: Apply(i, Proj(1)), lambda fns: fns[i - 1])


def _index(k: int) -> Operator:
    """The k-ary operator returning the identity function, whatever its arguments."""
    return _Wire(k, lambda: Proj(1), lambda _fns: NatFun.identity())


def _constant(k: int, c: int) -> Operator:
    """The k-ary operator returning the constant function c."""
    return _Wire(k, lambda: Base(gadgets.constant(c), (Proj(1),)), lambda _fns: NatFun.constant(c))


def _patch(k: int, i: int, values: Sequence[int]) -> Operator:
    """Slot i with its values below ``len(values)`` replaced by ``values``.

    The term chains one ``mu`` override per replaced index; applied, it is
    ``NatFun.patched`` over the prefix.
    """
    values = tuple(values)

    def chain() -> Node:
        node: Node = Apply(i, Proj(1))
        for j, value in enumerate(values):
            node = Base(gadgets.mu(j, value), (Proj(1), node))
        return node

    anchor = NatFun(values.__getitem__, label="prefix")
    return _Wire(k, chain, lambda fns: NatFun.patched(anchor, len(values), fns[i - 1]))


def _pointwise(base: BaseFunction, outs: Sequence[NatFun]) -> NatFun:
    """``base`` applied to ``outs`` at each index, once if every one is constant."""
    fn, values = base.fn, constant_values(*outs)
    if values is not None:
        return NatFun.constant(fn(*values))
    return NatFun(lambda t: fn(*[out(t) for out in outs]), label=base.name)


def _combine(
    ops: Sequence[Operator], arity: int, nodes: Callable, build: Callable, label: str, width=0
) -> list[Operator]:
    """The form rule: what a combinator makes of ``ops``, one operator or ``width`` of one build."""
    if any(isinstance(op, ProcOperator) for op in ops):
        procs = joint(arity, width, build, label) if width else [ProcOperator(arity, build, label)]
        return list(procs)
    if all(isinstance(op, _Wire) for op in ops):
        nodes, picks = cache(nodes), range(width) if width else [None]
        return [_Wire(arity, lambda j=j: nodes()[j], build, pick) for j, pick in enumerate(picks)]
    return [TermOperator(OperatorTerm(arity, 1, node)) for node in nodes()]


def _lift(base: BaseFunction, ops: Sequence[Operator]) -> Operator:
    """Pointwise: ``base`` applied to the outputs of ``ops`` at each index (once if constant)."""
    nodes = lambda: [Base(base, tuple(op.term.node for op in ops))]  # noqa: E731
    build = lambda fns: _pointwise(base, _apply_ops(ops, fns))  # noqa: E731
    return _combine(ops, ops[0].arity, nodes, build, base.name)[0]


def _subst(outers: Sequence[Operator], inners: Sequence[Operator], arity=None) -> list[Operator]:
    """Substitution: each of ``outers`` applied to the outputs of ``inners``.

    Its build applies the inner operators once and the outer ones to
    their outputs; the term of each outer is ``compose_terms``.  The
    result is ``arity``-ary, which the inners give when there are any.
    """
    arity = inners[0].arity if inners else arity
    build = lambda fns: _apply_ops(outers, _apply_ops(inners, fns))  # noqa: E731
    terms = lambda: [i.term for i in inners]  # noqa: E731
    nodes = lambda: [compose_terms(op.term, terms(), arity).node for op in outers]  # noqa: E731
    return _combine([*outers, *inners], arity, nodes, build, "subst", len(outers))


def _reindex(op: Operator, base: BaseFunction) -> Operator:
    """Read the output of ``op`` at ``base(n)`` instead of at ``n``."""
    fn, label = base.fn, f"{base.name}-indexed"

    def build(fns: tuple[NatFun, ...]) -> NatFun:
        out = op.apply(fns)
        return out if constant_values(out) is not None else NatFun(lambda n: out(fn(n)), label)

    nodes = lambda: [_subst_numeric(op.term.node, Base(base, (Proj(1),)))]  # noqa: E731
    return _combine([op], op.arity, nodes, build, label)[0]


def _diagonal(op: Operator) -> Operator:
    """Drop the last slot, feeding it ``const_n`` when reading index ``n``."""

    def build(fns: tuple[NatFun, ...]) -> NatFun:
        return NatFun(lambda n: op.apply(fns + (NatFun.constant(n),))(n), label="diagonal")

    nodes = lambda: [diagonalize(op.term).node]  # noqa: E731
    return _combine([op], op.arity - 1, nodes, build, "diagonal")[0]


def _first_passing(indicators: Sequence[BaseFunction], probes: Sequence[int]) -> int | None:
    """The 1-based position of the first indicator vanishing at ``probes``."""
    for i, indicator in enumerate(indicators, start=1):
        if indicator.fn(*probes) == 0:
            return i
    return None


def _select(
    indicators: Sequence[BaseFunction], k: int, components: Sequence[Sequence[Operator]]
) -> list[Operator]:
    """First-zero select: per component, the branch of the first passing ball.

    Every indicator reads all function arguments at index ``k``; the
    default when none passes is the constant zero.  The term of each
    component keeps the selector ``delta_m``, which a bound program
    settles once.  The build is one joint over all components: the first
    read of any of its results picks the ball for that argument tuple,
    and only that ball's branches are applied, together.
    """
    n, width = components[0][0].arity, len(components)

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

        if constant_values(*fns) is not None:  # exact arguments: the ball is known now
            return [branch(j) for j in range(width)]
        return [NatFun(lambda t, _j=j: branch(_j)(t), label="glued") for j in range(width)]

    def nodes() -> list[Node]:
        probes = [_reindex(_slot(n, i), gadgets.constant(k)) for i in range(1, n + 1)]
        guards = [_lift(indicator, probes) for indicator in indicators]
        selector, zero = gadgets.delta_k(len(indicators)), _constant(n, 0)
        rows = ([*chain(*zip(guards, branches)), zero] for branches in components)
        return [_lift(selector, row).term.node for row in rows]

    return _combine([*chain(*components)], n, nodes, build, "glued", width)


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
    operators feed the packed parameter through the same split, and the
    search walks the pairing diagonals.  Term-backed ingredients yield
    term-backed results.
    """
    outer, inner = _expect(ConditionalFn, outer), _expect(ConditionalFn, inner)
    _same_space(inner.codomain, outer.domain, "composition space mismatch")
    w = inner.domain.width
    slots = [_slot(w + 1, i) for i in range(1, w + 1)]
    # the inner value name, its parameter slot read through `right`
    inner_value = _subst(inner.values, slots + [_lift(_RIGHT, [_slot(w + 1, w + 1)])])
    outer_cert = _reindex(_subst([outer.E], inner_value)[0], _LEFT)
    cert = _lift(_CONJ, [_reindex(inner.E, _RIGHT), _diagonal(outer_cert)])
    values = _subst(outer.values, inner_value + [_lift(_LEFT, [_slot(w + 1, w + 1)])])
    order = partial(_diagonal_walk, inner.E)
    return ConditionalFn(inner.domain, cert, *values, codomain=outer.codomain, order=order)


@dataclass(frozen=True)
class Neighborhood:
    """The points within 1/(t+1) of an anchor's index-t approximation, for every t <= cutoff.

    ``anchor`` holds the anchor name's values at each index; ``contains``
    decides an exact point of ``space`` (a rational for the reals, a code
    for a coded space) through the space's ``near``.
    """

    space: Space
    cutoff: int
    anchor: tuple[tuple[int, ...], ...]

    def contains(self, point: object) -> bool:
        near = self.space.near
        return all(near(self.anchor[t], point, Fraction(1, t + 1)) for t in range(self.cutoff + 1))


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
    names = _expect(ConditionalFn, fn).domain.point(at)
    s0 = find_parameter(fn, names, budget)
    anchor = fn.domain.functions(names)
    wrapped, log = recording(anchor)
    if fn.E.apply(wrapped)(s0) != 0:
        raise AssertionError("certificate changed value under instrumentation")
    u = max((t for seen in log.values() for t in seen), default=0)
    prefix = tuple(tuple(f(t) for f in anchor) for t in range(u + 1))

    w = len(anchor)
    inners = [_patch(w, i, [point[i - 1] for point in prefix]) for i in range(1, w + 1)]
    inners.append(_constant(w, s0))
    local = UniformFn(fn.domain, *_subst(fn.values, inners), codomain=fn.codomain)
    return Neighborhood(fn.domain, u, prefix), local


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
        _expect(UniformFn, self.local)
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
        object.__setattr__(self, "balls", tuple(_expect(Ball, ball) for ball in self.balls))
        if not self.balls:
            raise ValueError("a cover needs at least one ball")
        if not _natural(self.separation):
            raise ValueError(f"separation index must be a natural, got {self.separation!r}")
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
    balls = _expect(BallCover, cover).balls
    components = [list(branches) for branches in zip(*(b.local.values for b in balls))]
    glued = _select(_cover_indicators(cover), cover.separation, components)
    return UniformFn(cover.domain, *glued, codomain=cover.codomain)


def dispatch_index(cover: BallCover, names: Sequence[NameTriple]) -> int | None:
    """Which ball (1-based) the glued function would source from, if any."""
    _expect(BallCover, cover)
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
    if not isinstance(_expect(BallCover, cover).domain, Reals):
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
