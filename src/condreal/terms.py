"""A little language of substitutional operator terms.

An *operator term* denotes a mapping that takes ``k`` functions on the
naturals and returns an ``m``-argument function on the naturals.  Terms
are built from exactly three node shapes:

``Proj(i)``
    the i-th numeric argument (1-based, ``i <= m``);
``Apply(i, sub)``
    apply the i-th function argument (1-based, ``i <= k``) to the value
    of ``sub``;
``Base(fn, subs)``
    apply a fixed base function to the values of ``subs``.

Terms are immutable; every transformation below is a pure structural
rewrite, and each rewrite is justified by a pointwise evaluation
identity that the test-suite checks against independent evaluation.
Every walk over a term -- validation, the rewrites, support bounds,
compilation, equality and hashing -- is one ``_fold``: an explicit-stack,
bottom-up pass over the term's distinct node objects, so no walk
recurses and a subterm shared by identity is visited once.  A rewrite
returns a node itself when none of its children changed, so shared and
untouched subterms stay shared in the result.  ``print_term`` and a
node's ``repr`` emit from their own stack; only ``parse_term``'s reader
recurses, on depth-checked input.  The key
rewrites:

* ``compose_terms`` -- substitution: plug k inner operators into an outer
  operator's function slots.
* ``diagonalize`` -- remove the last function slot by feeding it the
  constant function of the numeric argument:
  ``G(f_1..f_k)(n) = F(f_1..f_k, const_n)(n)``.
* ``curry`` / ``uncurry`` -- trade the leading numeric argument against a
  trailing constant function slot:
  ``F(f_1..f_k)(s, t_1..t_m) = G(f_1..f_k, const_s)(t_1..t_m)``.
* ``representable_lift`` -- the pointwise lift of a base function:
  ``lift(f)(f_1..f_k)(n) = f(f_1(n), ..., f_k(n))``.

Terms over the same slots (a real value's F, G, H) run as one
``TermProgram``, a loop over their distinct nodes: a node shared by
structure is evaluated once, and ``bind`` runs it as a smaller residual
program.  Evaluation reads the function arguments at finitely many
points; ``eval_instrumented`` records that support, and ``support_bound``
computes its structural bound (projections contribute 0, each
application 1 plus its subterm, base nodes the sum of theirs).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence, TypeVar, Union

from .naming import NatFun, recording
from .sexpr import SexprError, nesting, parse_sexpr

__all__ = [
    "Apply",
    "ArityMismatch",
    "Base",
    "BaseFunction",
    "MAX_TERM_DEPTH",
    "OperatorTerm",
    "Proj",
    "SupportTrace",
    "TermProgram",
    "compose_terms",
    "curry",
    "diagonalize",
    "eval_instrumented",
    "eval_term",
    "multi_curry",
    "parse_term",
    "print_term",
    "representable_lift",
    "support_bound",
    "uncurry",
]


class ArityMismatch(ValueError):
    pass


# Only parse_term's reader recurses once per node level (every other
# walk is iterative); terms parsed from text stay this shallow, well
# inside the default recursion limit.
MAX_TERM_DEPTH = 200


@dataclass(frozen=True)
class BaseFunction:
    """A named, total, deterministic function on the naturals.

    Equality ignores the callable itself: two entries with the same name
    and arity are the same base function as far as terms are concerned,
    which is what makes the printed form round-trip.
    """

    name: str
    arity: int
    fn: Callable[..., int] = field(compare=False)

    def __call__(self, *args: int) -> int:
        return self.fn(*args)

    def __repr__(self) -> str:
        return f"BaseFunction({self.name}/{self.arity})"


class _Node:
    """Structural equality, hashing and printing of terms of any depth.

    Equality and hashing are folds, so they visit each distinct node
    once; equality numbers the structurally distinct subterms of both
    sides and compares the roots' numbers.
    """

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, _Node):
            return NotImplemented
        numbers: dict[tuple, int] = {}
        shapes = _shapes(lambda shape: numbers.setdefault(shape, len(numbers)))
        done: dict[int, int] = {}
        return self is other or _fold(self, *shapes, done) == _fold(other, *shapes, done)

    def __hash__(self) -> int:
        return _fold(self, *_shapes(hash))

    def __repr__(self) -> str:
        return _emit(self)


@dataclass(frozen=True, eq=False, repr=False)
class Proj(_Node):
    index: int


@dataclass(frozen=True, eq=False, repr=False)
class Apply(_Node):
    index: int
    sub: "Node"


@dataclass(frozen=True, eq=False, repr=False)
class Base(_Node):
    fn: BaseFunction
    subs: tuple["Node", ...]


Node = Union[Proj, Apply, Base]


@dataclass(frozen=True)
class OperatorTerm:
    """A term together with its arities: k function slots, m numeric slots."""

    k: int
    m: int
    node: Node

    def __post_init__(self) -> None:
        if self.k < 0 or self.m < 1:
            raise ArityMismatch(f"arities must be k >= 0 and m >= 1, got {self.k} and {self.m}")
        k, m = _reach(self.node)
        if k > self.k or m > self.m:
            raise ArityMismatch(f"term reads slots up to {k} and {m}, got k={self.k}, m={self.m}")


_EXIT = object()  # on the fold's stack above a node whose children come first
_R = TypeVar("_R")


def _fold(
    node: Node,
    proj: Callable[[Proj], _R],
    apply: Callable[[Apply, _R], _R],
    base: Callable[[Base, list[_R]], _R],
    done: dict[int, _R] | None = None,
    kept: Callable[[Node], _R | None] | None = None,
) -> _R:
    """Fold a term bottom-up over its distinct nodes, without recursion.

    A node's result is ``proj(node)``, ``apply(node, sub_result)`` or
    ``base(node, sub_results)``, computed once per node object after its
    children's.  ``done`` maps ``id(node)`` to results; passing one dict
    to several folds shares the work between terms with common nodes.
    A node for which ``kept`` returns a result is not entered.  This is
    the only walk that knows a node's children.
    """
    done = {} if done is None else done
    stack = [node]
    pop, push = stack.pop, stack.append
    while stack:
        top = pop()
        if top is _EXIT:
            top = pop()
            if isinstance(top, Apply):
                done[id(top)] = apply(top, done[id(top.sub)])
            else:
                done[id(top)] = base(top, [done[id(sub)] for sub in top.subs])
        elif id(top) in done:
            continue
        elif kept is not None and (result := kept(top)) is not None:
            done[id(top)] = result
        elif isinstance(top, Proj):
            done[id(top)] = proj(top)
        elif isinstance(top, Apply):
            push(top)
            push(_EXIT)
            push(top.sub)
        elif isinstance(top, Base):
            push(top)
            push(_EXIT)
            stack += top.subs
        else:
            raise TypeError(f"not a term node: {top!r}")
    return done[id(node)]


def _shapes(combine: Callable[[tuple], _R]) -> tuple[Callable, Callable, Callable]:
    # the fold callbacks combining each node's shape: its kind, its own
    # data and its children's results
    return (
        lambda node: combine((Proj, node.index)),
        lambda node, sub: combine((Apply, node.index, sub)),
        lambda node, subs: combine((Base, node.fn, *subs)),
    )


def _reach(node: Node) -> tuple[int, int]:
    """A well-formed term's largest function slot and largest numeric slot.

    Each node keeps its reach once computed, so checking a term built on
    checked subterms visits only its new nodes.
    """

    def keep(node: Node, reach: tuple[int, int]) -> tuple[int, int]:
        if getattr(node, "index", 1) < 1:  # a projection's or an application's slot
            raise ArityMismatch(f"slot index {node.index} below 1")
        object.__setattr__(node, "_reach", reach)
        return reach

    def base(node: Base, subs: list[tuple[int, int]]) -> tuple[int, int]:
        if len(node.subs) != node.fn.arity:
            raise ArityMismatch(
                f"base {node.fn.name} wants {node.fn.arity} arguments, got {len(node.subs)}"
            )
        ks, ms = zip((0, 0), *subs)
        return keep(node, (max(ks), max(ms)))

    return _fold(
        node,
        lambda node: keep(node, (0, node.index)),
        lambda node, sub: keep(node, (max(node.index, sub[0]), sub[1])),
        base,
        kept=lambda node: getattr(node, "_reach", None),
    )


def _rebuild_apply(node: Apply, sub: Node) -> Node:
    # the rewritten application, the node itself when its subterm is
    return node if sub is node.sub else Apply(node.index, sub)


def _rebuild_base(node: Base, subs: list[Node]) -> Node:
    # the rewritten base node, the node itself when all its subterms are
    if all(map(operator.is_, subs, node.subs)):
        return node
    return Base(node.fn, tuple(subs))


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


class TermProgram:
    """Terms over the same slots as one straight-line program.

    ``steps`` are the terms' distinct application and base nodes, each
    after its subterms; value ``m + i`` is step ``i``'s and values
    ``0..m-1`` are the numeric arguments.  Structurally equal subterms
    are one step.  A base node is keyed by its callable, not its name,
    since a registry override keeps the name of the entry it replaces.

    ``bind(fns)`` reads through a *residual* program built on the first
    read: index-free steps become preset arguments, a ``gadgets.delta_k``
    with index-free guards its chosen branch, and dead steps go.  Constants
    and selects are known by what their callables carry, never by name.
    """

    __slots__ = ("k", "m", "steps", "roots")

    def __init__(self, terms: Sequence[OperatorTerm]):
        arities = {(term.k, term.m) for term in terms}
        if len(arities) != 1:
            raise ArityMismatch("a program needs terms that share their arities")
        ((self.k, self.m),) = arities
        steps: dict[tuple, int] = {}  # (slot, callable, ins) -> value index

        def step(*key) -> int:
            return steps.setdefault(key, self.m + len(steps))

        def apply(node: Apply, sub: int) -> int:
            return step(node.index - 1, None, (sub,))

        def base(node: Base, subs: list[int]) -> int:
            return step(None, node.fn.fn, tuple(subs))

        value_of: dict[int, int] = {}  # id(node) -> value index, across the terms
        self.roots = tuple(
            _fold(term.node, lambda node: node.index - 1, apply, base, value_of) for term in terms
        )
        self.steps = tuple(steps)

    def bind(self, fns: Sequence[NatFun]) -> Callable[[int], tuple[int, ...]]:
        """``n -> eval_term(self, fns, (n,))``, through the residual program."""
        bound: list = []  # the residual program and its preset values, once read

        def read(n: int) -> tuple[int, ...]:
            if not bound:
                bound.extend(self._residual(fns))
            return eval_term(bound[0], fns, (n, *bound[1]))

        return read

    def _residual(self, fns: Sequence[NatFun]) -> tuple[TermProgram, tuple[int, ...]]:
        # liveness back from the roots; index-free values computed on demand
        m, steps, free, values = self.m, self.steps, [False] * self.m, {}
        for _slot, fn, ins in steps:
            free.append(hasattr(fn, "constant_value") or all(free[i] for i in ins))
        if True not in free:  # nothing is index-free: the residual is the program
            return self, ()

        def value(v: int) -> int:  # inputs first, each once, without recursion
            stack = [v]
            while stack:
                slot, fn, ins = steps[(u := stack.pop()) - m]
                if hasattr(fn, "constant_value"):
                    values[u] = fn.constant_value
                elif u not in values and all(i in values for i in ins):
                    values[u] = (fns[slot] if fn is None else fn)(*[values[i] for i in ins])
                elif u not in values:
                    stack += [u, *ins]
            return values[v]

        live, chosen = set(self.roots), {}  # settled select -> (its chosen value,)
        for v in range(len(free) - 1, m - 1, -1):
            _slot, fn, ins = steps[v - m]
            guards = getattr(fn, "select_guards", ()) if v in live else ()
            if guards and all(free[ins[i]] for i in guards):  # guard values pick a branch index
                args = [value(x) if i in guards else x for i, x in enumerate(ins)]
                ins = chosen[v] = (fn(*args),)
            if v in chosen or v in live and not free[v]:
                live.update(ins)
        presets = [v for v in range(m, len(free)) if v in live and free[v] and v not in chosen]
        index, kept = {v: i for i, v in enumerate([*range(m), *presets])}, []
        for v, (slot, fn, ins) in enumerate(steps, m):
            if v in chosen:
                index[v] = index[chosen[v][0]]
            elif v in live and not free[v]:
                index[v] = m + len(presets) + len(kept)
                kept.append((slot, fn, tuple(index[i] for i in ins)))
        residual = object.__new__(TermProgram)
        residual.k, residual.m, residual.steps = self.k, m + len(presets), tuple(kept)
        residual.roots = tuple(index[r] for r in self.roots)
        return residual, tuple(map(value, presets))


def eval_term(
    term: OperatorTerm | TermProgram, fns: Sequence[NatFun], args: Sequence[int]
) -> int | tuple[int, ...]:
    """Evaluate ``term`` at function arguments ``fns`` and numeric ``args``;
    a ``TermProgram`` gives the tuple of its terms' values."""
    program = term if isinstance(term, TermProgram) else TermProgram((term,))
    if len(fns) != program.k:
        raise ArityMismatch(f"term wants {program.k} functions, got {len(fns)}")
    if len(args) != program.m:
        raise ArityMismatch(f"term wants {program.m} numeric arguments, got {len(args)}")
    values = list(args)
    push = values.append
    for slot, fn, ins in program.steps:
        push(fns[slot](values[ins[0]]) if fn is None else fn(*[values[i] for i in ins]))
    roots = [values[i] for i in program.roots]
    return tuple(roots) if program is term else roots[0]


@dataclass(frozen=True)
class SupportTrace:
    """Which (function slot, argument) pairs an evaluation actually read."""

    queried: Mapping[int, frozenset[int]]

    def size(self) -> int:
        return sum(len(v) for v in self.queried.values())

    def max_index(self) -> int | None:
        indices = [t for v in self.queried.values() for t in v]
        return max(indices) if indices else None

    def pairs(self) -> frozenset[tuple[int, int]]:
        return frozenset((i, t) for i, v in self.queried.items() for t in v)


def eval_instrumented(
    term: OperatorTerm, fns: Sequence[NatFun], args: Sequence[int]
) -> tuple[int, SupportTrace]:
    """Evaluate and record the support: every function query made."""
    wrapped, log = recording(fns)
    value = eval_term(term, wrapped, args)
    trace = SupportTrace({i: frozenset(seen) for i, seen in log.items()})
    return value, trace


def support_bound(term: OperatorTerm) -> int:
    """Structural bound on the number of function queries of any evaluation.

    Independent of both the function and numeric arguments, which is what
    makes term-denoted operators strongly continuous: the support of an
    evaluation never exceeds this count.
    """
    if term.m != 1:
        raise ArityMismatch("support_bound is defined for single-argument terms")
    return _fold(term.node, lambda _p: 0, lambda _a, sub: 1 + sub, lambda _b, subs: sum(subs))


# ---------------------------------------------------------------------------
# structural rewrites
# ---------------------------------------------------------------------------


def _subst_numeric(node: Node, replacement: Node) -> Node:
    # replace the (single) numeric argument -- every Proj(1) -- by a node
    if isinstance(replacement, Proj) and replacement.index == 1:
        return node
    return _fold(node, lambda _leaf: replacement, _rebuild_apply, _rebuild_base)


def compose_terms(
    outer: OperatorTerm,
    inners: Sequence[OperatorTerm],
    result_arity: int | None = None,
) -> OperatorTerm:
    """Substitute ``inners`` into ``outer``'s function slots.

    All terms are single-numeric-argument.  The result ``H`` satisfies
    ``H(g_1..g_l)(n) = outer(inners_1(g_1..g_l), ..., inners_k(g_1..g_l))(n)``
    where ``l`` is the shared function arity of the inners.
    """
    if outer.m != 1 or any(inner.m != 1 for inner in inners):
        raise ArityMismatch("compose_terms needs single-argument terms")
    if len(inners) != outer.k:
        raise ArityMismatch(f"outer wants {outer.k} inners, got {len(inners)}")
    if inners:
        l = inners[0].k
        if any(inner.k != l for inner in inners):
            raise ArityMismatch("inner terms must share one function arity")
        if result_arity is not None and result_arity != l:
            raise ArityMismatch("result_arity disagrees with the inner terms")
    elif result_arity is None:
        raise ArityMismatch("composing a closed term needs an explicit result_arity")
    else:
        l = result_arity

    def graft(node: Apply, sub: Node) -> Node:
        # f_i(sub) becomes inners[i-1] evaluated at the rewritten sub
        return _subst_numeric(inners[node.index - 1].node, sub)

    return OperatorTerm(l, 1, _fold(outer.node, lambda leaf: leaf, graft, _rebuild_base))


def _read_constant(slot: int) -> Callable[[Apply, Node], Node]:
    # the apply case of a slot that holds a constant function: any
    # application of it is the (new) first numeric argument
    arg = Proj(1)
    return lambda node, sub: arg if node.index == slot else _rebuild_apply(node, sub)


def diagonalize(term: OperatorTerm) -> OperatorTerm:
    """Feed the last function slot the constant function of the argument.

    The result ``G`` on ``k`` functions satisfies
    ``G(f_1..f_k)(n) = term(f_1..f_k, const_n)(n)``: applications of slot
    ``k+1`` collapse to the numeric argument itself, everything else is
    untouched.
    """
    if term.m != 1:
        raise ArityMismatch("diagonalize needs a single-argument term")
    if term.k < 1:
        raise ArityMismatch("diagonalize needs at least one function slot")
    # const_n applied to anything is n
    node = _fold(term.node, lambda leaf: leaf, _read_constant(term.k), _rebuild_base)
    return OperatorTerm(term.k - 1, 1, node)


def curry(term: OperatorTerm) -> OperatorTerm:
    """Move the leading numeric argument into a trailing constant slot.

    For a term on ``k`` functions and ``m+1`` numerics the result ``G``
    on ``k+1`` functions and ``m`` numerics satisfies
    ``term(f_1..f_k)(s, t_1..t_m) = G(f_1..f_k, const_s)(t_1..t_m)``.
    """
    if term.m < 2:
        raise ArityMismatch("curry needs at least two numeric arguments")
    # the old first argument is now delivered by the constant function in
    # the new slot, probed at any point
    first = Apply(term.k + 1, Proj(1))

    def proj(node: Proj) -> Node:
        return first if node.index == 1 else Proj(node.index - 1)

    node = _fold(term.node, proj, _rebuild_apply, _rebuild_base)
    return OperatorTerm(term.k + 1, term.m - 1, node)


def uncurry(term: OperatorTerm) -> OperatorTerm:
    """Inverse direction: turn the last function slot into a leading numeric.

    For a term on ``k+1`` functions and ``m`` numerics the result ``F``
    on ``k`` functions and ``m+1`` numerics satisfies
    ``F(f_1..f_k)(s, t_1..t_m) = term(f_1..f_k, const_s)(t_1..t_m)``.
    """
    if term.k < 1:
        raise ArityMismatch("uncurry needs at least one function slot")
    # const_s applied to anything is s, the new first argument
    node = _fold(
        term.node, lambda leaf: Proj(leaf.index + 1), _read_constant(term.k), _rebuild_base
    )
    return OperatorTerm(term.k - 1, term.m + 1, node)


def multi_curry(term: OperatorTerm) -> OperatorTerm:
    """Curry until a single numeric argument remains.

    A term on ``k`` functions and ``m+1`` numerics becomes one on ``k+m``
    functions and one numeric, satisfying
    ``term(f_1..f_k)(s_1..s_m, t) = result(f_1..f_k, const_s1..const_sm)(t)``.
    """
    while term.m > 1:
        term = curry(term)
    return term


def representable_lift(fn: BaseFunction) -> OperatorTerm:
    """The pointwise lift of a base function.

    ``lift(f)(f_1..f_k)(n) = f(f_1(n), ..., f_k(n))``.
    """
    subs = tuple(Apply(i, Proj(1)) for i in range(1, fn.arity + 1))
    return OperatorTerm(fn.arity, 1, Base(fn, subs))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def print_term(term: OperatorTerm) -> str:
    """Render as an s-expression: (proj i), (apply i SUB), (base NAME SUB...)."""
    return _emit(term.node)


def _emit(node: Node) -> str:
    # pre-order from a stack of nodes and closing text, joined once
    out: list[str] = []
    stack: list[Node | str] = [node]
    while stack:
        node = stack.pop()
        if isinstance(node, str):
            out.append(node)
        elif isinstance(node, Proj):
            out.append(f"(proj {node.index})")
        elif isinstance(node, Apply):
            out.append(f"(apply {node.index} ")
            stack += [")", node.sub]
        elif isinstance(node, Base):
            out.append(f"(base {node.fn.name}")
            stack.append(")")
            for sub in reversed(node.subs):
                stack += [sub, " "]
        else:
            raise TypeError(f"not a term node: {node!r}")
    return "".join(out)


def parse_term(
    text: str,
    k: int,
    m: int,
    resolve: Callable[[str], BaseFunction],
) -> OperatorTerm:
    """Parse the s-expression form back into a term.

    ``resolve`` maps base-function names to their entries (typically a
    gadget registry lookup); arities are re-validated on construction, so
    a printed term parses back to an equal one.  Raises ``SexprError``
    on malformed input and on a term nested more than
    ``MAX_TERM_DEPTH`` levels deep.
    """
    expr = parse_sexpr(text)
    if nesting(expr) > MAX_TERM_DEPTH:
        raise SexprError(f"term nested too deeply (at most {MAX_TERM_DEPTH} levels)")

    def build(node) -> Node:
        if not isinstance(node, list) or not node:
            raise SexprError(f"expected a (proj|apply|base ...) form, got {node!r}")
        tag = node[0]
        if tag == "proj":
            if len(node) != 2:
                raise SexprError("(proj i) takes exactly one index")
            return Proj(_nat(node[1]))
        if tag == "apply":
            if len(node) != 3:
                raise SexprError("(apply i SUB) takes an index and a subterm")
            return Apply(_nat(node[1]), build(node[2]))
        if tag == "base":
            if len(node) < 2 or not isinstance(node[1], str):
                raise SexprError("(base NAME SUB...) needs a function name")
            try:
                fn = resolve(node[1])
            except KeyError:
                raise SexprError(f"unknown base function {node[1]!r}") from None
            return Base(fn, tuple(build(sub) for sub in node[2:]))
        raise SexprError(f"unknown term tag {tag!r}")

    return OperatorTerm(k, m, build(expr))


def _nat(token) -> int:
    if isinstance(token, str):
        try:
            value = int(token)
        except ValueError:
            value = -1
        if value >= 0:
            return value
    raise SexprError(f"expected a natural number, got {token!r}")
