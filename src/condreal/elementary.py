"""Registered elementary real functions over name triples.

The uniform entries (negate, add, sub, mul, abs, min, max and the
rational constants) all follow one recipe: at output index ``t`` query
every argument name at a fine enough index, combine the exact rational
approximations, and re-encode the exact result as a canonical triple
component.  The error budget is the standard split -- a binary function
reads its arguments at ``2t+1``, so two input errors below ``1/(2t+2)``
sum to under ``1/(t+1)``; multiplication additionally rescales the index
by a magnitude bound read off the index-0 approximations.  What does not
depend on the index is done once per application: the schedule and the
arguments are bound (a constant decoded, the product's magnitude bound
read).  A builtin on exact arguments (``NatFun.constant``s or ``steps``)
computes its value once per output piece and returns steps, constants
on constants at any parameter; a ``uniform_from_rule`` rule runs per index.

The builtins compute on integers: a triple is read as the unreduced pair
``(x - y, z + 1)``, an exact kernel combines the pairs, and one ``gcd``
reduces the result to the canonical triple.  A builtin's ``Fraction``
rule is its entry's oracle, which registration and ``registry_validate``
check the kernel against; ``uniform_from_rule`` runs on the same loop, and
so does the reciprocal's value, whose parameter slot only its schedule reads.

Reciprocal is the genuinely conditional entry: its certificate at
parameter ``s`` checks ``|approx(input, s)| > 2/(s+1)`` -- realized with
the ``gt`` comparison gadget on a rescaled triple -- which pins the named
point away from zero and fixes the output's precision schedule.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd
from typing import Callable, Iterator, Sequence

from . import gadgets
from .naming import (
    NameTriple,
    NatFun,
    TripleStream,
    _check_argument,
    _rational_triple,
    approx,
    constant_values,
    format_rational,
    parse_rational,
    piece_values,
    rational_name,
    triple_reader,
    validate_name,
)
from .realfns import (
    ConditionalFn,
    ProcOperator,
    UniformFn,
    apply_conditional,
    apply_uniform,
    joint,
)

__all__ = [
    "DEFAULT_GRID",
    "Entry",
    "FunctionRegistry",
    "GridCheck",
    "OutsideDomain",
    "RegistryReport",
    "constant_fn",
    "default_functions",
    "register_builtins",
    "registry_validate",
    "uniform_from_rule",
]


class OutsideDomain(ValueError):
    """The requested point is outside the function's domain."""


def _decode(triple: tuple[int, int, int]) -> Fraction:
    x, y, z = triple
    return Fraction(x - y, z + 1)


def _pair(triple: tuple[int, int, int]) -> tuple[int, int]:
    # the value (x - y) / (z + 1), unreduced; the denominator is positive
    x, y, z = triple
    return x - y, z + 1


def _encode_pair(pair: tuple[int, int]) -> tuple[int, int, int]:
    # what ``_rational_triple`` gives for p/d (d > 0), reduced by one gcd
    p, d = pair
    g = gcd(p, d)
    return (p // g, 0, d // g - 1) if p >= 0 else (0, -p // g, d // g - 1)


Schedule = Callable[[int, Sequence[NameTriple]], int]


def _pointwise(
    n_args: int,
    rule: Callable[..., object],
    schedule: Schedule,
    name: str,
    decode: Callable[[tuple[int, int, int]], object],
    encode: Callable[[object], tuple[int, int, int]],
    params: int = 0,
) -> tuple[ProcOperator, ...]:
    # the loop of every elementary value operator, per index or per piece:
    # ``decode`` turns a triple into the rule's argument, ``encode`` its result
    # into the output triple; the ``params`` trailing slots (the reciprocal's
    # parameter) are read by the schedule alone, through ``bind(names, *params)``
    bind = getattr(schedule, "bind", None)
    fold = isinstance(schedule, _Schedule)  # a builtin: exact arguments, exact value
    slots = [slice(i, i + 3) for i in range(0, 3 * n_args, 3)]  # each argument's triple

    def build(fns: tuple[NatFun, ...]) -> NameTriple:
        params = fns[3 * n_args :]
        pieces = piece_values(*fns[: 3 * n_args]) if fold else None
        if pieces is not None and (not pieces[0] or constant_values(*params) is not None):
            (breaks, rows), cuts = pieces, ()
            if breaks:  # at a constant parameter a builtin's at(t) >= t never falls
                at = bind([NameTriple(*fns[s]) for s in slots], *params)
                cuts = sorted({bisect_left(range(k), k, key=at) for k in breaks} - {0})
                rows = [rows[bisect_right(breaks, at(t))] for t in [0, *cuts]]
            out = [encode(rule(*[decode(row[s]) for s in slots])) for row in rows]
            return NameTriple(*[NatFun.steps(cuts, values) for values in zip(*out)])
        names = [NameTriple(*fns[s]) for s in slots]
        at = bind(names, *params) if bind is not None else lambda t: schedule(t, names)
        # a constant name's value, decoded once; any other name's reader
        args = [decode(c) if (c := constant_values(*nm)) else triple_reader(*nm) for nm in names]
        a, b = (args + [None, None])[:2]
        a_on, b_on = callable(a), callable(b)  # read per index, else a constant's value

        def ev(t: int) -> tuple[int, int, int]:
            tau = at(t)
            if tau.__class__ is not int or tau < 0:
                _check_argument(tau, "schedule")
            if n_args == 2:
                return encode(rule(decode(a(tau)) if a_on else a, decode(b(tau)) if b_on else b))
            if n_args == 1:
                return encode(rule(decode(a(tau)) if a_on else a))
            return encode(rule(*[decode(x(tau)) if callable(x) else x for x in args]))

        return TripleStream(ev, name).name()

    return joint(3 * n_args + params, 3, build, name)


def uniform_from_rule(
    n_args: int,
    rule: Callable[..., Fraction],
    schedule: Schedule,
    name: str,
) -> UniformFn:
    """A uniform function computed by exact rational arithmetic.

    At output index ``t`` every argument name is queried at
    ``schedule(t, names)``, ``rule`` combines the exact approximations
    as ``Fraction``s, and the exact rational result is re-encoded
    canonically.  The caller owns the error analysis: the schedule must
    be fine enough that the rule's output is within ``1/(t+1)`` of the
    true value.  F, G and H are the ``joint`` components of one build,
    so an application computes each index's rational once, and it reads
    each argument name through one ``triple_reader``.  The builtins run
    on the same loop with integer kernels in place of ``Fraction`` rules.

    Work that does not depend on the index is done once per application:
    a constant argument is decoded into its ``Fraction`` once, and a
    schedule with a ``bind(names)`` method gives the application its
    ``t -> index`` map, as every builtin schedule does (the product
    schedule to read its magnitude bound once).  The rule still runs at
    every index, and the queried index is still checked.
    """
    return UniformFn(n_args, *_pointwise(n_args, rule, schedule, name, _decode, _rational_triple))


class _Schedule:
    """A schedule ``(t, names, *params) -> index`` whose ``bind(names, *params)``
    is one application's map; ``params`` are the value operator's trailing slots."""

    def __init__(self, bind: Callable[..., Callable[[int], int]]):
        self.bind = bind

    def __call__(self, t: int, names: Sequence[NameTriple], *params: NatFun) -> int:
        return self.bind(names, *params)(t)


_at_t = _Schedule(lambda _names: lambda t: t)
_twice_plus_one = _Schedule(lambda _names: lambda t: 2 * t + 1)


def _product_bind(names: Sequence[NameTriple]) -> Callable[[int], int]:
    """|ab - a'b'| <= |a||b - b'| + |b'||a - a'| < (2M+1)/(tau+1) where M
    bounds |a'| + 1 and |b'| + 1 via the index-0 approximations; making
    tau + 1 = ceil((2M+1)(t+1)) brings the output under 1/(t+1).

    The index-0 approximations are read on the first index asked for and
    the bound is kept for the rest of the application.
    """
    bound: list[Fraction | None] = [None]

    def at(t: int) -> int:
        need = bound[0]
        if need is None:
            need = bound[0] = 2 * (max(abs(approx(nm, 0)) for nm in names) + 1) + 1
        return -(-need.numerator * (t + 1) // need.denominator) - 1

    return at


_product_schedule = _Schedule(_product_bind)


def constant_fn(q: Fraction | int) -> UniformFn:
    """The zero-argument uniform function naming the rational exactly."""
    value = Fraction(q)
    return uniform_from_rule(
        0, lambda: value, _at_t, f"const_{format_rational(value)}"
    )


def _recip_order(fns: tuple[NatFun, ...], budget: int) -> range:
    """The reciprocal's search order: every s, or on an exact triple from its least s."""
    triple = constant_values(*fns)
    if triple is None:
        return range(budget)
    d = abs(triple[0] - triple[1])
    return range(2 * (triple[2] + 1) // d if d else budget, budget)


def _recip_certificate() -> ProcOperator:
    """Zero at ``s`` exactly when the input's approximation there exceeds
    ``2/(s+1)`` in magnitude.

    With triple values (x, y, z) at ``s`` the condition
    ``|x - y| / (z + 1) > 2/(s+1)`` is the same as
    ``(|x - y|(s+1)) / (z + 1) > 2``, a single ``gt`` gadget test on the
    rescaled triple ``(|x-y|(s+1), 0, z)`` -- constant work per candidate,
    reading a stream argument through its memo, which ``MEMO_CAP`` bounds.
    On an exact triple the test first holds at ``s = floor(2(z+1)/|x-y|)``,
    and never when ``x = y``: the search starts there, or probes nothing.
    """
    test = gadgets.gt(2)

    def build(fns: tuple[NatFun, ...]) -> NatFun:
        read = triple_reader(*fns)

        def ev(s: int) -> int:
            x, y, z = read(s)
            d = x - y if x >= y else y - x
            return 0 if test.fn(d * (s + 1), 0, z) else 1

        return NatFun(ev, label="recip.cert")

    return ProcOperator(3, build, "recip-E")


def _inverse(a: tuple[int, int]) -> tuple[int, int]:
    # the reciprocal of p/d is d/p with the sign moved to the numerator; the
    # p = 0 guard is unreachable for certified inputs and keeps the rule total
    p, d = a
    return (d, p) if p > 0 else (-d, -p) if p < 0 else (0, 1)


# A certified s gives |xi| > 1/(s+1).  Reading the input at
# tau = 2(s+1)^2 (t+1) - 1 keeps the approximation q above 1/(2(s+1)) in
# magnitude, and the quotient bound |1/q - 1/xi| = |xi - q| / (|q||xi|)
# then lands strictly under 1/(t+1).  The parameter function e gives s.
_recip_schedule = _Schedule(lambda _names, e: lambda t: 2 * (e(t) + 1) ** 2 * (t + 1) - 1)


def reciprocal_fn() -> ConditionalFn:
    """Reciprocal as a conditional function on the nonzero reals."""
    values = _pointwise(1, _inverse, _recip_schedule, "recip", _pair, _encode_pair, params=1)
    return ConditionalFn(1, _recip_certificate(), *values, order=_recip_order)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Entry:
    """One registered function with its exact rational oracle.

    The oracle raises OutsideDomain at points the function does not
    cover (reciprocal at 0); it is None for entries with no closed-form
    reference.
    """

    name: str
    n_args: int
    fn: UniformFn | ConditionalFn
    oracle: Callable[..., Fraction] | None

    @property
    def kind(self) -> str:
        return "conditional" if isinstance(self.fn, ConditionalFn) else "uniform"


_QUICK_GRID = (Fraction(-2), Fraction(1, 3), Fraction(1))
_QUICK_T_MAX = 25
_QUICK_BUDGET = 10_000


class FunctionRegistry:
    """Unique-named elementary functions, validated on registration.

    Rational constants are a family rather than finitely many rows:
    ``get("const_p/q")`` builds the exact constant on demand, fresh on
    each call and never stored, so lookups and membership tests leave
    the registry as it was.  A constant too long to spell raises
    ``ValueError`` from ``get`` and is not ``in`` the registry.
    """

    def __init__(self) -> None:
        self._entries: dict[str, Entry] = {}
        self._aliases: dict[str, str] = {}

    def register(
        self, entry: Entry, aliases: Sequence[str] = (), validate: bool = True
    ) -> Entry:
        for name in (entry.name, *aliases):
            if name in self._entries or name in self._aliases:
                raise ValueError(f"function name already registered: {name}")
        if validate and entry.oracle is not None:
            # registration-time smoke test on a tiny grid; the full suite
            # is registry_validate
            for check in _grid_checks(entry, _QUICK_GRID, _QUICK_T_MAX, _QUICK_BUDGET):
                if not check.passed:
                    raise ValueError(f"entry {entry.name} failed validation: {_check_line(check)}")
        self._entries[entry.name] = entry
        for alias in aliases:
            self._aliases[alias] = entry.name
        return entry

    def copy(self) -> "FunctionRegistry":
        """The same entries and aliases in a registry that grows on its own."""
        other = FunctionRegistry()
        other._entries = dict(self._entries)
        other._aliases = dict(self._aliases)
        return other

    def names(self) -> list[str]:
        return sorted(self._entries)

    def __contains__(self, name: str) -> bool:
        try:
            self.get(name)
        except (KeyError, ValueError):
            return False
        return True

    def __iter__(self) -> Iterator[Entry]:
        return iter([self._entries[name] for name in self.names()])

    def get(self, name: str) -> Entry:
        name = self._aliases.get(name, name)
        if name in self._entries:
            return self._entries[name]
        if name.startswith("const_"):
            try:
                value = parse_rational(name[len("const_") :])
            except ValueError:
                raise KeyError(name) from None
            return Entry(f"const_{format_rational(value)}", 0, constant_fn(value), lambda: value)
        raise KeyError(name)


def register_builtins(registry: FunctionRegistry | None = None) -> FunctionRegistry:
    """Register the standard arithmetic entries (validated)."""
    reg = registry if registry is not None else FunctionRegistry()

    def uniform(
        name: str,
        n_args: int,
        rule: Callable[..., Fraction],
        kernel: Callable[..., tuple[int, int]],
        schedule: Schedule,
        aliases: Sequence[str] = (),
    ) -> None:
        # the kernel runs on (numerator, denominator > 0) pairs; the rule is its oracle
        fn = UniformFn(n_args, *_pointwise(n_args, kernel, schedule, name, _pair, _encode_pair))
        reg.register(Entry(name, n_args, fn, rule), aliases=aliases)

    uniform("negate", 1, lambda a: -a, lambda a: (-a[0], a[1]), _at_t, aliases=("neg",))
    uniform("abs", 1, abs, lambda a: (abs(a[0]), a[1]), _at_t)
    uniform(
        "add", 2, lambda a, b: a + b,
        lambda a, b: (a[0] * b[1] + b[0] * a[1], a[1] * b[1]), _twice_plus_one,
    )
    uniform(
        "sub", 2, lambda a, b: a - b,
        lambda a, b: (a[0] * b[1] - b[0] * a[1], a[1] * b[1]), _twice_plus_one,
    )
    uniform("min", 2, min, lambda a, b: a if a[0] * b[1] <= b[0] * a[1] else b, _twice_plus_one)
    uniform("max", 2, max, lambda a, b: b if a[0] * b[1] <= b[0] * a[1] else a, _twice_plus_one)
    uniform(
        "mul", 2, lambda a, b: a * b,
        lambda a, b: (a[0] * b[0], a[1] * b[1]), _product_schedule,
    )

    def recip_oracle(a: Fraction) -> Fraction:
        if a == 0:
            raise OutsideDomain("reciprocal is undefined at 0")
        return 1 / a

    reg.register(
        Entry("recip", 1, reciprocal_fn(), recip_oracle), aliases=("reciprocal",)
    )
    return reg


@lru_cache(maxsize=1)
def _validated_builtins() -> FunctionRegistry:
    # validated once per process; only copies are handed out
    return register_builtins()


def default_functions() -> FunctionRegistry:
    """A fresh registry of the builtins, validated once per process."""
    return _validated_builtins().copy()


# ---------------------------------------------------------------------------
# grid validation
# ---------------------------------------------------------------------------

DEFAULT_GRID: tuple[Fraction, ...] = (
    Fraction(-3),
    Fraction(-3, 2),
    Fraction(0),
    Fraction(1, 7),
    Fraction(1, 2),
    Fraction(2),
    Fraction(22, 7),
)


@dataclass(frozen=True)
class GridCheck:
    entry: str
    point: tuple[Fraction, ...]
    reference: Fraction
    passed: bool
    first_failure: int | None


def _check_line(check: GridCheck) -> str:
    status = "ok" if check.passed else f"FAIL at t={check.first_failure}"
    point_text = ", ".join(format_rational(q) for q in check.point)
    return f"{check.entry}({point_text}) -> {format_rational(check.reference)}: {status}"


def _grid_checks(
    entry: Entry, grid: Sequence[Fraction], t_max: int, budget: int
) -> Iterator[GridCheck]:
    """The entry's output against its oracle at each grid point of its domain."""
    for point in product(tuple(grid), repeat=entry.n_args):
        try:
            reference = entry.oracle(*point)
        except OutsideDomain:
            continue
        names = [rational_name(q) for q in point]
        if isinstance(entry.fn, ConditionalFn):
            output = apply_conditional(entry.fn, names, budget)
        else:
            output = apply_uniform(entry.fn, names)
        row = validate_name(output, reference, t_max).first_failure
        yield GridCheck(entry.name, point, reference, row is None, None if row is None else row.t)


@dataclass(frozen=True)
class RegistryReport:
    checks: tuple[GridCheck, ...]

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def failures(self) -> list[GridCheck]:
        return [check for check in self.checks if not check.passed]

    def lines(self) -> Iterator[str]:
        return map(_check_line, self.checks)


def registry_validate(
    registry: FunctionRegistry,
    t_max: int = 1000,
    grid: Sequence[Fraction] = DEFAULT_GRID,
    budget: int = 100_000,
) -> RegistryReport:
    """Validate every entry against its oracle on the rational grid.

    Grid points outside an entry's domain are skipped; everything else
    must satisfy the strict 1/(t+1) bound for all t <= t_max, decided by
    exact rational comparison.  Raises ValueError unless ``t_max`` is a natural.
    """
    _check_argument(t_max, "t_max")
    return RegistryReport(
        tuple(
            check
            for entry in registry
            if entry.oracle is not None
            for check in _grid_checks(entry, grid, t_max, budget)
        )
    )
