"""Arithmetic gadget functions and the registry that names them.

Everything here is a small total function on the naturals, packaged as a
named ``BaseFunction`` so operator terms can mention it.  The library has
three layers:

* primitives: successor, truncated subtraction, multiplication, the
  three-way selector ``delta_1`` and the pairing functions;
* constructed families, built from the primitives by fixed recursions:
  ``delta_k`` (first-zero dispatch), ``mu`` (single-point override),
  ``gamma`` (sum comparison by repeated truncated subtraction), and from
  ``gamma`` the sign tests ``lt``/``gt`` and the ``ball_indicator``,
  in closed form (constant time and memory for any threshold);
* the ``GadgetRegistry`` mapping names to entries, plus ``decency_check``
  which probes a registry for the behavior the rest of the package
  assumes (selector, successor and truncated subtraction present and
  correct, and the term-language closure witnesses holding over it).

The comparison family is deliberately division-free: ``lt(a)`` decides
``(x - y) / (z + 1) < a`` using only truncated subtraction and case
selection, so the test lives inside the term language; exact rational
arithmetic appears only in oracles on the testing side.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import isqrt
from random import Random
from typing import Callable, Iterable, Sequence

from . import terms
from .naming import NatFun
from .terms import Apply, Base, BaseFunction, OperatorTerm, Proj

__all__ = [
    "GadgetRegistry",
    "DecencyCheck",
    "DecencyReport",
    "ball_indicator",
    "conj",
    "constant",
    "decency_check",
    "default_registry",
    "delta_1",
    "delta_k",
    "derive_constant",
    "gamma",
    "gt",
    "left",
    "lt",
    "monus",
    "mu",
    "pair",
    "right",
    "succ",
    "tuple_pack",
    "tuple_part",
    "tuple_parts",
]


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------


def succ(x: int) -> int:
    return x + 1


def monus(x: int, y: int) -> int:
    """Truncated subtraction: max(x - y, 0)."""
    return x - y if x > y else 0


def delta_1(x: int, y: int, z: int) -> int:
    """y if x == 0 else z."""
    return y if x == 0 else z


def pair(u: int, v: int) -> int:
    """Diagonal pairing: (u+v)(u+v+1)/2 + u.  Bijective on pairs."""
    s = u + v
    return s * (s + 1) // 2 + u


def left(n: int) -> int:
    w = (isqrt(8 * n + 1) - 1) // 2
    return n - w * (w + 1) // 2


def right(n: int) -> int:
    w = (isqrt(8 * n + 1) - 1) // 2
    return w - (n - w * (w + 1) // 2)


def conj(u: int, v: int) -> int:
    """Zero exactly when both arguments are zero."""
    return u + v


def tuple_pack(values: Sequence[int]) -> int:
    """Right-nested pairing of a nonempty tuple; a single value codes itself."""
    if not values:
        raise ValueError("tuple_pack needs at least one value")
    code = values[-1]
    for v in reversed(values[:-1]):
        code = pair(v, code)
    return code


def tuple_part(k: int, i: int, n: int) -> int:
    """The i-th (1-based) component of a k-tuple code."""
    if not 1 <= i <= k:
        raise ValueError(f"component {i} outside 1..{k}")
    if k == 1:
        return n
    for _ in range(i - 1):
        n = right(n)
    return left(n) if i < k else n


def tuple_parts(k: int, n: int) -> tuple[int, ...]:
    """All k components of a k-tuple code, unpaired in one walk."""
    if k < 1:
        raise ValueError(f"a tuple has at least one component, got {k}")
    parts = []
    for _ in range(k - 1):
        w = (isqrt(8 * n + 1) - 1) // 2
        u = n - w * (w + 1) // 2
        parts.append(u)
        n = w - u
    parts.append(n)
    return tuple(parts)


# ---------------------------------------------------------------------------
# constructed families
# ---------------------------------------------------------------------------


def _delta_k_value(k: int, args: Sequence[int]) -> int:
    # delta_0(z) = z; delta_{K+1}(x1,y1,rest) = delta_1(x1, y1, delta_K(rest)),
    # unrolled: the first y_i whose guard x_i is zero, else z
    for i in range(0, 2 * k, 2):
        if args[i] == 0:
            return args[i + 1]
    return args[2 * k]


def _mu_value(k: int, c: int, x: int, y: int) -> int:
    return c if x == k else y


def _gamma_value(b: int, c: int, args: Sequence[int]) -> int:
    """Sum comparison by truncated subtraction, in closed form.

    Positive exactly when x_1 + .. + x_b > y_1 + .. + y_c.  The paper's
    recursion on (b, c) peels the last x against the last y, so it ends
    at ``P - Y`` for the shortest suffix of the xs whose sum ``P``
    exceeds the ys' sum ``Y``, and at 0 when no suffix does.
    """
    excess = -sum(args[b:])
    for i in range(b - 1, -1, -1):
        excess += args[i]
        if excess > 0:
            return excess
    return 0


def _copies_gamma(b: int, x: int, total: int) -> int:
    # gamma_{b,c} of b copies of x against ys summing to total: the
    # shortest out-summing suffix has total // x + 1 copies
    return (total // x + 1) * x - total if x and total // x < b else 0


def delta_k(k: int) -> BaseFunction:
    """First-zero dispatch on k guard/value pairs with a default.

    ``delta_k(k)(x_1, y_1, ..., x_k, y_k, z)`` is the first ``y_i`` whose
    guard ``x_i`` is zero, or ``z`` when no guard is.
    """
    if k < 0:
        raise ValueError("k must be a natural")

    def fn(*args: int) -> int:
        return _delta_k_value(k, args)

    return BaseFunction(f"delta_{k}", 2 * k + 1, fn)


def constant(c: int) -> BaseFunction:
    """The constant function c."""
    if c < 0:
        raise ValueError("constant must be a natural")
    return BaseFunction(f"const_{c}", 1, lambda _x: c)


def mu(k: int, c: int) -> BaseFunction:
    """Override at one point: value c when x == k, else y."""
    if k < 0 or c < 0:
        raise ValueError("mu parameters must be naturals")
    return BaseFunction(f"mu_{k}_{c}", 2, lambda x, y: _mu_value(k, c, x, y))


def gamma(b: int, c: int) -> BaseFunction:
    """Positive exactly when the first b arguments out-sum the last c."""
    if b < 1 or c < 1:
        raise ValueError("gamma needs b, c >= 1")

    def fn(*args: int) -> int:
        return _gamma_value(b, c, args)

    return BaseFunction(f"gamma_{b}_{c}", b + c, fn)


def lt(a: Fraction | int) -> BaseFunction:
    """Sign test: positive exactly when (x - y) / (z + 1) < a.

    Realized without rational arithmetic.  For a = b/c > 0 it is
    ``gamma_{b,c}`` of b copies of z+1 against c copies of x - y
    (truncated), for a = -c/b <= 0 the mirror image, in closed form.
    """
    a = Fraction(a)
    b, c = (a.numerator, a.denominator) if a > 0 else (a.denominator, -a.numerator)
    # one truncated subtraction when b is 1, as for the reciprocal's gt(2)
    excess = monus if b == 1 else partial(_copies_gamma, b)
    if a > 0:
        fn: Callable[..., int] = lambda x, y, z: excess(z + 1, c * monus(x, y))
    else:
        fn = lambda x, y, z: excess(monus(y, x), c * (z + 1))
    return BaseFunction(f"lt_{a}", 3, fn)


def gt(a: Fraction | int) -> BaseFunction:
    """Sign test: positive exactly when (x - y) / (z + 1) > a."""
    a = Fraction(a)
    mirror = lt(-a)
    return BaseFunction(f"gt_{a}", 3, lambda x, y, z: mirror.fn(y, x, z))


def ball_indicator(centers: Sequence[Fraction | int], radius: Fraction | int) -> BaseFunction:
    """Zero exactly inside an open max-norm ball around rational centers.

    The argument list is one (x, y, z) triple per coordinate; coordinate
    j must satisfy |(x_j - y_j)/(z_j + 1) - centers[j]| < radius for the
    result to be 0, otherwise it is 1.
    """
    if not centers:
        raise ValueError("ball_indicator needs at least one coordinate")
    q = Fraction(radius)
    tests = [
        (gt(Fraction(a) - q).fn, lt(Fraction(a) + q).fn) for a in map(Fraction, centers)
    ]

    def fn(*args: int) -> int:
        flags = []
        for j, (above, below) in enumerate(tests):
            x, y, z = args[3 * j : 3 * j + 3]
            g = above(x, y, z)
            # delta_1(g, g, below(...)): zero when either side test fails
            flags.append(g if g == 0 else below(x, y, z))
        return _delta_k_value(len(flags), [v for u in flags for v in (u, 1)] + [0])

    name = "ball_" + "_".join(str(Fraction(a)) for a in centers) + f"_r_{q}"
    return BaseFunction(name, 3 * len(tests), fn)


def derive_constant(c: int) -> BaseFunction:
    """The constant function built from successor and truncated subtraction.

    ``x - x`` is zero, and c successors on top of it give c; the result
    agrees with a directly-defined constant everywhere.
    """
    if c < 0:
        raise ValueError("constant must be a natural")

    def fn(x: int) -> int:
        value = monus(x, x)
        for _ in range(c):
            value = succ(value)
        return value

    return BaseFunction(f"derived_const_{c}", 1, fn)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


def _core_entries() -> dict[str, BaseFunction]:
    return {
        fn.name: fn
        for fn in (
            BaseFunction("succ", 1, succ),
            BaseFunction("monus", 2, monus),
            BaseFunction("mul", 2, lambda x, y: x * y),
            BaseFunction("delta_1", 3, delta_1),
            BaseFunction("conj", 2, conj),
            BaseFunction("pair", 2, pair),
            BaseFunction("left", 1, left),
            BaseFunction("right", 1, right),
        )
    }


class GadgetRegistry:
    """Named base functions, and the families' members by their spellings.

    The entries are fixed at construction.  ``resolve`` also builds the
    members of the constructed families from their names, fresh on each
    call and never stored: the family constructors are observationally
    pure, so the registry stays a stable naming environment for terms
    and does not grow with the parameters it is asked for.
    """

    def __init__(self, entries: dict[str, BaseFunction] | None = None):
        self._entries: dict[str, BaseFunction] = dict(
            _core_entries() if entries is None else entries
        )

    def names(self) -> list[str]:
        return sorted(self._entries)

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def get(self, name: str) -> BaseFunction:
        try:
            return self._entries[name]
        except KeyError:
            raise KeyError(f"no gadget named {name!r}") from None

    def resolve(self, name: str) -> BaseFunction:
        """Look a name up, constructing family members on demand.

        Understands the generated spellings: ``delta_K``, ``const_C``,
        ``mu_K_C``, ``gamma_B_C``, ``lt_A`` and ``gt_A`` (A a rational).
        """
        if name in self._entries:
            return self._entries[name]
        parts = name.split("_")
        try:
            if parts[0] == "delta" and len(parts) == 2:
                return delta_k(int(parts[1]))
            if parts[0] == "const" and len(parts) == 2:
                return constant(int(parts[1]))
            if parts[0] == "mu" and len(parts) == 3:
                return mu(int(parts[1]), int(parts[2]))
            if parts[0] == "gamma" and len(parts) == 3:
                return gamma(int(parts[1]), int(parts[2]))
            if parts[0] in ("lt", "gt") and len(parts) == 2:
                return (lt if parts[0] == "lt" else gt)(Fraction(parts[1]))
        except (ValueError, ZeroDivisionError):
            pass
        raise KeyError(f"no gadget named {name!r}")

    def without(self, name: str) -> "GadgetRegistry":
        entries = dict(self._entries)
        entries.pop(name, None)
        return GadgetRegistry(entries)

    def override(self, name: str, fn: Callable[..., int]) -> "GadgetRegistry":
        entries = dict(self._entries)
        old = self.get(name)
        entries[name] = BaseFunction(old.name, old.arity, fn)
        return GadgetRegistry(entries)


def default_registry() -> GadgetRegistry:
    return GadgetRegistry()


# the library's own naming environment for term construction
CORE = default_registry()


# ---------------------------------------------------------------------------
# decency check
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DecencyCheck:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class DecencyReport:
    checks: tuple[DecencyCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self) -> Iterable[str]:
        for c in self.checks:
            status = "ok" if c.passed else "FAIL"
            yield f"{c.name}: {status}" + (f" ({c.detail})" if c.detail else "")


def decency_check(registry: GadgetRegistry) -> DecencyReport:
    """Probe a registry for the behavior the term machinery relies on.

    Presence and small-domain correctness of successor, truncated
    subtraction and the selector, then the four closure witnesses of the
    term language (slot projection, chained application, substitution,
    diagonal collapse) evaluated over sampled functions using terms built
    from the registry's own entries.
    """
    checks: list[DecencyCheck] = []

    def record(name: str, passed: bool, detail: str = "") -> bool:
        checks.append(DecencyCheck(name, passed, detail))
        return passed

    present = True
    for name in ("succ", "monus", "delta_1"):
        if name not in registry:
            record(f"entry {name}", False, "missing")
            present = False
        else:
            record(f"entry {name}", True)
    if not present:
        return DecencyReport(tuple(checks))

    s, sub, sel = registry.get("succ"), registry.get("monus"), registry.get("delta_1")

    bad = next((x for x in range(60) if s.fn(x) != x + 1), None)
    record("succ behavior", bad is None, "" if bad is None else f"succ({bad})")

    bad_pair = next(
        (
            (x, y)
            for x in range(21)
            for y in range(21)
            if sub.fn(x, y) != max(x - y, 0)
        ),
        None,
    )
    record(
        "monus behavior",
        bad_pair is None,
        "" if bad_pair is None else f"monus{bad_pair} != {max(bad_pair[0]-bad_pair[1],0)}",
    )

    bad_sel = next(
        (
            (x, y, z)
            for x in range(4)
            for y in range(4)
            for z in range(4)
            if sel.fn(x, y, z) != (y if x == 0 else z)
        ),
        None,
    )
    record("delta_1 behavior", bad_sel is None, "" if bad_sel is None else str(bad_sel))

    if not all(c.passed for c in checks):
        return DecencyReport(tuple(checks))

    # closure witnesses, evaluated over sampled functions
    rng = Random(20210)
    fns = [
        NatFun(lambda t, a=rng.randrange(1, 5), b=rng.randrange(7): a * t + b)
        for _ in range(3)
    ]
    samples = [rng.randrange(40) for _ in range(12)]

    proj_term = OperatorTerm(2, 1, Apply(2, Proj(1)))
    record(
        "projection witness",
        all(_eval_ok(proj_term, fns[:2], n, fns[1](n)) for n in samples),
    )

    chain_term = OperatorTerm(2, 1, Apply(1, Apply(2, Proj(1))))
    record(
        "composition witness",
        all(_eval_ok(chain_term, fns[:2], n, fns[0](fns[1](n))) for n in samples),
    )

    outer = OperatorTerm(1, 1, Base(s, (Apply(1, Proj(1)),)))
    inner = OperatorTerm(2, 1, Base(sub, (Apply(1, Proj(1)), Apply(2, Proj(1)))))
    substituted = terms.compose_terms(outer, [inner])
    record(
        "substitution witness",
        all(
            _eval_ok(substituted, fns[:2], n, terms.eval_term(outer, [_as_fn(inner, fns[:2])], [n]))
            for n in samples
        ),
    )

    diag_input = OperatorTerm(2, 1, Base(sub, (Apply(1, Proj(1)), Apply(2, Proj(1)))))
    diag = terms.diagonalize(diag_input)
    record(
        "diagonalization witness",
        all(
            terms.eval_term(diag, fns[:1], [n])
            == terms.eval_term(diag_input, [fns[0], NatFun.constant(n)], [n])
            for n in samples
        ),
    )

    return DecencyReport(tuple(checks))


def _eval_ok(term: OperatorTerm, fns: Sequence[NatFun], n: int, expected: int) -> bool:
    return terms.eval_term(term, fns, [n]) == expected


def _as_fn(term: OperatorTerm, fns: Sequence[NatFun]) -> NatFun:
    return NatFun(lambda n: terms.eval_term(term, fns, [n]), label="term-closure")
