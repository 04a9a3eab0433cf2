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
from itertools import product
from math import isqrt
from random import Random
from typing import Callable, Iterable, Sequence

from .naming import NatFun
from .terms import (
    Apply,
    Base,
    BaseFunction,
    OperatorTerm,
    Proj,
    compose_terms,
    diagonalize,
    eval_term,
)

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

    fn.select_guards = range(0, 2 * k, 2)  # positions a bound term program settles on
    return BaseFunction(f"delta_{k}", 2 * k + 1, fn)


def constant(c: int) -> BaseFunction:
    """The constant function c."""
    if c < 0:
        raise ValueError("constant must be a natural")
    fn = lambda _x: c  # noqa: E731
    fn.constant_value = c  # read by a bound term program instead of the input
    return BaseFunction(f"const_{c}", 1, fn)


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
    mirror = lt(-a).fn
    return BaseFunction(f"gt_{a}", 3, lambda x, y, z: mirror(y, x, z))


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

        Understands the spellings the family constructors generate:
        ``delta_K``, ``const_C``, ``mu_K_C``, ``gamma_B_C``, ``lt_A``,
        ``gt_A`` and ``ball_A1_..._An_r_R`` (A and R rationals), and only
        as they spell them: ``lt_2/4`` or ``const_007`` is no name.
        """
        if name in self._entries:
            return self._entries[name]
        prefix, _, rest = name.partition("_")
        if prefix in _FAMILIES:
            make, separator, readers = _FAMILIES[prefix]
            spelled = rest.split(separator)
            try:
                fn = make(*[read(p) for read, p in zip(readers, spelled, strict=True)])
                if fn.name == name:
                    return fn
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


# family prefix -> constructor, the separator between its parameters'
# spellings and one reader per parameter
_FAMILIES = {
    "delta": (delta_k, "_", (int,)),
    "const": (constant, "_", (int,)),
    "mu": (mu, "_", (int, int)),
    "gamma": (gamma, "_", (int, int)),
    "lt": (lt, "_", (Fraction,)),
    "gt": (gt, "_", (Fraction,)),
    # ball_A1_..._An_r_R: the centers, then the radius
    "ball": (ball_indicator, "_r_", (lambda text: list(map(Fraction, text.split("_"))), Fraction)),
}


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


# the entries the term machinery relies on: each one's rule and the
# small domain, one range per argument, it is checked on
_REQUIRED: tuple[tuple[str, Callable[..., int], tuple[range, ...]], ...] = (
    ("succ", lambda x: x + 1, (range(60),)),
    ("monus", lambda x, y: max(x - y, 0), (range(21),) * 2),
    ("delta_1", lambda x, y, z: y if x == 0 else z, (range(4),) * 3),
)


def decency_check(registry: GadgetRegistry) -> DecencyReport:
    """Probe a registry for the behavior the term machinery relies on.

    Presence and small-domain correctness of successor, truncated
    subtraction and the selector, then the four closure witnesses of the
    term language (slot projection, chained application, substitution,
    diagonal collapse) evaluated over sampled functions using terms built
    from the registry's own entries.  Each stage runs only when every
    check before it passed.
    """
    checks = [
        DecencyCheck(f"entry {name}", name in registry, "" if name in registry else "missing")
        for name, _rule, _domain in _REQUIRED
    ]
    if not all(c.passed for c in checks):
        return DecencyReport(tuple(checks))

    for name, rule, domain in _REQUIRED:
        fn = registry.get(name).fn
        bad = next((args for args in product(*domain) if fn(*args) != rule(*args)), None)
        detail = "" if bad is None else f"{name}({', '.join(map(str, bad))}) != {rule(*bad)}"
        checks.append(DecencyCheck(f"{name} behavior", bad is None, detail))
    if not all(c.passed for c in checks):
        return DecencyReport(tuple(checks))

    # closure witnesses: a term over the registry's entries, its function
    # arguments and its expected value at n, checked at sampled n over
    # sampled functions
    rng = Random(20210)
    f, g = [
        NatFun(lambda t, a=rng.randrange(1, 5), b=rng.randrange(7): a * t + b)
        for _ in range(2)
    ]
    samples = [rng.randrange(40) for _ in range(12)]
    s, sub = registry.get("succ"), registry.get("monus")
    f_n, g_n = Apply(1, Proj(1)), Apply(2, Proj(1))
    outer = OperatorTerm(1, 1, Base(s, (f_n,)))
    inner = OperatorTerm(2, 1, Base(sub, (f_n, g_n)))
    witnesses = [
        ("projection", OperatorTerm(2, 1, g_n), [f, g], g),
        ("composition", OperatorTerm(2, 1, Apply(1, g_n)), [f, g], lambda n: f(g(n))),
        ("substitution", compose_terms(outer, [inner]), [f, g], lambda n: s(sub(f(n), g(n)))),
        ("diagonalization", diagonalize(inner), [f], lambda n: sub(f(n), n)),
    ]
    for name, term, args, expected in witnesses:
        holds = all(eval_term(term, args, [n]) == expected(n) for n in samples)
        checks.append(DecencyCheck(f"{name} witness", holds))
    return DecencyReport(tuple(checks))
