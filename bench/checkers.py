"""Reference computations the benchmark checks the program against.

Nothing here imports ``condreal``: the formulas are written from the
documented definitions, so a fault in the program cannot also hide in
its own check.

* ``REFERENCE`` -- one exact ``Fraction`` formula per registered builtin.
* ``eval_sexpr`` -- an evaluator for the ``condreal eval`` expression
  language, returning the exact value and, for every reciprocal whose
  argument is built from rationals by uniform entries only, that
  argument's exact value (the certificate check needs it).
* ``unpair`` / ``decode_mn`` -- the diagonal pairing
  ``pair(u, v) = (u+v)(u+v+1)/2 + u`` inverted, right-nested tuples
  ``(c1, (c2, (..., ck)))``, and the ``M_N`` coordinate rule
  ``(x - y)/(z + 1)``.
* ``name_error`` / ``code_error`` -- the strict name contract
  ``|approx - value| < 1/(t+1)``, on name triples and on ``M_1`` codes.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

REFERENCE = {
    "negate": lambda a: -a,
    "abs": lambda a: abs(a),
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "min": lambda a, b: min(a, b),
    "max": lambda a, b: max(a, b),
    "mul": lambda a, b: a * b,
    "recip": lambda a: 1 / a,
}

_ALIASES = {"neg": "negate", "reciprocal": "recip"}

# ---------------------------------------------------------------------------
# s-expressions
# ---------------------------------------------------------------------------


def _tokens(text: str) -> list[str]:
    return text.replace("(", " ( ").replace(")", " ) ").split()


def _read(tokens: list[str], pos: int):
    if tokens[pos] == "(":
        items, pos = [], pos + 1
        while tokens[pos] != ")":
            item, pos = _read(tokens, pos)
            items.append(item)
        return items, pos + 1
    return tokens[pos], pos + 1


def eval_sexpr(text: str) -> tuple[Fraction, list[Fraction | None]]:
    """Exact value of an expression and the arguments of its reciprocals.

    The second result lists one entry per reciprocal in the order the
    program searches them (arguments before the call, left to right).  An
    entry is the exact argument when every node below it is a rational
    or a uniform entry -- then the argument's approximations are exact at
    every index -- and None otherwise.
    """
    tokens = _tokens(text)
    tree, end = _read(tokens, 0)
    if end != len(tokens):
        raise ValueError(f"trailing input in {text!r}")
    recips: list[Fraction | None] = []

    def ev(node) -> tuple[Fraction, bool]:
        if isinstance(node, str):
            if node.startswith("const_"):
                return Fraction(node[len("const_"):]), True
            return Fraction(node), True
        head, args = _ALIASES.get(node[0], node[0]), [ev(a) for a in node[1:]]
        values = [v for v, _ in args]
        exact = all(e for _, e in args)
        if head == "recip":
            recips.append(values[0] if exact else None)
            return REFERENCE[head](*values), False
        return REFERENCE[head](*values), exact

    return ev(tree)[0], recips


def least_certificate(x: Fraction) -> int:
    """The least s with |x|(s+1) > 2, for x != 0: floor(2/|x|)."""
    q = 2 / abs(x)
    return q.numerator // q.denominator


# ---------------------------------------------------------------------------
# codes
# ---------------------------------------------------------------------------


def unpair(n: int) -> tuple[int, int]:
    """Inverse of the diagonal pairing (u+v)(u+v+1)/2 + u."""
    w = (isqrt(8 * n + 1) - 1) // 2
    u = n - w * (w + 1) // 2
    return u, w - u


def untuple(k: int, n: int) -> list[int]:
    """Components of a right-nested k-tuple code."""
    parts = []
    for _ in range(k - 1):
        head, n = unpair(n)
        parts.append(head)
    parts.append(n)
    return parts


def decode_mn(n_dims: int, code: int) -> tuple[Fraction, ...]:
    """The rational N-vector an M_N code stands for."""
    c = untuple(3 * n_dims, code)
    return tuple(
        Fraction(c[3 * j] - c[3 * j + 1], c[3 * j + 2] + 1) for j in range(n_dims)
    )


# ---------------------------------------------------------------------------
# the name contract
# ---------------------------------------------------------------------------


def name_error(triples, value: Fraction) -> str | None:
    """First index whose triple (f, g, h) misses value by 1/(t+1) or more.

    ``triples[t]`` holds the raw natural-number outputs at index t.
    """
    for t, (f, g, h) in enumerate(triples):
        for part in (f, g, h):
            if type(part) is not int or part < 0:
                return f"t={t}: component {part!r} is not a natural"
        approx = Fraction(f - g, h + 1)
        if not abs(approx - value) < Fraction(1, t + 1):
            return f"t={t}: approx {approx} misses {value} by >= 1/{t + 1}"
    return None


def code_error(codes, value: Fraction) -> str | None:
    """First index whose M_1 code misses value by 1/(t+1) or more."""
    for t, code in enumerate(codes):
        if type(code) is not int or code < 0:
            return f"t={t}: code {code!r} is not a natural"
        (approx,) = decode_mn(1, code)
        if not abs(approx - value) < Fraction(1, t + 1):
            return f"t={t}: decoded {approx} misses {value} by >= 1/{t + 1}"
    return None
