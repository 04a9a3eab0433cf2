"""The reference checkers, including negative controls.

Run with ``python3 -m pytest bench`` from the repository root.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from pathlib import Path

import pytest

import checkers
import workloads

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from condreal.elementary import default_functions, uniform_from_rule  # noqa: E402
from condreal.metric import (  # noqa: E402
    apply_uniform_ms,
    make_mn,
    mn_code,
    mn_name,
    translate_uniform,
)
from condreal.naming import rational_name  # noqa: E402
from condreal.realfns import apply_uniform  # noqa: E402


def _pair(u: int, v: int) -> int:
    return (u + v) * (u + v + 1) // 2 + u


def _triples(name, depth):
    return [(name.f(t), name.g(t), name.h(t)) for t in range(depth + 1)]


def test_unpair_walks_the_diagonals_in_order():
    n = 0
    for d in range(60):
        for u in range(d + 1):
            assert checkers.unpair(n) == (u, d - u)
            n += 1


def test_decode_mn_reads_right_nested_triples():
    parts = [7, 2, 4, 0, 5, 1]  # (7-2)/5 and (0-5)/2
    code = parts[-1]
    for v in reversed(parts[:-1]):
        code = _pair(v, code)
    assert checkers.untuple(6, code) == parts
    assert checkers.decode_mn(2, code) == (Fraction(1), Fraction(-5, 2))


def test_decode_mn_agrees_with_the_program_coding():
    for point in [(Fraction(-22, 7),), (Fraction(0), Fraction(5, 3)), (Fraction(9, 2),) * 3]:
        code = mn_code(point)
        assert checkers.decode_mn(len(point), code) == point
        assert make_mn(len(point)).alpha(code) == point


def test_eval_sexpr_values_and_reciprocal_arguments():
    value, recips = checkers.eval_sexpr("(add 1/2 (recip (sub 1 1/4)))")
    assert value == Fraction(1, 2) + Fraction(4, 3)
    assert recips == [Fraction(3, 4)]
    value, recips = checkers.eval_sexpr("(mul const_2 (recip (recip (neg 5))))")
    assert value == -10
    assert recips == [Fraction(-5), None]


def test_least_certificate_matches_the_definition():
    for x in [Fraction(3), Fraction(1, 3), Fraction(-2, 7), Fraction(2, 9), Fraction(1, 1000)]:
        s = next(s for s in range(10_000) if abs(x) * (s + 1) > 2)
        assert checkers.least_certificate(x) == s


def test_name_check_accepts_add_and_rejects_the_drifted_add():
    a, b = Fraction(1, 3), Fraction(-5, 2)
    names = [rational_name(a), rational_name(b)]
    honest = apply_uniform(default_functions().get("add").fn, names)
    assert checkers.name_error(_triples(honest, 50), a + b) is None
    drifted = uniform_from_rule(
        2, lambda x, y: x + y + Fraction(1, 8), lambda t, names: 2 * t + 1, "add"
    )
    error = checkers.name_error(_triples(apply_uniform(drifted, names), 50), a + b)
    assert error is not None and error.startswith("t=7:")


def test_name_check_rejects_non_naturals():
    assert checkers.name_error([(1, 0, 0), (1, -1, 0)], Fraction(1)) is not None


def test_code_check_rejects_an_off_by_one_code():
    double = uniform_from_rule(1, lambda a: 2 * a, lambda t, names: 2 * t + 1, "double")
    out = apply_uniform_ms(translate_uniform(double), mn_name((Fraction(3, 4),)))
    codes = [out.f(t) for t in range(30)]
    assert checkers.code_error(codes, Fraction(3, 2)) is None
    assert checkers.code_error([c + 1 for c in codes], Fraction(3, 2)) is not None


SEARCH_EXPR = "(add 1 (recip (sub 1/3 1/4)))"  # argument 1/12, least s = 24
SEARCH_OUT = "approx = 13\nt = 999\nbound = 1/1000\ns[recip] = 24\n"


@pytest.mark.parametrize(
    "stdout, ok",
    [
        (SEARCH_OUT, True),
        (SEARCH_OUT.replace("approx = 13", "approx = 13001/1000"), False),
        (SEARCH_OUT.replace("s[recip] = 24", "s[recip] = 23"), False),
        (SEARCH_OUT.replace("s[recip] = 24", "s[recip] = 25"), False),
        (SEARCH_OUT.replace("bound = 1/1000", "bound = 1/999"), False),
    ],
)
def test_search_check_rejects_drifted_cli_output(stdout, ok):
    op = workloads._search_op(None, [], SEARCH_EXPR)
    assert (op.check((0, stdout, "")) is None) == ok


def test_exhaustion_check_wants_exit_3():
    assert workloads._check_exhausted((3, "", "budget exhausted: no parameter")) is None
    assert workloads._check_exhausted((0, "approx = 0\n", "")) is not None
