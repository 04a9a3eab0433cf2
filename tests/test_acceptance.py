"""End-to-end acceptance checks, one test per criterion.

Each test runs at full scale, enforces its wall-clock budget, and
records a verdict; the conftest hook prints one pass/fail line per
criterion after the run.
"""

import time
from contextlib import contextmanager
from fractions import Fraction
from random import Random

import pytest

from condreal import cli
from condreal.elementary import (
    Entry,
    FunctionRegistry,
    default_functions,
    registry_validate,
    uniform_from_rule,
)
from condreal.gadgets import decency_check, default_registry
from condreal.naming import NatFun, rational_name
from condreal.realfns import BudgetExhausted, find_parameter
from condreal.sampling import random_natfun, random_term
from condreal.suites import run_suite
from condreal.terms import eval_instrumented, eval_term, support_bound

from conftest import record_criterion

REGISTRY = default_functions()
RECIP = REGISTRY.get("recip").fn


@contextmanager
def criterion(number, title, limit_s):
    info = {"detail": ""}
    start = time.perf_counter()
    try:
        yield info
    except BaseException as exc:
        record_criterion(number, title, False, f"raised {type(exc).__name__}")
        raise
    elapsed = time.perf_counter() - start
    detail = info["detail"]
    detail = (detail + ", " if detail else "") + f"{elapsed:.1f}s"
    if elapsed >= limit_s:
        record_criterion(number, title, False, detail + f", over the {limit_s}s budget")
        pytest.fail(f"criterion {number} took {elapsed:.1f}s (budget {limit_s}s)")
    record_criterion(number, title, True, detail)


def sample_fns(rng, k):
    return tuple(random_natfun(rng) for _ in range(k))


# ---------------------------------------------------------------------------
# 1. elementary functions validate on the rational grid
# ---------------------------------------------------------------------------


def test_criterion_1_grid_validation():
    with criterion(1, "builtins validate on the rational grid up to t=1000", 30) as info:
        report = registry_validate(REGISTRY, t_max=1000)
        assert report.passed, [str(c) for c in report.failures()]
        info["detail"] = f"{len(report.checks)} grid checks"


# ---------------------------------------------------------------------------
# 2, 3, 5, 6, 7, 8: the check catalogue at full depth
# ---------------------------------------------------------------------------


def catalogue_criterion(number, title, limit_s, suite, seed=2021):
    with criterion(number, title, limit_s) as info:
        report = run_suite(suite, seed=seed, t_max=500)
        assert report.passed, "\n".join(line for line in report.lines if line.startswith("FAIL"))
        counts = " + ".join(map(str, report.cases))
        info["detail"] = f"{len(report.cases)} checks, {counts} cases, t <= 500"


def test_criterion_2_gadget_equivalences():
    catalogue_criterion(2, "selector and comparator gadgets match their oracles", 60, "gadgets")


def test_criterion_3_term_language_laws():
    catalogue_criterion(
        3, "currying laws, diagonalization and grafting hold pointwise", 60, "curry", seed=101
    )


# ---------------------------------------------------------------------------
# 4. stronger continuity: bounded support, out-of-trace immunity
# ---------------------------------------------------------------------------


def test_criterion_4_stronger_continuity():
    with criterion(4, "evaluation support is bounded and exhaustive", 60) as info:
        rng = Random(202)
        mutations = 0
        for _ in range(100):
            k = rng.randrange(1, 4)
            term = random_term(rng, k, 1, 4)
            fns = sample_fns(rng, k)
            args = (rng.randrange(10),)
            value, trace = eval_instrumented(term, fns, args)
            assert value == eval_term(term, fns, args)
            assert trace.size() <= support_bound(term)
            seen = trace.pairs()
            done = 0
            at = 0
            while done < 20:
                slot = rng.randrange(1, k + 1)
                at = rng.randrange(60)
                if (slot, at) in seen:
                    continue
                mutated = list(fns)
                original = fns[slot - 1]
                mutated[slot - 1] = NatFun(
                    lambda t, _o=original, _a=at: _o(t) + 17 if t == _a else _o(t)
                )
                assert eval_term(term, tuple(mutated), args) == value
                done += 1
                mutations += 1
        info["detail"] = f"100 terms, {mutations} out-of-trace mutations"




def test_criterion_5_composition():
    catalogue_criterion(5, "composite certificates split and outputs validate", 60, "composition")


def test_criterion_6_localization():
    catalogue_criterion(
        6, "localization freezes certificates on exact neighborhoods", 60, "localization", seed=303
    )


def test_criterion_7_gluing():
    catalogue_criterion(7, "glued absolute value matches |q| and dispatch is sound", 30, "gluing")


def test_criterion_8_metric_space_translations():
    catalogue_criterion(
        8, "coded-space translations round-trip and mirror the real layer", 90, "metric-spaces",
        seed=404,
    )


# ---------------------------------------------------------------------------
# 9. negative controls
# ---------------------------------------------------------------------------


def test_criterion_9_negative_controls():
    with criterion(9, "sabotage is caught: drifted sums, dead searches, broken bases", 30) as info:
        sabotaged = FunctionRegistry()
        sabotaged.register(
            Entry(
                "add",
                2,
                uniform_from_rule(
                    2, lambda a, b: a + b + Fraction(1, 8), lambda t, names: 2 * t + 1, "add"
                ),
                lambda a, b: a + b,
            ),
            validate=False,
        )
        report = registry_validate(sabotaged, t_max=50)
        assert not report.passed
        assert all(not check.passed for check in report.checks)
        assert max(check.first_failure for check in report.checks) <= 7

        zero = rational_name(Fraction(0))
        for budget in (1, 100, 1000):
            with pytest.raises(BudgetExhausted):
                find_parameter(RECIP, [zero], budget)
        assert cli.main(["eval", "(recip 0)", "--budget", "1000"]) == 3

        wrapped = default_registry().override("monus", lambda x, y: (x - y) % 2**16)
        assert not decency_check(wrapped).passed

        info["detail"] = "drifted add fails by t=7; zero reciprocal exhausts budgets; wrapping monus flagged"
