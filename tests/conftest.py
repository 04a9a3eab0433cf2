"""Shared test plumbing.

The acceptance module records one verdict per criterion; the terminal
summary hook prints them as a block at the end of the run so the
pass/fail lines survive pytest's output capture.  ``assert_check`` runs
one check of the ``condreal.suites`` catalogue as a unit test, and
``linear_scan`` is the paper's certificate search, the oracle of the
faster one.
"""

from __future__ import annotations

from condreal.suites import run_check

_CRITERIA: list[tuple[int, str, bool, str]] = []


def record_criterion(number: int, title: str, passed: bool, detail: str = "") -> None:
    _CRITERIA.append((number, title, passed, detail))


def assert_check(check):
    """Run one catalogue check as a test, at the acceptance criteria's depth."""
    passed, line, _cases = run_check(check, seed=2021, t_max=500)
    assert passed, line


def linear_scan(certificate, fns, budget):
    """The least s < budget at which the certificate vanishes, else None."""
    applied = certificate.apply(fns)
    return next((s for s in range(budget) if applied.eval_uncached(s) == 0), None)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _CRITERIA:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for number, title, passed, detail in sorted(_CRITERIA):
        status = "PASS" if passed else "FAIL"
        suffix = f"  [{detail}]" if detail else ""
        terminalreporter.write_line(f"criterion {number}: {status} - {title}{suffix}")
