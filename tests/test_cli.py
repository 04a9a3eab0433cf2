import io
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condreal import cli, suites
from condreal.gadgets import tuple_pack
from condreal.realfns import BallCover, find_parameter, glue_compact, localize
from condreal.terms import compose_terms


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def test_eval_prints_the_approximation_block(capsys):
    code, out, err = run(capsys, "eval", "(add 1/2 1/3)", "--eps", "1/100")
    assert code == 0
    assert err == ""
    lines = out.splitlines()
    assert lines[0] == "approx = 5/6"
    assert lines[1] == "t = 99"
    assert lines[2] == "bound = 1/100"


def test_module_entry_point_exits_3_on_budget_exhaustion():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    argv = ["eval", "(recip (sub 1/3 1/3))", "--budget", "20"]
    proc = subprocess.run(
        [sys.executable, "-m", "condreal.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 3, proc.stderr
    assert "budget exhausted" in proc.stderr


def test_eval_bare_rational(capsys):
    code, out, _ = run(capsys, "eval", "7/3", "--eps", "1")
    assert code == 0
    assert out.splitlines()[0] == "approx = 7/3"
    # a leading-dash literal needs the usual end-of-options marker
    code, out, _ = run(capsys, "eval", "--eps", "1", "--", "-22/7")
    assert code == 0
    assert out.splitlines()[0] == "approx = -22/7"


def test_eval_reports_search_parameters(capsys):
    code, out, _ = run(capsys, "eval", "(recip (recip 7/3))")
    assert code == 0
    s_lines = [line for line in out.splitlines() if line.startswith("s[recip] = ")]
    assert s_lines == ["s[recip] = 0", "s[recip] = 4"]
    assert "approx = 7/3" in out


def test_eval_decimal_rendering_is_labeled_approximate(capsys):
    code, out, _ = run(capsys, "eval", "(recip 3)", "--decimal")
    assert code == 0
    assert "decimal ~ 0.333333333333 (approximate rendering)" in out


def test_eval_uses_aliases_and_constants(capsys):
    code, out, _ = run(capsys, "eval", "(neg (reciprocal const_2))", "--eps", "1")
    assert code == 0
    assert "approx = -1/2" in out


def test_eval_nullary_entries_need_no_parens(capsys):
    code, out, _ = run(capsys, "eval", "const_3/4", "--eps", "1")
    assert code == 0
    assert "approx = 3/4" in out


def test_eval_rejects_malformed_expressions(capsys):
    for expr in ("(add 1/2", "(add 1/2))", "()", "(1/2 3)"):
        code, _, err = run(capsys, "eval", expr)
        assert code == 2
        assert err.startswith("error:")


def test_eval_rejects_unknown_functions_and_bad_arity(capsys):
    code, _, err = run(capsys, "eval", "(frobnicate 1)")
    assert code == 2
    assert "unknown function" in err
    code, _, err = run(capsys, "eval", "(add 1/2)")
    assert code == 2
    assert "takes 2 argument(s)" in err
    code, _, err = run(capsys, "eval", "(add 1/2 1/3)", "--eps", "0")
    assert code == 2


def nested_negations(depth):
    return "(negate " * depth + "1" + ")" * depth


def test_eval_rejects_deep_nesting_with_exit_two(capsys):
    code, out, err = run(capsys, "eval", nested_negations(600))
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert "nested too deeply" in err


def test_eval_still_evaluates_a_hundred_nested_forms(capsys):
    code, out, err = run(capsys, "eval", nested_negations(100), "--eps", "1/10")
    assert code == 0
    assert "approx = 1" in out.splitlines()
    assert err == ""


def test_eval_budget_exhaustion_is_exit_three(capsys):
    code, _, err = run(capsys, "eval", "(recip 0)", "--budget", "1000")
    assert code == 3
    assert "budget exhausted" in err


ARITY = {"abs": 1, "neg": 1, "recip": 1, "add": 2, "max": 2, "min": 2, "mul": 2, "sub": 2}
NUMBERS = ["0", "1/3", "-2/7", "5", "-1", "const_22/7", "1e3000", "1e-4000"]
GARBAGE = ["nosuch", "x", "()", "(", ")", "const_1/0", "(add 1)"]


def random_expression(rng, depth):
    """Mostly well-formed: garbage and a wrong argument count are rare."""
    if rng.random() < 0.02:
        return rng.choice(GARBAGE)
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(NUMBERS)
    name = rng.choice(sorted(ARITY))
    n_args = ARITY[name] if rng.random() < 0.97 else rng.randrange(4)
    return "(" + " ".join([name, *(random_expression(rng, depth - 1) for _ in range(n_args))]) + ")"


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_eval_of_random_input_exits_with_a_documented_code(seed):
    rng = Random(seed)
    argv = [
        "eval",
        f"--budget={rng.randrange(10**4 + 1)}",
        "--eps=" + rng.choice(["1/1000", "1/7", "1", "1e-30"] * 3 + ["0", "-1/2", "abc"]),
        "--",
        random_expression(rng, 4),
    ]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 2, 3), (argv, err.getvalue())
    assert "Traceback" not in out.getvalue() + err.getvalue()
    assert (code == 0) == out.getvalue().startswith("approx = ")


# ---------------------------------------------------------------------------
# suite
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    [
        ["1e4400"],
        ["(mul 1e3000 1e3000)"],
        ["const_1e5000"],
        ["(add 1 1)", "--eps", "1e-5000"],
    ],
)
def test_eval_numbers_too_long_to_print_are_exit_two(capsys, argv):
    code, out, err = run(capsys, "eval", *argv)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ") and "too many digits to print" in err


def test_eval_decimal_beyond_the_float_range_still_prints(capsys):
    code, out, _ = run(capsys, "eval", "(mul 1e400 -1)", "--decimal", "--eps", "1")
    assert code == 0
    assert out.splitlines()[0] == f"approx = {-10**400}"
    assert out.splitlines()[-1].startswith("decimal ~ beyond the float range")


def test_suite_pass_is_exit_zero(capsys):
    code, out, _ = run(capsys, "suite", "gadgets", "--t-max", "40")
    assert code == 0
    assert out.splitlines()[0] == "suite gadgets (seed=2021, t-max=40)"
    assert out.rstrip().endswith("result: PASS")
    assert all(not line.startswith("FAIL") for line in out.splitlines())


def test_suite_accepts_aliases(capsys):
    code, out, _ = run(capsys, "suite", "compose", "--t-max", "40")
    assert code == 0
    assert "result: PASS" in out


def test_suite_unknown_name_is_exit_two(capsys):
    code, _, err = run(capsys, "suite", "nosuch")
    assert code == 2
    assert "unknown suite" in err
    assert "metric-spaces" in err


def off_by_one_localize(fn, at, budget):
    hood, local = localize(fn, at, budget)
    return replace(hood, cutoff=hood.cutoff - 1, anchor=hood.anchor[:-1]), local


# one subtly wrong library function per suite, as the catalogue sees it
SABOTAGE = {
    "gadgets": ("tuple_pack", lambda values: tuple_pack(list(values)[::-1])),
    "curry": ("compose_terms", lambda outer, inners: compose_terms(outer, inners[::-1])),
    "composition": ("find_parameter", lambda fn, names, budget: find_parameter(fn, names, 1)),
    "localization": ("localize", off_by_one_localize),
    "gluing": (
        "glue_compact",
        lambda cover: glue_compact(BallCover(cover.balls[::-1], cover.separation)),
    ),
    "metric-spaces": (
        "find_parameter",
        lambda fn, name, budget: find_parameter(fn, name, budget) + 1,
    ),
}


@pytest.mark.parametrize("name", suites.SUITE_NAMES)
def test_a_subtly_wrong_library_function_fails_its_suite(capsys, monkeypatch, name):
    monkeypatch.setattr(suites, *SABOTAGE[name])
    report = suites.run_suite(name, t_max=40)
    assert not report.passed
    assert any(line.startswith("FAIL: ") for line in report.lines)
    code, out, _ = run(capsys, "suite", name, "--t-max", "40")
    assert code == 4
    assert "\nFAIL: " in out
    assert out.rstrip().endswith("result: FAIL")


def test_a_check_that_raises_is_a_fail_line(monkeypatch):
    monkeypatch.setattr(suites, *SABOTAGE["composition"])
    lines = suites.run_suite("composition").lines
    assert any(line.startswith("ok: ") for line in lines)  # certified at s = 0
    assert any(
        line.startswith("FAIL: ") and "[raised BudgetExhausted: " in line for line in lines
    )


def test_a_closed_output_pipe_is_exit_141(monkeypatch, tmp_path):
    class ClosedPipe:
        def __init__(self):
            self.file = open(tmp_path / "stdout", "w")

        def write(self, text):
            raise BrokenPipeError

        def flush(self):
            raise BrokenPipeError

        def fileno(self):
            return self.file.fileno()

    monkeypatch.setattr(sys, "argv", ["condreal", "eval", "(recip 3)", "--decimal"])
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    with pytest.raises(SystemExit) as info:
        cli.main_entry()
    assert info.value.code == 141


# ---------------------------------------------------------------------------
# listings
# ---------------------------------------------------------------------------


def test_fns_list_names_every_builtin_and_the_constant_family(capsys):
    code, out, _ = run(capsys, "fns", "list")
    assert code == 0
    for name in ("negate", "abs", "add", "sub", "mul", "min", "max", "recip"):
        assert any(line.startswith(name) for line in out.splitlines())
    assert "const_p/q" in out
    assert "conditional" in out


def test_gadgets_list_shows_arities_and_families(capsys):
    code, out, _ = run(capsys, "gadgets", "list")
    assert code == 0
    assert any(line.split() == ["succ", "1"] for line in out.splitlines())
    assert any(line.split() == ["delta_1", "3"] for line in out.splitlines())
    assert "families:" in out


def test_gadgets_eval_applies_resolved_spellings(capsys):
    code, out, _ = run(capsys, "gadgets", "eval", "monus", "3", "5")
    assert (code, out.strip()) == (0, "0")
    code, out, _ = run(capsys, "gadgets", "eval", "delta_2", "1", "9", "0", "7", "5")
    assert (code, out.strip()) == (0, "7")
    code, out, _ = run(capsys, "gadgets", "eval", "lt_1/2", "0", "1", "0")
    assert code == 0
    assert int(out.strip()) > 0


def test_gadgets_eval_handles_long_comparisons(capsys):
    # lt_2000/1999 compares 2000 copies against 1999 in gamma
    code, out, err = run(capsys, "gadgets", "eval", "lt_2000/1999", "1", "0", "0")
    assert code == 0
    assert int(out.strip()) > 0
    assert err == ""


def test_gadgets_eval_handles_long_selectors(capsys):
    # delta_1000 dispatches over 1000 guard/value pairs, then the default
    code, out, err = run(capsys, "gadgets", "eval", "delta_1000", *["1"] * 2000, "0")
    assert (code, out.strip(), err) == (0, "0", "")


def test_gadgets_eval_rejects_unknown_names_and_bad_arity(capsys):
    code, _, err = run(capsys, "gadgets", "eval", "nosuch", "1")
    assert code == 2
    assert "error" in err
    code, _, err = run(capsys, "gadgets", "eval", "succ")
    assert code == 2
    assert "takes 1 argument(s)" in err


def test_spaces_list_decodes_a_sample_code(capsys):
    code, out, _ = run(capsys, "spaces", "list")
    assert code == 0
    lines = out.splitlines()
    assert any(line.startswith("M_1") and "alpha(7) =" in line for line in lines)
    assert any(line.startswith("discrete_8") for line in lines)


def test_argparse_usage_errors_exit_two():
    with pytest.raises(SystemExit) as info:
        cli.main(["eval"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        cli.main(["nosuchcommand"])
    assert info.value.code == 2


def test_one_parser_per_process_parses_each_call_as_a_fresh_one_would(capsys, monkeypatch):
    # options set by one call (--eps, --decimal, --budget) must not carry over
    calls = [
        ["eval", "(add 1/2 (recip 3))", "--eps", "1/10", "--decimal"],
        ["fns", "list"],
        ["eval", "(add 1/2 (recip 3))"],
        ["gadgets", "eval", "lt_2", "1", "0", "0"],
        ["eval", "(recip 7/3)", "--budget", "5"],
        ["spaces", "list"],
    ]
    fresh = []
    for argv in calls:
        monkeypatch.setattr(cli, "_parser", None)
        fresh.append(run(capsys, *argv))
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    monkeypatch.setattr(cli, "_parser", None)
    assert [run(capsys, *argv) for argv in calls] == fresh
    assert built == [1]
    assert fresh[0][1] != fresh[2][1] and fresh[4][0] == 0
    # a usage error on a later call still exits 2
    with pytest.raises(SystemExit) as info:
        cli.main(["eval", "(recip 3)", "--budget", "-1"])
    assert info.value.code == 2
    assert built == [1]
