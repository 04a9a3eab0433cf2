"""The ``condreal`` command line.

Commands
--------
eval EXPR       evaluate an s-expression over the registered functions to
                a requested precision, printing exact rationals
suite NAME      run one suite of the check catalogue
fns list        registered real functions
gadgets list    available base functions
gadgets eval    apply one base function to naturals
spaces list     built-in effective metric spaces

Exit codes: 0 success, 2 usage or parse error (including an expression
nested more than 100 levels deep, and a number, given or computed, with
more digits than Python prints: 4300 by default), 3 search budget
exhausted, 4 suite failure, 141 output pipe closed by the reader (the
shell's status for a process ended by SIGPIPE).
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from typing import Sequence

from .elementary import Entry, FunctionRegistry, default_functions
from .gadgets import CORE
from .metric import builtin_spaces
from .naming import (
    NameTriple,
    approx,
    format_rational,
    parse_rational,
    precision_index,
    rational_name,
)
from .realfns import (
    BudgetExhausted,
    ConditionalFn,
    apply_conditional_at,
    apply_uniform,
    find_parameter,
)
from .sexpr import SexprError, nesting, parse_sexpr

__all__ = ["main", "main_entry"]

# Reading a lazily built name takes up to about eight interpreter frames
# per nested form, so this many levels stay well inside the default
# recursion limit.
_MAX_NESTING = 100

_TOO_DEEP = "error: expression nested too deeply (at most {} levels)"

_parser: argparse.ArgumentParser | None = None  # built on the first ``main`` call


class _UsageError(Exception):
    """Bad expression or unknown name; maps to exit code 2."""


def _natural(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be a natural number")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="condreal",
        description="exact rational approximation of computable real functions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser(
        "eval", help="evaluate an s-expression, e.g. '(add 1/2 (recip 3))'"
    )
    p_eval.add_argument("expr", help="s-expression over registered functions")
    p_eval.add_argument(
        "--eps", default="1/1000", help="rational precision target (default 1/1000)"
    )
    p_eval.add_argument(
        "--budget",
        type=_natural,
        default=10**6,
        help="parameter search bound for conditional functions",
    )
    p_eval.add_argument(
        "--decimal",
        action="store_true",
        help="also print a decimal rendering (approximate, never authoritative)",
    )

    p_suite = sub.add_parser("suite", help="run one suite of the check catalogue")
    p_suite.add_argument("name", help="suite to run; an unknown name lists the choices")
    p_suite.add_argument("--seed", type=int, default=2021, help="sampling seed")
    p_suite.add_argument(
        "--t-max", dest="t_max", type=_natural, default=120,
        help="validation depth used by the suite",
    )

    p_fns = sub.add_parser("fns", help="registered real functions")
    fns_sub = p_fns.add_subparsers(dest="action", required=True)
    fns_sub.add_parser("list", help="print name, arity and kind")

    p_gadgets = sub.add_parser("gadgets", help="base-function library")
    g_sub = p_gadgets.add_subparsers(dest="action", required=True)
    g_sub.add_parser("list", help="print available base functions")
    g_eval = g_sub.add_parser("eval", help="apply a base function to naturals")
    g_eval.add_argument("name", help="e.g. monus, delta_2, mu_3_1, lt_1/2")
    g_eval.add_argument("args", nargs="*", type=_natural)

    p_spaces = sub.add_parser("spaces", help="effective metric spaces")
    s_sub = p_spaces.add_subparsers(dest="action", required=True)
    s_sub.add_parser("list", help="print built-in spaces")

    return parser


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


def _lookup(registry: FunctionRegistry, name: str) -> Entry:
    try:
        return registry.get(name)
    except KeyError:
        raise _UsageError(f"unknown function: {name}") from None
    except ValueError as exc:  # a constant too long to spell
        raise _UsageError(f"{name}: {exc}") from None


def _apply_entry(
    entry: Entry,
    names: list[NameTriple],
    budget: int,
    found: list[tuple[str, int]],
) -> NameTriple:
    if isinstance(entry.fn, ConditionalFn):
        s = find_parameter(entry.fn, names, budget)
        found.append((entry.name, s))
        return apply_conditional_at(entry.fn, names, s)
    return apply_uniform(entry.fn, names)


def _node_name(
    node: object,
    registry: FunctionRegistry,
    budget: int,
    found: list[tuple[str, int]],
) -> NameTriple:
    if isinstance(node, str):
        try:
            return rational_name(parse_rational(node))
        except ValueError:
            pass
        entry = _lookup(registry, node)
        if entry.n_args != 0:
            raise _UsageError(
                f"{node} takes {entry.n_args} argument(s); "
                "a bare atom must be a rational or a constant"
            )
        return _apply_entry(entry, [], budget, found)
    assert isinstance(node, list)
    if not node or not isinstance(node[0], str):
        raise _UsageError("expected (function argument...)")
    entry = _lookup(registry, node[0])
    names = [_node_name(child, registry, budget, found) for child in node[1:]]
    if len(names) != entry.n_args:
        raise _UsageError(
            f"{entry.name} takes {entry.n_args} argument(s), got {len(names)}"
        )
    return _apply_entry(entry, names, budget, found)


def _cmd_eval(args: argparse.Namespace) -> int:
    registry = default_functions()
    try:
        tree = parse_sexpr(args.expr)
        eps = parse_rational(args.eps)
        t = precision_index(eps)
    except (SexprError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if nesting(tree) > _MAX_NESTING:
        print(_TOO_DEEP.format(_MAX_NESTING), file=sys.stderr)
        return 2

    found: list[tuple[str, int]] = []
    try:
        name = _node_name(tree, registry, args.budget, found)
        value = approx(name, t)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetExhausted as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return 3
    except RecursionError:
        # a caller already deep in the stack can run out before the limit
        print(_TOO_DEEP.format(_MAX_NESTING), file=sys.stderr)
        return 2

    try:
        # spelled before anything is printed: a number may be too long to spell
        lines = [
            f"approx = {format_rational(value)}",
            f"t = {format_rational(t)}",
            f"bound = {format_rational(Fraction(1, t + 1))}",
            *(f"s[{fn_name}] = {s}" for fn_name, s in found),
        ]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    if args.decimal:
        try:
            print(f"decimal ~ {float(value):.12g} (approximate rendering)")
        except OverflowError:
            print("decimal ~ beyond the float range (approximate rendering)")
    return 0


# ---------------------------------------------------------------------------
# other commands
# ---------------------------------------------------------------------------


def _cmd_suite(args: argparse.Namespace) -> int:
    # imported here so that the other commands never load the catalogue
    from .suites import SUITE_NAMES, run_suite

    try:
        report = run_suite(args.name, seed=args.seed, t_max=args.t_max)
    except KeyError:
        print(
            f"error: unknown suite {args.name!r}; choose from: "
            + ", ".join(SUITE_NAMES),
            file=sys.stderr,
        )
        return 2
    print(f"suite {args.name} (seed={args.seed}, t-max={args.t_max})")
    for line in report.lines:
        print(line)
    print(f"result: {'PASS' if report.passed else 'FAIL'}")
    return 0 if report.passed else 4


def _cmd_fns_list() -> int:
    registry = default_functions()
    print(f"{'name':<10} {'args':>4}  kind")
    for entry in registry:
        print(f"{entry.name:<10} {entry.n_args:>4}  {entry.kind}")
    print(f"{'const_p/q':<10} {0:>4}  uniform (any rational, e.g. const_22/7)")
    return 0


def _cmd_gadgets(args: argparse.Namespace) -> int:
    if args.action == "list":
        print(f"{'name':<10} arity")
        for name in CORE.names():
            print(f"{name:<10} {CORE.get(name).arity}")
        print("families: delta_K, const_C, mu_K_C, prefix_K_C, gamma_B_C, lt_A, gt_A, ball_A_r_R")
        return 0
    try:
        fn = CORE.resolve(args.name)
    except KeyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(args.args) != fn.arity:
        print(
            f"error: {fn.name} takes {fn.arity} argument(s), got {len(args.args)}",
            file=sys.stderr,
        )
        return 2
    print(fn(*args.args))
    return 0


def _cmd_spaces_list() -> int:
    print(f"{'name':<12} {'dim':>3}  sample decode")
    for space in builtin_spaces():
        dim = "-" if space.dimension is None else str(space.dimension)
        sample = space.alpha(7)
        if isinstance(sample, tuple):
            text = "(" + ", ".join(format_rational(q) for q in sample) + ")"
        else:
            text = str(sample)
        print(f"{space.name:<12} {dim:>3}  alpha(7) = {text}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    global _parser
    _parser = _parser or build_parser()
    args = _parser.parse_args(argv)
    if args.command == "eval":
        return _cmd_eval(args)
    if args.command == "suite":
        return _cmd_suite(args)
    if args.command == "fns":
        return _cmd_fns_list()
    if args.command == "gadgets":
        return _cmd_gadgets(args)
    return _cmd_spaces_list()


def main_entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader went away (``condreal ... | head -1``).  As the Python
        # docs recommend, point stdout at devnull so that the flush at
        # interpreter exit cannot raise again.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        sys.exit(141)
    sys.exit(code)


if __name__ == "__main__":
    main_entry()
