"""The four benchmark workloads.

Each ``setup_<name>(cr, rng)`` builds, from the seeded ``rng``, the
fixed list of operations one round runs.  ``cr`` carries the program's
modules (``cr.naming``, ``cr.realfns``, ...), imported afresh for every
set-up.  An operation evaluates through the program's public API and
returns raw outputs; its ``check`` compares them with ``checkers``,
which never calls the program.

The seed picks the digits of every input, never its shape: the size
classes of the grid points, the probe counts of the searches and the
domains of the constructions are fixed, so the cost of a round hardly
depends on the seed.
"""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Callable

import checkers

GRID_POINTS = 12          # points per builtin
GRID_DEPTH = 200          # every output name is read at t = 0..GRID_DEPTH
# (numerator digits, denominator digits) of the grid coordinates, cycled
GRID_SIZES = ((0, 0), (1, 1), (2, 3), (4, 6), (1, 5), (3, 1))
RECIP_BUDGET = 10_000

# probe targets of the seeded searches: s = floor(2/|x|) lands within 0.5%
SEARCH_TARGETS = (8_000, 4_000, 2_000, 6_000)
EXHAUST_BUDGET = 20_000
EXHAUST_EXPR = "(recip (sub 1/3 1/3))"

CONSTRUCTION_POINTS = 6   # points per construction, unless given
CONSTRUCTION_DEPTH = 150
CODED_DEPTH = 100
CHAIN = 8                 # negations composed in the term-backed composite
SEPARATION = 15


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    glued_indices: int = 0  # output indices read from a glued function


@dataclass
class Workload:
    ops: list[Op]
    composed_nodes: int = 0  # distinct nodes of the term-backed results


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def _rational(rng: Random, num_digits: int, den_digits: int) -> Fraction:
    num = rng.randrange(10**num_digits, 10 ** (num_digits + 1))
    den = rng.randrange(10**den_digits, 10 ** (den_digits + 1))
    return Fraction(num if rng.random() < 0.5 else -num, den)


def _between(rng: Random, lo: Fraction, hi: Fraction, den: int) -> Fraction:
    """A seeded rational in [lo, hi] with denominator dividing ``den``."""
    a, b = math.ceil(lo * den), math.floor(hi * den)
    return Fraction(rng.randrange(a, b + 1), den)


def _signed(rng: Random, q: Fraction) -> Fraction:
    return q if rng.random() < 0.5 else -q


def _near_zero(rng: Random, target: int) -> Fraction:
    """A nonzero x with floor(2/|x|) within 0.5% of ``target``."""
    s = target + rng.randrange(-target // 200, target // 200 + 1)
    return _signed(rng, 2 / (s + Fraction(rng.randrange(1, 1000), 1000)))


def _band(rng: Random, s: int) -> Fraction:
    """A seeded positive q with floor(2/q) = s: a reciprocal certifies at s."""
    lo, hi = Fraction(2, s + 1), Fraction(2, s)
    return lo + (hi - lo) * Fraction(rng.randrange(1, 1000), 1000)


# ---------------------------------------------------------------------------
# reading names
# ---------------------------------------------------------------------------


def _read_triples(name, depth: int) -> list[tuple[int, int, int]]:
    f, g, h = name.f, name.g, name.h
    return [(f(t), g(t), h(t)) for t in range(depth + 1)]


def _read_codes(name, depth: int) -> list[int]:
    f = name.f
    return [f(t) for t in range(depth + 1)]


def _term_nodes(operators) -> int:
    seen: set[int] = set()
    stack = [op.term.node for op in operators]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if hasattr(node, "sub"):
            stack.append(node.sub)
        stack.extend(getattr(node, "subs", ()))
    return len(seen)


# ---------------------------------------------------------------------------
# grid
# ---------------------------------------------------------------------------


def setup_grid(cr, rng: Random) -> Workload:
    registry = cr.elementary.default_functions()
    ops = []
    for name, reference in checkers.REFERENCE.items():
        entry = registry.get(name)
        for i in range(GRID_POINTS):
            if name == "recip":
                # away from zero, so the search stays short
                point = (_signed(rng, _band(rng, 1 + i % 4)),)
            else:
                nd, dd = GRID_SIZES[i % len(GRID_SIZES)]
                point = tuple(_rational(rng, nd, dd) for _ in range(entry.n_args))
            ops.append(_grid_op(cr, name, entry.fn, point, reference(*point)))
    return Workload(ops)


def _grid_op(cr, name, fn, point, value) -> Op:
    naming, realfns = cr.naming, cr.realfns
    conditional = isinstance(fn, realfns.ConditionalFn)

    def run():
        names = [naming.rational_name(q) for q in point]
        s = None
        if conditional:
            s = realfns.find_parameter(fn, names, RECIP_BUDGET)
            out = realfns.apply_conditional_at(fn, names, s)
        else:
            out = realfns.apply_uniform(fn, names)
        return s, _read_triples(out, GRID_DEPTH)

    def check(result):
        s, triples = result
        if conditional and s != checkers.least_certificate(point[0]):
            return f"s={s}, least certificate is {checkers.least_certificate(point[0])}"
        return checkers.name_error(triples, value)

    return Op(f"{name}{point}", run, check)


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------


def _search_expressions(rng: Random) -> list[str]:
    def diff(target):
        a = _rational(rng, 2, 2)
        return f"(sub {a} {a - _near_zero(rng, target)})"

    s1, s2, s3, s4 = SEARCH_TARGETS
    c, d = _rational(rng, 1, 1), _rational(rng, 1, 1)
    # the factor e keeps the product's floor(2/|x|) near s3
    e = _signed(rng, Fraction(rng.randrange(2, 9)))
    return [
        f"(recip {diff(s1)})",
        f"(add {c} (recip {diff(s2)}))",
        f"(mul {d} (recip (mul {diff(s3 * abs(e.numerator))} {e})))",
        f"(recip (recip {diff(s4)}))",
    ]


def setup_search(cr, rng: Random) -> Workload:
    ops = []
    for i, expr in enumerate(_search_expressions(rng)):
        eps = f"1/{10 ** (3 + i % 3)}"
        ops.append(_search_op(cr, ["eval", expr, "--eps", eps], expr))
    exhaust = ["eval", EXHAUST_EXPR, "--budget", str(EXHAUST_BUDGET)]
    ops.append(Op(EXHAUST_EXPR, _cli_runner(cr, exhaust), _check_exhausted))
    return Workload(ops)


def _cli_runner(cr, argv):
    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cr.cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    return run


def _check_exhausted(result) -> str | None:
    code, out, err = result
    if code != 3 or out or "budget exhausted" not in err:
        return f"expected exit 3 with 'budget exhausted', got {code}: {out!r} {err!r}"
    return None


def _search_op(cr, argv, expr) -> Op:
    value, recip_args = checkers.eval_sexpr(expr)

    def check(result):
        code, out, err = result
        if code != 0:
            return f"exit {code}: {err.strip()}"
        fields, found = {}, []
        for line in out.splitlines():
            key, _, text = line.partition(" = ")
            if key.startswith("s["):
                found.append(int(text))
            else:
                fields[key] = text
        t = int(fields["t"])
        if Fraction(fields["bound"]) != Fraction(1, t + 1):
            return f"bound {fields['bound']} at t={t}"
        approx = Fraction(fields["approx"])
        if not abs(approx - value) < Fraction(1, t + 1):
            return f"approx {approx} misses {value} at t={t}"
        if len(found) != len(recip_args):
            return f"{len(found)} s lines for {len(recip_args)} reciprocals"
        for s, x in zip(found, recip_args):
            if x is not None and not (abs(x) * (s + 1) > 2 and s == checkers.least_certificate(x)):
                return f"s={s} is not the least certificate for {x}"
        return None

    return Op(expr, _cli_runner(cr, argv), check)


# ---------------------------------------------------------------------------
# shared inputs of the constructions
# ---------------------------------------------------------------------------


def _inputs(cr):
    """Procedure-backed and term-backed unary functions."""
    el, rf, tm = cr.elementary, cr.realfns, cr.terms
    registry = el.default_functions()

    def slot(i):
        return rf.TermOperator(tm.OperatorTerm(3, 1, tm.Apply(i, tm.Proj(1))))

    return {
        "recip": registry.get("recip").fn,
        "add": registry.get("add").fn,
        "negate": registry.get("negate").fn,
        "abs": registry.get("abs").fn,
        "identity": el.uniform_from_rule(1, lambda a: a, lambda t, names: t, "identity"),
        "double": el.uniform_from_rule(1, lambda a: 2 * a, lambda t, names: 2 * t + 1, "double"),
        # negation swaps the f and g slots of the name
        "negate_term": rf.UniformFn(1, slot(2), slot(1), slot(3)),
        "identity_term": rf.identity_uniform(),
    }


def _points(rng: Random, lo: Fraction, hi: Fraction, n: int = CONSTRUCTION_POINTS) -> list[Fraction]:
    """Point i lies in the i-th of n equal slices of [lo, hi], with sign (-1)^i.

    Fixed slices keep the cost of a round seed-independent: a gadget's
    work depends on where its argument lies, not only on its size.
    """
    dens = (7, 16, 97, 997)
    width = (hi - lo) / n
    points = []
    for i in range(n):
        q = _between(rng, lo + i * width, lo + (i + 1) * width, den=dens[i % len(dens)])
        points.append(-q if i % 2 else q)
    return points


def _certified(rng: Random, n: int = CONSTRUCTION_POINTS) -> list[Fraction]:
    """Points whose reciprocals certify at s = 1, 2, 3 in turn."""
    return [_band(rng, 1 + i % 3) * (-1 if i % 2 else 1) for i in range(n)]


def _near(rng: Random, anchor: Fraction, cutoff: int, n: int = CONSTRUCTION_POINTS) -> list[Fraction]:
    """Points strictly within 1/(cutoff+1) of the anchor."""
    den = 100 * (cutoff + 2)
    return [anchor + Fraction(rng.randrange(-99, 100), den) for _ in range(n)]


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------

ONE, EIGHTH = Fraction(1), Fraction(1, 8)


def _real_cover(cr, fns, term: bool):
    Ball, BallCover = cr.realfns.Ball, cr.realfns.BallCover
    if term:
        balls = (Ball((-ONE,), ONE, fns["negate_term"]), Ball((ONE,), ONE, fns["identity_term"]))
    else:
        balls = (
            Ball((-ONE,), ONE, fns["negate"]),
            Ball((ONE,), ONE, fns["identity"]),
            Ball((Fraction(0),), Fraction(1, 4), fns["abs"]),
        )
    return BallCover(balls, separation=SEPARATION)


def setup_constructions(cr, rng: Random) -> Workload:
    rf = cr.realfns
    fns = _inputs(cr)
    embed = rf.embed_uniform

    compose_proc = rf.compose_conditional(fns["recip"], embed(fns["negate"]))
    compose_term = embed(fns["identity_term"])
    for _ in range(CHAIN):
        compose_term = rf.compose_conditional(embed(fns["negate_term"]), compose_term)
    anchor_p = _signed(rng, _band(rng, 2))
    hood_p, local_proc = rf.localize(fns["recip"], cr.naming.rational_name(anchor_p), RECIP_BUDGET)
    anchor_t = _rational(rng, 0, 0)
    hood_t, local_term = rf.localize(compose_term, cr.naming.rational_name(anchor_t), RECIP_BUDGET)
    glue_proc = rf.glue_compact(_real_cover(cr, fns, term=False))
    glue_term = rf.glue_compact(_real_cover(cr, fns, term=True))

    # the counts put the median operation inside the compose-proc group
    # (the cheap compositions and localizations below it, gluing above),
    # so op_median_ms does not jump between two groups from seed to seed
    cases = [
        ("compose-proc", compose_proc, _certified(rng, 9), lambda q: -1 / q, 0),
        ("compose-term", compose_term, _points(rng, Fraction(0), Fraction(9), 4), lambda q: q, 0),
        ("localize-proc", local_proc, _near(rng, anchor_p, hood_p.cutoff, 4), lambda q: 1 / q, 0),
        ("localize-term", local_term, _near(rng, anchor_t, hood_t.cutoff, 4), lambda q: q, 0),
        ("glue-proc", glue_proc, _points(rng, Fraction(0), ONE, 5), abs, 1),
        ("glue-term", glue_term, _points(rng, EIGHTH, ONE, 5), abs, 1),
    ]
    ops = [
        _construction_op(cr, label, fn, q, reference(q), glued)
        for label, fn, points, reference, glued in cases
        for q in points
    ]
    terms_out = [compose_term.E, compose_term.F, compose_term.G, compose_term.H]
    for fn in (local_term, glue_term):
        terms_out += [fn.F, fn.G, fn.H]
    return Workload(ops, composed_nodes=_term_nodes(terms_out))


def _construction_op(cr, label, fn, q, value, glued) -> Op:
    rf, naming = cr.realfns, cr.naming
    conditional = isinstance(fn, rf.ConditionalFn)

    def run():
        names = [naming.rational_name(q)]
        if conditional:
            out = rf.apply_conditional(fn, names, RECIP_BUDGET)
        else:
            out = rf.apply_uniform(fn, names)
        return _read_triples(out, CONSTRUCTION_DEPTH)

    return Op(
        f"{label}({q})",
        run,
        lambda triples: checkers.name_error(triples, value),
        glued_indices=glued * (CONSTRUCTION_DEPTH + 1),
    )


# ---------------------------------------------------------------------------
# coded
# ---------------------------------------------------------------------------


def setup_coded(cr, rng: Random) -> Workload:
    ms, rf = cr.metric, cr.realfns
    fns = _inputs(cr)
    unif, cond = ms.translate_uniform, ms.translate_conditional
    lift = lambda name: ms.embed_uniform_ms(unif(fns[name]))  # noqa: E731

    compose_proc = ms.compose_conditional_ms(cond(fns["recip"]), lift("negate"))
    compose_term = ms.compose_conditional_ms(lift("negate_term"), lift("identity_term"))
    anchor_p = _signed(rng, _band(rng, 2))
    hood_p, local_proc = ms.localize_ms(cond(fns["recip"]), ms.mn_name((anchor_p,)), RECIP_BUDGET)
    anchor_t = _rational(rng, 0, 0)
    hood_t, local_term = ms.localize_ms(
        cond(rf.embed_uniform(fns["negate_term"])), ms.mn_name((anchor_t,)), RECIP_BUDGET
    )
    margin = Fraction(1, SEPARATION + 1)
    proc_cover = ms.MsBallCover(
        (
            ms.MsBall(ms.mn_code((-ONE,)), ONE, unif(fns["negate"])),
            ms.MsBall(ms.mn_code((ONE,)), ONE, unif(fns["identity"])),
            ms.MsBall(ms.mn_code((Fraction(0),)), Fraction(1, 4), unif(fns["abs"])),
        ),
        separation=SEPARATION,
    )
    term_cover = ms.MsBallCover(
        tuple(
            ms.MsBall(
                ms.mn_code((c,)),
                ONE,
                unif(fns[local]),
                ms.code_ball_indicator(1, ms.mn_code((c,)), ONE - margin),
            )
            for c, local in ((-ONE, "negate_term"), (ONE, "identity_term"))
        ),
        separation=SEPARATION,
    )
    # 1/q + 2q: add over M_2, fed by the tupled pair (1/q, 2q)
    bundle = ms.tuple_conditional([cond(fns["recip"]), lift("double")])
    substitution = ms.compose_conditional_ms(lift("add"), bundle)

    cases = [
        ("compose-proc", compose_proc, _certified(rng), lambda q: -1 / q, 0),
        ("compose-term", compose_term, _points(rng, Fraction(0), Fraction(9)), lambda q: -q, 0),
        ("localize-proc", local_proc, _near(rng, anchor_p, hood_p.cutoff), lambda q: 1 / q, 0),
        ("localize-term", local_term, _near(rng, anchor_t, hood_t.cutoff), lambda q: -q, 0),
        ("glue-proc", ms.glue_compact_ms(proc_cover), _points(rng, Fraction(0), ONE), abs, 1),
        ("glue-term", ms.glue_compact_ms(term_cover), _points(rng, EIGHTH, ONE), abs, 1),
        ("substitution", substitution, _certified(rng), lambda q: 1 / q + 2 * q, 0),
    ]
    ops = [
        _coded_op(cr, label, fn, q, reference(q), glued)
        for label, fn, points, reference, glued in cases
        for q in points
    ]
    return Workload(ops)


def _coded_op(cr, label, fn, q, value, glued) -> Op:
    ms = cr.metric
    conditional = isinstance(fn, ms.MsConditionalFn)

    def run():
        name = ms.mn_name((q,))
        if conditional:
            out = ms.apply_conditional_ms(fn, name, RECIP_BUDGET)
        else:
            out = ms.apply_uniform_ms(fn, name)
        return _read_codes(out, CODED_DEPTH)

    return Op(
        f"{label}({q})",
        run,
        lambda codes: checkers.code_error(codes, value),
        glued_indices=glued * (CODED_DEPTH + 1),
    )


SETUPS = {
    "grid": setup_grid,
    "search": setup_search,
    "constructions": setup_constructions,
    "coded": setup_coded,
}
