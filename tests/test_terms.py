from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from condreal import suites
from condreal.gadgets import CORE, default_registry
from condreal.naming import NatFun, recording
from condreal.sampling import random_natfun, random_term
from condreal.sexpr import SexprError
from condreal.terms import (
    Apply,
    ArityMismatch,
    Base,
    BaseFunction,
    OperatorTerm,
    Proj,
    TermProgram,
    _subst_numeric,
    compose_terms,
    curry,
    diagonalize,
    eval_instrumented,
    eval_term,
    MAX_TERM_DEPTH,
    parse_term,
    print_term,
    representable_lift,
    support_bound,
    uncurry,
)

from conftest import assert_check


def naive_eval(term, fns, args):
    """Reference interpreter written independently of the package one."""

    def ev(node):
        if isinstance(node, Proj):
            return args[node.index - 1]
        if isinstance(node, Apply):
            return fns[node.index - 1](ev(node.sub))
        return node.fn.fn(*[ev(sub) for sub in node.subs])

    return ev(term.node)


def sample_fns(rng, k):
    return tuple(random_natfun(rng) for _ in range(k))


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def test_eval_matches_naive_interpreter_on_random_terms():
    rng = Random(11)
    for _ in range(300):
        k, m = rng.randrange(1, 4), rng.randrange(1, 4)
        term = random_term(rng, k, m, 5)
        fns = sample_fns(rng, k)
        args = tuple(rng.randrange(10) for _ in range(m))
        assert eval_term(term, fns, args) == naive_eval(term, fns, args)


def shared_triple(seed, k):
    """Three terms sharing subterms, by identity and by structure only.

    The third term is rebuilt from the same seed as the first, so it is
    equal to it node for node without sharing any node object.
    """
    first = random_term(Random(seed), k, 1, 4)
    again = random_term(Random(seed), k, 1, 4)
    pair_fn = CORE.get("pair")
    second = Base(pair_fn, (Apply(1, first.node), again.node))
    return first, OperatorTerm(k, 1, second), again


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=1, max_value=3))
def test_one_program_for_terms_with_shared_subterms_matches_the_naive_interpreter(seed, k):
    rng = Random(seed)
    terms = shared_triple(seed, k)
    program = TermProgram(terms)
    # equal subterms are one step; the rebuilt copy is the first term's value
    assert program.roots[0] == program.roots[2]
    assert len(program.steps) == len(TermProgram(terms[:2]).steps)
    fns = sample_fns(rng, k)
    for n in range(6):
        assert eval_term(program, fns, (n,)) == tuple(naive_eval(t, fns, (n,)) for t in terms)


def test_a_program_evaluates_every_distinct_node_once():
    calls = []
    spy = NatFun(lambda t: calls.append(t) or t + 1, memoize=False)
    succ = CORE.get("succ")
    read = Apply(1, Proj(1))
    terms = [
        OperatorTerm(1, 1, read),
        OperatorTerm(1, 1, Base(succ, (Apply(1, Proj(1)),))),
        OperatorTerm(1, 1, Base(succ, (Apply(1, Proj(1)),))),
    ]
    program = TermProgram(terms)
    assert len(program.steps) == 2
    assert eval_term(program, (spy,), (4,)) == (5, 6, 6)
    assert calls == [4]


def test_a_program_keys_base_nodes_by_their_callable_not_their_name():
    good = CORE.get("monus")
    broken = default_registry().override("monus", lambda x, y: (x - y) % 2**16).get("monus")
    assert broken == good  # equal as term nodes: the same name and arity
    args = (Apply(1, Proj(1)), Apply(2, Proj(1)))
    terms = [OperatorTerm(2, 1, Base(good, args)), OperatorTerm(2, 1, Base(broken, args))]
    fns = (NatFun.constant(1), NatFun.constant(3))
    assert eval_term(TermProgram(terms), fns, (0,)) == (0, 2**16 - 2)


def test_a_program_checks_its_terms_and_arguments():
    for terms in ([], [OperatorTerm(1, 1, Proj(1)), OperatorTerm(2, 1, Proj(1))]):
        with pytest.raises(ArityMismatch):
            TermProgram(terms)
    program = TermProgram([OperatorTerm(1, 1, Apply(1, Proj(1)))] * 3)
    with pytest.raises(ArityMismatch):
        eval_term(program, (), (0,))
    assert eval_term(program, (NatFun.identity(),), (7,)) == (7, 7, 7)


def test_eval_checks_arities():
    term = OperatorTerm(1, 1, Apply(1, Proj(1)))
    with pytest.raises(ArityMismatch):
        eval_term(term, (), (3,))
    with pytest.raises(ArityMismatch):
        eval_term(term, (NatFun.identity(),), ())


def test_term_constructor_rejects_out_of_range_slots():
    with pytest.raises(ArityMismatch):
        OperatorTerm(1, 1, Proj(2))
    with pytest.raises(ArityMismatch):
        OperatorTerm(1, 1, Apply(2, Proj(1)))
    with pytest.raises(ArityMismatch):
        OperatorTerm(0, 1, Base(CORE.get("succ"), (Proj(1), Proj(1))))


def test_representable_lift_is_pointwise():
    mul = CORE.get("mul")
    lift = representable_lift(mul)
    fns = (NatFun.identity(), NatFun(lambda t: t + 3, memoize=False))
    for n in range(8):
        assert eval_term(lift, fns, (n,)) == n * (n + 3)


# ---------------------------------------------------------------------------
# rewrites
# ---------------------------------------------------------------------------


def test_curry_defining_equality():
    # also uncurry(curry(T)) == T, structurally and pointwise
    assert_check(suites.currying)


def test_uncurry_defining_equality():
    assert_check(suites.uncurrying)


def test_uncurry_inverts_curry_structurally_and_pointwise():
    rng = Random(31)
    for _ in range(60):
        term = random_term(rng, 2, 2, 4)
        back = uncurry(curry(term))
        assert back == term
        fns = sample_fns(rng, 2)
        args = (rng.randrange(9), rng.randrange(9))
        assert eval_term(back, fns, args) == eval_term(term, fns, args)


def test_curry_inverts_uncurry_only_up_to_constant_slots():
    # un-currying forgets how the final slot was probed, so the round
    # trip agrees on constant final slots; a term that probes the slot
    # at two different points separates the two in general
    rng = Random(37)
    for _ in range(40):
        term = random_term(rng, 2, 1, 4)
        back = curry(uncurry(term))
        f1 = sample_fns(rng, 1)[0]
        c, n = rng.randrange(9), rng.randrange(9)
        fns = (f1, NatFun.constant(c))
        assert eval_term(term, fns, (n,)) == eval_term(back, fns, (n,))

    probing = OperatorTerm(1, 1, Apply(1, Apply(1, Proj(1))))
    collapsed = curry(uncurry(probing))
    fns = (NatFun(lambda t: t + 1, memoize=False),)
    assert eval_term(probing, fns, (0,)) == 2
    assert eval_term(collapsed, fns, (0,)) == 1


def test_multi_curry_eliminates_every_numeric_slot():
    assert_check(suites.iterated_currying)


def test_diagonalize_matches_direct_definition():
    assert_check(suites.diagonalization)


def test_compose_terms_matches_two_stage_evaluation():
    assert_check(suites.grafting)


def distinct_nodes(node):
    seen, stack = set(), [node]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack += [node.sub] if isinstance(node, Apply) else getattr(node, "subs", ())
    return len(seen)


def test_a_600_fold_composition_chain_composes_and_evaluates():
    step = OperatorTerm(1, 1, Base(CORE.get("succ"), (Apply(1, Proj(1)),)))
    chain = step
    for _ in range(600):
        chain = compose_terms(step, [chain])
    assert eval_term(chain, (NatFun.identity(),), (0,)) == 601
    assert support_bound(chain) == 1  # the argument is read once, at n


def test_self_composition_keeps_shared_subterms_shared():
    step = OperatorTerm(1, 1, Base(CORE.get("conj"), (Apply(1, Proj(1)), Apply(1, Proj(1)))))
    doubled = step
    for _ in range(14):
        doubled = compose_terms(step, [doubled])
    assert distinct_nodes(doubled.node) < 100
    assert support_bound(doubled) == 2**15
    assert eval_term(doubled, (NatFun(lambda t: t + 1),), (0,)) == 2**15


def test_a_20000_deep_term_goes_through_every_walk():
    depth = 20_000
    node = Apply(2, Proj(1))
    for _ in range(depth - 1):
        node = Apply(1, node)
    term = OperatorTerm(2, 1, node)
    fns = (NatFun(lambda t: t + 1), NatFun(lambda t: t + 2))
    assert support_bound(term) == depth
    assert print_term(term) == "(apply 1 " * (depth - 1) + "(apply 2 (proj 1))" + ")" * (depth - 1)
    assert eval_term(term, fns, (0,)) == depth + 1
    assert eval_term(TermProgram([term, term]), fns, (3,)) == (depth + 4, depth + 4)
    assert eval_term(diagonalize(term), fns[:1], (5,)) == depth - 1 + 5
    flat = uncurry(term)
    assert eval_term(flat, fns[:1], (7, 0)) == depth - 1 + 7
    assert print_term(curry(flat)) == print_term(term)
    succ_read = Base(CORE.get("succ"), (Apply(1, Proj(1)),))
    inners = [OperatorTerm(1, 1, Apply(1, Proj(1))), OperatorTerm(1, 1, succ_read)]
    assert eval_term(compose_terms(term, inners), fns[:1], (0,)) == depth + 1


def test_compose_terms_arity_rules():
    outer = OperatorTerm(1, 1, Apply(1, Proj(1)))
    inner = OperatorTerm(2, 1, Apply(2, Proj(1)))
    composed = compose_terms(outer, [inner])
    assert composed.k == 2
    with pytest.raises(ArityMismatch):
        compose_terms(outer, [])
    closed = OperatorTerm(0, 1, Proj(1))
    with pytest.raises(ArityMismatch):
        compose_terms(closed, [])
    widened = compose_terms(closed, [], result_arity=3)
    assert widened.k == 3


# ---------------------------------------------------------------------------
# instrumentation
# ---------------------------------------------------------------------------


def test_instrumented_value_agrees_and_trace_is_bounded():
    rng = Random(53)
    for _ in range(80):
        k = rng.randrange(1, 4)
        term = random_term(rng, k, 1, 4)
        fns = sample_fns(rng, k)
        args = (rng.randrange(9),)
        plain = eval_term(term, fns, args)
        value, trace = eval_instrumented(term, fns, args)
        assert value == plain
        assert trace.size() <= support_bound(term)


def test_mutations_outside_the_trace_cannot_change_the_value():
    rng = Random(59)
    for _ in range(40):
        k = rng.randrange(1, 4)
        term = random_term(rng, k, 1, 4)
        fns = sample_fns(rng, k)
        args = (rng.randrange(9),)
        value, trace = eval_instrumented(term, fns, args)
        seen = trace.pairs()
        for _ in range(10):
            slot = rng.randrange(1, k + 1)
            at = rng.randrange(40)
            if (slot, at) in seen:
                continue
            mutated = list(fns)
            original = fns[slot - 1]
            mutated[slot - 1] = NatFun(
                lambda t, orig=original, at=at: orig(t) + 17 if t == at else orig(t),
                memoize=False,
            )
            assert eval_term(term, tuple(mutated), args) == value


# Recursive oracles: the term walks as plain structural recursion, one
# call per node occurrence, checked against the package's iterative folds.


def naive_support_bound(node):
    if isinstance(node, Proj):
        return 0
    if isinstance(node, Apply):
        return 1 + naive_support_bound(node.sub)
    return sum(naive_support_bound(sub) for sub in node.subs)


def naive_rewrite(node, proj, apply):
    """Rebuild ``node`` bottom-up; ``apply(node, rewrite)`` may drop the subterm."""

    def walk(node):
        if isinstance(node, Proj):
            return proj(node)
        if isinstance(node, Apply):
            return apply(node, walk)
        return Base(node.fn, tuple(walk(sub) for sub in node.subs))

    return walk(node)


def naive_subst_numeric(node, replacement):
    return naive_rewrite(node, lambda _p: replacement, lambda a, walk: Apply(a.index, walk(a.sub)))


def naive_graft(node, inners):
    # f_i(sub) becomes inners[i-1] evaluated at the rewritten sub
    def apply(a, walk):
        return naive_subst_numeric(inners[a.index - 1].node, walk(a.sub))

    return naive_rewrite(node, lambda p: p, apply)


def naive_diagonalize(node, last):
    # const_n applied to anything is n
    def apply(a, walk):
        return Proj(1) if a.index == last else Apply(a.index, walk(a.sub))

    return naive_rewrite(node, lambda p: p, apply)


def naive_curry(node, new_slot):
    return naive_rewrite(
        node,
        lambda p: Apply(new_slot, Proj(1)) if p.index == 1 else Proj(p.index - 1),
        lambda a, walk: Apply(a.index, walk(a.sub)),
    )


def naive_uncurry(node, last):
    return naive_rewrite(
        node,
        lambda p: Proj(p.index + 1),
        lambda a, walk: Proj(1) if a.index == last else Apply(a.index, walk(a.sub)),
    )


def naive_print(node):
    if isinstance(node, Proj):
        return f"(proj {node.index})"
    if isinstance(node, Apply):
        return f"(apply {node.index} {naive_print(node.sub)})"
    inner = " ".join(naive_print(sub) for sub in node.subs)
    return f"(base {node.fn.name} {inner})" if inner else f"(base {node.fn.name})"


def with_sharing(rng, term):
    """``term`` with some of its subterms reused by identity."""
    node = term.node
    for _ in range(rng.randrange(3)):
        pair_fn = CORE.get(rng.choice(["pair", "monus", "conj"]))
        node = Base(pair_fn, (node, Apply(1, node) if term.k and rng.random() < 0.5 else node))
    return OperatorTerm(term.k, term.m, node)


def random_shared_term(rng, k, m):
    return with_sharing(rng, random_term(rng, k, m, rng.randrange(5)))


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_every_fold_based_walk_matches_its_recursive_oracle(seed):
    rng = Random(seed)
    k, m = rng.randrange(1, 4), rng.randrange(1, 4)
    term = random_shared_term(rng, k, m)
    assert print_term(term) == naive_print(term.node)
    assert uncurry(term).node == naive_uncurry(term.node, k)
    if m > 1:
        assert curry(term).node == naive_curry(term.node, k + 1)
    single = random_shared_term(rng, k, 1)
    assert diagonalize(single).node == naive_diagonalize(single.node, k)
    assert support_bound(single) == naive_support_bound(single.node)
    replacement = random_term(rng, k, 1, 2).node
    assert _subst_numeric(single.node, replacement) == naive_subst_numeric(single.node, replacement)
    assert _subst_numeric(single.node, Proj(1)) is single.node
    inners = [random_shared_term(rng, 2, 1) for _ in range(k)]
    assert compose_terms(single, inners).node == naive_graft(single.node, inners)


def malformed(rng, k, m):
    """A random term with one malformed node, and the exception it raises."""
    succ = CORE.get("succ")
    defect, error = rng.choice(
        [
            (Proj(m + 1), ArityMismatch),
            (Apply(k + 1, Proj(1)), ArityMismatch),
            (Base(succ, (Proj(1), Proj(1))), ArityMismatch),
            ("(proj 1)", TypeError),
            (Base(succ, (None,)), TypeError),
        ]
    )
    node = defect
    for _ in range(rng.randrange(4)):
        sibling = random_term(rng, k, m, 2).node
        wrapped = [Apply(rng.randrange(1, k + 1), node), Base(CORE.get("pair"), (sibling, node))]
        node = rng.choice(wrapped)
    return node, error


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_a_malformed_node_raises_as_it_did_under_recursive_validation(seed):
    rng = Random(seed)
    k, m = rng.randrange(1, 4), rng.randrange(1, 4)
    node, error = malformed(rng, k, m)
    with pytest.raises(error):
        OperatorTerm(k, m, node)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=1, max_value=3))
def test_instrumented_trace_is_the_naive_recorded_support(seed, k):
    rng = Random(seed)
    for term in shared_triple(seed, k):
        fns = sample_fns(rng, k)
        args = (rng.randrange(12),)
        wrapped, log = recording(fns)
        expected = naive_eval(term, wrapped, args)
        value, trace = eval_instrumented(term, fns, args)
        assert value == expected
        assert dict(trace.queried) == {i: frozenset(seen) for i, seen in log.items()}
        assert support_bound(term) == naive_support_bound(term.node)


def test_support_bound_structural_cases():
    succ = CORE.get("succ")
    assert support_bound(OperatorTerm(1, 1, Proj(1))) == 0
    assert support_bound(OperatorTerm(1, 1, Apply(1, Proj(1)))) == 1
    assert support_bound(OperatorTerm(1, 1, Apply(1, Apply(1, Proj(1))))) == 2
    two = Base(succ, (Apply(1, Proj(1)),))
    assert support_bound(OperatorTerm(1, 1, Base(succ, (two,)))) == 1


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_print_parse_round_trip_is_exact():
    rng = Random(61)
    for _ in range(120):
        k, m = rng.randrange(0, 4), rng.randrange(1, 4)
        if k == 0:
            term = OperatorTerm(0, m, Proj(rng.randrange(1, m + 1)))
        else:
            term = random_term(rng, k, m, 5)
        text = print_term(term)
        again = parse_term(text, term.k, term.m, CORE.get)
        assert again == term
        assert print_term(again) == text


def test_parse_term_rejects_malformed_input():
    for text in ("", "(proj)", "(proj x)", "(apply 1)", "(base nosuch (proj 1))", "(proj 1) extra"):
        with pytest.raises(ValueError):
            parse_term(text, 1, 1, CORE.get)


def test_parse_term_refuses_deep_nesting_but_reads_its_limit():
    def nested(depth):
        return "(apply 1 " * (depth - 1) + "(proj 1)" + ")" * (depth - 1)

    with pytest.raises(SexprError, match="nested too deeply"):
        parse_term(nested(1201), 1, 1, CORE.resolve)
    with pytest.raises(SexprError):
        parse_term(nested(MAX_TERM_DEPTH + 1), 1, 1, CORE.resolve)
    term = parse_term(nested(MAX_TERM_DEPTH), 1, 1, CORE.resolve)
    assert print_term(term) == nested(MAX_TERM_DEPTH)
    assert support_bound(term) == MAX_TERM_DEPTH - 1
    assert eval_term(term, [NatFun(lambda t: t + 1)], (0,)) == MAX_TERM_DEPTH - 1


@settings(max_examples=60)
@given(st.integers(min_value=0, max_value=7), st.integers(min_value=0, max_value=7))
def test_base_functions_wrap_plain_callables(x, y):
    fn = BaseFunction("probe", 2, lambda a, b: a * 3 + b)
    lift = representable_lift(fn)
    fns = (NatFun.constant(x), NatFun.constant(y))
    assert eval_term(lift, fns, (0,)) == x * 3 + y
