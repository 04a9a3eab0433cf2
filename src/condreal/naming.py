"""Real numbers as rational-approximation name triples.

A real number ``xi`` is *named* by three total functions ``f, g, h`` on
the naturals when

    |(f(t) - g(t)) / (h(t) + 1) - xi| < 1/(t+1)   for every index t.

Index ``t`` therefore doubles as a precision budget: the approximation at
``t`` is good to within ``1/(t+1)``.  Everything downstream (operator
terms, the gadget library, uniform and conditional function application)
manipulates these triples, so this module pins down the two ground types:

``NatFun``
    a total, deterministic function on the naturals.  Instances are built
    from a small closed set of constructors (constants, steps, the identity,
    patching, term-evaluation closures and vouched-for pure callables).
    It keeps no values: every call checks its argument, evaluates and
    checks the result.

``TripleStream``
    the three values ``(x, y, z)`` a name takes at each index, computed
    together by one function.  The stream is the package's one memo: a
    plain dict of at most ``MEMO_CAP`` indices, emptied when full, so
    re-reading a recent index is cheap and a sweep over many indices
    holds bounded memory.  Under CPython's GIL concurrent readers at
    worst recompute the same (deterministic) triple.  Its ``name()`` is
    the three-function view the paper and the term layer use: ``f``,
    ``g`` and ``h`` project the one memo (a hit is read in one call, a
    miss reads the stream directly), so reading all three at an index
    computes that index's rational once and checks it once.

``triple_reader``
    how a consumer reads a name: one ``(x, y, z)`` per index.  A stream's
    projections and ``NatFun.constant`` know where their values come
    from, so the reader of a stream's ``f, g, h`` is the stream itself
    and the reader of three constants returns one fixed triple; any
    other triple (a recording spy, a patch, a user ``NatFun``) is read
    through its three functions.  A value is checked once, where it is
    made: by the stream's triple check, by the constant's check at
    construction, or by a ``NatFun``'s own evaluation; every reader
    still refuses an argument that is not a natural.

``constant_values`` and ``piece_values``
    tell a consumer that its functions are ``NatFun.constant``s, or
    ``NatFun.steps`` (sorted breakpoints, one value per piece; a constant
    has none), and give their values, so an operator on such *exact*
    arguments (a rational's name, an ``M_N`` point's code, an exact name
    patched by an exact anchor) computes its value once per piece, at
    application, and returns steps.  A constant is read in one call; its
    label is spelled only when asked for, so a constant of any size builds.

Rationals are ``fractions.Fraction`` throughout: arbitrary-precision,
kept in lowest terms with positive denominator, exactly the contract the
approximation arithmetic needs.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Sequence

__all__ = [
    "MEMO_CAP",
    "NatFun",
    "NameTriple",
    "TripleStream",
    "ValidationReport",
    "ValidationRow",
    "approx",
    "constant_values",
    "format_rational",
    "parse_rational",
    "piece_values",
    "precision_index",
    "rational_name",
    "recording",
    "triple_reader",
    "validate_name",
]


# Most indices a stream's memo holds; a full memo is emptied before the
# next triple goes in.  An output index reads each argument at one or two
# indices (t, 2t+1, a schedule fixed by a certified s), so reading a
# result to t in the hundreds never evicts, while a certificate sweep
# over 10^6 indices keeps at most this many (under a megabyte).
MEMO_CAP = 4096


def _natural(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _check_argument(t: object, kind: str) -> None:
    if not _natural(t):
        raise ValueError(f"{kind} argument must be a natural, got {t!r}")


class NatFun:
    """A checked total function on the naturals; it keeps no values.

    ``fn`` must be pure: total on the naturals, deterministic, and
    returning a natural.  Both the argument and the result are checked on
    every evaluation so contract violations surface at the offending
    call, not three layers later.
    """

    __slots__ = ("_fn", "_label", "_source")

    def __init__(self, fn: Callable[[int], int], label: str = ""):
        self._fn = fn
        self._label = label
        # (stream, position) of a stream projection, (None, c) of a constant
        self._source: tuple[TripleStream | None, int] | None = None

    @property
    def label(self) -> str:
        source = self._source
        if self._label or source is None or source[0] is not None:
            return self._label
        # a constant's label is spelled when asked for
        try:
            return f"const {source[1]}"
        except ValueError:  # more digits than int-to-str conversion allows
            return f"const <{source[1].bit_length()}-bit natural>"

    def __call__(self, t: int) -> int:
        # a plain int is checked inline, anything else by ``_natural``
        if t.__class__ is not int or t < 0:
            _check_argument(t, "NatFun")
        value = self._fn(t)
        if (value.__class__ is not int or value < 0) and not _natural(value):
            raise ValueError(
                f"NatFun {self.label or '<anonymous>'} returned {value!r} at {t}; "
                "values must be naturals"
            )
        return value

    def eval_uncached(self, t: int) -> int:
        """``self(t)``, under the name a certificate probe goes through.

        ``find_parameter`` probes through it, so a profile or a spy tells
        probes from other reads.  It stores nothing itself; a stream's
        projection reads through the stream, whose memo keeps the triple.
        """
        return self(t)

    def __repr__(self) -> str:
        return f"NatFun({self.label or '...'})"

    @classmethod
    def constant(cls, c: int) -> "NatFun":
        """The constant function t -> c."""
        if (c.__class__ is not int or c < 0) and not _natural(c):
            raise ValueError(f"constant value must be a natural, got {c!r}")
        fn = _Constant(None)  # its read returns the value, which _source keeps
        fn._source = (None, c)
        return fn

    @classmethod
    def identity(cls) -> "NatFun":
        """The identity function t -> t."""
        return cls(lambda t: t, label="id")

    @classmethod
    def steps(cls, breaks: Sequence[int], values: Sequence[int]) -> "NatFun":
        """``values[j]`` from ``breaks[j - 1]`` on (``values[0]`` from 0): increasing positive
        natural breaks, one value more, else ValueError; equal neighbours join (one: a constant)."""
        rising = not breaks or [*breaks] == sorted({*filter(_natural, breaks)} - {0})
        if len(values) - len(breaks) != 1 or not rising:
            raise ValueError(f"steps want increasing positive breaks, one value more: {breaks!r}")
        kept = [j for j in range(1, len(values)) if values[j] != values[j - 1]] if breaks else ()
        if not kept:
            return cls.constant(values[0])
        fn = _Steps(None, label="steps")
        fn.breaks = tuple(breaks[j - 1] for j in kept)
        fn.values = (values[0], *(values[j] for j in kept))
        if not all(map(_natural, fn.values)):
            raise ValueError(f"step values must be naturals, got {fn.values!r}")
        return fn

    @classmethod
    def patched(cls, anchor: "NatFun", cutoff: int, inner: "NatFun") -> "NatFun":
        """Values from ``anchor`` below ``cutoff``, from ``inner`` at or above; steps on steps."""
        if not _natural(cutoff):
            raise ValueError("cutoff must be a natural")
        pieces = piece_values(anchor, inner)
        if pieces is not None:
            breaks = sorted({*pieces[0], cutoff} - {0})
            return cls.steps(breaks, [anchor(t) if t < cutoff else inner(t) for t in [0, *breaks]])
        return cls(lambda t: anchor(t) if t < cutoff else inner(t), label=f"patch<{cutoff}")


@dataclass(frozen=True)
class NameTriple:
    """Three NatFuns naming a real via (f(t) - g(t)) / (h(t) + 1)."""

    f: NatFun
    g: NatFun
    h: NatFun

    def __iter__(self) -> Iterator[NatFun]:
        return iter((self.f, self.g, self.h))


class TripleStream:
    """A name's three values at each index, computed together.

    ``fn`` must be pure and map every natural ``t`` to a triple of
    naturals ``(f(t), g(t), h(t))``.  Each index is computed once and kept
    in a memo of at most ``MEMO_CAP`` indices; the argument and the
    triple are checked when the triple is computed.
    """

    __slots__ = ("_fn", "_memo", "label")

    def __init__(self, fn: Callable[[int], tuple[int, int, int]], label: str = ""):
        self._fn = fn
        self._memo: dict[int, tuple[int, int, int]] = {}
        self.label = label

    def __call__(self, t: int) -> tuple[int, int, int]:
        memo = self._memo
        hit = memo.get(t)
        # True and 1.0 find the entry of 1; only an int may take it
        if hit is not None and t.__class__ is int:
            return hit
        if t.__class__ is not int or t < 0:
            _check_argument(t, "TripleStream")
        value = self._fn(t)
        # a tuple of three plain ints is checked inline, anything else by ``_natural``
        if not (
            value.__class__ is tuple
            and len(value) == 3
            and value[0].__class__ is value[1].__class__ is value[2].__class__ is int
            and value[0] >= 0 and value[1] >= 0 and value[2] >= 0
        ) and not (isinstance(value, tuple) and len(value) == 3 and all(map(_natural, value))):
            raise ValueError(
                f"TripleStream {self.label or '<anonymous>'} returned {value!r} at {t}; "
                "values must be triples of naturals"
            )
        if len(memo) >= MEMO_CAP:
            memo.clear()
        memo[t] = value
        return value

    def name(self) -> NameTriple:
        """The three-function view: f, g and h project this stream."""
        label = self.label or "stream"
        fns = []
        for i, c in enumerate("fgh"):
            fn = _Projection(lambda t, _i=i: self(t)[_i], label=f"{label}.{c}")
            fn._source = (self, i)
            fns.append(fn)
        return NameTriple(*fns)


class _Projection(NatFun):
    """One position of a stream's triple: the memo's on a hit, the stream's on a miss."""

    __slots__ = ()

    def __call__(self, t: int) -> int:
        if t.__class__ is not int or t < 0:
            _check_argument(t, "NatFun")
        stream, i = self._source
        hit = stream._memo.get(t)
        return hit[i] if hit is not None else stream(t)[i]


class _Steps(NatFun):
    """A ``NatFun.steps``: its read checks the argument and finds the piece by bisection."""

    __slots__ = ("breaks", "values")

    def __call__(self, t: int) -> int:
        if t.__class__ is not int or t < 0:
            _check_argument(t, "NatFun")
        return self.values[bisect_right(self.breaks, t)]


class _Constant(_Steps):
    """A ``NatFun.constant``, the step with no breakpoints: its read returns the value."""

    __slots__ = ()
    breaks = ()

    def __call__(self, t: int) -> int:
        if t.__class__ is not int or t < 0:
            _check_argument(t, "NatFun")
        return self._source[1]


def constant_values(*fns: NatFun) -> tuple[int, ...] | None:
    """The values of ``fns`` when every one is a ``NatFun.constant``, else None.

    A consumer that gets a tuple can decode it once per application
    instead of once per index; the values were checked at construction.
    """
    values = []
    for fn in fns:
        source = getattr(fn, "_source", None)
        if source is None or source[0] is not None:
            return None
        values.append(source[1])
    return tuple(values)


def piece_values(*fns: NatFun) -> tuple[list[int], list[tuple[int, ...]]] | None:
    """The breakpoints of ``fns`` together and their values at 0 and at each
    breakpoint, when every one is piecewise constant, else None."""
    if (values := constant_values(*fns)) is not None:
        return [], [values]
    if not all(isinstance(fn, _Steps) for fn in fns):
        return None
    breaks = sorted({b for fn in fns for b in fn.breaks})
    return breaks, [tuple(fn(t) for fn in fns) for t in [0, *breaks]]


def triple_reader(f: NatFun, g: NatFun, h: NatFun) -> Callable[[int], tuple[int, int, int]]:
    """One call per index giving ``(f(t), g(t), h(t))``.

    The projections of one stream, in order, are read as the stream
    itself, and three constants as their fixed triple; anything else is
    read through its three functions.  The values are the same either
    way, and every reader refuses an argument that is not a natural.
    A certificate search reads its argument this way too: a stream keeps
    what it computes in its memo, which ``MEMO_CAP`` bounds.
    """
    triple = constant_values(f, g, h)
    if triple is not None:

        def read(t: int) -> tuple[int, int, int]:
            if t.__class__ is not int or t < 0:
                _check_argument(t, "NatFun")
            return triple

        return read
    (a, i), (b, j), (c, k) = (getattr(fn, "_source", None) or (None, 0) for fn in (f, g, h))
    if a is not None and a is b is c and (i, j, k) == (0, 1, 2):
        return a
    return lambda t: (f(t), g(t), h(t))


def approx(name: NameTriple, t: int) -> Fraction:
    """The rational approximation encoded at index ``t``, in lowest terms."""
    x, y, z = triple_reader(*name)(t)
    return Fraction(x - y, z + 1)


def _rational_triple(q: Fraction | int) -> tuple[int, int, int]:
    # the canonical triple of a rational p/d in lowest terms
    if not isinstance(q, Fraction):
        q = Fraction(q)
    p, d = q.numerator, q.denominator
    return (p if p > 0 else 0, -p if p < 0 else 0, d - 1)


def rational_name(q: Fraction | int) -> NameTriple:
    """The canonical name of a rational: exact at every index.

    With ``q = p/d`` in lowest terms the triple is the constant functions
    ``(max(p,0), max(-p,0), d-1)``, so the encoded approximation equals
    ``q`` exactly everywhere.
    """
    return NameTriple(*map(NatFun.constant, _rational_triple(q)))


def precision_index(eps: Fraction) -> int:
    """Least index t whose guarantee 1/(t+1) is at most ``eps``."""
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    # 1/(t+1) <= eps  <=>  t+1 >= 1/eps
    t_plus_1 = -((-eps.denominator) // eps.numerator)  # ceil(1/eps)
    return max(t_plus_1 - 1, 0)


@dataclass(frozen=True)
class ValidationRow:
    t: int
    approx: Fraction
    bound: Fraction
    ok: bool


@dataclass(frozen=True)
class ValidationReport:
    reference: Fraction
    rows: tuple[ValidationRow, ...]

    @property
    def passed(self) -> bool:
        return all(row.ok for row in self.rows)

    @property
    def first_failure(self) -> ValidationRow | None:
        for row in self.rows:
            if not row.ok:
                return row
        return None

    def lines(self) -> Iterator[str]:
        for row in self.rows:
            status = "ok" if row.ok else "FAIL"
            yield (
                f"t={row.t} approx={format_rational(row.approx)} "
                f"bound={format_rational(row.bound)} {status}"
            )


def validate_name(name: NameTriple, reference: Fraction | int, t_max: int) -> ValidationReport:
    """Check |approx(name, t) - reference| < 1/(t+1) for every t <= t_max, a natural.

    All comparisons are exact rational arithmetic; the report carries one
    row per index so failures point at the first offending t.
    """
    _check_argument(t_max, "t_max")
    reference = Fraction(reference)
    read = triple_reader(*name)
    rows = []
    for t in range(t_max + 1):
        x, y, z = read(t)
        value = Fraction(x - y, z + 1)
        bound = Fraction(1, t + 1)
        rows.append(ValidationRow(t, value, bound, abs(value - reference) < bound))
    return ValidationReport(reference, tuple(rows))


def recording(fns: Sequence[NatFun]) -> tuple[tuple[NatFun, ...], dict[int, set[int]]]:
    """Wrap functions so every query is logged.

    Returns the wrapped functions and a live log mapping 1-based slot to
    the set of queried indices.  The wrappers evaluate on every call, so
    the log sees each query; values pass through unchanged.
    """
    log: dict[int, set[int]] = {i: set() for i in range(1, len(fns) + 1)}

    def wrap(slot: int, fn: NatFun) -> NatFun:
        seen = log[slot]

        def spy(t: int) -> int:
            seen.add(t)
            return fn(t)

        return NatFun(spy, label=f"spy{slot}:{fn.label}")

    wrapped = tuple(wrap(i + 1, fn) for i, fn in enumerate(fns))
    return wrapped, log


def format_rational(q: Fraction) -> str:
    """Lowest-terms p/q string; integers print without the denominator.

    Raises ``ValueError`` when the numerator or the denominator has more
    digits than Python converts to a string (4300 by default).
    """
    q = Fraction(q)
    try:
        return str(q)
    except ValueError:
        raise ValueError("rational has too many digits to print") from None


def parse_rational(text: str) -> Fraction:
    """Parse 'p/q' or 'p' (optional sign) into an exact rational."""
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational: {text!r}") from exc
