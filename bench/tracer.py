"""Per-module numbers for the traced run, measured from outside the program.

A traced round runs every operation under ``cProfile``.  Each profiled
function belongs to the module whose file defines it (``sexpr`` counts
as ``cli``); time spent in the standard library or in builtins is
charged to the program module that called it, split by the callers'
cumulative time where a library function has several.  Fraction
constructions are counted by a wrapper around ``Fraction.__new__`` that
charges each one to the nearest program frame on the stack.  Nothing in
the program is changed: the profiler and the wrapper are installed only
around the traced operations.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

# (metric name, unit); every traced run prints all of them, in this order
PER_LAYER = (
    ("naming.natfun_calls", "count"),
    ("naming.self_s", "s"),
    ("naming.validate_s", "s"),
    ("elementary.fraction_builds", "count"),
    ("elementary.self_s", "s"),
    ("elementary.registry_build_s", "s"),
    ("realfns.probes", "count"),
    ("realfns.probe_us", "us"),
    ("realfns.searches", "count"),
    ("realfns.self_s", "s"),
    ("gadgets.calls", "count"),
    ("gadgets.self_s", "s"),
    ("gadgets.indicator_calls_per_index", "ratio"),
    ("terms.eval_term_calls", "count"),
    ("terms.self_s", "s"),
    ("terms.composed_nodes", "count"),
    ("metric.calls", "count"),
    ("metric.self_s", "s"),
    ("metric.probes", "count"),
    ("cli.calls", "count"),
    ("cli.self_s", "s"),
    ("cli.parse_s", "s"),
    ("trace.overhead_s", "s"),
)

_NO_CALLS = (0, 0, 0.0, 0.0, {})


def _key(fn):
    code = fn.__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


class Tracer:
    """Profiles traced operations and turns the profile into layer numbers."""

    def __init__(self, cr, package_dir: Path):
        self._package = str(package_dir) + "/"
        self._bench = str(Path(__file__).resolve().parent) + "/"
        self._owners: dict[str, str | None] = {}
        naming = cr.naming
        self.k_call = _key(naming.NatFun.__call__)
        self.k_uncached = _key(naming.NatFun.eval_uncached)
        self.k_approx = _key(naming.approx)
        self.k_validate = _key(naming.validate_name)
        self.k_find = _key(cr.realfns.find_parameter)
        self.k_find_ms = _key(cr.metric.find_parameter_ms)
        self.k_eval_term = _key(cr.terms.eval_term)
        self.k_indicator = _key(cr.gadgets.ball_indicator((0,), 1).fn)
        self.k_main = _key(cr.cli.main)
        self.k_build_parser = _key(cr.cli.build_parser)
        self.k_parse_sexpr = _key(cr.sexpr.parse_sexpr)
        self.k_parse_args = _key(argparse.ArgumentParser.parse_args)
        self.fraction_builds: dict[str, int] = defaultdict(int)
        self._profile: cProfile.Profile | None = None

    def owner(self, filename: str) -> str | None:
        """Program module of a file, 'bench' for the benchmark, else None."""
        try:
            return self._owners[filename]
        except KeyError:
            pass
        owner = None
        if filename.startswith(self._package):
            owner = Path(filename).stem
            owner = "cli" if owner == "sexpr" else owner
        elif filename.startswith(self._bench) and not filename.endswith("tracer.py"):
            owner = "bench"
        self._owners[filename] = owner
        return owner

    # -- collection ----------------------------------------------------------

    def start_round(self) -> None:
        self._profile = cProfile.Profile()
        self.fraction_builds = defaultdict(int)

    def run(self, fn):
        """Call ``fn()`` under the profiler and the Fraction counter."""
        original = Fraction.__dict__["__new__"]
        make = original.__func__
        builds, owner = self.fraction_builds, self.owner

        def counting_new(cls, *args, **kwargs):
            frame = sys._getframe(1)
            while frame is not None:
                module = owner(frame.f_code.co_filename)
                if module is not None:
                    builds[module] += 1
                    break
                frame = frame.f_back
            return make(cls, *args, **kwargs)

        Fraction.__new__ = staticmethod(counting_new)
        self._profile.enable()
        try:
            return fn()
        finally:
            self._profile.disable()
            Fraction.__new__ = original

    # -- attribution -----------------------------------------------------------

    def round_metrics(self, glued_indices: int, composed_nodes: int) -> dict[str, float]:
        stats = pstats.Stats(self._profile).stats
        owner = lambda key: self.owner(key[0])  # noqa: E731
        shares: dict[tuple, dict[str, float]] = {}

        def share(key) -> dict[str, float]:
            # which program modules a function's cumulative time belongs to
            if key in shares:
                return shares[key]
            module = owner(key)
            if module is not None:
                return {module: 1.0}
            shares[key] = {"bench": 1.0}  # cycle guard
            callers = stats.get(key, _NO_CALLS)[4]
            total = sum(v[3] for v in callers.values())
            result: dict[str, float] = defaultdict(float)
            for caller, v in callers.items():
                weight = v[3] / total if total > 0 else 1.0 / len(callers)
                for m, part in share(caller).items():
                    result[m] += weight * part
            shares[key] = dict(result) or {"bench": 1.0}
            return shares[key]

        self_s: dict[str, float] = defaultdict(float)
        calls_in: dict[str, int] = defaultdict(int)
        for key, (_cc, _nc, tt, _ct, callers) in stats.items():
            module = owner(key)
            if module is not None:
                self_s[module] += tt
                calls_in[module] += sum(v[1] for c, v in callers.items() if owner(c) != module)
                continue
            for caller, v in callers.items():
                for m, part in share(caller).items():
                    self_s[m] += v[2] * part

        def entry(key):
            return stats.get(key, _NO_CALLS)

        def calls_from(callee, caller):
            return entry(callee)[4].get(caller, _NO_CALLS)

        probes = calls_from(self.k_uncached, self.k_find)[1]
        parse_args_ct = calls_from(self.k_parse_args, self.k_main)[3]
        indicator_calls = entry(self.k_indicator)[1]
        return {
            "naming.natfun_calls": entry(self.k_call)[1] + entry(self.k_uncached)[1],
            "naming.self_s": self_s["naming"],
            "naming.validate_s": entry(self.k_approx)[3]
            + entry(self.k_validate)[3]
            - calls_from(self.k_approx, self.k_validate)[3],
            "elementary.fraction_builds": self.fraction_builds["elementary"],
            "elementary.self_s": self_s["elementary"],
            "realfns.probes": probes,
            "realfns.probe_us": entry(self.k_find)[3] / probes * 1e6 if probes else 0.0,
            "realfns.searches": entry(self.k_find)[1],
            "realfns.self_s": self_s["realfns"],
            "gadgets.calls": calls_in["gadgets"],
            "gadgets.self_s": self_s["gadgets"],
            "gadgets.indicator_calls_per_index": (
                indicator_calls / glued_indices if glued_indices else 0.0
            ),
            "terms.eval_term_calls": entry(self.k_eval_term)[1],
            "terms.self_s": self_s["terms"],
            "terms.composed_nodes": composed_nodes,
            "metric.calls": calls_in["metric"],
            "metric.self_s": self_s["metric"],
            "metric.probes": calls_from(self.k_uncached, self.k_find_ms)[1],
            "cli.calls": entry(self.k_main)[1],
            "cli.self_s": self_s["cli"],
            "cli.parse_s": entry(self.k_build_parser)[3]
            + entry(self.k_parse_sexpr)[3]
            + parse_args_ct,
        }
