"""condreal benchmark: one workload, one seed, one JSON line of metrics.

    python3 bench/run.py --workload grid --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: the program is imported from ``src/``
next to this directory and from nowhere else.  The run sets the
workload up ``SETUP_REPS`` times (fresh imports, registry, inputs),
then repeats whole rounds of the workload's fixed operation list until
``--seconds`` have passed, checking every output against ``checkers``.
Times are in reference seconds (see ``ScaledClock``).  With
``--trace 1`` the first half of that time runs untraced and the rest
under the tracer, and the per-layer numbers replace the end-to-end
ones.  The last line of standard output is the result.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path
from random import Random
from types import SimpleNamespace

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
PACKAGE_DIR = ROOT / "src" / "condreal"
MODULES = ("naming", "sexpr", "terms", "gadgets", "realfns", "elementary", "metric", "cli")
SETUP_REPS = 5
CHUNK_REF_S = 0.3e-3  # reference time of one calibration chunk
SAMPLE_S = 0.01  # calibration sampling interval inside a timed call

sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import workloads  # noqa: E402
from tracer import PER_LAYER, Tracer  # noqa: E402

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_median_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def import_program() -> SimpleNamespace:
    """Import the package from this checkout's ``src``, dropping any earlier copy."""
    for name in [n for n in sys.modules if n == "condreal" or n.startswith("condreal.")]:
        del sys.modules[name]
    package = importlib.import_module("condreal")
    if Path(package.__file__).resolve().parent != PACKAGE_DIR:
        raise ImportError(f"condreal imported from {package.__file__}, not {PACKAGE_DIR}")
    return SimpleNamespace(
        **{name: importlib.import_module(f"condreal.{name}") for name in MODULES}
    )


def calibration_chunk() -> float:
    """Seconds for a fixed Fraction loop, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    for i in range(1, 101):
        Fraction(i % 7, i) + Fraction(1, 3)
    elapsed = time.perf_counter() - start
    if enabled:
        gc.enable()
    return elapsed


class ScaledClock:
    """Times a call in reference seconds.

    The host's speed drifts by a quarter within a second, and the ratio of
    a call's time to ``calibration_chunk`` measured around and during it
    stays steady.  So the clock runs a chunk before and after the call and
    one every ``SAMPLE_S`` seconds inside it (from a SIGALRM handler),
    takes the in-call chunks' time out of the elapsed time, and scales the
    rest to the speed at which one chunk takes ``CHUNK_REF_S``.
    """

    def __init__(self):
        self._samples: list[float] = []
        self._stolen = 0.0
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, _signum, _frame) -> None:
        start = time.perf_counter()
        self._samples.append(calibration_chunk())
        self._stolen += time.perf_counter() - start

    def time(self, call):
        """Return ``(call(), scaled seconds, raw seconds)``."""
        self._samples, self._stolen = [calibration_chunk()], 0.0
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        start = time.perf_counter()
        try:
            out = call()
        finally:
            elapsed = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
        raw = elapsed - self._stolen
        self._samples.append(calibration_chunk())
        return out, raw * CHUNK_REF_S / statistics.fmean(self._samples), raw


def set_up(clock: ScaledClock, name: str, seed: int):
    """Median set-up and registry-build times over SETUP_REPS fresh set-ups."""
    setup_times, registry_times = [], []

    def one_setup():
        cr = import_program()
        return cr, workloads.SETUPS[name](cr, Random(seed))

    for _ in range(SETUP_REPS):
        gc.collect()
        (cr, work), setup_s, _ = clock.time(one_setup)
        setup_times.append(setup_s)
        registry_times.append(clock.time(cr.elementary.default_functions)[1])
    return cr, work, statistics.median(setup_times), statistics.median(registry_times)


class Rounds:
    """Runs whole rounds, times each operation, checks every output."""

    def __init__(self, clock: ScaledClock, ops):
        self.clock = clock
        self.ops = ops
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []  # operations that raised
        self.wrong: list[str] = []  # outputs that failed their check
        self.op_times: list[float] = []
        self.round_times: list[float] = []
        self.raw_round_times: list[float] = []

    def round(self, call=None) -> None:
        gc.collect()
        total = raw_total = 0.0
        for op in self.ops:
            self.attempted += 1
            try:
                out, scaled, raw = self.clock.time(lambda: call(op.run) if call else op.run())
            except Exception as exc:  # noqa: BLE001 - a failing operation is counted, not fatal
                self.failed += 1
                self.errors.append(f"{op.label}: {type(exc).__name__}: {exc}"[:300])
                continue
            total += scaled
            raw_total += raw
            self.op_times.append(scaled)
            error = op.check(out)
            if error is not None:
                self.wrong.append(f"{op.label}: {error}"[:300])
        self.round_times.append(total)
        self.raw_round_times.append(raw_total)

    def until(self, deadline: float, call=None) -> None:
        self.round(call)
        while time.perf_counter() < deadline:
            self.round(call)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.SETUPS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (PACKAGE_DIR / "__init__.py").is_file():
        print(f"error: no program source at {PACKAGE_DIR}", file=sys.stderr)
        return 2
    calibration = statistics.median(calibration_chunk() for _ in range(50))
    clock = ScaledClock()
    cr, work, setup_s, registry_s = set_up(clock, args.workload, args.seed)

    start = time.perf_counter()
    plain = Rounds(clock, work.ops)
    traced_rows = []
    if not args.trace:
        plain.until(start + args.seconds)
        metrics = {
            "setup_s": setup_s,
            "wall_s": statistics.median(plain.round_times),
            "op_median_ms": statistics.median(plain.op_times) * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = dict(END_TO_END)
        runs = [plain]
    else:
        plain.until(start + args.seconds / 2)
        tracer = Tracer(cr, PACKAGE_DIR)
        traced = Rounds(clock, work.ops)
        glued = sum(op.glued_indices for op in work.ops)
        deadline = start + args.seconds
        while not traced_rows or time.perf_counter() < deadline:
            tracer.start_round()
            traced.round(tracer.run)
            traced_rows.append(tracer.round_metrics(glued, work.composed_nodes))
        metrics = {
            key: statistics.median_low(row[key] for row in traced_rows) for key in traced_rows[0]
        }
        metrics["elementary.registry_build_s"] = registry_s
        # unscaled: calibration samples taken inside a traced call run under
        # the profiler too, so scaling would cancel the overhead
        metrics["trace.overhead_s"] = statistics.median(
            traced.raw_round_times
        ) - statistics.median(plain.raw_round_times)
        units = dict(PER_LAYER)
        metrics = {key: metrics[key] for key in units}
        runs = [plain, traced]

    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    wrong = [e for r in runs for e in r.wrong]
    for line in [e for r in runs for e in r.errors][:10] + wrong[:10]:
        print(f"error: {line}", file=sys.stderr)
    print(
        f"# workload={args.workload} seed={args.seed} ops/round={len(work.ops)} "
        f"rounds={len(plain.round_times)}+{len(traced_rows)} traced "
        f"raw_wall_s={statistics.median(plain.raw_round_times):.4f} "
        f"chunk_ms={calibration * 1e3:.4f} python={sys.version.split()[0]}"
    )
    result = {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
