"""One cold measured run of a workload batch, in a fresh interpreter.

Usage: python3 child.py WORKLOAD SEED MODE [--tiny] [--check]

MODE is ``plain`` (no instrumentation), ``trace`` (spans around the public
functions of each package module) or ``profile`` (a cProfile pass that
counts ``Fraction`` construction and arithmetic calls).  Every run reports
the operations that raised or, on ``verify``, whose suite failed; with
``--check`` every output is also verified by its exact identity after the
timed batch.
Prints one JSON object on stdout, with a hash per output and the host
speed samples' medians; ``run.py`` starts this script, compares the hashes,
scales the times to reference seconds and aggregates the results.
"""

from __future__ import annotations

import argparse
import cProfile
import contextlib
import fractions
import functools
import gc
import json
import os
import pstats
import resource
import signal
import statistics
import sys
import time
from collections import defaultdict

import workloads
from malcev5 import alternative, core, diffops, envelope, exprs

# span name -> (module, attribute); each wrapper replaces every binding of
# the function in the package's namespaces, since checks and cli import
# names directly
TRACED_FUNCTIONS = {
    "envelope.mul_u_closed": (envelope, "mul_u_closed"),
    "envelope.mul_u": (envelope, "mul_u"),
    "envelope.mul_u_oracle": (envelope, "mul_u_oracle"),
    "alternative.mul_a": (alternative, "mul_a"),
    "diffops.compose": (diffops, "compose"),
    "diffops.l_of_monomial": (diffops, "l_of_monomial"),
    "exprs.parse_element": (exprs, "parse_element"),
    "exprs.element_json": (exprs, "element_json"),
}
# span name -> (class, method), patched on the class
TRACED_METHODS = {
    "diffops.apply": [(diffops.Operator, "apply")],
    "core.format": [(core.UElement, "__str__"), (alternative.AElement, "__str__")],
}

# memo tables read after the batch; a table that no longer exists is
# reported as absent rather than failing the run
MEMO_TABLES = {
    "envelope": (envelope, ("_CLOSED_MEMO", "_LMUL_MEMO", "_BRACKET_MEMO", "_MUL_MEMO")),
    "diffops": (diffops, ("_L_MEMO", "_WORD_MEMO")),
}

# Fraction methods that construct a value or do arithmetic
FRACTION_CALLS = {
    "__new__", "_from_coprime_ints", "from_float", "from_decimal",
    "_add", "_sub", "_mul", "_div", "_floordiv", "_mod", "_divmod",
    "__pow__", "__rpow__", "__neg__", "__pos__", "__abs__",
}


# On a shared 2-vCPU VM the processor's speed moves by tens of percent from
# one second to the next and by up to a factor of two within minutes, and
# CPU time moves with it.  So each run also samples the host's speed with a
# fixed loop, and run.py converts the run's times to reference seconds.
SPEED_EVERY_S = 0.2  # wall time between two speed samples
SPEED_AFTER = 3  # samples taken after the batch, so that a short batch has some
SPEED_INSIDE = 3  # samples inside an operation that give it its own speed


def speed_sample() -> float:
    """Seconds for a fixed loop of the work the package does most: tuple
    keys, dict updates and ``Fraction`` arithmetic.  The collector is off,
    so that the package's heap does not slow the loop."""
    gc.disable()
    try:
        start = time.perf_counter()
        table = {}
        for i in range(2000):
            key = (i % 7, i % 11, i % 13)
            table[key] = table.get(key, 0) + fractions.Fraction(i, 6) * 3
        return time.perf_counter() - start
    finally:
        gc.enable()


class SpeedProbe:
    """Takes a speed sample every ``SPEED_EVERY_S`` from a timer signal, so
    that samples fall evenly through the batch, inside long operations too.
    :meth:`clock` is ``perf_counter`` less the time spent in samples."""

    def __init__(self):
        self.samples = []  # (clock() when taken, seconds)
        self.spent = 0.0

    def _sample(self, signum=None, frame=None):
        start = time.perf_counter()
        self.samples.append((start - self.spent, speed_sample()))
        self.spent += time.perf_counter() - start

    def clock(self) -> float:
        while True:
            spent = self.spent
            now = time.perf_counter()
            if spent == self.spent:  # no sample ran in between
                return now - spent

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SPEED_EVERY_S, SPEED_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        for _ in range(SPEED_AFTER):
            self._sample()

    def speeds(self, start, latencies):
        """The median sample of the run, and per operation the median of
        the samples taken inside it, or the run's when too few were."""
        run = statistics.median(s for _, s in self.samples)
        per_op = []
        for latency in latencies:
            inside = [s for at, s in self.samples if start <= at < start + latency]
            per_op.append(statistics.median(inside) if len(inside) >= SPEED_INSIDE else run)
            start += latency
        return run, per_op


class Tracer:
    """Aggregates spans by name: call count and self time.

    A span's self time is its duration minus the time covered by the spans
    it directly encloses.
    """

    def __init__(self, clock):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self._children = []  # enclosed time per open span
        self._undo = []
        self._clock = clock

    def _wrap(self, name, fn):
        calls, self_s, children = self.calls, self.self_s, self._children
        clock = self._clock

        @functools.wraps(fn)
        def span(*args, **kwargs):
            children.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                inner = children.pop()
                calls[name] += 1
                self_s[name] += duration - inner
                if children:
                    children[-1] += duration

        return span

    def install(self):
        namespaces = [
            mod for key, mod in sys.modules.items()
            if key == "malcev5" or key.startswith("malcev5.") or key == "workloads"
        ]
        for name, (module, attr) in TRACED_FUNCTIONS.items():
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._undo.append((ns, key, original))
                        setattr(ns, key, wrapper)
        for name, targets in TRACED_METHODS.items():
            for cls, attr in targets:
                original = getattr(cls, attr)
                self._undo.append((cls, attr, cls.__dict__.get(attr)))
                setattr(cls, attr, self._wrap(name, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._undo.clear()

    def spans(self):
        return {name: [self.calls[name], self.self_s[name]] for name in self.calls}


def memo_sizes():
    """Entries per memo group and in the closed-kernel table; None = absent."""
    out = {}
    for group, (module, names) in MEMO_TABLES.items():
        tables = [getattr(module, name) for name in names if hasattr(module, name)]
        out[group] = sum(map(len, tables)) if tables else None
    closed = getattr(envelope, "_CLOSED_MEMO", None)
    out["closed"] = None if closed is None else len(closed)
    return out


def fraction_calls(profile) -> int:
    stats = pstats.Stats(profile).stats
    target = os.path.abspath(fractions.__file__)
    return sum(
        entry[1]
        for (filename, _, funcname), entry in stats.items()
        if funcname in FRACTION_CALLS and os.path.abspath(filename) == target
    )


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=workloads.WORKLOADS)
    parser.add_argument("seed", type=int)
    parser.add_argument("mode", choices=("plain", "trace", "profile"))
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--check", action="store_true")
    args = parser.parse_args(argv)
    size = "tiny" if args.tiny else "full"

    # the profiler pass only counts calls, and the probe's Fractions would
    # count with them
    profile = cProfile.Profile(builtins=False) if args.mode == "profile" else None
    probe = None if profile else SpeedProbe()
    clock = probe.clock if probe else time.perf_counter
    tracer = Tracer(clock) if args.mode == "trace" else None
    if tracer:
        tracer.install()
    ops = workloads.make_inputs(args.workload, args.seed, size)

    first_op_at = time.time()
    with probe or contextlib.nullcontext():
        start = clock()
        if profile:
            profile.enable()
        outputs, latencies, errors = workloads.run_batch(args.workload, ops, clock)
        if profile:
            profile.disable()
        wall_s = clock() - start

    speeds = probe.speeds(start, latencies) if probe else None
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    memo = memo_sizes()
    if tracer:
        tracer.uninstall()
    if args.check:
        failed = workloads.check_batch(args.workload, ops, outputs)
    else:
        failed = workloads.missing_or_failed(args.workload, outputs)
    result = {
        "first_op_at": first_op_at,
        "wall_s": wall_s,
        "op_s": latencies,
        "rss_mb": rss_mb,
        "memo": memo,
        "failed_ops": sorted(failed),
        "errors": sorted(set(errors.values()))[:5],
        "digests": workloads.digests(args.workload, outputs),
        "spans": tracer.spans() if tracer else {},
        "fraction_calls": fraction_calls(profile) if profile else None,
        "speed_s": speeds[0] if probe else None,
        "op_speed_s": speeds[1] if probe else None,
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
