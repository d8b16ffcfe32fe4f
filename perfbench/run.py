#!/usr/bin/env python3
"""The malcev5 benchmark: one workload, one seed, one measured window.

Usage (from the repository root):

    python3 perfbench/run.py --workload session --seed 1 --seconds 40 --trace 0

Each measured run is a fresh interpreter (``child.py``) that imports the
package from ``src/``, builds the workload's batch from the seed and runs it
once from cold memo tables.  Runs go one at a time: at least ``MIN_RUNS``,
then more while they fit in the ``--seconds`` window; figures are medians
over them.  With ``--trace 0`` the result holds the end-to-end metrics, with
``--trace 1`` the per-layer ones from instrumented runs.  Every output is
checked exactly; the last line of stdout is one JSON object.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
EXPECTED = os.path.join(HERE, "expected.json")  # recorded output hashes

WORKLOADS = ("verify", "high_degree", "session")
SUITES = ("oracle", "operators", "nucleus", "malcev", "alternative", "homomorphism", "special")
MIN_RUNS = 3
# median time of child.speed_sample on the reference host (2-vCPU Intel
# Xeon VM, Python 3.11.7); a run's times are scaled by REF_SPEED_S over its
# own median sample
REF_SPEED_S = 0.015
TIME_LIMIT_S = 170  # the whole invocation must end within 180 s
TAIL_BEYOND = 10


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    env.pop("MALCEV5_MEMO_LIMIT", None)
    env["PYTHONPATH"] = SRC
    return env


def check_package():
    """Fail early unless the package imports from this checkout's src/."""
    proc = subprocess.run(
        [sys.executable, "-c", "import malcev5; print(malcev5.__file__)"],
        env=child_env(), cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    path = os.path.realpath(proc.stdout.strip())
    if proc.returncode != 0 or not path.startswith(os.path.realpath(SRC) + os.sep):
        raise BenchError(f"cannot import malcev5 from {SRC}: {proc.stderr.strip()[-300:]}")


def spawn(workload, seed, mode, tiny, check, timeout):
    cmd = [sys.executable, os.path.join(HERE, "child.py"), workload, str(seed), mode]
    cmd += ["--tiny"] * tiny + ["--check"] * check
    spawned_at = time.time()
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"crashed": f"{mode} run exceeded {timeout:.0f} s"}
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return {"crashed": f"{mode} run exited {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    result["setup_s"] = result["first_op_at"] - spawned_at
    if result["speed_s"]:
        to_reference(result)
    return result


def to_reference(result):
    """Scale a run's times to reference seconds: each operation's latency
    by its own speed sample, every other time by the run's.  ``wall_s`` is
    the sum of its operations' and the time between them."""
    factor = result["factor"] = REF_SPEED_S / result["speed_s"]
    raw_ops = result["op_s"]
    ops = [t * REF_SPEED_S / s for t, s in zip(raw_ops, result["op_speed_s"])]
    result["raw_wall_s"] = result["wall_s"]
    result["wall_s"] = (result["wall_s"] - sum(raw_ops)) * factor + sum(ops)
    result["setup_s"] *= factor
    result["op_s"] = ops
    for span in result["spans"].values():
        span[1] *= factor


def factor_range(runs):
    """Smallest, median and largest speed factor of the runs."""
    factors = sorted(r["factor"] for r in runs)
    return factors[0], statistics.median(factors), factors[-1]


def median(values):
    return statistics.median(values) if values else None


def median_count(values):
    return statistics.median_low(values) if values else None


def tail(values):
    """(value, percentile) at the highest percentile with at least
    TAIL_BEYOND samples beyond it; the maximum when there are too few."""
    ordered = sorted(values)
    n = len(ordered)
    rank = n - TAIL_BEYOND if n > TAIL_BEYOND else n
    return ordered[rank - 1], 100.0 * rank / n


def per_op_medians(runs):
    """Latency of each batch operation: its median over the cold runs."""
    return [statistics.median(column) for column in zip(*(r["op_s"] for r in runs))]


def load_recorded(path, workload, seed, tiny):
    """Recorded output hashes for this batch, or None."""
    try:
        with open(path) as fh:
            table = json.load(fh)
    except FileNotFoundError:
        return None
    return table.get(f"{workload}:{'tiny' if tiny else 'full'}", {}).get(str(seed))


def count_failures(runs, reference, n_ops):
    """(attempted, failed) over all runs.  An operation fails when it raised,
    broke its identity check or hashed differently from ``reference``; a
    run that crashed fails whole.  Each operation counts once per run."""
    attempted = failed = 0
    for run in runs:
        attempted += n_ops
        if "crashed" in run:
            failed += n_ops
            continue
        got = run["digests"]
        width = len(got) // n_ops
        bad = set(run["failed_ops"])
        bad.update(i for i in range(n_ops)
                   if got[i * width:(i + 1) * width] != reference[i * width:(i + 1) * width])
        failed += len(bad)
    return attempted, failed


def measure(workload, seed, seconds, trace, tiny):
    """Run cold runs one at a time: first the minimum, then one more cycle
    whenever the last cycle's duration says it ends inside the window.  In
    a traced window a profiler pass comes first and plain and traced runs
    alternate.  The first plain run also checks its outputs' identities;
    every run's hashes are compared afterwards."""
    started = time.perf_counter()
    runs = {"plain": [], "trace": [], "profile": []}
    cycle = ["plain", "trace"] if trace else ["plain"]
    plan = ["profile"] + cycle if trace else cycle * MIN_RUNS
    last = {}  # mode -> duration of its latest run
    while True:
        elapsed = time.perf_counter() - started
        if not plan:
            if elapsed + sum(last[mode] for mode in cycle) > seconds:
                break
            plan = list(cycle)
        left = TIME_LIMIT_S - elapsed
        if left < 1.5 * max(last.values(), default=0.0):
            break
        mode = plan.pop(0)
        t = time.perf_counter()
        check = mode == "plain" and not runs["plain"]
        runs[mode].append(spawn(workload, seed, mode, tiny, check, left))
        last[mode] = time.perf_counter() - t
    return runs


def git_commit():
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def end_to_end(good):
    ops = per_op_medians(good)
    tail_value, tail_pct = tail(ops)
    metrics = {
        "wall_s": (median([r["wall_s"] for r in good]), "s"),
        "op_p50_ms": (statistics.median(ops) * 1000, "ms"),
        "op_tail_ms": (tail_value * 1000, "ms"),
        "setup_s": (median([r["setup_s"] for r in good]), "s"),
        "peak_rss_mb": (median([r["rss_mb"] for r in good]), "MB"),
    }
    notes = {"op_tail_ms": f"p{tail_pct:.1f} of {len(ops)} operations, "
                           f"each the median of {len(good)} cold runs"}
    return metrics, notes


def per_layer(workload, plain, traced, profiled):
    metrics, notes = {}, {}

    def span(name, index):
        values = [r["spans"].get(name, [0, 0.0])[index] for r in traced]
        return median_count(values) if index == 0 else median(values)

    for name in ("envelope.mul_u_closed", "envelope.mul_u", "alternative.mul_a",
                 "diffops.compose"):
        metrics[f"{name}.calls"] = (span(name, 0), "count")
        metrics[f"{name}.self_s"] = (span(name, 1), "s")
    for name in ("diffops.l_of_monomial", "diffops.apply", "envelope.mul_u_oracle",
                 "exprs.parse_element", "exprs.element_json", "core.format"):
        metrics[f"{name}.self_s"] = (span(name, 1), "s")

    memo = {key: median_count([r["memo"][key] for r in traced if r["memo"][key] is not None])
            for key in ("envelope", "diffops", "closed")}
    for group in ("envelope", "diffops"):
        metrics[f"{group}.memo_entries"] = (memo[group] or 0, "count")
        if memo[group] is None:
            notes[f"{group}.memo_entries"] = "absent: no memo table found"
    calls = metrics["envelope.mul_u_closed.calls"][0]
    if memo["closed"] is None or not calls:
        metrics["envelope.mul_u_closed.hit_ratio"] = (0.0, "ratio")
        notes["envelope.mul_u_closed.hit_ratio"] = "absent: no closed-kernel memo or no calls"
    else:
        metrics["envelope.mul_u_closed.hit_ratio"] = (1 - memo["closed"] / calls, "ratio")

    fractions = [r["fraction_calls"] for r in profiled]
    metrics["core.fraction_calls"] = (median_count(fractions) or 0, "count")
    if not fractions:
        notes["core.fraction_calls"] = "absent: the profiler run failed"
    # suite times come from the untraced runs, where each operation is a suite
    for n, suite in enumerate(SUITES):
        seconds = median([r["op_s"][n] for r in plain]) if workload == "verify" else 0.0
        metrics[f"checks.{suite}_s"] = (seconds, "s")
        if workload != "verify":
            notes[f"checks.{suite}_s"] = "no suite runs in this workload"
    metrics["trace.overhead_ratio"] = (
        median([r["wall_s"] for r in traced]) / median([r["wall_s"] for r in plain]), "ratio")
    return metrics, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--tiny", action="store_true",
                        help="a very small batch, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    try:
        check_package()
        runs = measure(args.workload, args.seed, args.seconds, args.trace, args.tiny)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    everything = runs["plain"] + runs["trace"] + runs["profile"]
    crashed = [r["crashed"] for r in everything if "crashed" in r]
    good = {mode: [r for r in rs if "crashed" not in r] for mode, rs in runs.items()}
    if not good["plain"] or (args.trace and not good["trace"]):
        for message in crashed:
            print(f"error: measured run failed: {message}", file=sys.stderr)
        return 1

    n_ops = len(good["plain"][0]["op_s"])
    recorded = load_recorded(EXPECTED, args.workload, args.seed, args.tiny)
    reference = good["plain"][0]["digests"] if recorded is None else recorded
    attempted, failed = count_failures(everything, reference, n_ops)
    if args.trace:
        metrics, notes = per_layer(args.workload, good["plain"], good["trace"], good["profile"])
    else:
        metrics, notes = end_to_end(good["plain"])

    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "runs": {m: len(rs) for m, rs in runs.items() if rs},
        "operations_per_run": n_ops, "python": platform.python_version(),
        "nproc": os.cpu_count(), "platform": platform.platform(), "commit": git_commit(),
        "speed_factor": [round(f, 4) for f in factor_range(good["plain"])],
        "raw_wall_s": median([r["raw_wall_s"] for r in good["plain"]]),
        "checks": "suites must PASS" if args.workload == "verify"
                  else "identities, and hashes against the recorded ones" if recorded
                  else "identities, and hashes equal across runs (none recorded for this seed)",
    }
    print("meta " + json.dumps(meta))
    for message in crashed + sorted({e for r in everything for e in r.get("errors", [])}):
        print(f"failure: {message}")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} {value:.6g} {unit}{note}")
    print(f"fail_ratio {failed / attempted:.6g} ratio  ({failed} of {attempted} operations)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
