"""Benchmark for the highprob toolkit: one workload per run, in one process
with one thread, as a closed loop with a single client.

    python3 perfbench/run.py --workload agreement --seed 1 --seconds 20 --trace 0

Workloads: agreement, roundtrip, census, cli (see perfbench/DESIGN.md).
With ``--trace 0`` the run times items for ``--seconds`` seconds and
reports the end-to-end metrics; with ``--trace 1`` it runs a fixed prefix
of the workload with spans around the calls into each layer, replays the
same prefix untraced, and reports the per-layer metrics.  Every verdict is
checked against the reference in ``reference.py`` after the timing.  The
last line of standard output is one JSON object; details go to
``perfbench/out/``.  The program is imported from ``src/`` next to this
directory; without it the run exits with status 1.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from fractions import Fraction
from time import perf_counter

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
MODULES = ("core", "formula", "semantics", "neighborhood", "synthesis",
           "calculus", "corpus", "cli")
SETUP_REPEATS = 5
# Times are reported at a reference machine speed.  Between items, at
# least every CALIBRATE_EVERY_S of wall time, the loop times a fixed
# stdlib computation of the same kind as the program's work (rational
# arithmetic, hashing, small containers); each item's time is multiplied
# by REFERENCE_KERNEL_S over the mean kernel time around it.  On a shared
# 2-core machine the speed drifts by 15-50% within minutes, and item and
# kernel times drift together: over repeated passes on the same items the
# coefficient of variation of a pass fell from 0.15 to 0.04 (agreement)
# and from 0.11 to 0.05 (cli).
REFERENCE_KERNEL_S = 0.001
CALIBRATE_EVERY_S = 0.025
# the timed loop also runs until this many items are done, so that at least
# ten samples lie beyond the 90th percentile when the machine is slow
MIN_ITEMS = 160


class Program:
    """The ``highprob`` modules, imported from this checkout's ``src/``."""

    def __init__(self):
        if not os.path.isfile(os.path.join(SRC, "highprob", "__init__.py")):
            raise SystemExit(f"error: no highprob package under {SRC}")
        sys.path.insert(0, SRC)
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"highprob.{name}"))
        origin = os.path.dirname(os.path.abspath(self.core.__file__))
        if origin != os.path.join(SRC, "highprob"):
            raise SystemExit(f"error: highprob was imported from {origin}")


def git_revision() -> str:
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref_name = head[5:]
        path = os.path.join(git, ref_name)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref_name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def speed_kernel():
    acc, table = Fraction(0), {}
    for i in range(1, 400):
        acc += Fraction(i % 7 + 1, i % 11 + 2)
        key = frozenset(range(i % 6))
        table[key] = table.get(key, 0) + 1
    return acc, len(table)


def kernel_seconds() -> float:
    """One kernel run with the garbage collector paused, so that a sample
    reflects the machine and not the heap the items left."""
    paused = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        speed_kernel()
        return perf_counter() - start
    finally:
        if paused:
            gc.enable()


def local_scales(samples, before) -> list[float]:
    """Per item, the factor to the reference speed: the mean of the kernel
    samples within two samples of the last one taken before the item."""
    out = []
    for j in before:
        window = samples[max(0, j - 2):j + 3]
        out.append(REFERENCE_KERNEL_S * len(window) / sum(window))
    return out


def digest(verdicts) -> str:
    text = json.dumps(verdicts, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# ---------------------------------------------------------------------------
# Set-up time and memory: measured in fresh interpreters

def child(kind: str, workload: str, seed: int) -> None:
    """Inside a fresh interpreter.  ``setup``: import the program, build
    the inputs up to a cheap probe item, run it cold and then warm, and
    report when the cold run ended; the parent subtracts input building and
    the warm run.  ``memory``: run the first ``trace_items`` items, keeping
    no verdicts, and report the peak resident memory."""
    hp = Program()
    workdir = make_workdir(f"{kind}-{workload}")
    try:
        t0 = perf_counter()
        wl = workloads.WORKLOADS[workload](hp, seed, workdir)
        if kind == "memory":
            for i in range(wl.trace_items):
                wl.run(wl.item(i))
            print(json.dumps({"peak_rss_mb": peak_rss_mb()}))
            return
        item = wl.item(wl.probe())
        t1 = perf_counter()
        wl.run(item)
        ready = perf_counter()
        wl.run(item)
        warm = perf_counter() - ready
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"ready": ready, "build_s": t1 - t0, "warm_s": warm}))


def run_child(kind: str, workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--child", kind,
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=150, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"{kind} probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure_setup(workload: str, seed: int) -> tuple[list, list]:
    """Seconds from starting an interpreter to being ready for the first
    timed item: interpreter start, imports and the program's lazy set-up
    (first-call cost), without the benchmark's input building.  Returns
    the samples and their factors to the reference speed, from kernel runs
    just before each."""
    samples, scales = [], []
    for _ in range(SETUP_REPEATS):
        kernel = [kernel_seconds() for _ in range(5)]
        scales.append(REFERENCE_KERNEL_S * len(kernel) / sum(kernel))
        start = perf_counter()
        probe = run_child("setup", workload, seed)
        samples.append(probe["ready"] - start - probe["build_s"]
                       - probe["warm_s"])
    return samples, scales


def make_workdir(tag: str) -> str:
    path = os.path.join(OUT, f"work-{tag}-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    return path


# ---------------------------------------------------------------------------
# Items

def run_item(wl, i: int, runner=None):
    """(seconds, verdict, error) for item i; an exception from the program
    is an error, not a crash of the benchmark.  ``runner(i, item)``
    replaces ``wl.run(item)`` in the traced run."""
    item = wl.item(i)
    start = perf_counter()
    try:
        raw = runner(i, item) if runner else wl.run(item)
    except Exception as exc:  # counted in error_rate, reported below
        seconds = perf_counter() - start
        where = traceback.extract_tb(exc.__traceback__)[-1]
        return seconds, None, (f"{type(exc).__name__}: {exc} "
                               f"({os.path.basename(where.filename)}:"
                               f"{where.lineno})")
    seconds = perf_counter() - start
    return seconds, wl.verdict(item, raw), None


def check_items(wl, results) -> dict:
    """Reference check of every recorded item: index -> reasons."""
    failures = {}
    for i, (_, verdict, error) in results.items():
        reasons = [error] if error else wl.check(wl.item(i), verdict)
        if reasons:
            failures[i] = reasons
    return failures


def prefix_digest(wl, results) -> str:
    """Digest of the verdicts of the first ``trace_items`` items, the same
    for every run of a seed; items the loop did not reach run now."""
    for i in range(wl.trace_items):
        if i not in results:
            results[i] = run_item(wl, i)
    return digest([[results[i][1], results[i][2]]
                   for i in range(wl.trace_items)])


def measured_pass(wl, more, runner=None) -> tuple[dict, list]:
    """Run items 0, 1, ... while ``more(i)``, timing the speed kernel
    between them at least every CALIBRATE_EVERY_S.  Returns the results
    and each item's factor to the reference speed."""
    results, samples, before = {}, [], []
    next_sample = 0.0
    i = 0
    while more(i):
        if perf_counter() >= next_sample:
            samples.append(kernel_seconds())
            next_sample = perf_counter() + CALIBRATE_EVERY_S
        before.append(len(samples) - 1)
        results[i] = run_item(wl, i, runner)
        i += 1
    samples.append(kernel_seconds())
    return results, local_scales(samples, before)


def timed_loop(wl, seconds: float) -> tuple[dict, list]:
    """Items until ``seconds`` have passed and ``MIN_ITEMS`` are done; the
    block of items in progress at the deadline finishes and counts, so
    that every run has whole blocks of the workload's mix."""
    deadline = perf_counter() + seconds
    return measured_pass(wl, lambda i: perf_counter() < deadline
                         or i < MIN_ITEMS or i % wl.block)


def scaled_total(results, scales) -> float:
    return sum(results[i][0] * f for i, f in zip(sorted(results), scales))


# ---------------------------------------------------------------------------
# End-to-end run

def end_to_end(wl, args) -> tuple[dict, dict, list[str]]:
    run_item(wl, 0)  # warm-up: lazy set-up and caches fill before timing
    results, scales = timed_loop(wl, args.seconds)
    n = len(results)
    raw = [results[i][0] for i in range(n)]
    times = [t * f for t, f in zip(raw, scales)]
    p90 = statistics.quantiles(times, n=10)[8]
    beyond = sum(1 for t in times if t > p90)
    setup, setup_scales = measure_setup(wl.name, args.seed)
    rss = run_child("memory", wl.name, args.seed)["peak_rss_mb"]

    lines = []
    prefix = prefix_digest(wl, results)
    census_ok = True
    if wl.name == "census":
        census_ok, census_lines = census_totals(wl, results)
        lines += census_lines
    failures = check_items(wl, results)
    failed = sum(1 for i in range(n) if i in failures)
    metrics = {
        "items_per_s": (n / sum(times), "1/s"),
        "verdict_p50_ms": (statistics.median(times) * 1000, "ms"),
        "verdict_p90_ms": (p90 * 1000, "ms"),
        "setup_s": (statistics.median(
            t * f for t, f in zip(setup, setup_scales)), "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    lines.append(f"items {n}, failed {failed}, error_rate {failed / n} "
                 f"(ratio); p90 has {beyond} samples beyond it")
    lines.append(f"machine speed: times scaled by "
                 f"{statistics.median(scales):.4g} (median) to the speed "
                 f"where the kernel takes {REFERENCE_KERNEL_S * 1e6:.0f} us;"
                 f" unscaled: items_per_s {n / sum(raw):.4g}, "
                 f"verdict_p50_ms {statistics.median(raw) * 1000:.4g}, "
                 f"setup_s {statistics.median(setup):.4g}")
    extra = {"attempted": n, "failed": failed, "error_rate": failed / n,
             "correct": census_ok and not failures,
             "p90_samples_beyond": beyond, "speed_scales": scales,
             "setup_speed_scales": setup_scales, "setup_samples_s": setup,
             "unscaled_item_s": raw, "digest": prefix}
    lines += failure_lines(failures)
    return metrics, extra, lines


def census_totals(wl, results) -> tuple[bool, list[str]]:
    """The pinned census counts; skeletons the loop did not reach are run
    after it."""
    small = [i for i, it in enumerate(wl.items) if 1 <= it["n"] <= 4]
    for i in small:
        if i not in results:
            results[i] = run_item(wl, i)
    feasible = sum(1 for i in small
                   if results[i][1] is not None and results[i][1][0])
    ok = len(small) == wl.skeleton_count and feasible == wl.feasible_at_half
    fives = [i for i in results if wl.items[i % len(wl.items)]["n"] == 5
             and results[i][1] is not None]
    open_cases = sum(1 for i in fives
                     if wl.open_case(wl.item(i), results[i][1]))
    return ok, [f"census: {len(small)} skeletons with <= 4 worlds "
                f"(expected {wl.skeleton_count}), {feasible} feasible at "
                f"1/2 (expected {wl.feasible_at_half}); {len(fives)} "
                f"5-world systems checked, {open_cases} open cases"]


def failure_lines(failures) -> list[str]:
    out = []
    for i in sorted(failures)[:10]:
        out.append(f"  item {i}: " + "; ".join(failures[i][:3]))
    if len(failures) > 10:
        out.append(f"  ... and {len(failures) - 10} more")
    return out


# ---------------------------------------------------------------------------
# Traced run

def traced(hp, wl, args) -> tuple[dict, dict, list[str]]:
    import layers
    from spans import Tracer

    run_item(wl, 0)
    tracer = Tracer()
    counters = layers.install(tracer, hp)

    def runner(i, item):
        tracer.item = i
        return tracer.span("item", wl.run, item)

    def prefix(i):
        return i < wl.trace_items

    results, scales = measured_pass(wl, prefix, runner)
    traced_s = scaled_total(results, scales)
    tracer.uninstall()
    plain_s = scaled_total(*measured_pass(wl, prefix))

    failures = check_items(wl, results)
    item_scales = dict(zip(sorted(results), scales))
    metrics, shares = layers.metrics(tracer, counters, item_scales)
    metrics["trace.overhead_frac"] = (traced_s / plain_s - 1, "ratio")
    if wl.name == "census":
        metrics["census.open_cases"] = (sum(
            1 for i, (_, v, _) in results.items()
            if v is not None and wl.open_case(wl.item(i), v)), "count")
    summary = tracer.summary(item_scales)
    lines = [f"traced items {wl.trace_items}: traced {traced_s:.3f} s, "
             f"untraced {plain_s:.3f} s (at the reference speed)",
             "self-time shares of item time:"]
    lines += [f"  {share * 100:6.2f} %  {name}" for name, share in shares]
    extra = {"attempted": len(results), "failed": len(failures),
             "correct": not failures, "span_tree": summary["tree"],
             "layers": summary["layers"], "shares": dict(shares),
             "digest": digest([[results[i][1], results[i][2]]
                               for i in range(wl.trace_items)])}
    lines += failure_lines(failures)
    spans_path = os.path.join(
        OUT, f"{wl.name}-seed{args.seed}-spans.json.gz")
    with gzip.open(spans_path, "wt", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "parent", "start", "end", "item"],
                   "spans": tracer.spans}, fh)
    return metrics, extra, lines


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=("setup", "memory"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    hp = Program()
    if args.child:
        child(args.child, args.workload, args.seed)
        return 0
    os.makedirs(OUT, exist_ok=True)
    workdir = make_workdir(args.workload)
    try:
        wl = workloads.WORKLOADS[args.workload](hp, args.seed, workdir)
        if args.trace:
            metrics, extra, lines = traced(hp, wl, args)
        else:
            metrics, extra, lines = end_to_end(wl, args)
        if args.workload == "cli":
            broken = workloads.known_bad_cli(hp, workdir)
            if args.trace:
                metrics["cli.contract_breaks"] = (len(broken), "count")
            lines.append(f"known-bad CLI inputs: {len(broken)} of "
                         f"{len(workloads.KNOWN_BAD_CLI)} break the exit-code "
                         "contract (outside the timed loop)")
            lines += [f"  {case}: {outcome}" for case, outcome in broken]
            extra["contract_breaks"] = broken
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = {"cores": os.cpu_count(), "python": platform.python_version(),
           "implementation": platform.python_implementation(),
           "machine": platform.machine(), "revision": git_revision()}
    print(f"highprob benchmark: workload {args.workload}, seed {args.seed}, "
          f"{'traced prefix' if args.trace else f'{args.seconds:g} s'}; "
          f"{env['cores']} cores, Python {env['python']}, "
          f"revision {env['revision']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:38s} {value:>14.6g} {unit}")
    for line in lines:
        print(line)
    print(f"verdict digest (first {wl.trace_items} items): {extra['digest']}")

    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "env": env,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}, **extra}
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace"
                                f"{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)
    print(json.dumps({"correct": extra["correct"],
                      "attempted": extra["attempted"],
                      "failed": extra["failed"],
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
