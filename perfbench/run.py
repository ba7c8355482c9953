#!/usr/bin/env python3
"""The repository benchmark: three workloads, host- and simulated-plane metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selfcheck

The first call builds perfbench/CMakeLists.txt (the library from src/ plus the
perfbench_workload driver) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench; later calls rebuild incrementally.

--trace 0 runs the workload in fresh processes, one after another, while the
next repetition still fits in --seconds (at least MIN_REPS + 1 times) and
reports the end-to-end metrics: the host plane over the repetitions after
the first (a warm-up): fastest run_s and setup_s (process CPU time), median
peak_rss_mb; and the
simulated plane, which every repetition must reproduce exactly (same
MetricsFingerprint). --trace 1 runs the traced driver the same way and reports
the per-layer metrics (medians over its repetitions).

Every repetition passes the workload's correctness gate or the run fails. The
last line of stdout is the result object; lines before it are the
per-repetition fingerprints and sample counts.

The workloads and the metric tables (names, units, directions) are read from
BENCHMARK.json. --selfcheck runs every workload at a quarter of its horizon,
traced and untraced, and checks that every declared metric is emitted with
its unit and that tracing leaves each fingerprint unchanged.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")

MIN_REPS = 3
CHILD_TIMEOUT_S = 150


def load_spec():
    """Workloads and metric tables (name -> (unit, better)) from
    BENCHMARK.json, the one place they are declared."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    def table(key):
        return {m["name"]: (m["unit"], m["better"]) for m in spec[key]}
    return [w["name"] for w in spec["workloads"]], table("end_to_end"), \
        table("per_layer")


WORKLOADS, END_TO_END, PER_LAYER = load_spec()
# Host-plane metrics; every other end-to-end metric is simulated and must
# repeat exactly for one seed.
HOST = ("run_s", "setup_s", "peak_rss_mb")
SIMULATED = [name for name in END_TO_END if name not in HOST]


class BenchError(Exception):
    pass


def build():
    """Configures (once) and builds the driver; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "api", "deployment.h")):
        raise BenchError("no library sources under %s/src" % ROOT)
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    build_dir = os.path.join(target, "perfbench")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", "4"])
    for cmd in steps:
        p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True)
        if p.returncode != 0:
            sys.stderr.write(p.stdout[-8000:])
            raise BenchError("build failed: %s" % " ".join(cmd))
    return os.path.join(build_dir, "perfbench_workload")


def run_child(binary, workload, seed, traced, scale=1.0):
    cmd = [binary, "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd.append("--traced")
    if scale != 1.0:
        cmd += ["--scale", repr(scale)]
    try:
        p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                           stderr=subprocess.PIPE, text=True,
                           timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("%s timed out" % workload)
    lines = p.stdout.strip().splitlines()
    if not lines:
        sys.stderr.write(p.stderr[-4000:])
        raise BenchError("%s exited %d without output" % (workload, p.returncode))
    rep = json.loads(lines[-1])
    rep["exit"] = p.returncode
    if p.returncode != 0 and not rep.get("errors"):
        rep["errors"] = ["exit code %d" % p.returncode]
    return rep


def repeat(binary, workload, seed, traced, seconds, min_reps):
    """Runs the child back to back: at least min_reps times, then while the
    next repetition (as long as the last one) still ends within `seconds`."""
    start = time.monotonic()
    reps = []
    last = 0.0
    while (len(reps) < min_reps or
           time.monotonic() - start + last <= seconds):
        t = time.monotonic()
        reps.append(run_child(binary, workload, seed, traced))
        last = time.monotonic() - t
    return reps


def gate(reps):
    """Correctness over the repetitions: every gate passed, and every run
    (and, when traced, every traced run) printed one and the same
    fingerprint."""
    errors = []
    for i, r in enumerate(reps):
        errors += ["rep %d: %s" % (i, e) for e in r.get("errors", [])]
    fps = {r["fingerprint"] for r in reps}
    fps |= {r["traced_fingerprint"] for r in reps if "traced_fingerprint" in r}
    if len(fps) != 1:
        errors.append("fingerprints differ between runs: %s" % sorted(fps))
    for name in SIMULATED:
        if len({r[name] for r in reps}) != 1:
            errors.append("%s differs between runs of one seed" % name)
    return errors


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(reps):
    # The first repetition warms the host (page cache, CPU) after the build;
    # it is gated like the rest but left out of the host-plane figures.
    # Times are the fastest repetition: on a shared host, interference only
    # ever adds time, and it comes in bursts lasting seconds. Over ten 10-seed
    # sets on a shared 4-core VM, the run_s spread of per-run minima was
    # smaller than that of per-run medians in 8.
    host = reps[1:]
    values = {
        "run_s": min(r["run_s"] for r in host),
        "setup_s": min(s for r in host for s in r["setup_s"]),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in host),
    }
    for name in SIMULATED:
        values[name] = reps[0][name]
    return {name: metric(values[name], unit)
            for name, (unit, _) in END_TO_END.items()}


def per_layer(reps):
    out = {}
    for name, (unit, _) in PER_LAYER.items():
        vals = [r["layers"][name] for r in reps if name in r.get("layers", {})]
        if len(vals) != len(reps):
            raise BenchError("per-layer metric %s missing" % name)
        out[name] = metric(statistics.median(vals), unit)
    return out


def bench(args):
    binary = build()
    traced = args.trace == 1
    # One traced repetition already runs the workload twice plus timings;
    # untraced runs add the warm-up repetition end_to_end leaves out.
    reps = repeat(binary, args.workload, args.seed, traced, args.seconds,
                  1 if traced else MIN_REPS + 1)
    for i, r in enumerate(reps):
        print("rep %d run_s %.6f wall %.6f setup_s %.6g fingerprint %s%s" % (
            i, r["run_s"], r["run_wall_s"], statistics.median(r["setup_s"]),
            r["fingerprint"],
            " traced %s" % r["traced_fingerprint"] if traced else ""))
    print("client_p99_ms %.6g over %d samples" % (
        reps[0]["client_p99_ms"], reps[0]["client_p99_samples"]))
    errors = gate(reps)
    for e in errors:
        print("check failed: %s" % e)
    result = {
        "correct": not errors,
        "attempted": sum(r["attempted"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "metrics": per_layer(reps) if traced else end_to_end(reps),
    }
    print(json.dumps(result))
    return 0 if not errors else 1


def selfcheck():
    problems = []
    binary = build()
    for workload in WORKLOADS:
        rep = run_child(binary, workload, 1, traced=True, scale=0.25)
        tag = "%s:" % workload
        problems += ["%s %s" % (tag, e) for e in gate([rep])]
        try:  # the result-line assembly, on this one repetition
            emitted = dict(end_to_end([rep, rep]), **per_layer([rep]))
        except (BenchError, KeyError) as e:
            problems.append("%s result line: %s" % (tag, e))
            emitted = {}
        for name, (unit, _) in dict(END_TO_END, **PER_LAYER).items():
            if emitted.get(name, {}).get("unit") != unit:
                problems.append("%s %s not emitted with unit %s" % (
                    tag, name, unit))
        print("%-15s fingerprint %s traced %s %s" % (
            workload, rep["fingerprint"][:16],
            rep.get("traced_fingerprint", "")[:16],
            "ok" if not rep.get("errors") else rep["errors"]))
    for p in problems:
        print("selfcheck: %s" % p)
    print("selfcheck %s" % ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selfcheck", action="store_true")
    args = ap.parse_args()
    try:
        if args.selfcheck:
            return selfcheck()
        if args.workload is None:
            ap.error("--workload is required")
        if args.seed < 0:
            ap.error("--seed must be non-negative")
        return bench(args)
    except BenchError as e:
        sys.stderr.write("perfbench: %s\n" % e)
        return 2


if __name__ == "__main__":
    sys.exit(main())
