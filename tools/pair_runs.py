#!/usr/bin/env python3
"""Alternating parent/change pairs of one perfbench workload.

    python3 tools/pair_runs.py PARENT_BIN CHANGE_BIN \\
        --workload aware_attack --seeds 21-32 [--metric setup_s]
    python3 tools/pair_runs.py PARENT_BIN CHANGE_BIN --simulated-may-move \\
        --workload optitree_world --seeds 21-34 --metric client_p50_ms

PARENT_BIN and CHANGE_BIN are two builds of perfbench_workload (for the
parent, `git archive` it into a temporary directory and build perfbench/
there). Each seed is one pair: both builds run it once, untraced, through
perfbench/run.py's run_child, and which side runs first alternates from pair
to pair, so a slow spell on a shared host does not always land on the same
side.

Every pair must be correct: no `errors` entry on either side, and the same
MetricsFingerprint and the same simulated end-to-end metrics (perfbench's
SIMULATED list) on both. A host-side optimization leaves all of them
unchanged.

Prints both sides' median and quartiles of run_s, setup_s (a run's setup_s
is the fastest of its timed builds) and peak_rss_mb, the change's wins on the
claimed metric (--metric, default run_s: any end-to-end metric of
BENCHMARK.json, in its `better` direction), and whether the gain rule holds
for it: at least 10 pairs, the change wins at least 9 of every 10, and the
median gap is larger than the parent's interquartile range.

The other two host metrics are checked against their `bound` in
BENCHMARK.json's end_to_end table (read, never written): the change's median,
relative to the parent's, is "within" the bound or "over" it, or
"unresolved" when the parent's IQR, relative to its median, is wider than the
bound and the change does not win every pair.

--simulated-may-move measures a change that is meant to move the simulated
plane: fingerprints and simulated metrics may differ between the sides
(`errors` entries still fail). Instead of the equality check it prints a
table of every end-to-end metric: both medians, the delta, the pairs that
moved in the metric's `better` direction, and its bound verdict as above
("identical" when every pair read the same). Every metric but the claimed
one is held to its bound.

Exit status: 0 when every pair is correct, the rule holds and no bounded
metric is over; 2 when every pair is correct but the rule does not hold or a
bounded metric is over; 1 on any error or mismatch.
"""

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# perfbench/run.py is imported read-only: no __pycache__ is written there.
sys.dont_write_bytecode = True
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import run as perfbench  # noqa: E402

MIN_PAIRS = 10
# Host metrics: the claimed one takes the gain rule, the others their
# BENCHMARK.json bound.
HOST = ("run_s", "setup_s", "peak_rss_mb")


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run(binary, workload, seed):
    rep = perfbench.run_child(binary, workload, seed, traced=False)
    rep["setup_s"] = min(rep["setup_s"])
    return rep


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, q1, q3


def load_bounds():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        table = json.load(f)["end_to_end"]
    return {m["name"]: (m["bound"], m["better"]) for m in table}


def relative(value, base):
    if base == 0:
        return 0.0 if value == 0 else float("inf")
    return value / base


def wins_of(better, parent, change):
    """Pairs in which the change moved in the metric's better direction."""
    sign = 1.0 if better == "lower" else -1.0
    return sum(sign * (c - p) < 0 for p, c in zip(parent, change))


def bound_check(name, bound, better, parent, change):
    """One bounded metric over the pairs: prints the change's median delta
    against the bound and returns "within", "over" or "unresolved"."""
    sign = 1.0 if better == "lower" else -1.0
    parent_median, q1, q3 = summary(parent)
    delta = relative(statistics.median(change) - parent_median, parent_median)
    iqr = relative(q3 - q1, parent_median)
    wins = wins_of(better, parent, change)
    if iqr > bound and wins < len(parent):
        verdict = "unresolved"
    else:
        verdict = "over" if sign * delta > bound else "within"
    print("%s: change median %+.1f%% vs bound %.0f%%; parent IQR %.1f%%; "
          "change wins %d/%d: %s" % (name, 100.0 * delta, 100.0 * bound,
                                     100.0 * iqr, wins, len(parent), verdict))
    return verdict


def movement_table(bounds, claimed, reps):
    """--simulated-may-move: one row per end-to-end metric, then its bound
    line; returns the metrics other than `claimed` that are over their
    bound."""
    print("%-18s %14s %14s %9s %7s" % ("metric", "parent median",
                                       "change median", "delta", "better"))
    over = []
    for name, (bound, better) in bounds.items():
        parent = [r[name] for r in reps["parent"]]
        change = [r[name] for r in reps["change"]]
        parent_median = statistics.median(parent)
        change_median = statistics.median(change)
        print("%-18s %14.6g %14.6g %+8.2f%% %3d/%-3d" % (
            name, parent_median, change_median,
            100.0 * relative(change_median - parent_median, parent_median),
            wins_of(better, parent, change), len(parent)))
        if parent == change:
            print("%s: identical on every pair" % name)
        elif bound_check(name, bound, better, parent, change) == "over" \
                and name != claimed:
            over.append(name)
    return over


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent", help="the parent's perfbench_workload")
    ap.add_argument("change", help="the change's perfbench_workload")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True,
                    help="seed list, e.g. 21-32 or 1,4,7-9")
    bounds = load_bounds()
    ap.add_argument("--metric", choices=sorted(bounds), default="run_s",
                    help="the end-to-end metric a gain is claimed on")
    ap.add_argument("--simulated-may-move", action="store_true",
                    help="the change moves the simulated plane: tabulate "
                    "every end-to-end metric instead of requiring equality")
    args = ap.parse_args()
    metric = args.metric
    better = bounds[metric][1]
    seeds = parse_seeds(args.seeds)
    if len(seeds) < 2:
        ap.error("need at least two seeds")
    sides = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    checked = [] if args.simulated_may_move else \
        ["fingerprint"] + perfbench.SIMULATED

    problems = []
    reps = {"parent": [], "change": []}
    print("%6s %-7s %12s %12s  win" % ("seed", "first", "parent", "change"))
    for i, seed in enumerate(seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        try:
            pair = {side: run(sides[side], args.workload, seed)
                    for side in order}
        except perfbench.BenchError as e:
            print("check failed: seed %d: %s" % (seed, e))
            return 1
        for side in order:
            problems += ["seed %d %s: %s" % (seed, side, e)
                         for e in pair[side].get("errors", [])]
            reps[side].append(pair[side])
        for name in checked:
            if pair["parent"].get(name) != pair["change"].get(name):
                problems.append("seed %d: %s differs: parent %s, change %s" % (
                    seed, name, pair["parent"].get(name),
                    pair["change"].get(name)))
        print("%6d %-7s %12.6f %12.6f  %s" % (
            seed, order[0], pair["parent"][metric], pair["change"][metric],
            "yes" if wins_of(better, [pair["parent"][metric]],
                             [pair["change"][metric]]) else "no"))

    for name in HOST:
        for side in ("parent", "change"):
            median, q1, q3 = summary([r[name] for r in reps[side]])
            print("%-11s %-7s median %.6g  quartiles %.6g .. %.6g" % (
                name, side, median, q1, q3))

    parent_values = [r[metric] for r in reps["parent"]]
    wins = wins_of(better, parent_values, [r[metric] for r in reps["change"]])
    parent_median, q1, q3 = summary(parent_values)
    change_median = statistics.median(r[metric] for r in reps["change"])
    gap = parent_median - change_median
    if better != "lower":
        gap = -gap
    print("%s: change wins %d/%d; median gap %.6g vs parent IQR %.6g "
          "(%+.1f%%)" % (metric, wins, len(seeds), gap, q3 - q1,
                         100.0 * relative(change_median - parent_median,
                                          parent_median)))
    reasons = []
    if len(seeds) < MIN_PAIRS:
        reasons.append("%d pairs, fewer than %d" % (len(seeds), MIN_PAIRS))
    if wins * 10 < 9 * len(seeds):
        reasons.append("fewer than 9/10 wins")
    if gap <= q3 - q1:
        reasons.append("median gap within the parent's IQR")
    print("rule (>= %d pairs, >= 9/10 wins, gap > parent IQR): %s" % (
        MIN_PAIRS, "holds" if not reasons else
        "does not hold: " + "; ".join(reasons)))
    if args.simulated_may_move:
        over = movement_table(bounds, metric, reps)
        moved = sum(p["fingerprint"] != c["fingerprint"]
                    for p, c in zip(reps["parent"], reps["change"]))
        print("fingerprint differs on %d/%d pairs" % (moved, len(seeds)))
    else:
        over = [name for name in HOST if name != metric and bound_check(
            name, *bounds[name], [r[name] for r in reps["parent"]],
            [r[name] for r in reps["change"]]) == "over"]
    for p in problems:
        print("check failed: %s" % p)
    if problems:
        return 1
    return 0 if not reasons and not over else 2


if __name__ == "__main__":
    sys.exit(main())
