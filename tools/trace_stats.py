#!/usr/bin/env python3
"""Per-request critical-path statistics from an exported Chrome trace.

Usage:
    trace_stats.py TRACE_JSON [--csv]

Input is the Chrome trace-event JSON that `optilog_bench --trace
<scenario>:<point>:<path>` writes (src/obs/chrome_export.cc): one instant
event per flight-recorder record, carrying the raw record in `args`
(id/parent/kind/type/a/b). This script is the offline twin of
src/obs/stage_breakdown.cc — it refolds the six-record client lifecycle
(client_send -> queue_admit -> batch_seal -> commit -> reply_sent ->
client_complete, keyed by (request id, client id), first record of each kind
wins) and reports:

  * chain reconstruction: committed requests with the full chain vs
    committed requests missing a lifecycle record;
  * per-stage latency (mean / p50 / p99) across complete chains:
    client_net, queue, consensus, apply, reply — plus end-to-end total,
    once for all chains, once for single-shard chains and once for
    cross-shard chains (a chain's client_send record has type 1 for a
    cross-shard transaction, 0 otherwise; --csv names them in its `chains`
    column);
  * the causal forest shape: record count, root count, and dangling-parent
    count (must be 0);
  * a 2PC table from the coordinators' txn_prepare and txn_decide records
    (keyed by transaction id): transactions, prepare waves per transaction
    (distinct txn_prepare instants: 1 when every participant is prepared at
    once), and the first prepare -> decide latency. Text output only, and
    only when the trace holds transactions.

Timestamps in the trace are microseconds of sim time (Chrome's native `ts`
unit); stages print in ms.
Exit status: 0 clean, 1 if the trace is structurally broken (dangling
parents or no complete chains), 2 on usage errors.
"""

import argparse
import json
import sys

# TraceKind constants (src/obs/trace.h — stable wire values).
CLIENT_SEND = 16
QUEUE_ADMIT = 17
BATCH_SEAL = 18
COMMIT = 19
REPLY_SENT = 20
CLIENT_COMPLETE = 21
LIFECYCLE = range(CLIENT_SEND, CLIENT_COMPLETE + 1)
TXN_PREPARE = 34  # a = txn id, b = participant shard
TXN_DECIDE = 35   # a = txn id, b = 1 commit / 0 abort

STAGE_NAMES = ["client_net", "queue", "consensus", "apply", "reply", "total"]
# Chain populations, by the client_send record's type.
POPULATIONS = [("all", (0, 1)), ("single", (0,)), ("cross", (1,))]
# (stage, from-kind, to-kind): each stage telescopes between two lifecycle
# records; "batch" is 0 by construction (seal and propose share a handler).
STAGE_EDGES = [
    ("client_net", CLIENT_SEND, QUEUE_ADMIT),
    ("queue", QUEUE_ADMIT, BATCH_SEAL),
    ("consensus", BATCH_SEAL, COMMIT),
    ("apply", COMMIT, REPLY_SENT),
    ("reply", REPLY_SENT, CLIENT_COMPLETE),
    ("total", CLIENT_SEND, CLIENT_COMPLETE),
]


def percentile(sorted_values, q):
    if not sorted_values:
        return 0.0
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    frac = pos - lo
    return sorted_values[lo] * (1 - frac) + sorted_values[hi] * frac


def main(argv):
    ap = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    ap.add_argument("trace", help="Chrome trace JSON from optilog_bench --trace")
    ap.add_argument("--csv", action="store_true", help="machine-readable output")
    args = ap.parse_args(argv)

    try:
        with open(args.trace) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"error: cannot read '{args.trace}': {e}", file=sys.stderr)
        return 2

    records = []  # (t_ns, id, parent, kind, type, a, b)
    for ev in doc.get("traceEvents", []):
        if ev.get("ph") != "i":
            continue
        a = ev.get("args", {})
        if "kind" not in a:
            continue
        records.append((ev["ts"], a["id"], a["parent"], a["kind"],
                        a.get("type", 0), a["a"], a["b"]))

    if not records:
        print("error: no flight-recorder instant events in the trace",
              file=sys.stderr)
        return 1

    # Causal forest shape. Parent ids always refer to earlier records, so one
    # pass suffices.
    ids = set()
    roots = 0
    dangling = 0
    for _, rid, parent, _, _, _, _ in records:
        ids.add(rid)
        if parent == 0:
            roots += 1
        elif parent not in ids:
            dangling += 1

    # Lifecycle chains keyed (client id, request id); first record of each
    # kind wins — records are in (t, id) order in the file.
    chains = {}
    chain_type = {}  # chain key -> its client_send record's type
    for t, _, _, kind, rtype, a, b in records:
        if kind not in LIFECYCLE:
            continue
        chain = chains.setdefault((b, a), {})
        chain.setdefault(kind, t)
        if kind == CLIENT_SEND:
            chain_type.setdefault((b, a), rtype)

    complete = []  # (client_send type, chain)
    incomplete = 0
    for key, chain in chains.items():
        if CLIENT_SEND not in chain:
            continue  # coordinator-internal record, not a client request
        if COMMIT not in chain:
            continue  # never committed
        if all(k in chain for k in LIFECYCLE):
            complete.append((chain_type[key], chain))
        else:
            incomplete += 1

    # (population, stage) -> sorted stage values in ms
    stages = {}
    for population, types in POPULATIONS:
        for name, lo, hi in STAGE_EDGES:
            stages[population, name] = sorted(
                (chain[hi] - chain[lo]) / 1e3
                for rtype, chain in complete if rtype in types)

    committed = len(complete) + incomplete
    pct = 100.0 * len(complete) / committed if committed else 0.0

    if args.csv:
        print("chains,stage,count,mean_ms,p50_ms,p99_ms")
    else:
        print(f"records: {len(records)}  roots: {roots}  "
              f"dangling parents: {dangling}")
        print(f"committed requests: {committed}  complete chains: "
              f"{len(complete)} ({pct:.1f}%)  incomplete: {incomplete}")
    for population, _ in POPULATIONS:
        if not args.csv:
            count = len(stages[population, "total"])
            print(f"\n{population} chains: {count}")
            print(f"{'stage':<12} {'mean_ms':>9} {'p50_ms':>9} {'p99_ms':>9}")
        for name in STAGE_NAMES:
            vals = stages[population, name]
            mean = sum(vals) / len(vals) if vals else 0.0
            p50, p99 = percentile(vals, 0.5), percentile(vals, 0.99)
            if args.csv:
                print(f"{population},{name},{len(vals)},{mean:.3f},"
                      f"{p50:.3f},{p99:.3f}")
            else:
                print(f"{name:<12} {mean:>9.2f} {p50:>9.2f} {p99:>9.2f}")

    # 2PC: every wave of prepares a coordinator sends shares one instant.
    waves = {}    # txn id -> its txn_prepare instants
    decided = {}  # txn id -> its first txn_decide instant
    for t, _, _, kind, _, a, _ in records:
        if kind == TXN_PREPARE:
            waves.setdefault(a, set()).add(t)
        elif kind == TXN_DECIDE:
            decided.setdefault(a, t)
    if waves and not args.csv:
        counts = [len(instants) for instants in waves.values()]
        to_decide = sorted((decided[txn] - min(instants)) / 1e3
                           for txn, instants in waves.items()
                           if txn in decided)
        mean = sum(to_decide) / len(to_decide) if to_decide else 0.0
        print(f"\n2pc transactions: {len(waves)} ({len(to_decide)} decided)")
        print(f"prepare waves per transaction: mean "
              f"{sum(counts) / len(counts):.2f}, max {max(counts)}")
        print(f"{'stage':<16} {'mean_ms':>9} {'p50_ms':>9} {'p99_ms':>9}")
        print(f"{'prepare_decide':<16} {mean:>9.2f} "
              f"{percentile(to_decide, 0.5):>9.2f} "
              f"{percentile(to_decide, 0.99):>9.2f}")

    if dangling or not complete:
        print("FAIL: broken trace (dangling parents or no complete chains)",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
