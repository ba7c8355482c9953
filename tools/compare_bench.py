#!/usr/bin/env python3
"""Diff two trees of BENCH_<scenario>.json files against per-metric tolerances.

Usage:
    compare_bench.py BASELINE_DIR CANDIDATE_DIR [options]

Options:
    --tol NAME=REL          relative tolerance for the metric or column NAME
                            (repeatable), e.g. --tol latency_ms=0.05. NAME
                            may be an fnmatch glob (quote it): 'p*_ms=0.05'
                            covers every percentile metric (p50_ms, p99_ms,
                            latency_p99_ms, ...). Exact names win over globs;
                            among globs the first match wins.
    --default-float-tol REL fallback relative tolerance for non-integer
                            values without an explicit --tol (default 0:
                            exact)
    --same-point-digests    gate every point digest as well: a point whose
                            digest moved is a failure. For comparing a
                            change against its parent commit's own output,
                            when no simulated behaviour may move.

The gate, per the determinism contract (DESIGN.md, "Scenario runner"):

  * structure (scenario set, columns, point count, params, row/summary
    shapes, metric key sets) is exact — a missing point or column is a
    failure, never a tolerance question;
  * integer-valued cells and metrics ("shape/count metrics") are exact
    unless NAME has an explicit --tol;
  * float-valued cells and metrics compare within the tolerance for their
    column/metric name (or --default-float-tol);
  * wall_ms and the digests are advisory: reported, never fatal. A point's
    digest is its run's MetricsFingerprint (or measurement-log head), which
    also covers counters the gate never sees (wire and message-pool counts,
    the crypto, transaction and gauge sections); the notes name every point
    whose digest moved (with --same-point-digests, each is a failure). The
    scenario digest hashes the deterministic body, point digests included,
    so it moves with any of them, with a tolerated float, or with a
    host-timed metric; it stays advisory under every flag, because
    crypto_bench's host-timed metrics move it on every run.

Comparing a change with its parent commit (both trees built the same way):

    parent/build/bench/optilog_bench --tag tier1 --threads 1 --json p/
    build/bench/optilog_bench --tag tier1 --threads 4 --json c/
    compare_bench.py p c --same-point-digests

Exit status: 0 clean, 1 on any gated difference, 2 on usage errors.
"""

import argparse
import fnmatch
import json
import sys
from pathlib import Path


def parse_args(argv):
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("baseline", type=Path)
    ap.add_argument("candidate", type=Path)
    ap.add_argument("--tol", action="append", default=[], metavar="NAME=REL")
    ap.add_argument("--default-float-tol", type=float, default=0.0, metavar="REL")
    ap.add_argument("--same-point-digests", action="store_true")
    args = ap.parse_args(argv)
    # Built-in tolerances for values whose exact number is deterministic but
    # sensitive to cross-toolchain float headroom in upstream latencies: the
    # recovery scenario's catch-up clock and transfer byte/chunk counts move
    # when a single tolerated latency shifts a chunk boundary. Both the
    # metric names and the recovery scenario's row-column spellings are
    # listed — row cells are gated by column name. User --tol flags override
    # these (exact names and globs alike: user entries are matched first).
    builtin = {
        "catchup_ms": 0.10,
        "transfer_bytes": 0.10,
        "transfer_chunks": 0.10,
        "xfer_bytes": 0.10,
        "chunks": 0.10,
        # Shard scaling: abort counts and cross-shard tail percentiles ride
        # on retry/backoff interleavings that a latency-headroom shift can
        # reorder; throughput and commit counts stay exactly gated.
        "txn_abort*": 0.25,
        "cross_shard_p*_ms": 0.10,
        # Crypto cost model (crypto_bench / qc_crossover): *_meas_* metrics
        # time real primitives on the current host — advisory by
        # construction, so they get a wide band. Modeled crypto_ns_* values
        # are deterministic given the model constants but scale with them,
        # so a recalibration moves every one in lockstep; 10% headroom keeps
        # small constant tweaks from tripping the gate while a broken charge
        # site (2x, 0x) still fails. Wire byte totals move only when an
        # encoding changes — 2% absorbs a field-width tweak in a rare
        # message without passing a redesigned layout. Order matters:
        # fnmatch globs are first-match-wins, so the meas entries precede
        # the crypto_ns catch-all.
        "crypto_ns_meas*": 5.0,
        "crypto_ns*": 0.10,
        "wire_bytes*": 0.02,
        # Flight-recorder stage sums (trace_breakdown): per-stage millisecond
        # totals over thousands of chains — deterministic, but every chain
        # inherits the upstream latency headroom, so the sums get the same
        # 5% band the latency percentiles do. Chain counts (requests,
        # incomplete) stay integer-exact.
        "stage_*_ms": 0.05,
    }
    tols = {}
    for spec in args.tol:
        name, eq, rel = spec.partition("=")
        if not eq:
            ap.error(f"--tol wants NAME=REL, got '{spec}'")
        tols[name] = float(rel)
    for name, rel in builtin.items():
        tols.setdefault(name, rel)
    return args, tols


def as_number(cell):
    """A row cell parsed as a number, or None (cells are strings in the JSON)."""
    if isinstance(cell, (int, float)):
        return cell
    try:
        return float(cell)
    except (TypeError, ValueError):
        return None


def is_integral(value):
    return isinstance(value, int) or (isinstance(value, float) and value.is_integer())


class Comparator:
    def __init__(self, tols, default_float_tol, same_point_digests=False):
        self.tols = tols
        self.default_float_tol = default_float_tol
        self.same_point_digests = same_point_digests
        self.failures = []
        self.notes = []
        # (scenario, params, base ev/s, cand ev/s) — advisory throughput rows.
        self.throughput = []

    def fail(self, where, msg):
        self.failures.append(f"{where}: {msg}")

    def note(self, msg):
        self.notes.append(msg)

    def tolerance_for(self, name, base, cand):
        if name in self.tols:
            return self.tols[name]
        for pattern, rel in self.tols.items():
            if any(ch in pattern for ch in "*?[") and fnmatch.fnmatchcase(
                name, pattern
            ):
                return rel
        if is_integral(base) and is_integral(cand):
            return None  # count metric: exact
        return self.default_float_tol

    def check_value(self, where, name, base, cand):
        """One named numeric value (metric, or numeric row cell)."""
        rel = self.tolerance_for(name, base, cand)
        if rel is None or rel == 0.0:
            if base != cand:
                self.fail(where, f"{name}: {base} != {cand} (exact)")
            return
        scale = max(abs(base), abs(cand))
        if scale > 0 and abs(base - cand) / scale > rel:
            self.fail(
                where,
                f"{name}: {base} vs {cand} drifts "
                f"{abs(base - cand) / scale:.2%} > {rel:.2%}",
            )

    def check_cell(self, where, column, base, cand):
        nb, nc = as_number(base), as_number(cand)
        if nb is None or nc is None:
            if base != cand:
                self.fail(where, f"{column}: '{base}' != '{cand}'")
        else:
            self.check_value(where, column, nb, nc)

    def check_table(self, where, columns, base_rows, cand_rows):
        if len(base_rows) != len(cand_rows):
            self.fail(where, f"row count {len(base_rows)} != {len(cand_rows)}")
            return
        for i, (brow, crow) in enumerate(zip(base_rows, cand_rows)):
            if len(brow) != len(crow):
                self.fail(f"{where}[{i}]", f"width {len(brow)} != {len(crow)}")
                continue
            for c, (bcell, ccell) in enumerate(zip(brow, crow)):
                name = columns[c] if c < len(columns) else f"col{c}"
                self.check_cell(f"{where}[{i}]", name, bcell, ccell)

    def check_scenario(self, name, base, cand):
        if base.get("columns") != cand.get("columns"):
            self.fail(name, "column schema differs")
            return
        columns = base.get("columns", [])
        bpoints, cpoints = base.get("points", []), cand.get("points", [])
        if len(bpoints) != len(cpoints):
            self.fail(name, f"point count {len(bpoints)} != {len(cpoints)}")
            return
        moved = []  # points whose digest moved (advisory)
        for i, (bp, cp) in enumerate(zip(bpoints, cpoints)):
            where = f"{name}.points[{i}]"
            if bp.get("params") != cp.get("params"):
                self.fail(where, f"params {bp.get('params')} != {cp.get('params')}")
                continue
            if bp.get("digest") != cp.get("digest"):
                params = " ".join(f"{k}={v}" for k, v in bp.get("params", {}).items())
                moved.append(f"[{i}]" + (f" {params}" if params else ""))
            self.check_table(f"{where}.rows", columns, bp.get("rows", []),
                             cp.get("rows", []))
            bm, cm = bp.get("metrics", {}), cp.get("metrics", {})
            if bm.keys() != cm.keys():
                self.fail(where, f"metric keys {sorted(bm)} != {sorted(cm)}")
            else:
                for key in bm:
                    self.check_value(where, key, bm[key], cm[key])
            bts, cts = bp.get("timeseries", {}), cp.get("timeseries", {})
            if bts.keys() != cts.keys():
                self.fail(where, f"timeseries keys {sorted(bts)} != "
                                 f"{sorted(cts)}")
            else:
                # Gauge series: shape exact, values per-element under the
                # series-name tolerance (integer-valued samples — commit
                # frontiers, queue depths — stay exact like count metrics).
                for key in bts:
                    if len(bts[key]) != len(cts[key]):
                        self.fail(f"{where}.timeseries", f"{key}: sample count "
                                  f"{len(bts[key])} != {len(cts[key])}")
                        continue
                    for j, (bv, cv) in enumerate(zip(bts[key], cts[key])):
                        self.check_value(f"{where}.timeseries[{j}]", key, bv, cv)
            bec, cec = bp.get("event_core", {}), cp.get("event_core", {})
            self.record_throughput(name, bp, cp, bec, cec)
            if bec != cec:
                for key in sorted(set(bec) | set(cec)):
                    if bec.get(key) != cec.get(key):
                        self.check_value(f"{where}.event_core", key,
                                         bec.get(key, 0), cec.get(key, 0))
        bsum, csum = base.get("summary"), cand.get("summary")
        if (bsum is None) != (csum is None):
            self.fail(name, "summary presence differs")
        elif bsum is not None:
            if bsum.get("columns") != csum.get("columns"):
                self.fail(f"{name}.summary", "column schema differs")
            else:
                self.check_table(f"{name}.summary", bsum.get("columns", []),
                                 bsum.get("rows", []), csum.get("rows", []))
        if moved and self.same_point_digests:
            self.fail(name, f"point digest moved at {len(moved)} of "
                            f"{len(bpoints)} point(s): {'; '.join(moved)}")
        elif moved:
            self.note(f"{name}: point digest moved at {len(moved)} of "
                      f"{len(bpoints)} point(s): {'; '.join(moved)} (advisory; "
                      f"the run's fingerprint or log head changed)")
        if base.get("digest") != cand.get("digest"):
            self.note(f"{name}: scenario digest differs (advisory; a point "
                      f"digest, a tolerated float or a host-timed metric "
                      f"moved)")
        bw, cw = base.get("wall_ms"), cand.get("wall_ms")
        if bw and cw:
            self.note(f"{name}: wall {bw:.0f} ms -> {cw:.0f} ms "
                      f"({(cw - bw) / bw:+.1%}, advisory)")

    def record_throughput(self, name, bp, cp, bec, cec):
        """Collect wall_ms-derived events/sec for the advisory delta table."""
        bw, cw = bp.get("wall_ms"), cp.get("wall_ms")
        bev, cev = bec.get("events_executed", 0), cec.get("events_executed", 0)
        if not (bw and cw and bev and cev):
            return
        params = " ".join(
            f"{k}={v}" for k, v in sorted(bp.get("params", {}).items())
        )
        self.throughput.append(
            (name, params, bev / bw * 1000.0, cev / cw * 1000.0)
        )

    def print_throughput(self):
        """Advisory events/sec table (baseline vs candidate). Wall-clock
        derived, so machine- and load-dependent: never gated, just printed so
        hot-path regressions are visible in the same diff that gates shape."""
        if not self.throughput:
            return
        wide = max(len(f"{n}[{p}]") for n, p, _, _ in self.throughput)
        print("advisory events/sec (events_executed / wall_ms):")
        print(f"  {'point':<{wide}} {'baseline':>12} {'candidate':>12} {'delta':>8}")
        for name, params, bevs, cevs in self.throughput:
            delta = (cevs - bevs) / bevs
            print(f"  {f'{name}[{params}]':<{wide}} {bevs:>12,.0f} "
                  f"{cevs:>12,.0f} {delta:>+8.1%}")


def main(argv):
    args, tols = parse_args(argv)
    cmp = Comparator(tols, args.default_float_tol, args.same_point_digests)

    base_files = sorted(args.baseline.glob("BENCH_*.json"))
    if not base_files:
        print(f"error: no BENCH_*.json under {args.baseline}", file=sys.stderr)
        return 2
    for base_path in base_files:
        cand_path = args.candidate / base_path.name
        if not cand_path.is_file():
            cmp.fail(base_path.stem, f"missing from {args.candidate}")
            continue
        with open(base_path) as f:
            base = json.load(f)
        with open(cand_path) as f:
            cand = json.load(f)
        cmp.check_scenario(base.get("scenario", base_path.stem), base, cand)
    extra = {p.name for p in args.candidate.glob("BENCH_*.json")} - {
        p.name for p in base_files
    }
    for name in sorted(extra):
        cmp.note(f"{name}: no baseline committed (bench/baselines/), skipped")

    cmp.print_throughput()
    for note in cmp.notes:
        print(f"note: {note}")
    if cmp.failures:
        print(f"\nFAIL: {len(cmp.failures)} gated difference(s)")
        for failure in cmp.failures:
            print(f"  {failure}")
        return 1
    print(f"\nOK: {len(base_files)} scenario file(s) within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
