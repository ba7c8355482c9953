#!/usr/bin/env python3
"""How often real runs reach the code in src/, from gcov harvests.

Usage:
    coverage_sort.py HARVEST.jsonl [HARVEST.jsonl ...] [--root DIR]
    coverage_sort.py HARVEST.jsonl ... --query FILE:LINE|NAME [--query ...]

A harvest is the output of `gcov --json-format --stdout` over every .gcda
of one coverage build after a run, one JSON document per line (the verify
skill's "Measure a path's traffic" recipe builds them). Counts are summed
over every harvest given, and a header line or function counts once per
object that inlines it.

Without --query, prints three listings:

  1. functions whose count is 0, as FILE:START-END and the demangled name;
  2. zero-count lines inside functions that run, merged into blocks: the
     instrumented zero lines of one function with no executed line between
     them, as FILE:FIRST-LAST, the number of zero lines and the function;
  3. src/**/*.cc files that no harvest holds at all: no harvested binary
     links them, so listings 1 and 2 cannot see their code.

Each listing ends with a total on stderr. Only files under --root's src/
count (default: the repository holding this script); the harvested copy
may live elsewhere, since paths are matched from their last "/src/".

With --query, prints the summed count of each FILE:LINE (FILE matches any
path ending in it) or, for any other NAME, of every function whose
demangled name contains it.

Exit status: 0, or 2 on usage errors.
"""

import argparse
import collections
import json
import sys
from pathlib import Path


def parse_args(argv):
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("harvests", nargs="+", type=Path)
    ap.add_argument("--root", type=Path,
                    default=Path(__file__).resolve().parent.parent)
    ap.add_argument("--query", action="append", default=[], metavar="FILE:LINE|NAME")
    return ap.parse_args(argv)


class Harvest:
    """Line and function counts summed over harvests, keyed by src/ path."""

    def __init__(self, root):
        self.root = root
        self.lines = collections.Counter()  # (file, line) -> count
        self.funcs = collections.Counter()  # (file, demangled) -> count
        self.spans = {}  # (file, demangled) -> (start, end)
        self.owners = collections.defaultdict(set)  # (file, line) -> {demangled}
        self.files = set()

    def src_path(self, path):
        at = path.rfind("/src/")
        rel = path[at + 1:] if at >= 0 else path
        if not rel.startswith("src/") or not (self.root / rel).is_file():
            return None
        return rel

    def add(self, doc):
        for f in doc["files"]:
            file = self.src_path(f["file"])
            if file is None:
                continue
            self.files.add(file)
            demangled = {}
            for fn in f["functions"]:
                key = (file, fn["demangled_name"])
                demangled[fn["name"]] = fn["demangled_name"]
                self.funcs[key] += fn["execution_count"]
                self.spans[key] = (fn["start_line"], fn["end_line"])
            for line in f["lines"]:
                key = (file, line["line_number"])
                self.lines[key] += line["count"]
                owner = demangled.get(line.get("function_name"))
                if owner is not None:
                    self.owners[key].add(owner)

    def owners_of(self, file, line):
        """The functions a line belongs to: by gcov's attribution, else by span."""
        owners = self.owners.get((file, line))
        if owners:
            return owners
        return {name for (f, name), (lo, hi) in self.spans.items()
                if f == file and lo <= line <= hi}


def zero_functions(h):
    zeros = sorted((k for k, n in h.funcs.items() if n == 0),
                   key=lambda k: (k[0], h.spans[k]))
    for file, name in zeros:
        lo, hi = h.spans[file, name]
        print(f"{file}:{lo}-{hi}  {name}")
    lines = sum(h.spans[k][1] - h.spans[k][0] + 1 for k in zeros)
    print(f"{len(zeros)} functions, {lines} lines", file=sys.stderr)


def zero_blocks(h):
    """Zero lines inside functions that ran, merged per function."""
    by_file = collections.defaultdict(list)
    for (file, line), n in h.lines.items():
        by_file[file].append((line, n))
    blocks = []
    for file, entries in sorted(by_file.items()):
        entries.sort()
        current = None  # [first, last, zero lines, function]
        for line, n in entries:
            if n != 0:
                current = None
                continue
            ran = sorted(name for name in h.owners_of(file, line)
                         if h.funcs[file, name] > 0)
            if not ran:
                current = None  # the whole function is in listing 1
                continue
            if current is not None and current[3] == ran[0]:
                current[1] = line
                current[2] += 1
            else:
                current = [line, line, 1, ran[0]]
                blocks.append((file, current))
    for file, (first, last, count, name) in blocks:
        print(f"{file}:{first}-{last}  {count:>3}  {name}")
    total = sum(b[1][2] for b in blocks)
    print(f"{len(blocks)} blocks, {total} lines", file=sys.stderr)


def unlinked_files(h):
    sources = (str(p.relative_to(h.root)) for p in (h.root / "src").rglob("*.cc"))
    missing = sorted(rel for rel in sources if rel not in h.files)
    lines = 0
    for rel in missing:
        n = sum(1 for _ in open(h.root / rel))
        lines += n
        print(f"{rel}  {n} lines")
    print(f"{len(missing)} files, {lines} lines", file=sys.stderr)


def query(h, q):
    path, _, line = q.rpartition(":")
    if line.isdigit():
        n = sum(c for (f, l), c in h.lines.items()
                if f.endswith(path) and l == int(line))
        print(f"{n:>12,}  {q}")
        return
    totals = collections.Counter()
    for (_, name), n in h.funcs.items():
        if q in name:
            totals[name] += n
    for name, n in sorted(totals.items()):
        print(f"{n:>12,}  {name}")


def main(argv):
    args = parse_args(argv)
    h = Harvest(args.root.resolve())
    for path in args.harvests:
        for text in open(path):
            if text.strip():
                h.add(json.loads(text))
    if args.query:
        for q in args.query:
            query(h, q)
        return 0
    for title, listing in (("functions whose count is 0", zero_functions),
                           ("zero-count lines inside functions that run", zero_blocks),
                           ("src/ files no harvest holds", unlinked_files)):
        print(f"== {title}")
        sys.stdout.flush()
        listing(h)
        sys.stderr.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
