#!/usr/bin/env python3
#===- scripts/bench_baseline.py - simulated-counter baseline -------------===//
#
# Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
#
# The committed ledger of simulated results: BENCH_baseline.json at the
# repository root holds every row of the bench binaries' per-leg
# BENCH_trace_<leg>.json files (cycles, transactions, peak bytes, pass
# counters, ...).  Those figures are deterministic, so any difference is a
# change in what the compiler emits or the simulator charges.
#
#   python3 scripts/bench_baseline.py compare BUILD_DIR
#       Fails (exit 1) on any difference between the rows in BUILD_DIR and
#       the baseline: a value, a missing or extra field, a missing or extra
#       row.  Each leg's wall-clock (BUILD_DIR/bench_wall.txt, written by
#       scripts/ci.sh) is printed as a delta against the baseline's and
#       never fails.
#   python3 scripts/bench_baseline.py write BUILD_DIR
#       Rewrites BENCH_baseline.json from the rows in BUILD_DIR.  A change
#       that moves a simulated figure on purpose rewrites the baseline in
#       the same commit and says why in CHANGES.md.
#
#===----------------------------------------------------------------------===//

import json
import os
import sys

LEGS = ("serve", "shard", "hist", "costmodel", "ad")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASELINE = os.path.join(ROOT, "BENCH_baseline.json")


def load_rows(build_dir):
    return {leg: json.load(open(os.path.join(
                build_dir, f"BENCH_trace_{leg}.json")))["benchmarks"]
            for leg in LEGS}


def load_wall(build_dir):
    """Seconds per leg as 'leg seconds' lines; empty when not recorded."""
    path = os.path.join(build_dir, "bench_wall.txt")
    if not os.path.exists(path):
        return {}
    wall = {}
    for line in open(path):
        leg, secs = line.split()
        wall[leg] = float(secs)
    return wall


def flatten(row):
    """A row with its counters object spread into 'counters.<name>' keys."""
    flat = {k: v for k, v in row.items() if k != "counters"}
    for name, value in row.get("counters", {}).items():
        flat["counters." + name] = value
    return flat


def row_name(leg, index, row):
    return f"{leg}[{index}] {row.get('benchmark')} ({row.get('device')})"


def compare(build_dir):
    base = json.load(open(BASELINE))
    rows = load_rows(build_dir)
    diffs = []
    for leg in LEGS:
        want, got = base["legs"][leg], rows[leg]
        if len(want) != len(got):
            diffs.append(f"{leg}: {len(got)} rows, baseline has {len(want)}")
        for i, (w, g) in enumerate(zip(want, got)):
            w, g = flatten(w), flatten(g)
            for key in sorted(set(w) | set(g)):
                if w.get(key) != g.get(key):
                    diffs.append(f"{row_name(leg, i, w)} {key}: baseline "
                                 f"{w.get(key)!r}, now {g.get(key)!r}")
    for line in diffs[:50]:
        print("  " + line)
    wall = load_wall(build_dir)
    for leg in LEGS:
        if leg in wall and leg in base.get("wall_s", {}):
            was = base["wall_s"][leg]
            print(f"  wall-clock {leg}: {wall[leg]:.2f} s, "
                  f"{wall[leg] - was:+.2f} s against the baseline's "
                  f"{was:.2f} s (informational)")
    if diffs:
        print(f"FAIL: {len(diffs)} simulated figure(s) differ from "
              f"BENCH_baseline.json; if the change is intended, run "
              f"'python3 scripts/bench_baseline.py write {build_dir}' and "
              f"say why in CHANGES.md")
        return 1
    total = sum(len(r) for r in rows.values())
    print(f"ok: {total} rows match BENCH_baseline.json exactly")
    return 0


def write(build_dir):
    out = {"legs": load_rows(build_dir)}
    wall = load_wall(build_dir)
    if wall:
        out["wall_s"] = wall
    with open(BASELINE, "w") as f:
        json.dump(out, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {BASELINE}")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 3 or sys.argv[1] not in ("compare", "write"):
        print("usage: bench_baseline.py compare|write BUILD_DIR",
              file=sys.stderr)
        sys.exit(2)
    sys.exit(compare(sys.argv[2]) if sys.argv[1] == "compare"
             else write(sys.argv[2]))
