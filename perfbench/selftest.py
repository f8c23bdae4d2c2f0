#!/usr/bin/env python3
"""Self-test of the futharkcc performance benchmark.

    python3 perfbench/selftest.py [--seed N]

For each workload, at one seed and for one pass of the real workload (the
16 paper programs, 1,000 compiles, 4,000 requests; about five minutes in
all, most of it paper-suite):

  * determinism: two untraced runs of one seed give identical artifact
    fingerprints, sim_cycles_geomean, device_peak_bytes_geomean,
    gpusim.sim_ops, gpusim.launches, fusion.applied, flatten.kernels and
    serve.hit_ratio, and the traced run repeats them too;
  * correctness: every output agrees with the reference interpreter;
  * accounting: the traced run reports every per-layer metric of
    BENCHMARK.json, pairs operations with untraced twins, and its per-layer
    self times sum to the traced pass's wall-clock.

Exits 1 on the first failed check.
"""

import argparse
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

WORKLOADS = ("paper-suite", "compile", "serve-mix")


def perfbench(binary, out_dir, workload, seed, traced):
    # One pass untraced; the traced run pairs operations with untraced
    # twins for a second.
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", "1" if traced else "0", "--out-dir", out_dir
           ] + (["--traced"] if traced else [])
    out = subprocess.run(cmd, check=True, stdout=subprocess.PIPE, text=True,
                         timeout=run.RUN_TIMEOUT_S).stdout
    return json.loads(out.strip().splitlines()[-1])


def expect(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        sys.exit(1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    base = run.build_dir()
    binary = run.build(base)
    out_dir = os.path.join(base, "perfbench-selftest")

    for w in WORKLOADS:
        a = perfbench(binary, out_dir, w, args.seed, False)
        b = perfbench(binary, out_dir, w, args.seed, False)
        t = perfbench(binary, out_dir, w, args.seed, True)
        expect(a["determinism"] == b["determinism"] == t["determinism"],
               "%s: two runs of seed %d repeat %s"
               % (w, args.seed, json.dumps(a["determinism"])))
        expect(all(r["failed"] == 0 and r["attempted"] > 0
                   for r in (a, b, t)),
               "%s: %d operations agree with the interpreter"
               % (w, a["attempted"]))
        expect(all(m["name"] in a for m in spec["end_to_end"]),
               "%s: every end-to-end metric is reported" % w)
        layers = t["layers"]
        missing = [m["name"] for m in spec["per_layer"]
                   if m["name"] not in layers]
        expect(not missing, "%s: every per-layer metric is reported %s"
               % (w, missing or ""))
        expect(layers["trace.overhead_pairs"] > 0,
               "%s: tracing overhead %+.2f%% over %d paired operations"
               % (w, 100 * layers["trace.overhead_frac"],
                  layers["trace.overhead_pairs"]))
        wall, total = layers["trace.pass_ms"], layers["trace.self_sum_ms"]
        expect(abs(wall - total) <= 1e-6 * wall,
               "%s: self times sum to the traced wall-clock (%.3f of %.3f ms,"
               " unattributed %.3f ms)" % (w, total, wall,
                                           layers["unattributed_ms"]))


if __name__ == "__main__":
    main()
