#!/usr/bin/env python3
"""futharkcc performance benchmark: builds perfbench from source and runs one
workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The first run configures and builds the
compiler's libraries plus the perfbench program under $CARGO_TARGET_DIR (or
.bench_build) with CMake; later runs only rebuild what changed.

--trace 0 runs the workload with tracing off and reports the end-to-end
metrics of BENCHMARK.json.  --trace 1 runs it traced and reports the
per-layer metrics; the tracing overhead comes from pairing operations with
untraced twins in the same process.  A human-readable summary comes first on
standard output; the last line is the JSON result.  Any output that
disagrees with the reference interpreter makes the exit code 1.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170

# Per workload: what one operation is, and the names the summary gives the
# generic throughput and latency metrics.
ALIASES = {
    "paper-suite": ("programs", "suites_per_s", "suite_ms"),
    "compile": ("compiles", "compile_per_s", "compile_ms"),
    "serve-mix": ("requests", "requests_per_s", "request_ms"),
}


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return base


def build(base):
    """Configures (once) and builds the perfbench binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the futharkcc sources (src/) are not in this checkout")
    for tool in ("cmake", "c++"):
        if shutil.which(tool) is None:
            fail(tool + " is not installed")
    out = os.path.join(base, "perfbench")
    env = dict(os.environ, TMPDIR=os.path.join(base, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    log = sys.stderr
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"] + gen,
                       check=True, stdout=log, stderr=log, env=env)
    subprocess.run(["cmake", "--build", out, "--target", "perfbench",
                    "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=log, stderr=log, env=env)
    return os.path.join(out, "perfbench")


def run_workload(binary, args, out_dir):
    """Runs the perfbench process and returns its parsed result."""
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--out-dir", out_dir]
    if args.trace:
        cmd.append("--traced")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out = proc.communicate(timeout=RUN_TIMEOUT_S)[0]
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        fail("perfbench exited with code %d" % proc.returncode)
    return json.loads(out.strip().splitlines()[-1])


def summary(spec, r, metrics):
    """The human-readable report, with each workload's own metric names."""
    ops, per_s, ms = ALIASES[r["workload"]]
    n = r["samples"]
    tail = r["tail_percentile"]
    lines = [
        "workload %s seed %d%s: %d pass(es) of %d %s; latencies are each"
        " of the %d samples' best time over the passes"
        % (r["workload"], r["seed"], " (traced)" if r["traced"] else "",
           r["passes"], r["ops_per_pass"], ops, n),
        "  wall-clock figures are scaled by %.4f to the reference clock:"
        " the calibration loop's best here was %.6f ms, against 0.4 ms"
        % (r["scale"], 1e3 * r["calibration_s"]),
        "  unscaled: %s" % ", ".join("%s %.6g" % kv
                                     for kv in r["unscaled"].items()),
        "  setup_s %.6f s (median of the best times of ten set-ups"
        " repeated before every pass, %d set-ups in all; the first, with"
        " the process's one-time costs, took %.6f s)"
        % (r["setup_s"], r["setup_reps"], r["setup_first_s"]),
    ]
    if r["workload"] == "paper-suite":
        lines.append("  suite_s %.3f s (best pass of %d programs)"
                     % (r["timed_s"], r["ops_per_pass"]))
    if r["lookups"]:
        memory = r["cache_hits"] - r["disk_hits"]
        lines.append("  first pass: %d lookups = %.1f%% memory hits, %.1f%% "
                     "disk hits, %.1f%% misses"
                     % (r["lookups"], 100 * memory / r["lookups"],
                        100 * r["disk_hits"] / r["lookups"],
                        100 * (r["lookups"] - r["cache_hits"]) / r["lookups"]))
    lines += [
        "  %s %.6g 1/s (throughput_per_s, n=%d)"
        % (per_s, r["throughput_per_s"], n),
        "  %s_p50 %.4f ms (latency_ms_p50, n=%d)"
        % (ms, r["latency_ms_p50"], n),
        "  %s_tail %.4f ms (latency_ms_tail = p%g, n=%d)"
        % (ms, r["latency_ms_tail"], tail, n),
        "  sim_cycles_geomean %.1f cycles, device_peak_bytes_geomean %.1f "
        "bytes (n=%d device runs)"
        % (r["sim_cycles_geomean"], r["device_peak_bytes_geomean"],
           r["sim_samples"]),
        "  peak_rss_mb %.1f MB" % r["peak_rss_mb"],
        "  failed_frac %d/%d = %g (%d identical runtime errors agreed)"
        % (r["failed"], r["attempted"], r["failed"] / r["attempted"],
           r["runtime_errors_agreed"]),
    ]
    lines += ["  failure: " + m for m in r["failures"]]
    if metrics:
        lines.append("  traced pass %.1f ms = per-layer self times %.1f ms "
                     "(unattributed %.3f%%), tracing overhead %+.2f%% "
                     "(n=%d paired operations)"
                     % (metrics["trace.pass_ms"], metrics["trace.self_sum_ms"],
                        100 * metrics["trace.unattributed_frac"],
                        100 * metrics["trace.overhead_frac"],
                        metrics["trace.overhead_pairs"]))
        for m in spec["per_layer"]:
            lines.append("    %-28s %16.6g %s"
                         % (m["name"], metrics[m["name"]], m["unit"]))
    return "\n".join(lines)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.workload not in ALIASES:
        fail("unknown workload " + args.workload)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    base = build_dir()
    binary = build(base)
    out_dir = os.path.join(base, "perfbench-out")
    r = run_workload(binary, args, out_dir)
    if args.trace:
        layers = r["layers"]
        metrics = {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer"]}
    else:
        layers = None
        metrics = {m["name"]: {"value": r[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    print(summary(spec, r, layers))
    correct = r["failed"] == 0 and r["attempted"] > 0
    print(json.dumps({"correct": correct, "attempted": r["attempted"],
                      "failed": r["failed"], "metrics": metrics}))
    sys.stdout.flush()
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
