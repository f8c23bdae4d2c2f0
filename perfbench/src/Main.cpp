//===- Main.cpp - The perfbench command-line entry point ------------------===//
//
// Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one workload in this (single-threaded) process and prints one JSON
/// object with its raw measurements:
///
///   perfbench --workload NAME --seed N --seconds S --out-dir DIR
///             [--traced]
///
/// The first set-up (with the process's one-time costs) comes before the
/// first pass; a probe copy of the workload repeats the set-up ten times
/// before every pass, and setup_s is the median of those ten set-ups'
/// best times over the run, as for the operations.  Passes
/// repeat until they have taken S seconds, at least one; the latency and
/// throughput figures take each operation's best time over the passes.
/// Between operations, the process moves to the fastest core, whose clock
/// CoreHopper measures; the wall-clock figures are scaled to a reference
/// clock.  Per-layer times are not scaled.
/// With --traced, tracing is on during the passes, the per-layer self
/// times are folded out of every pass, operations within the first S
/// seconds are paired with untraced twins to measure the tracing overhead,
/// and the first pass's Chrome trace is written to DIR; the untimed checks
/// after each pass run traced under a root of their own, which gives the
/// oracle's interpreter time.  perfbench/run.py
/// turns this into the benchmark's metrics.
///
//===----------------------------------------------------------------------===//

#include "Layers.h"
#include "Stats.h"
#include "Workloads.h"

#include "support/Json.h"
#include "trace/Trace.h"

#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

using namespace perfbench;
namespace json = fut::json;

namespace {

/// Set-ups the probe workload times before every pass.
constexpr int kSetupsPerPass = 10;

/// The reference core's CoreHopper calibration time: wall-clock figures
/// are scaled to a core that runs the loop in 0.4 ms (about 3 GHz).
constexpr double kReferenceCalibrationS = 0.4e-3;

double peakRssMb() {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

std::string quote(const std::string &S) {
  return "\"" + json::escape(S) + "\"";
}

/// Accumulates "key": value pairs into one JSON object.
class JsonObject {
  std::string Body;

  void key(const std::string &K) {
    Body += Body.empty() ? "" : ", ";
    Body += quote(K) + ": ";
  }

public:
  JsonObject &num(const std::string &K, double V) {
    key(K);
    Body += json::number(V);
    return *this;
  }
  JsonObject &str(const std::string &K, const std::string &V) {
    key(K);
    Body += quote(V);
    return *this;
  }
  JsonObject &raw(const std::string &K, const std::string &V) {
    key(K);
    Body += V;
    return *this;
  }
  std::string done() const { return "{" + Body + "}"; }
};

struct Args {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 10;
  std::string OutDir;
  bool Traced = false;
};

bool parseArgs(int Argc, char **Argv, Args &A) {
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    auto Next = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : nullptr;
    };
    const char *V = nullptr;
    if (Flag == "--traced")
      A.Traced = true;
    else if (!(V = Next()))
      return false;
    else if (Flag == "--workload")
      A.Workload = V;
    else if (Flag == "--seed")
      A.Seed = std::strtoull(V, nullptr, 10);
    else if (Flag == "--seconds")
      A.Seconds = std::strtod(V, nullptr);
    else if (Flag == "--out-dir")
      A.OutDir = V;
    else
      return false;
  }
  return !A.Workload.empty() && !A.OutDir.empty();
}

/// The per-layer metrics, per pass, from the folded span tree and the
/// first pass's counts.
std::string layerMetrics(const LayerTimes &L, const LayerTimes &Checks,
                         int Passes, const PassStats &First,
                         const OpTimer &Timer) {
  double Per = 1.0 / Passes;
  auto Ms = [&](const std::string &Bucket) {
    return L.self(Bucket) * Per / 1e3;
  };
  auto S = [&](double Us) { return Us * Per / 1e6; };
  double SelfSumUs = 0;
  for (const auto &[Bucket, Us] : L.SelfUs)
    SelfSumUs += Us;
  JsonObject O;
  double FrontendS = S(L.self("parser.frontend"));
  O.num("parser.frontend_ms", Ms("parser.frontend"))
      .num("parser.bytes_per_s",
           FrontendS > 0 ? static_cast<double>(First.SourceBytes) / FrontendS
                         : 0)
      .num("uniq.check_ms", Ms("uniq.check"))
      .num("opt.inline_ms", Ms("opt.inline"))
      .num("opt.simplify_ms", Ms("opt.simplify"))
      .num("ad.vjp_ms", Ms("ad.vjp"))
      .num("fusion.ms", Ms("fusion"))
      .num("flatten.ms", Ms("flatten"))
      .num("locality.ms", Ms("locality"))
      .num("mem.plan_ms", Ms("mem.plan"))
      .num("shard.plan_ms", Ms("shard.plan"))
      .num("check.verify_ms", Ms("check.verify"))
      .num("check.internal_ms", Ms("check.internal"))
      .num("driver.ms", Ms("driver"))
      .num("fusion.applied", First.FusionApplied)
      .num("flatten.kernels", First.FlattenKernels)
      .num("locality.coalesced_inputs", First.CoalescedInputs)
      .num("locality.tiled_inputs", First.TiledInputs)
      .num("driver.code_bytes", First.CodeBytes)
      .num("mem.planned_peak_bytes", First.PlannedPeakBytes);
  double RunS = S(L.inclusive("device-run"));
  O.num("gpusim.run_s", RunS)
      .num("gpusim.kernel_s", S(L.self("gpusim.kernel")))
      .num("gpusim.host_s", S(L.self("gpusim.host")))
      .num("gpusim.xfer_s", S(L.self("gpusim.xfer")))
      .num("gpusim.sim_ops", First.SimOps)
      .num("gpusim.ops_per_s",
           RunS > 0 ? static_cast<double>(First.SimOps) / RunS : 0)
      .num("gpusim.launches", First.Launches)
      .num("gpusim.global_tx", First.GlobalTx)
      .num("gpusim.coalesced_frac",
           First.GlobalTx ? static_cast<double>(First.CoalescedTx) /
                                static_cast<double>(First.GlobalTx)
                          : 0)
      .num("gpusim.retried_launches", First.RetriedLaunches)
      .num("interp.run_s",
           S(L.self("interp.run") + Checks.self("interp.run")))
      .num("serve.hit_ratio", First.hitRatio())
      .num("serve.disk_hit_ratio",
           First.Lookups ? static_cast<double>(First.DiskHits) /
                               static_cast<double>(First.Lookups)
                         : 0)
      .num("serve.compile_ms", L.inclusive("serve:compile") * Per / 1e3)
      .num("serve.request_self_ms", Ms("serve.request_self"))
      .num("serve.compile_self_ms", Ms("serve.compile_self"))
      .num("serve.client_ms", Ms("serve.client"))
      .num("serve.fallbacks", First.Fallbacks)
      .num("bench.check_ms", Ms("bench.check"))
      .num("other_ms", Ms("other"))
      .num("unattributed_ms", Ms("unattributed"))
      .num("trace.pass_ms", L.WallUs * Per / 1e3)
      .num("trace.self_sum_ms", SelfSumUs * Per / 1e3)
      .num("trace.unattributed_frac",
           L.WallUs > 0 ? L.self("unattributed") / L.WallUs : 0)
      .num("trace.overhead_frac",
           Timer.PairedUntracedMs > 0
               ? Timer.PairedTracedMs / Timer.PairedUntracedMs - 1
               : 0)
      .num("trace.overhead_pairs", static_cast<double>(Timer.Pairs));
  return O.done();
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  if (!parseArgs(Argc, Argv, A)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--out-dir DIR [--traced]\n");
    return 2;
  }
  std::filesystem::create_directories(A.OutDir);
  std::string Tag = A.Workload + "-seed" + std::to_string(A.Seed) +
                    (A.Traced ? "-traced" : "");
  std::string StoreDir =
      A.OutDir + "/" + Tag + "-store-" + std::to_string(getpid());
  auto W = makeWorkload(A.Workload, StoreDir);
  auto Probe = makeWorkload(A.Workload, StoreDir + "-probe");
  if (!W) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                 A.Workload.c_str());
    return 2;
  }

  fut::trace::TraceSession &Trace = fut::trace::TraceSession::global();
  // Set-up is sampled across the whole run, before every pass, and timed
  // like the operations: the K-th set-up of every pass is one operation.
  CoreHopper Hopper;
  std::vector<double> SetupS;
  auto TimeSetup = [&](Workload &Target) {
    Hopper.maybeHop();
    double T0 = nowS();
    Target.setup(A.Seed);
    SetupS.push_back(nowS() - T0);
  };
  TimeSetup(*W);

  LayerTimes Layers, Checks;
  PassStats First;
  int64_t Attempted = 0, Failed = 0, RuntimeAgreed = 0;
  std::vector<std::string> Failures;
  int Passes = 0;
  double WindowStart = nowS();
  // A traced run pairs operations with untraced twins for the first
  // window's worth of time (see OpTimer).
  OpTimer Timer(A.Traced, WindowStart + A.Seconds, Hopper);
  std::vector<double> PassMs;
  // The window counts the passes only; set-ups and checks come on top.
  double MeasuredS = 0;
  do {
    for (int K = 0; K < kSetupsPerPass; ++K)
      TimeSetup(*Probe);
    PassStats S;
    Trace.setEnabled(A.Traced);
    double T0 = nowS(), Twin0 = Timer.PairedUntracedMs, Hop0 = Hopper.SpentS;
    {
      fut::trace::ScopedSpan Root(kPassSpan, "bench");
      W->runPass(Passes == 0, Timer, S);
    }
    PassMs.push_back((nowS() - T0 - (Hopper.SpentS - Hop0)) * 1e3 -
                     (Timer.PairedUntracedMs - Twin0));
    MeasuredS += PassMs.back() / 1e3;
    Trace.setEnabled(false);
    if (A.Traced) {
      Layers.fold(Trace.events());
      if (Passes == 0)
        if (auto Err = Trace.writeChromeTrace(A.OutDir + "/" + Tag +
                                              ".trace.json"))
          std::fprintf(stderr, "perfbench: %s\n",
                       Err.getError().Message.c_str());
      Trace.clear();
      // The untimed checks run traced too, under a root of their own, so
      // that the oracle's interpreter time is measured on every workload.
      Trace.setEnabled(true);
      {
        fut::trace::ScopedSpan Root(kChecksSpan, "bench");
        W->afterPass(Passes == 0, S);
      }
      Trace.setEnabled(false);
      Checks.fold(Trace.events(), kChecksSpan);
      Trace.clear();
    } else {
      W->afterPass(Passes == 0, S);
    }
    Attempted += S.Attempted;
    Failed += S.Failed;
    RuntimeAgreed += S.RuntimeErrorsAgreed;
    for (const std::string &M : S.FailureMessages)
      if (Failures.size() < 5)
        Failures.push_back(M);
    if (Passes == 0)
      First = std::move(S);
    ++Passes;
  } while (MeasuredS < A.Seconds);

  bool PerPass = W->passIsTheOperation();
  std::vector<double> LatencyMs = PerPass
                                      ? bestPerOp(PassMs, 1)
                                      : bestPerOp(Timer.LatencyMs,
                                                  W->opsPerPass());
  double TimedS = 0;
  for (double L : LatencyMs)
    TimedS += L / 1e3;
  double TailP = tailPercentile(LatencyMs.size());
  // Times on the reference core: a host that clocks every core 1.5x
  // faster for a while makes the loop and the operations 1.5x faster
  // together.
  double Scale = kReferenceCalibrationS / Hopper.CalibrationS;
  double SetupS50 = median(bestPerOp(
      std::vector<double>(SetupS.begin() + 1, SetupS.end()), kSetupsPerPass));
  JsonObject Raw;
  Raw.num("setup_s", SetupS50)
      .num("throughput_per_s", TimedS > 0 ? LatencyMs.size() / TimedS : 0)
      .num("latency_ms_p50", median(LatencyMs))
      .num("latency_ms_tail", percentile(LatencyMs, TailP));
  std::string FailureList = "[";
  for (size_t I = 0; I < Failures.size(); ++I)
    FailureList += (I ? ", " : "") + quote(Failures[I]);
  FailureList += "]";

  JsonObject Det;
  Det.str("fingerprints", std::to_string(First.FingerprintDigest))
      .num("sim_cycles_geomean", geomean(First.SimCycles))
      .num("device_peak_bytes_geomean", geomean(First.PeakBytes))
      .num("gpusim.sim_ops", First.SimOps)
      .num("gpusim.launches", First.Launches)
      .num("fusion.applied", First.FusionApplied)
      .num("flatten.kernels", First.FlattenKernels)
      .num("serve.hit_ratio", First.hitRatio());

  JsonObject Out;
  Out.str("workload", A.Workload)
      .num("seed", static_cast<double>(A.Seed))
      .num("traced", A.Traced)
      .num("passes", Passes)
      .num("ops_per_pass", static_cast<double>(W->opsPerPass()))
      .num("pass_is_the_operation", PerPass)
      .num("samples", static_cast<double>(LatencyMs.size()))
      .num("attempted", static_cast<double>(Attempted))
      .num("failed", static_cast<double>(Failed))
      .num("runtime_errors_agreed", static_cast<double>(RuntimeAgreed))
      .raw("failures", FailureList)
      .num("setup_s", SetupS50 * Scale)
      .num("setup_reps", static_cast<double>(SetupS.size()))
      .num("setup_first_s", SetupS.front() * Scale)
      .num("calibration_s", Hopper.CalibrationS)
      .num("scale", Scale)
      .raw("unscaled", Raw.done())
      .num("timed_s", TimedS * Scale)
      .num("throughput_per_s",
           TimedS > 0 ? LatencyMs.size() / (TimedS * Scale) : 0)
      .num("latency_ms_p50", median(LatencyMs) * Scale)
      .num("tail_percentile", TailP)
      .num("latency_ms_tail", percentile(LatencyMs, TailP) * Scale)
      .num("sim_cycles_geomean", geomean(First.SimCycles))
      .num("sim_samples", static_cast<double>(First.SimCycles.size()))
      .num("device_peak_bytes_geomean", geomean(First.PeakBytes))
      .num("peak_rss_mb", peakRssMb())
      .num("lookups", static_cast<double>(First.Lookups))
      .num("cache_hits", static_cast<double>(First.CacheHits))
      .num("disk_hits", static_cast<double>(First.DiskHits))
      .raw("determinism", Det.done());
  if (A.Traced)
    Out.raw("layers", layerMetrics(Layers, Checks, Passes, First, Timer));
  std::printf("%s\n", Out.done().c_str());
  return 0;
}
