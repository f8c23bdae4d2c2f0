//===- Workloads.h - The benchmark's seeded workloads -----------*- C++ -*-===//
//
// Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The three workloads (paper-suite, compile, serve-mix).  Each one is a
/// fixed, seeded unit of work (a "pass") that perfbench repeats until the
/// measuring window is used up; every operation of a pass is timed on its
/// own, and every output is checked against the reference interpreter.
///
//===----------------------------------------------------------------------===//

#ifndef FUTHARKCC_PERFBENCH_WORKLOADS_H
#define FUTHARKCC_PERFBENCH_WORKLOADS_H

#include "Layers.h"

#include "trace/Trace.h"

#include <chrono>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

inline double nowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Keeps this single-threaded process on the fastest core it may run on,
/// and measures that core's clock.  On a shared machine, work outside the
/// process slows one core at a time, for a second or more, while other
/// cores run at full speed.  Every kEveryS seconds, between operations,
/// the hopper times a short fixed probe on each allowed core and moves the
/// process to the core that ran it fastest; then it times a calibration
/// loop there.  The host also changes the clock of all cores together, by
/// up to 1.5x over minutes, which no choice of core escapes: CalibrationS
/// tracks that.
class CoreHopper {
public:
  CoreHopper();
  /// Re-picks the core and calibrates once kEveryS seconds have passed
  /// since the last pick.
  void maybeHop();

  /// Seconds spent probing, calibrating and moving, in total.
  double SpentS = 0;
  /// The fastest run of the calibration loop so far, in seconds.
  double CalibrationS = INFINITY;

private:
  static constexpr double kEveryS = 0.1;
  /// Pins the process to \p Core.
  static void pin(int Core);
  /// Times the probe once, in seconds: hash-table updates fed by random
  /// reads from Far.  Only memory-bound work tells the cores apart (an
  /// arithmetic loop or an L2-resident pointer chase runs at one speed on
  /// all of them), and the compiler and the simulator are memory-bound.
  double probe();
  /// Times 200,000 steps of an integer recurrence that touches no memory,
  /// in seconds: the core's clock alone.
  double calibrate();

  std::vector<int> Cores;
  /// 4 MiB, twice a core's L2 cache.
  std::vector<uint64_t> Far;
  uint64_t Sink = 0;
  double LastS = -1e9;
};

/// Times the operations of a run.  In a traced run, until the pairing
/// deadline, every operation also runs a second time with tracing off,
/// right beside its traced run and in alternating order, so the tracing
/// overhead is measured operation by operation on one core.  (Two
/// processes side by side would compare two cores, whose speeds differ
/// by more than the overhead on a shared machine.)
class OpTimer {
public:
  /// \p Hopper picks the core before each operation.
  OpTimer(bool Pair, double PairUntilS, CoreHopper &Hopper)
      : Pair(Pair), PairUntilS(PairUntilS), Hopper(Hopper) {}

  /// Runs \p Op(false) and records its wall-clock.  While pairing, also
  /// runs \p Op(true), the twin: it must repeat the operation without
  /// recording results, on state of its own where the operation has any.
  template <typename Fn> void time(Fn &&Op) {
    Hopper.maybeHop();
    if (!Pair || nowS() >= PairUntilS) {
      LatencyMs.push_back(timed([&] { Op(false); }));
      return;
    }
    double TracedMs = 0, UntracedMs = 0;
    bool TracedFirst = Pairs % 2 == 0;
    for (int K = 0; K < 2; ++K) {
      if ((K == 0) == TracedFirst)
        TracedMs = timed([&] { Op(false); });
      else
        UntracedMs = untraced([&] { Op(true); });
    }
    LatencyMs.push_back(TracedMs);
    PairedTracedMs += TracedMs;
    PairedUntracedMs += UntracedMs;
    ++Pairs;
  }

  /// Every recorded operation's wall-clock, in milliseconds.
  std::vector<double> LatencyMs;
  int64_t Pairs = 0;
  double PairedTracedMs = 0, PairedUntracedMs = 0;

private:
  bool Pair;
  double PairUntilS;
  CoreHopper &Hopper;

  template <typename Fn> static double timed(Fn &&F) {
    double T0 = nowS();
    F();
    return (nowS() - T0) * 1e3;
  }
  /// Runs \p F with tracing off, inside a kTwinSpan span so the layer
  /// accounting can leave the twin's time out of the pass.
  template <typename Fn> static double untraced(Fn &&F) {
    fut::trace::TraceSession &Session = fut::trace::TraceSession::global();
    fut::trace::ScopedSpan Span(kTwinSpan, "bench");
    Session.setEnabled(false);
    double Ms = timed(F);
    Session.setEnabled(true);
    return Ms;
  }
};

/// What one pass did, in counts that repeat exactly for a seed.
struct PassStats {
  int64_t Attempted = 0;
  int64_t Failed = 0;
  /// Operations where the device and the interpreter raised the identical
  /// typed runtime error (agreement, as in fuzz::runDifferential).
  int64_t RuntimeErrorsAgreed = 0;
  std::vector<std::string> FailureMessages;

  /// Per checked device run: simulated cycles and peak device bytes.
  std::vector<double> SimCycles;
  std::vector<double> PeakBytes;
  /// gpusim counters summed over the checked device runs.
  int64_t SimOps = 0;
  int64_t Launches = 0;
  int64_t GlobalTx = 0;
  int64_t CoalescedTx = 0;
  int64_t RetriedLaunches = 0;
  /// The memory plans' residency bounds (CostReport::PlannedPeakBytes).
  int64_t PlannedPeakBytes = 0;

  /// Code-quality counts summed over the pass's distinct artifacts.
  int64_t FusionApplied = 0;
  int64_t FlattenKernels = 0;
  int64_t CoalescedInputs = 0;
  int64_t TiledInputs = 0;
  int64_t CodeBytes = 0;
  /// FNV-1a digest over the artifact fingerprints, in pass order.
  uint64_t FingerprintDigest = 0xcbf29ce484222325ULL;

  /// Bytes of source the timed operations handed to the frontend.
  int64_t SourceBytes = 0;

  /// Serve layer (serve-mix only).
  int64_t Lookups = 0;
  int64_t CacheHits = 0;
  int64_t DiskHits = 0;
  int64_t Fallbacks = 0;

  void fail(const std::string &Message);
  void addFingerprint(uint64_t Fingerprint);
  /// Cache hits (memory or disk) over lookups; 0 without lookups.
  double hitRatio() const {
    return Lookups ? static_cast<double>(CacheHits) /
                         static_cast<double>(Lookups)
                   : 0;
  }
};

class Workload {
public:
  virtual ~Workload() = default;

  /// Builds the seeded inputs.  Repeatable: perfbench times several
  /// calls and reports the median as setup_s.
  virtual void setup(uint64_t Seed) = 0;

  /// Operations in one pass (fixed by setup).
  virtual size_t opsPerPass() const = 0;

  /// True when a user waits for the whole pass rather than for each
  /// operation, so the latency and throughput metrics take one sample per
  /// pass.  (paper-suite: the suite is the unit of work, and the median of
  /// its 16 unlike programs would be one noisy program.)
  virtual bool passIsTheOperation() const { return false; }

  /// Runs one pass, timing each operation through \p Timer.  \p First is
  /// set on the first pass of a run, whose artifacts the workload keeps
  /// for checking.
  virtual void runPass(bool First, OpTimer &Timer, PassStats &Stats) = 0;

  /// Untimed work after a pass (output checks that are not part of the
  /// measured operation), run with tracing off.
  virtual void afterPass(bool First, PassStats &Stats) {}
};

/// The workload named \p Name, or null.  serve-mix keeps its artifact
/// stores under \p StoreDir, one per session and twin, removed when the
/// workload is destroyed.
std::unique_ptr<Workload> makeWorkload(const std::string &Name,
                                       const std::string &StoreDir);

} // namespace perfbench

#endif // FUTHARKCC_PERFBENCH_WORKLOADS_H
