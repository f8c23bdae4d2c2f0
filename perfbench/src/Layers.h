//===- Layers.h - Per-layer self times from the span tree -------*- C++ -*-===//
//
// Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Folds the spans a traced pass recorded into per-layer self times.  A
/// span's self time is its duration minus the part its child spans cover;
/// every span's self time lands in exactly one layer bucket, and the
/// benchmark's own "bench:pass" root keeps what no layer claimed
/// ("unattributed"), so the buckets of a pass sum to its wall-clock.  The
/// untraced twin runs the timer interleaves for the overhead measurement,
/// and the core hopper's probes, are left out of both.
///
//===----------------------------------------------------------------------===//

#ifndef FUTHARKCC_PERFBENCH_LAYERS_H
#define FUTHARKCC_PERFBENCH_LAYERS_H

#include "trace/Trace.h"

#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// The benchmark's root span around one timed pass.
constexpr const char *kPassSpan = "bench:pass";
/// The span around an operation's untraced twin (see OpTimer).
constexpr const char *kTwinSpan = "bench:untraced-twin";
/// The span around the core hopper's probes (see CoreHopper).
constexpr const char *kHopSpan = "bench:core-hop";
/// The root span around the untimed checks after a traced pass.
constexpr const char *kChecksSpan = "bench:checks";

/// The layer bucket a span's self time belongs to.
std::string layerOf(const std::string &SpanName);

struct LayerTimes {
  /// Bucket -> summed self time, microseconds.
  std::map<std::string, double> SelfUs;
  /// "device-run" and "serve:compile" -> summed inclusive duration,
  /// microseconds.
  std::map<std::string, double> InclusiveUs;
  /// Summed duration of the folded pass roots.
  double WallUs = 0;

  /// Adds every span tree rooted at a \p Root span in \p Events.
  void fold(const std::vector<fut::trace::TraceEvent> &Events,
            const char *Root = kPassSpan);

  double self(const std::string &Bucket) const;
  double inclusive(const std::string &SpanName) const;
};

} // namespace perfbench

#endif // FUTHARKCC_PERFBENCH_LAYERS_H
