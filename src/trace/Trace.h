//===- Trace.h - Structured tracing and metrics -----------------*- C++ -*-===//
//
// Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A lightweight span/counter subsystem threaded through the whole stack:
/// every compiler pass opens a span (so the pipeline is visible as a
/// timeline), the device simulator opens a span per kernel launch (carrying
/// simulated cycles and the coalesced/scattered transaction breakdown as
/// args), and passes/devices bump named counters ("fusion.vertical",
/// "device.global_tx", ...) that turn "the fusion pass ran" into a
/// checkable fact.
///
/// The process-global TraceSession is disabled by default; when disabled,
/// spans and counters cost one branch and allocate nothing: names, keys
/// and string args are taken as string views and copied only when
/// recorded.  Args that are expensive to build are guarded with
/// ScopedSpan::active() / TraceSession::enabled() at the call site.
///
/// Two exporters are provided:
///
///  * summary(): a human-readable digest (printed by futharkcc --trace),
///  * chromeTraceJson(): Chrome trace_event JSON ("X" complete events with
///    microsecond wall-clock timestamps, simulated costs in args, instant
///    events for faults/retries, and trailing "C" counter samples), loadable
///    directly in chrome://tracing or Perfetto (futharkcc --trace-out=FILE).
///
/// Timestamps are wall-clock so compiler passes and simulated kernels share
/// one timeline; all *simulated* quantities (cycles, transactions) travel in
/// span args, never in the time axis.  The session is single-threaded, like
/// the rest of the compiler.
///
//===----------------------------------------------------------------------===//

#ifndef FUTHARKCC_TRACE_TRACE_H
#define FUTHARKCC_TRACE_TRACE_H

#include "support/Error.h"

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace fut {
namespace trace {

/// Chrome-trace thread ids ("tracks") used by the exporters.  The
/// compiler and host-side simulation live on the default track; the
/// device simulator puts kernel commands and transfer commands on one
/// track per engine, mirroring its two-engine timeline.
constexpr int kHostTid = 1;
constexpr int kCopyEngineTid = 2;
constexpr int kComputeEngineTid = 3;
/// The serving layer (futharkcc-serve): one span per request, plus
/// admission/shedding/quarantine instants.
constexpr int kServeTid = 4;

/// Multi-device runs: devices 1..N-1 of a DeviceGroup get their own pair
/// of engine tracks above the single-device tids (device 0 keeps
/// kCopyEngineTid/kComputeEngineTid, so single-device traces are
/// unchanged).
constexpr int kDeviceTidBase = 5;
inline int deviceCopyTid(int Device) {
  return Device == 0 ? kCopyEngineTid : kDeviceTidBase + 2 * (Device - 1);
}
inline int deviceComputeTid(int Device) {
  return Device == 0 ? kComputeEngineTid
                     : kDeviceTidBase + 2 * (Device - 1) + 1;
}

/// One key/value argument attached to a span or instant event.  Numeric
/// args stay numeric in the exported JSON.
struct TraceArg {
  std::string Key;
  bool IsNumber = true;
  double Num = 0;
  std::string Str;
};

/// A recorded event: a completed span ("X"), an instant ("i"), or a counter
/// sample ("C", synthesised at export time).
struct TraceEvent {
  std::string Name;
  std::string Category;
  double StartUs = 0; ///< Wall-clock microseconds since session start.
  double DurUs = 0;   ///< Spans only.
  int Depth = 0;      ///< Nesting depth at begin (0 = top level).
  int Tid = kHostTid; ///< Chrome-trace track the event is exported on.
  bool Instant = false;
  std::vector<TraceArg> Args;

  const TraceArg *findArg(const std::string &Key) const {
    for (const TraceArg &A : Args)
      if (A.Key == Key)
        return &A;
    return nullptr;
  }
};

/// The process-global trace sink.  All spans, instants and counters land
/// here; exporters read the recorded state back out.
class TraceSession {
  bool Enabled = false;
  uint64_t EpochNs = 0;
  std::vector<TraceEvent> Events;
  std::vector<size_t> OpenSpans; ///< Indices into Events, innermost last.
  std::map<std::string, int64_t> Counters;
  std::map<int, std::string> ThreadNames; ///< Tid -> exported track name.

public:
  static TraceSession &global();

  bool enabled() const { return Enabled; }
  /// Enabling (re)starts the clock when the session was previously empty.
  void setEnabled(bool On);

  /// Drops all recorded events and counters and restarts the clock.
  void clear();

  //===-- Recording --------------------------------------------------------===//

  /// Opens a span; returns its event index (pass to endSpan/spanArg), or
  /// SIZE_MAX when disabled.  Prefer the RAII ScopedSpan.  \p Tid selects
  /// the exported Chrome-trace track (kHostTid by default).
  size_t beginSpan(std::string_view Name, std::string_view Category,
                   int Tid = kHostTid);
  void endSpan(size_t Idx);

  /// beginSpan/endSpan with explicit times (nowUs() readings), for a span
  /// whose work was timed before the span could be opened.
  size_t beginSpanAt(std::string_view Name, std::string_view Category,
                     int Tid, double StartUs);
  void endSpanAt(size_t Idx, double EndUs);

  /// Wall-clock microseconds since the session started.
  double nowUs() const;

  void spanArg(size_t Idx, std::string_view Key, double Num);
  void spanArg(size_t Idx, std::string_view Key, std::string_view Str);

  /// Records an instant event (faults, retries, watchdog kills).
  size_t instant(std::string_view Name, std::string_view Category,
                 int Tid = kHostTid);

  /// Names a track in the Chrome export (emitted as a thread_name
  /// metadata event).  Idempotent; survives until clear().
  void setThreadName(int Tid, std::string_view Name);

  /// Adds \p Delta to the named counter.
  void counter(std::string_view Name, int64_t Delta = 1);

  //===-- Reading back -----------------------------------------------------===//

  const std::vector<TraceEvent> &events() const { return Events; }
  const std::map<std::string, int64_t> &counters() const { return Counters; }
  int64_t counterValue(const std::string &Name) const {
    auto It = Counters.find(Name);
    return It == Counters.end() ? 0 : It->second;
  }

  //===-- Exporters --------------------------------------------------------===//

  /// Human-readable digest: the span tree with durations, then counters.
  std::string summary() const;

  /// Chrome trace_event JSON (the {"traceEvents": [...]} envelope).
  std::string chromeTraceJson() const;

  /// Writes chromeTraceJson() to \p Path.
  MaybeError writeChromeTrace(const std::string &Path) const;
};

/// RAII span on the global session.  Args added through it attach to the
/// span event; all calls are no-ops when tracing is disabled.
class ScopedSpan {
  size_t Idx;
  double EndUs = -1;

public:
  ScopedSpan(std::string_view Name, std::string_view Category,
             int Tid = kHostTid)
      : Idx(TraceSession::global().beginSpan(Name, Category, Tid)) {}
  /// A span over an interval measured earlier with nowUs(): it opens at
  /// \p StartUs and closes at \p EndUs, whenever it goes out of scope.
  ScopedSpan(std::string_view Name, std::string_view Category, int Tid,
             double StartUs, double EndUs)
      : Idx(TraceSession::global().beginSpanAt(Name, Category, Tid,
                                               StartUs)),
        EndUs(EndUs) {}
  ~ScopedSpan() {
    if (EndUs < 0)
      TraceSession::global().endSpan(Idx);
    else
      TraceSession::global().endSpanAt(Idx, EndUs);
  }

  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

  /// Whether the span is being recorded (tracing was on when it opened).
  bool active() const { return Idx != SIZE_MAX; }

  void arg(std::string_view Key, double Num) {
    TraceSession::global().spanArg(Idx, Key, Num);
  }
  void arg(std::string_view Key, int64_t Num) {
    TraceSession::global().spanArg(Idx, Key, static_cast<double>(Num));
  }
  void arg(std::string_view Key, int Num) {
    TraceSession::global().spanArg(Idx, Key, static_cast<double>(Num));
  }
  void arg(std::string_view Key, std::string_view Str) {
    TraceSession::global().spanArg(Idx, Key, Str);
  }
};

/// Convenience: bumps a counter on the global session.
inline void counter(std::string_view Name, int64_t Delta = 1) {
  TraceSession::global().counter(Name, Delta);
}

} // namespace trace
} // namespace fut

#endif // FUTHARKCC_TRACE_TRACE_H
