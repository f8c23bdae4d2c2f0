//===- Trace.cpp - Structured tracing and metrics -----------------------------===//
//
// Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
//
//===----------------------------------------------------------------------===//

#include "trace/Trace.h"

#include "support/Json.h"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <sstream>

using namespace fut;
using namespace fut::trace;

namespace {

uint64_t monotonicNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

} // namespace

TraceSession &TraceSession::global() {
  static TraceSession S;
  return S;
}

double TraceSession::nowUs() const {
  return static_cast<double>(monotonicNs() - EpochNs) / 1000.0;
}

void TraceSession::setEnabled(bool On) {
  if (On && !Enabled && Events.empty())
    EpochNs = monotonicNs();
  Enabled = On;
}

void TraceSession::clear() {
  Events.clear();
  OpenSpans.clear();
  Counters.clear();
  ThreadNames.clear();
  EpochNs = monotonicNs();
}

size_t TraceSession::beginSpan(std::string_view Name,
                               std::string_view Category, int Tid) {
  return beginSpanAt(Name, Category, Tid, nowUs());
}

size_t TraceSession::beginSpanAt(std::string_view Name,
                                 std::string_view Category, int Tid,
                                 double StartUs) {
  if (!Enabled)
    return SIZE_MAX;
  TraceEvent E;
  E.Name = Name;
  E.Category = Category;
  E.StartUs = StartUs;
  E.Depth = static_cast<int>(OpenSpans.size());
  E.Tid = Tid;
  Events.push_back(std::move(E));
  OpenSpans.push_back(Events.size() - 1);
  return Events.size() - 1;
}

void TraceSession::endSpan(size_t Idx) { endSpanAt(Idx, nowUs()); }

void TraceSession::endSpanAt(size_t Idx, double EndUs) {
  if (Idx == SIZE_MAX || Idx >= Events.size())
    return;
  Events[Idx].DurUs = EndUs - Events[Idx].StartUs;
  // Spans close LIFO (RAII); tolerate out-of-order closes by popping
  // through the target so the depth bookkeeping cannot wedge.
  while (!OpenSpans.empty()) {
    size_t Top = OpenSpans.back();
    OpenSpans.pop_back();
    if (Top == Idx)
      break;
  }
}

void TraceSession::spanArg(size_t Idx, std::string_view Key, double Num) {
  if (Idx == SIZE_MAX || Idx >= Events.size())
    return;
  TraceArg A;
  A.Key = Key;
  A.Num = Num;
  Events[Idx].Args.push_back(std::move(A));
}

void TraceSession::spanArg(size_t Idx, std::string_view Key,
                           std::string_view Str) {
  if (Idx == SIZE_MAX || Idx >= Events.size())
    return;
  TraceArg A;
  A.Key = Key;
  A.IsNumber = false;
  A.Str = Str;
  Events[Idx].Args.push_back(std::move(A));
}

size_t TraceSession::instant(std::string_view Name,
                             std::string_view Category, int Tid) {
  if (!Enabled)
    return SIZE_MAX;
  TraceEvent E;
  E.Name = Name;
  E.Category = Category;
  E.StartUs = nowUs();
  E.Depth = static_cast<int>(OpenSpans.size());
  E.Tid = Tid;
  E.Instant = true;
  Events.push_back(std::move(E));
  return Events.size() - 1;
}

void TraceSession::setThreadName(int Tid, std::string_view Name) {
  if (!Enabled)
    return;
  ThreadNames[Tid] = Name;
}

void TraceSession::counter(std::string_view Name, int64_t Delta) {
  if (!Enabled)
    return;
  Counters[std::string(Name)] += Delta;
}

//===----------------------------------------------------------------------===//
// Exporters
//===----------------------------------------------------------------------===//

std::string TraceSession::summary() const {
  std::ostringstream OS;
  OS << "=== trace: spans ===\n";
  for (const TraceEvent &E : Events) {
    for (int I = 0; I < E.Depth; ++I)
      OS << "  ";
    if (E.Instant) {
      OS << "! " << E.Name;
    } else {
      char Buf[32];
      snprintf(Buf, sizeof(Buf), "%.1f", E.DurUs);
      OS << E.Name << " (" << Buf << " us)";
    }
    bool First = true;
    for (const TraceArg &A : E.Args) {
      OS << (First ? "  [" : ", ") << A.Key << "=";
      OS << (A.IsNumber ? json::number(A.Num) : A.Str);
      First = false;
    }
    if (!First)
      OS << "]";
    OS << "\n";
  }
  OS << "=== trace: counters ===\n";
  for (const auto &[Name, Val] : Counters)
    OS << Name << " = " << Val << "\n";
  return OS.str();
}

std::string TraceSession::chromeTraceJson() const {
  // Sort spans so parents precede children (Perfetto accepts any order,
  // but deterministic output keeps the schema tests simple).
  std::vector<size_t> Order(Events.size());
  for (size_t I = 0; I < Order.size(); ++I)
    Order[I] = I;
  std::stable_sort(Order.begin(), Order.end(), [&](size_t A, size_t B) {
    if (Events[A].StartUs != Events[B].StartUs)
      return Events[A].StartUs < Events[B].StartUs;
    return Events[A].Depth < Events[B].Depth;
  });

  std::ostringstream OS;
  OS << "{\"traceEvents\":[";
  bool FirstEvent = true;
  auto Emit = [&](const std::string &Body) {
    if (!FirstEvent)
      OS << ",";
    FirstEvent = false;
    OS << "\n" << Body;
  };

  // Track names first, as thread_name metadata events, so viewers label
  // the engine tracks before any of their events appear.
  for (const auto &[Tid, Name] : ThreadNames) {
    std::ostringstream EO;
    EO << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" << Tid
       << ",\"args\":{\"name\":\"" << json::escape(Name) << "\"}}";
    Emit(EO.str());
  }

  for (size_t I : Order) {
    const TraceEvent &E = Events[I];
    std::ostringstream EO;
    EO << "{\"name\":\"" << json::escape(E.Name) << "\",\"cat\":\""
       << json::escape(E.Category) << "\",\"ph\":\""
       << (E.Instant ? "i" : "X") << "\",\"ts\":" << json::number(E.StartUs);
    if (!E.Instant)
      EO << ",\"dur\":" << json::number(E.DurUs);
    else
      EO << ",\"s\":\"t\"";
    EO << ",\"pid\":1,\"tid\":" << E.Tid;
    if (!E.Args.empty()) {
      EO << ",\"args\":{";
      bool FirstArg = true;
      for (const TraceArg &A : E.Args) {
        if (!FirstArg)
          EO << ",";
        FirstArg = false;
        EO << "\"" << json::escape(A.Key) << "\":";
        if (A.IsNumber)
          EO << json::number(A.Num);
        else
          EO << "\"" << json::escape(A.Str) << "\"";
      }
      EO << "}";
    }
    EO << "}";
    Emit(EO.str());
  }

  // Counters as trailing "C" samples so they show up as tracks.
  double EndUs = 0;
  for (const TraceEvent &E : Events)
    EndUs = std::max(EndUs, E.StartUs + E.DurUs);
  for (const auto &[Name, Val] : Counters) {
    std::ostringstream EO;
    EO << "{\"name\":\"" << json::escape(Name)
       << "\",\"cat\":\"counter\",\"ph\":\"C\",\"ts\":"
       << json::number(EndUs) << ",\"pid\":1,\"args\":{\"value\":"
       << Val << "}}";
    Emit(EO.str());
  }

  OS << "\n],\"displayTimeUnit\":\"ms\"}\n";
  return OS.str();
}

MaybeError TraceSession::writeChromeTrace(const std::string &Path) const {
  std::ofstream Out(Path);
  if (!Out)
    return CompilerError("cannot open trace output file " + Path);
  Out << chromeTraceJson();
  if (!Out)
    return CompilerError("failed writing trace output file " + Path);
  return MaybeError::success();
}
