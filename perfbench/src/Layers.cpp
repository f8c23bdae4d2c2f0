//===- Layers.cpp - Per-layer self times from the span tree ---------------===//
//
// Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
//
//===----------------------------------------------------------------------===//

#include "Layers.h"

#include <algorithm>

using namespace perfbench;

namespace {

bool startsWith(const std::string &S, const char *Prefix) {
  return S.rfind(Prefix, 0) == 0;
}

/// Spans whose inclusive duration is reported besides the self times.
bool reportedInclusive(const std::string &Name) {
  return Name == "device-run" || Name == "serve:compile";
}

} // namespace

std::string perfbench::layerOf(const std::string &Name) {
  static const std::map<std::string, std::string> Exact = {
      {kPassSpan, "unattributed"},
      {"pass:frontend", "parser.frontend"},
      {"bench:frontend", "parser.frontend"},
      {"pass:uniqueness", "uniq.check"},
      {"pass:inline", "opt.inline"},
      {"pass:simplify", "opt.simplify"},
      {"pass:ad-vjp", "ad.vjp"},
      {"pass:fusion", "fusion"},
      {"pass:flatten", "flatten"},
      {"pass:locality", "locality"},
      {"pass:memplan", "mem.plan"},
      {"pass:shardplan", "shard.plan"},
      // The compile span's own time is the unspanned structural recheck
      // (checkProgram) after every pass.
      {"compile", "check.internal"},
      {"bench:compileSource", "driver"},
      {"device-run", "gpusim.host"},
      {"bench:device.run", "gpusim.host"},
      {"bench:interp.run", "interp.run"},
      {"serve:request", "serve.request_self"},
      {"serve:compile", "serve.compile_self"},
      {"bench:serve.submit", "serve.client"},
      {"bench:serve.drain", "serve.client"},
      {"bench:check", "bench.check"},
  };
  auto It = Exact.find(Name);
  if (It != Exact.end())
    return It->second;
  if (startsWith(Name, "verify:"))
    return "check.verify";
  if (startsWith(Name, "kernel:"))
    return "gpusim.kernel";
  if (startsWith(Name, "xfer:"))
    return "gpusim.xfer";
  if (startsWith(Name, "memplan:"))
    return "gpusim.host";
  return "other";
}

void LayerTimes::fold(const std::vector<fut::trace::TraceEvent> &Events,
                      const char *Root) {
  struct Open {
    const fut::trace::TraceEvent *E;
    double ChildUs;
  };
  std::vector<Open> Stack;
  bool InPass = false;
  auto Close = [&] {
    const Open &O = Stack.back();
    SelfUs[layerOf(O.E->Name)] += std::max(0.0, O.E->DurUs - O.ChildUs);
    Stack.pop_back();
  };
  for (const fut::trace::TraceEvent &E : Events) {
    if (E.Instant)
      continue;
    while (!Stack.empty() && Stack.back().E->Depth >= E.Depth)
      Close();
    if (Stack.empty()) {
      InPass = E.Name == Root;
      if (InPass)
        WallUs += E.DurUs;
    }
    if (!InPass)
      continue;
    if (!Stack.empty())
      Stack.back().ChildUs += E.DurUs;
    if (E.Name == kTwinSpan || E.Name == kHopSpan) {
      // An untraced twin run or the hopper's probes (no child spans): not
      // part of the pass.
      WallUs -= E.DurUs;
      continue;
    }
    if (reportedInclusive(E.Name))
      InclusiveUs[E.Name] += E.DurUs;
    Stack.push_back({&E, 0.0});
  }
  while (!Stack.empty())
    Close();
}

double LayerTimes::self(const std::string &Bucket) const {
  auto It = SelfUs.find(Bucket);
  return It == SelfUs.end() ? 0 : It->second;
}

double LayerTimes::inclusive(const std::string &SpanName) const {
  auto It = InclusiveUs.find(SpanName);
  return It == InclusiveUs.end() ? 0 : It->second;
}
