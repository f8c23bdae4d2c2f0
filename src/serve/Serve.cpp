//===- Serve.cpp - Compile-once/serve-many request service ----------------===//
//
// Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
//
//===----------------------------------------------------------------------===//

#include "serve/Serve.h"

#include "gpusim/Prepared.h"
#include "interp/Interp.h"
#include "serve/ArtifactStore.h"
#include "parser/Desugar.h"
#include "support/Utils.h"
#include "trace/Trace.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

using namespace fut;
using namespace fut::serve;

namespace {

/// FNV-1a over the bytes of one 64-bit word.
uint64_t fnvWord(uint64_t W, uint64_t H) {
  for (int I = 0; I < 8; ++I) {
    H ^= (W >> (8 * I)) & 0xff;
    H *= 0x100000001b3ULL;
  }
  return H;
}

/// The exact bits of a scalar, tagged with its kind.
uint64_t primBits(const PrimValue &P) {
  if (P.isFloat()) {
    double D = P.getFloat();
    uint64_t Bits;
    std::memcpy(&Bits, &D, sizeof(Bits));
    return Bits;
  }
  if (P.kind() == ScalarKind::Bool)
    return P.getBool() ? 1 : 0;
  return static_cast<uint64_t>(P.getInt());
}

} // namespace

uint64_t fut::serve::argSignature(const std::vector<Value> &Args) {
  uint64_t H = fnv1a64("args");
  for (const Value &V : Args) {
    H = fnvWord(static_cast<uint64_t>(V.elemKind()), H);
    H = fnvWord(static_cast<uint64_t>(V.rank()), H);
    if (V.isScalar()) {
      H = fnvWord(primBits(V.getScalar()), H);
      continue;
    }
    for (int64_t D : V.shape())
      H = fnvWord(static_cast<uint64_t>(D), H);
    for (const PrimValue &P : V.flat())
      H = fnvWord(primBits(P), H);
  }
  return H;
}

Server::Server(ServerConfig C) : Config(std::move(C)) {
  trace::TraceSession::global().setThreadName(trace::kServeTid, "serve");
}

uint64_t Server::submit(ServeRequest R) {
  uint64_t Id = NextId++;
  uint64_t Key = artifactCacheKey(R.Source, R.Compile);
  uint64_t ArgSig = argSignature(R.Args);
  Submissions.push_back({Id, Key, ArgSig, std::move(R)});
  ++Stats.Submitted;
  return Id;
}

uint64_t Server::cachedFingerprint(const std::string &Source,
                                   const CompilerOptions &Opts) const {
  auto It = Cache.find(artifactCacheKey(Source, Opts));
  return It == Cache.end() ? 0 : It->second.Fingerprint;
}

CacheEntry *Server::lookupOrCompile(const ServeRequest &Req, uint64_t Key,
                                    bool &Hit, CompilerError &Err) {
  auto It = Cache.find(Key);
  if (It != Cache.end()) {
    Hit = true;
    It->second.LastUse = ++UseClock;
    ++It->second.Hits;
    return &It->second;
  }
  Hit = false;
  // A memory miss consults the on-disk store before paying for a compile:
  // this is the warm-restart path.  A served load *is* a cache hit — the
  // caller charges no compile cycles and the response reports CacheHit.
  if (!Config.ArtifactDir.empty()) {
    ArtifactStore Store(Config.ArtifactDir);
    if (Store.exists(Key)) {
      uint64_t Fingerprint = 0;
      auto Loaded = Store.load(Key, &Fingerprint);
      if (Loaded) {
        Hit = true;
        ++Stats.DiskHits;
        trace::counter("serve.disk_hits");
        CacheEntry E;
        E.Artifact = std::make_shared<const CompileResult>(Loaded.take());
        E.Fingerprint = Fingerprint; // verified by the decoder
        E.LastUse = ++UseClock;
        E.Hits = 1;
        auto Ins = Cache.emplace(Key, std::move(E));
        evictIfOverCapacity();
        return &Ins.first->second;
      }
      // Truncated, bit-flipped or stale-format file: fall through to a
      // fresh compile, whose save below overwrites the bad artifact.
      ++Stats.DiskCorrupt;
      trace::counter("serve.disk_corrupt");
    }
  }
  NameSource Names;
  trace::ScopedSpan Span("serve:compile", "serve", trace::kServeTid);
  auto C = compileSource(Req.Source, Names, Req.Compile);
  ++Stats.Compiles;
  trace::counter("serve.compiles");
  if (!C) {
    Err = C.getError();
    return nullptr;
  }
  CacheEntry E;
  E.Artifact = std::make_shared<const CompileResult>(C.take());
  E.Fingerprint = E.Artifact->fingerprint();
  E.LastUse = ++UseClock;
  if (!Config.ArtifactDir.empty() &&
      ArtifactStore(Config.ArtifactDir)
          .save(Key, *E.Artifact, E.Fingerprint)) {
    ++Stats.DiskStores;
    trace::counter("serve.disk_stores");
  }
  auto Ins = Cache.emplace(Key, std::move(E));
  evictIfOverCapacity();
  return &Ins.first->second;
}

void Server::evictIfOverCapacity() {
  while (Cache.size() > Config.MaxCacheEntries) {
    auto Victim = Cache.end();
    for (auto It = Cache.begin(); It != Cache.end(); ++It)
      if (Victim == Cache.end() || It->second.LastUse < Victim->second.LastUse)
        Victim = It;
    trace::counter("serve.cache_evictions");
    Cache.erase(Victim);
  }
}

DeviceRunOptions Server::makeRunOptions(const ServeRequest &Req,
                                                int64_t Reservation,
                                                bool Solo) const {
  const ServeLimits &L = Req.Limits;
  DeviceRunOptions RO;
  RO.Device = Config.Device;
  RO.Device.WatchdogKernelCycles = L.WatchdogKernelCycles;
  RO.Device.WatchdogTotalCycles = L.WatchdogTotalCycles;
  // A packed tenant's sandbox is exactly its reservation: everything else
  // on the device is marked reserved, so outgrowing the profiled bound
  // OOMs this request without touching a co-tenant's bytes.  A solo run
  // sees the whole device.
  if (!Solo && Config.Device.DeviceMemBytes > 0 && Reservation > 0)
    RO.Device.ReservedBytes = Config.Device.DeviceMemBytes - Reservation;
  RO.Resilience.MaxRetries = L.MaxRetries;
  RO.Resilience.Faults.LaunchFailRate = L.LaunchFailRate;
  RO.Resilience.Faults.CorruptRate = L.CorruptRate;
  RO.Resilience.Faults.Seed = L.FaultSeed;
  // The serving layer owns graceful degradation: device failures must
  // surface here so the quarantine/recompile/fallback ladder can react.
  RO.Resilience.InterpFallback = false;
  return RO;
}

namespace {

bool isDeviceFailure(const CompilerError &E) {
  return E.Kind == ErrorKind::DeviceOOM || E.Kind == ErrorKind::Watchdog ||
         E.Kind == ErrorKind::TransientFault;
}

} // namespace

ServeResponse Server::execute(const ServeRequest &Req, uint64_t Key,
                              uint64_t ArgSig, uint64_t Id,
                              int64_t Reservation, bool Solo,
                              double &DurationOut) {
  ServeResponse Resp;
  Resp.Id = Id;
  Resp.ArrivalCycle = Req.ArrivalCycle;
  Resp.Solo = Solo;
  Resp.ReservedBytes = Reservation;
  double Duration = 0;

  trace::ScopedSpan Span("serve:request", "serve", trace::kServeTid);
  Span.arg("id", static_cast<int64_t>(Id));

  // Admission sanity: an inconsistent device configuration — most notably
  // a reservation at or above the card's capacity, which the old
  // effectiveMemBytes() clamp used to shrink to a pathological 1-byte
  // device — is a typed Config error surfaced before any compile or
  // launch.  It is the server's fault, not the program's, and never
  // degrades to the interpreter.
  if (auto CfgErr = makeRunOptions(Req, Solo ? 0 : Reservation, Solo)
                        .Device.validate()) {
    ++Stats.ConfigRejected;
    trace::counter("serve.config_rejected");
    Resp.Ok = false;
    Resp.Error = CfgErr.getError().Kind;
    Resp.Message = CfgErr.getError().str();
    Span.arg("outcome", "config-error");
    DurationOut = 0;
    return Resp;
  }

  bool Hit = false;
  CompilerError CErr;
  CacheEntry *E = lookupOrCompile(Req, Key, Hit, CErr);
  Resp.CacheHit = Hit;
  if (Hit) {
    ++Stats.CacheHits;
    trace::counter("serve.cache_hits");
  } else {
    ++Stats.CacheMisses;
    trace::counter("serve.cache_misses");
    Duration += Config.CompileCycles;
  }
  Span.arg("cache", Hit ? "hit" : "miss");
  if (!E) {
    Resp.Ok = false;
    Resp.Error = CErr.Kind;
    Resp.Message = CErr.str();
    Span.arg("outcome", "compile-error");
    DurationOut = Duration;
    return Resp;
  }

  const ServeLimits &L = Req.Limits;
  CompilerError LastErr;
  constexpr int kMaxAttempts = 3;
  for (int Attempt = 1; Attempt <= kMaxAttempts; ++Attempt) {
    Resp.Attempts = Attempt;
    // Pin the artifact and its preparation for the duration of the run:
    // quarantine (or LRU eviction on behalf of another request) can drop
    // the cache entry, never the memory an in-flight run reads.
    std::shared_ptr<const CompileResult> Artifact = E->Artifact;
    if (!E->Prepared)
      E->Prepared = std::make_shared<gpusim::PreparedProgram>(Artifact->P);
    std::shared_ptr<gpusim::PreparedProgram> Prepared = E->Prepared;
    DeviceRunOptions RO = makeRunOptions(Req, Reservation, Solo);
    RO.Prepared = Prepared.get();
    if (Req.Compile.PlanMemory)
      RO.MemPlan = &Artifact->MemPlan;
    else
      RO.Device.UseMemPlan = false;
    // A multi-device request runs its shard-planned artifact on as many
    // devices as it was compiled for.
    RO.Shards = &Artifact->Shards;
    RO.Devices = Req.Compile.Devices;
    auto R = runOnDevice(Artifact->P, Req.Args, RO, Req.Fun);
    if (R) {
      Duration += R->Cost.TotalCycles;
      Resp.Ok = true;
      Resp.Outputs = std::move(R->Outputs);
      Resp.Cost = R->Cost;
      E->ConsecutiveDeviceFailures = 0;
      // Profile the residency bound for this argument signature: future
      // identical requests can be packed by it.  The demand peak covers
      // the launch-time overlap of live inputs with materialising
      // results, which the plain residency peaks miss.
      int64_t Bound = std::max(
          {R->Cost.PlannedPeakBytes, R->Cost.PeakDeviceBytes,
           R->Cost.PeakDemandBytes});
      if (Bound > 0)
        E->BoundByArgs[ArgSig] = Bound;
      Span.arg("outcome", "ok");
      Span.arg("cycles", R->Cost.TotalCycles);
      DurationOut = Duration;
      return Resp;
    }

    LastErr = R.getError();
    if (!isDeviceFailure(LastErr)) {
      // The program's own fault (bad index, shape mismatch): surfaces
      // directly and does not count against the artifact.
      Resp.Ok = false;
      Resp.Error = LastErr.Kind;
      Resp.Message = LastErr.str();
      Span.arg("outcome", "runtime-error");
      DurationOut = Duration;
      return Resp;
    }

    ++Stats.DeviceFailures;
    trace::counter("serve.device_failures");
    ++E->ConsecutiveDeviceFailures;
    if (Attempt == kMaxAttempts)
      break;

    // Serve-level backoff before the next attempt (on top of the
    // device's own per-kernel retry backoff, which is inside TotalCycles
    // of successful attempts only).
    Duration += Config.RequestRetryBackoffCycles * std::ldexp(1.0, Attempt - 1);

    // Quarantine: a persistently failing artifact is evicted and
    // recompiled once.  The fresh artifact must reproduce the original
    // fingerprint (compilation is deterministic) — this is defence
    // against a corrupted cached artifact, and the fingerprint check
    // would catch nondeterministic compilation.
    if (E->ConsecutiveDeviceFailures >= Config.QuarantineThreshold &&
        !E->Recompiled) {
      ++Stats.Quarantined;
      trace::counter("serve.quarantined");
      trace::TraceSession::global().instant("serve:quarantine", "serve",
                                            trace::kServeTid);
      NameSource Names;
      auto C = compileSource(Req.Source, Names, Req.Compile);
      ++Stats.Compiles;
      ++Stats.Recompiles;
      trace::counter("serve.compiles");
      trace::counter("serve.recompiles");
      Duration += Config.CompileCycles;
      if (C) {
        E->Artifact = std::make_shared<const CompileResult>(C.take());
        E->Prepared.reset();
        E->Fingerprint = E->Artifact->fingerprint();
        E->Recompiled = true;
        E->ConsecutiveDeviceFailures = 0;
        Resp.Recompiled = true;
        // The quarantine hypothesis is a corrupted artifact; refresh the
        // on-disk copy too so the next cold start gets the clean one.
        if (!Config.ArtifactDir.empty() &&
            ArtifactStore(Config.ArtifactDir)
                .save(Key, *E->Artifact, E->Fingerprint)) {
          ++Stats.DiskStores;
          trace::counter("serve.disk_stores");
        }
      }
    }
  }

  // Device attempts exhausted: graceful degradation to the reference
  // interpreter, unless this request opted out.
  if (!L.AllowFallback) {
    Resp.Ok = false;
    Resp.Error = LastErr.Kind;
    Resp.Message = LastErr.str();
    Span.arg("outcome", "device-error");
    DurationOut = Duration;
    return Resp;
  }
  ++Stats.Fallbacks;
  trace::counter("serve.fallbacks");
  trace::TraceSession::global().instant("serve:fallback", "serve",
                                        trace::kServeTid);
  std::shared_ptr<const CompileResult> Artifact = E->Artifact;
  InterpOptions IO;
  IO.ConsumeOnUpdate = true;
  Interpreter I(Artifact->P, IO);
  auto Out = I.runFunction(Req.Fun, Req.Args);
  if (!Out) {
    Resp.Ok = false;
    Resp.Error = ErrorKind::FallbackExhausted;
    Resp.Message = "device failed (" + LastErr.Message +
                   ") and the interpreter fallback also failed: " +
                   Out.getError().Message;
    Span.arg("outcome", "fallback-exhausted");
    DurationOut = Duration;
    return Resp;
  }
  Duration +=
      static_cast<double>(I.steps()) * Config.Device.HostCyclesPerOp;
  Resp.Ok = true;
  Resp.InterpFallback = true;
  Resp.Outputs = Out.take();
  Span.arg("outcome", "interp-fallback");
  DurationOut = Duration;
  return Resp;
}

std::vector<ServeResponse> Server::drain() {
  trace::TraceSession::global().setThreadName(trace::kServeTid, "serve");
  std::stable_sort(Submissions.begin(), Submissions.end(),
                   [](const Submission &A, const Submission &B) {
                     return A.Req.ArrivalCycle < B.Req.ArrivalCycle;
                   });

  const int64_t Capacity = Config.Device.DeviceMemBytes;
  std::deque<Submission> Queue;
  std::vector<Resident> Residents;
  std::vector<ServeResponse> Responses;
  size_t NextArrival = 0;
  double SimNow = 0;
  int64_t Reserved = 0;
  bool SoloActive = false;

  auto Shed = [&](const Submission &S, ErrorKind Kind,
                  const std::string &Msg) {
    ServeResponse Resp;
    Resp.Id = S.Id;
    Resp.Ok = false;
    Resp.Error = Kind;
    Resp.Message = Msg;
    Resp.ArrivalCycle = S.Req.ArrivalCycle;
    Resp.StartCycle = SimNow;
    Resp.CompletionCycle = SimNow;
    if (Kind == ErrorKind::Overload) {
      ++Stats.ShedOverload;
      trace::counter("serve.shed_overload");
      trace::TraceSession::global().instant("serve:shed-overload", "serve",
                                            trace::kServeTid);
    } else {
      ++Stats.ShedDeadline;
      trace::counter("serve.shed_deadline");
      trace::TraceSession::global().instant("serve:shed-deadline", "serve",
                                            trace::kServeTid);
    }
    Responses.push_back(std::move(Resp));
  };

  auto IngestArrivals = [&] {
    while (NextArrival < Submissions.size() &&
           Submissions[NextArrival].Req.ArrivalCycle <= SimNow) {
      Submission &S = Submissions[NextArrival++];
      if (Queue.size() >= Config.MaxQueueDepth) {
        Shed(S, ErrorKind::Overload,
             "request shed: queue full (" +
                 std::to_string(Config.MaxQueueDepth) + " pending)");
        continue;
      }
      Queue.push_back(std::move(S));
      Stats.PeakQueueDepth = std::max(Stats.PeakQueueDepth, Queue.size());
      trace::counter("serve.enqueued");
    }
  };

  auto Retire = [&](double UpTo) {
    for (size_t I = 0; I < Residents.size();) {
      if (Residents[I].CompletionCycle <= UpTo) {
        Resident R = std::move(Residents[I]);
        Residents.erase(Residents.begin() + I);
        Reserved -= R.Reservation;
        if (R.Solo)
          SoloActive = false;
        if (R.Response.Ok) {
          ++Stats.Completed;
          trace::counter("serve.completed");
        } else {
          ++Stats.Failed;
          trace::counter("serve.failed");
        }
        Stats.LastCompletionCycle =
            std::max(Stats.LastCompletionCycle, R.Response.CompletionCycle);
        Responses.push_back(std::move(R.Response));
      } else {
        ++I;
      }
    }
  };

  auto KnownBound = [&](const Submission &S) -> int64_t {
    auto It = Cache.find(S.Key);
    if (It == Cache.end())
      return -1;
    auto B = It->second.BoundByArgs.find(S.ArgSig);
    return B == It->second.BoundByArgs.end() ? -1 : B->second;
  };

  auto Admit = [&](Submission S, int64_t Reservation, bool Solo) {
    ++Stats.Admitted;
    trace::counter("serve.admitted");
    if (Solo) {
      ++Stats.SoloRuns;
      SoloActive = true;
    } else {
      ++Stats.PackedRuns;
      Reserved += Reservation;
      Stats.PeakReservedBytes = std::max(Stats.PeakReservedBytes, Reserved);
    }
    Stats.PeakResidentTenants = std::max(
        Stats.PeakResidentTenants, static_cast<int64_t>(Residents.size() + 1));

    double Duration = 0;
    ServeResponse Resp =
        execute(S.Req, S.Key, S.ArgSig, S.Id, Solo ? 0 : Reservation, Solo,
                Duration);
    Resp.StartCycle = SimNow;
    Resp.CompletionCycle = SimNow + Duration;

    // A run that finished past its deadline is a typed Deadline failure:
    // the latency contract was broken even though the work completed.
    const double DL = S.Req.Limits.DeadlineCycles;
    if (Resp.Ok && DL > 0 && Resp.CompletionCycle - Resp.ArrivalCycle > DL) {
      ++Stats.DeadlineMissed;
      trace::counter("serve.deadline_missed");
      Resp.Ok = false;
      Resp.Error = ErrorKind::Deadline;
      Resp.Message =
          "completed past deadline: " +
          std::to_string(
              static_cast<int64_t>(Resp.CompletionCycle - Resp.ArrivalCycle)) +
          " cycles elapsed, deadline " +
          std::to_string(static_cast<int64_t>(DL));
      Resp.Outputs.clear();
    }

    Resident R;
    R.CompletionCycle = Resp.CompletionCycle;
    R.Reservation = Solo ? 0 : Reservation;
    R.Solo = Solo;
    R.Response = std::move(Resp);
    Residents.push_back(std::move(R));
  };

  while (NextArrival < Submissions.size() || !Queue.empty() ||
         !Residents.empty()) {
    IngestArrivals();

    // Admit from the queue front (FIFO; no reordering, so admission is
    // starvation-free by construction).
    while (!Queue.empty()) {
      Submission &S = Queue.front();
      const double DL = S.Req.Limits.DeadlineCycles;
      if (DL > 0 && SimNow - S.Req.ArrivalCycle > DL) {
        Shed(S, ErrorKind::Deadline,
             "request shed: deadline expired after " +
                 std::to_string(
                     static_cast<int64_t>(SimNow - S.Req.ArrivalCycle)) +
                 " queued cycles (deadline " +
                 std::to_string(static_cast<int64_t>(DL)) + ")");
        Queue.pop_front();
        continue;
      }
      int64_t Bound = KnownBound(S);
      bool Packable = Bound >= 0 && (Capacity <= 0 || Bound <= Capacity);
      if (Packable && !SoloActive &&
          (Capacity <= 0 || Reserved + Bound <= Capacity)) {
        Submission Own = std::move(S);
        Queue.pop_front();
        Admit(std::move(Own), Bound, /*Solo=*/false);
        continue;
      }
      if (Residents.empty()) {
        // No profiled bound yet (or the bound exceeds the device): run
        // exclusively.  An oversized program OOMs inside the run and
        // degrades to the interpreter, so even it completes.
        Submission Own = std::move(S);
        Queue.pop_front();
        Admit(std::move(Own), 0, /*Solo=*/true);
        continue;
      }
      break; // Wait for capacity.
    }

    // Advance simulated time to the next event.
    double NextT = std::numeric_limits<double>::infinity();
    for (const Resident &R : Residents)
      NextT = std::min(NextT, R.CompletionCycle);
    if (Queue.empty() && NextArrival < Submissions.size())
      NextT = std::min(NextT, Submissions[NextArrival].Req.ArrivalCycle);
    if (!std::isfinite(NextT))
      break; // Nothing in flight and nothing to arrive.
    SimNow = std::max(SimNow, NextT);
    Retire(SimNow);
  }

  Retire(std::numeric_limits<double>::infinity());
  Submissions.clear();
  NextArrival = 0;
  return Responses;
}
