//===- Serve.h - Compile-once/serve-many request service --------*- C++ -*-===//
//
// Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// futharkcc-serve: a fault-isolated compile-once/serve-many service in
/// front of the compiler and the simulated device.  The paper's pipeline
/// (flatten -> fuse -> plan -> launch) runs once per distinct program; the
/// resulting immutable artifact (DeviceProgram + MemoryPlan + cost
/// metadata) is cached by a content hash of the source text plus the
/// canonical compiler options, and every further request for the same
/// program executes straight from the cache.
///
/// The server simulates a request timeline in device cycles.  Requests
/// arrive at ArrivalCycle, wait in a bounded FIFO queue, and are admitted
/// onto a shared simulated device by a capacity-aware admission
/// controller:
///
///  * the first run of an (artifact, arguments) pair executes *solo* and
///    profiles the plan-derived PlannedPeakBytes residency bound;
///  * subsequent identical requests are *packed*: the controller reserves
///    the profiled bound and admits concurrent tenants only while the sum
///    of reservations fits DeviceMemBytes — the static memory plan is the
///    admission contract, checked before launch, never after;
///  * each packed tenant runs with the rest of the device marked
///    ReservedBytes, so a tenant that outgrows its reservation OOMs inside
///    its own sandbox instead of corrupting a neighbour.
///
/// Robustness is the point of the layer:
///
///  * fault isolation — artifacts are immutable (shared_ptr<const ...>);
///    a request's injected faults, watchdog kills or OOMs can never poison
///    the cache or another in-flight request;
///  * per-request limits — watchdog budgets, retry counts, fault rates and
///    deadlines travel in ServeLimits and are threaded into a private
///    DeviceRunOptions per request, so two tenants with different limits
///    cannot clobber each other;
///  * bounded queue with load shedding — a full queue rejects with a typed
///    ErrorKind::Overload error instead of growing without bound;
///  * deadlines — a request whose deadline expires while queued is shed
///    with ErrorKind::Deadline before any work is done; a run that
///    completes past its deadline is reported as a Deadline failure;
///  * quarantine — an artifact whose runs fail persistently is evicted and
///    recompiled once (the fingerprint must reproduce); only if the fresh
///    artifact also fails does the request degrade to the reference
///    interpreter, so one bad artifact never becomes a permanent outage;
///  * graceful degradation — every admitted request completes: retried,
///    recompiled, or interpreted, never hung.
///
/// Everything is observable through the trace layer (serve track spans per
/// request, instants for shed/quarantine/fallback, counters for
/// admitted/shed/cache hits/...).
///
//===----------------------------------------------------------------------===//

#ifndef FUTHARKCC_SERVE_SERVE_H
#define FUTHARKCC_SERVE_SERVE_H

#include "driver/Compiler.h"
#include "gpusim/Device.h"
#include "support/Error.h"

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace fut {
namespace serve {

/// Per-request execution limits: the PR 1 resilience knobs plus a
/// client-facing deadline.  Each request's limits are materialised into a
/// private DeviceRunOptions — nothing here is process- or service-global.
struct ServeLimits {
  /// Per-kernel / per-run watchdog budgets in simulated cycles (0 = off).
  double WatchdogKernelCycles = 0;
  double WatchdogTotalCycles = 0;
  /// Device-level transient-fault retries per kernel.
  int MaxRetries = 3;
  /// Injected fault rates and the seed of the request's own fault stream.
  double LaunchFailRate = 0;
  double CorruptRate = 0;
  uint64_t FaultSeed = 0;
  /// Deadline in simulated cycles relative to arrival; 0 = none.
  double DeadlineCycles = 0;
  /// Allow degradation to the reference interpreter when the device fails
  /// persistently even after quarantine-recompile.  When false the typed
  /// device error is returned instead.
  bool AllowFallback = true;
};

struct ServeRequest {
  std::string Source;
  std::string Fun = "main";
  std::vector<Value> Args;
  /// Simulated cycle at which the request reaches the server.
  double ArrivalCycle = 0;
  ServeLimits Limits;
  /// Compiler options; part of the artifact cache key.
  CompilerOptions Compile;
};

struct ServeResponse {
  uint64_t Id = 0;
  bool Ok = false;
  /// Valid when !Ok: the typed failure (Overload, Deadline, Compile,
  /// Runtime, or a device kind when fallback was disabled).
  ErrorKind Error = ErrorKind::Runtime;
  std::string Message;
  std::vector<Value> Outputs;

  /// Artifact served from the cache (no compilation on this request).
  bool CacheHit = false;
  /// The quarantine path evicted and recompiled the artifact here.
  bool Recompiled = false;
  /// Completed by the reference interpreter (service-level degradation).
  bool InterpFallback = false;
  /// Admitted exclusively (no profiled bound yet, or bound > capacity).
  bool Solo = false;
  /// Bytes reserved by the admission controller (packed runs: the
  /// profiled PlannedPeakBytes bound; solo runs: 0 = whole device).
  int64_t ReservedBytes = 0;
  /// Device attempts made (>= 1 once admitted; 0 when shed).
  int Attempts = 0;

  double ArrivalCycle = 0;
  double StartCycle = 0;      ///< Admission instant.
  double CompletionCycle = 0; ///< Response instant (== shed instant).
  double queuedCycles() const { return StartCycle - ArrivalCycle; }
  double serviceCycles() const { return CompletionCycle - StartCycle; }

  /// Cost report of the final device attempt (empty when shed or when the
  /// request completed on the interpreter).
  gpusim::CostReport Cost;
};

struct ServerConfig {
  /// The shared device; DeviceMemBytes is the capacity the admission
  /// controller packs reservations into.
  gpusim::DeviceParams Device = gpusim::DeviceParams::gtx780();
  /// Pending requests beyond this are shed with ErrorKind::Overload.
  size_t MaxQueueDepth = 64;
  /// Artifact-cache capacity in entries; least-recently-used beyond it.
  size_t MaxCacheEntries = 64;
  /// Consecutive device-kind failures of one artifact before it is
  /// evicted and recompiled once.
  int QuarantineThreshold = 2;
  /// Simulated cycles charged for a compile (cache misses only): the
  /// compile-once cost that cache hits amortise away.
  double CompileCycles = 50000;
  /// First serve-level retry backoff in simulated cycles (doubles per
  /// attempt), charged on top of the device's own per-kernel backoff.
  double RequestRetryBackoffCycles = 16000;
  /// Default limits for requests that do not override them.
  ServeLimits DefaultLimits;
  /// Directory for the on-disk artifact store (--artifact-dir); empty
  /// disables persistence.  A cache miss consults the store before
  /// compiling, so a restarted server serves its former working set as
  /// cache hits (no compile cycles charged); every fresh compile and
  /// quarantine recompile is written back.  Loads are fingerprint-verified
  /// (ArtifactStore.h), so a corrupt file degrades to a recompile.
  std::string ArtifactDir;
};

/// Aggregate service counters (mirrored into the trace session as
/// "serve.*" counters).
struct ServerStats {
  int64_t Submitted = 0;
  int64_t Admitted = 0;
  int64_t Completed = 0; ///< Ok responses (including fallbacks).
  int64_t Failed = 0;    ///< Typed non-Ok responses that were admitted.
  int64_t ShedOverload = 0;
  int64_t ShedDeadline = 0;
  int64_t DeadlineMissed = 0; ///< Ran, but finished past the deadline.
  int64_t CacheHits = 0;
  int64_t CacheMisses = 0;
  /// On-disk artifact store traffic (0 unless ArtifactDir is set).  A
  /// DiskHit is also a CacheHit: the request was served without
  /// compiling.
  int64_t DiskHits = 0;
  int64_t DiskStores = 0;
  int64_t DiskCorrupt = 0; ///< Files that failed decode/fingerprint check.
  int64_t Compiles = 0;
  int64_t Recompiles = 0;
  int64_t Quarantined = 0;
  int64_t Fallbacks = 0;
  int64_t DeviceFailures = 0; ///< Device-kind attempt failures observed.
  /// Requests rejected before launch because the materialised device
  /// configuration was inconsistent (e.g. over-reservation at or above
  /// capacity) — a typed ErrorKind::Config response, never a 1-byte card.
  int64_t ConfigRejected = 0;
  int64_t SoloRuns = 0;
  int64_t PackedRuns = 0;
  /// Admission-controller audit trail: the high-water marks of
  /// co-resident tenants and of the summed reservations.  The invariant
  /// PeakReservedBytes <= Device.DeviceMemBytes is the acceptance bound.
  int64_t PeakResidentTenants = 0;
  int64_t PeakReservedBytes = 0;
  size_t PeakQueueDepth = 0;
  double LastCompletionCycle = 0;

  double cacheHitRate() const {
    int64_t N = CacheHits + CacheMisses;
    return N ? static_cast<double>(CacheHits) / static_cast<double>(N) : 0;
  }
};

/// One cached compiled artifact plus its serving metadata.  The artifact
/// itself is immutable; only the metadata (profiled bounds, failure
/// counters, recency) changes, which is what makes cross-request fault
/// isolation structural rather than disciplined.
struct CacheEntry {
  std::shared_ptr<const CompileResult> Artifact;
  /// The simulator's preparation of Artifact's program, built on its first
  /// run and replaced together with the artifact (it points into it).
  std::shared_ptr<gpusim::PreparedProgram> Prepared;
  uint64_t Fingerprint = 0;
  /// Profiled PlannedPeakBytes reservation per argument signature.
  std::map<uint64_t, int64_t> BoundByArgs;
  int ConsecutiveDeviceFailures = 0;
  bool Recompiled = false;
  uint64_t LastUse = 0;
  int64_t Hits = 0;
};

class Server {
public:
  explicit Server(ServerConfig C = {});

  /// Enqueues a request; returns its id.  Shedding decisions happen at
  /// simulated arrival time inside drain(), so a submission is never
  /// refused here.
  uint64_t submit(ServeRequest R);

  /// Runs the simulated request loop until every submitted request has a
  /// response (completed, degraded, or typed-shed — never dropped).
  /// Responses are in completion order.  Admitted work executes eagerly in
  /// host time; concurrency exists on the simulated timeline.
  std::vector<ServeResponse> drain();

  const ServerConfig &config() const { return Config; }
  const ServerStats &stats() const { return Stats; }
  size_t cacheSize() const { return Cache.size(); }
  /// Fingerprint of the cached artifact for (source, options), or 0 when
  /// not cached (test hook for hash-stability assertions).
  uint64_t cachedFingerprint(const std::string &Source,
                             const CompilerOptions &Opts) const;

private:
  struct Submission {
    uint64_t Id;
    uint64_t Key; ///< artifactCacheKey of the request, computed once.
    ServeRequest Req;
  };
  struct Resident {
    double CompletionCycle = 0;
    int64_t Reservation = 0;
    bool Solo = false;
    ServeResponse Response;
  };

  ServerConfig Config;
  ServerStats Stats;
  std::vector<Submission> Submissions;
  std::unordered_map<uint64_t, CacheEntry> Cache;
  uint64_t UseClock = 0; ///< LRU recency stamp.
  uint64_t NextId = 1;

  CacheEntry *lookupOrCompile(const ServeRequest &Req, uint64_t Key,
                              bool &Hit, CompilerError &Err);
  void evictIfOverCapacity();
  /// Executes one admitted request against the cache (attempt ladder:
  /// run, serve-level retry, quarantine-recompile, interpreter fallback).
  /// Returns the response with ServiceCycles-relevant fields filled;
  /// StartCycle/CompletionCycle are set by the caller.
  ServeResponse execute(const ServeRequest &Req, uint64_t Key, uint64_t Id,
                        int64_t Reservation, bool Solo, double &DurationOut);
  /// The per-request DeviceRunOptions (the satellite fix: every limit is
  /// per-request, nothing is shared between tenants).
  DeviceRunOptions makeRunOptions(const ServeRequest &Req, int64_t Reservation,
                                  bool Solo) const;
};

/// Stable hash of an argument vector (shapes and contents), keying the
/// profiled-bound table.
uint64_t argSignature(const std::vector<Value> &Args);

} // namespace serve
} // namespace fut

#endif // FUTHARKCC_SERVE_SERVE_H
