//===- Workloads.cpp - The benchmark's seeded workloads -------------------===//
//
// Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "bench_suite/Benchmarks.h"
#include "driver/Compiler.h"
#include "fuzz/Fuzz.h"
#include "fuzz/GradFuzz.h"
#include "interp/Interp.h"
#include "parser/Desugar.h"
#include "serve/ArtifactStore.h"
#include "serve/Serve.h"
#include "support/Utils.h"
#include "trace/Trace.h"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <map>
#include <optional>
#include <set>
#include <unordered_map>

using namespace fut;
using namespace perfbench;

CoreHopper::CoreHopper() : Far(1 << 19, 1) {
  cpu_set_t Set;
  if (sched_getaffinity(0, sizeof Set, &Set) == 0)
    for (int C = 0; C < CPU_SETSIZE; ++C)
      if (CPU_ISSET(C, &Set))
        Cores.push_back(C);
}

void CoreHopper::pin(int Core) {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  CPU_SET(Core, &Set);
  sched_setaffinity(0, sizeof Set, &Set);
}

double CoreHopper::probe() {
  double T0 = nowS();
  std::unordered_map<uint64_t, uint64_t> Table;
  SplitMix64 Rng(Sink);
  for (int I = 0; I < 5000; ++I) {
    uint64_t X = Rng.next();
    Table[X % 4096] += Far[X % Far.size()];
  }
  Sink += Table.size();
  return nowS() - T0;
}

double CoreHopper::calibrate() {
  double T0 = nowS();
  uint64_t X = Sink | 1;
  for (int I = 0; I < 200000; ++I) {
    X ^= X << 13;
    X ^= X >> 7;
    X ^= X << 17;
  }
  Sink += X;
  return nowS() - T0;
}

void CoreHopper::maybeHop() {
  if (nowS() - LastS < kEveryS)
    return;
  trace::ScopedSpan Span(kHopSpan, "bench");
  double T0 = nowS();
  if (Cores.size() > 1) {
    int Best = Cores.front();
    double BestS = INFINITY;
    for (int Core : Cores) {
      pin(Core);
      probe(); // warms this core's caches
      double S = probe();
      if (S < BestS) {
        BestS = S;
        Best = Core;
      }
    }
    pin(Best);
  }
  CalibrationS = std::min(CalibrationS, calibrate());
  LastS = nowS();
  SpentS += LastS - T0;
}

void PassStats::fail(const std::string &Message) {
  ++Failed;
  if (FailureMessages.size() < 5)
    FailureMessages.push_back(Message);
}

void PassStats::addFingerprint(uint64_t Fingerprint) {
  FingerprintDigest = fnv1a64(std::to_string(Fingerprint), FingerprintDigest);
}

namespace {

/// Runs \p Fn inside a benchmark span named \p Name.
template <typename Fn> auto spanned(const char *Name, Fn &&F) {
  trace::ScopedSpan Span(Name, "bench");
  return F();
}

void addCounters(const gpusim::CostReport &C, PassStats &S) {
  S.SimOps += C.ComputeOps + C.HostOps + C.GlobalAccesses + C.LocalAccesses +
              C.PrivateAccesses;
  S.Launches += C.KernelLaunches;
  S.GlobalTx += C.GlobalTransactions;
  S.CoalescedTx += C.CoalescedTransactions;
  S.RetriedLaunches += C.RetriedLaunches;
  S.PlannedPeakBytes += C.PlannedPeakBytes;
}

/// Counters plus one emitted-code sample (cycles, peak device bytes).
void recordRun(const gpusim::CostReport &C, PassStats &S) {
  S.SimCycles.push_back(C.TotalCycles);
  S.PeakBytes.push_back(static_cast<double>(C.PeakDeviceBytes));
  addCounters(C, S);
}

void recordArtifact(const CompileResult &C, PassStats &S) {
  S.FusionApplied += C.Fusion.total();
  S.FlattenKernels += C.Flatten.kernels();
  S.CoalescedInputs += C.Locality.CoalescedInputs;
  S.TiledInputs += C.Locality.TiledInputs;
  S.CodeBytes += static_cast<int64_t>(C.P.str().size());
  S.addFingerprint(C.fingerprint());
}

/// The oracle: a device-side outcome (outputs, or the error it raised)
/// against the reference interpreter's.  Values agree within
/// approxEqual(1e-4, 1e-5), as in bench::runBenchmark; an identical typed
/// runtime error on both sides is agreement, as in fuzz::runDifferential.
void checkOutcome(const std::string &What, const std::vector<Value> *Got,
                  const std::string &GotError,
                  const ErrorOr<std::vector<Value>> &Want, PassStats &S) {
  trace::ScopedSpan Span("bench:check", "bench");
  if (!Want) {
    if (!Got && GotError == Want.getError().str() &&
        Want.getError().isRuntime()) {
      ++S.RuntimeErrorsAgreed;
      return;
    }
    S.fail(What + ": reference failed with " + Want.getError().str() +
           (Got ? ", device succeeded" : ", device failed with " + GotError));
    return;
  }
  if (!Got) {
    S.fail(What + ": device failed with " + GotError);
    return;
  }
  if (Got->size() != Want->size()) {
    S.fail(What + ": result arity mismatch");
    return;
  }
  for (size_t J = 0; J < Want->size(); ++J)
    if (!(*Got)[J].approxEqual((*Want)[J], 1e-4, 1e-5)) {
      S.fail(What + ": result " + std::to_string(J) +
             " deviates from the reference interpreter");
      return;
    }
}

void checkRun(const std::string &What, const ErrorOr<gpusim::RunResult> &Got,
              const ErrorOr<std::vector<Value>> &Want, PassStats &S) {
  if (Got && Got->InterpFallback) {
    S.fail(What + ": device fell back to the interpreter (" +
           Got->FallbackError.str() + ")");
    return;
  }
  if (Got)
    checkOutcome(What, &Got->Outputs, "", Want, S);
  else
    checkOutcome(What, nullptr, Got.getError().str(), Want, S);
}

/// The reference: the unoptimised frontend output on the interpreter.
ErrorOr<std::vector<Value>> reference(const std::string &Source,
                                      const std::vector<Value> &Args,
                                      const InterpOptions &Opts) {
  NameSource Names;
  auto Prog =
      spanned("bench:frontend", [&] { return frontend(Source, Names); });
  if (!Prog)
    return Prog.getError();
  Interpreter I(*Prog, Opts);
  return spanned("bench:interp.run", [&] { return I.run(Args); });
}

InterpOptions fuzzInterpOptions() {
  InterpOptions IO;
  IO.ConsumeOnUpdate = true;
  return IO;
}

/// A seed-derived stream: \p Salt separates the streams of one seed.
SplitMix64 stream(uint64_t Seed, uint64_t Salt) {
  return SplitMix64(Seed * 0x9e3779b97f4a7c15ULL ^ Salt);
}

//===----------------------------------------------------------------------===//
// paper-suite: the sixteen PLDI'17 programs, compiled, run on the simulated
// GTX 780 and checked against the reference interpreter.
//===----------------------------------------------------------------------===//

class PaperSuite final : public Workload {
  struct Case {
    const bench::BenchmarkDef *B;
    std::vector<Value> Inputs;
  };
  std::vector<Case> Cases;

  /// Redraws every element of a floating-point array uniformly within the
  /// range its default values span; integer arrays and scalars are kept.
  static Value redraw(const Value &V, SplitMix64 &Rng) {
    if (!V.isArray() || (V.elemKind() != ScalarKind::F32 &&
                         V.elemKind() != ScalarKind::F64))
      return V;
    double Lo = INFINITY, Hi = -INFINITY;
    for (const PrimValue &X : V.flat()) {
      Lo = std::min(Lo, X.getFloat());
      Hi = std::max(Hi, X.getFloat());
    }
    std::vector<PrimValue> Data;
    Data.reserve(V.flat().size());
    for (size_t I = 0; I < V.flat().size(); ++I) {
      double X = Rng.nextDouble(Lo, Hi);
      Data.push_back(V.elemKind() == ScalarKind::F32
                         ? PrimValue::makeF32(static_cast<float>(X))
                         : PrimValue::makeF64(X));
    }
    return Value::array(V.elemKind(), V.shape(), std::move(Data));
  }

public:
  void setup(uint64_t Seed) override {
    const auto &All = spanned("bench:allBenchmarks",
                              [] { return &bench::allBenchmarks(); });
    Cases.clear();
    SplitMix64 Rng = stream(Seed, 0x5eed);
    for (const bench::BenchmarkDef &B : *All) {
      Case C{&B, B.MakeInputs()};
      if (Seed != 0)
        for (Value &V : C.Inputs)
          V = redraw(V, Rng);
      Cases.push_back(std::move(C));
    }
    if (Seed != 0)
      for (size_t I = Cases.size(); I > 1; --I)
        std::swap(Cases[I - 1], Cases[Rng.nextBelow(I)]);
  }

  size_t opsPerPass() const override { return Cases.size(); }
  bool passIsTheOperation() const override { return true; }

  void runPass(bool First, OpTimer &Timer, PassStats &S) override {
    for (const Case &C : Cases)
      Timer.time([&](bool Twin) {
        PassStats Discarded;
        runOne(C, Twin ? Discarded : S);
      });
  }

private:
  void runOne(const Case &C, PassStats &S) {
    const bench::BenchmarkDef &B = *C.B;
    ++S.Attempted;
    S.SourceBytes += 2 * static_cast<int64_t>(B.Source.size());
    NameSource Names;
    auto Compiled = spanned("bench:compileSource",
                            [&] { return compileSource(B.Source, Names); });
    if (!Compiled) {
      S.fail(B.Name + ": " + Compiled.getError().str());
      return;
    }
    recordArtifact(*Compiled, S);
    DeviceRunOptions RO;
    RO.MemPlan = &Compiled->MemPlan;
    auto Got = spanned("bench:device.run",
                       [&] { return runOnDevice(Compiled->P, C.Inputs, RO); });
    if (Got)
      recordRun(Got->Cost, S);
    InterpOptions IO;
    IO.StreamInterleave = B.VerifyInterleave;
    checkRun(B.Name, Got, reference(B.Source, C.Inputs, IO), S);
  }
};

//===----------------------------------------------------------------------===//
// compile: a seeded stream of generated programs through the full pipeline.
//===----------------------------------------------------------------------===//

class CompileStream final : public Workload {
  struct Case {
    fuzz::FuzzCase Program;
    bool Grad = false;
    CompilerOptions Opts;
  };
  std::vector<Case> Cases;
  /// The first pass's artifacts, checked once after it.
  std::vector<std::optional<CompileResult>> Artifacts;

public:
  void setup(uint64_t Seed) override {
    size_t N = 1000;
    SplitMix64 Rng = stream(Seed, 0xc0de);
    Cases.clear();
    Cases.reserve(N);
    for (size_t I = 0; I < N; ++I) {
      Case C;
      // Every fourth program is a gradient program compiled with --vjp;
      // half of each share is compiled for two devices.
      C.Grad = I % 4 == 3;
      uint64_t ProgramSeed = Rng.next();
      C.Program =
          C.Grad ? spanned("bench:fuzz.generateGrad",
                           [&] { return fuzz::generateGrad(ProgramSeed); })
                 : spanned("bench:fuzz.generate",
                           [&] { return fuzz::generate(ProgramSeed); });
      if (C.Grad)
        C.Opts.VJP = "main";
      C.Opts.Devices = (I / 4) % 2 ? 2 : 1;
      Cases.push_back(std::move(C));
    }
  }

  size_t opsPerPass() const override { return Cases.size(); }

  void runPass(bool First, OpTimer &Timer, PassStats &S) override {
    if (First)
      Artifacts.assign(Cases.size(), std::nullopt);
    for (size_t I = 0; I < Cases.size(); ++I) {
      const Case &C = Cases[I];
      ++S.Attempted;
      S.SourceBytes += static_cast<int64_t>(C.Program.Source.size());
      std::optional<ErrorOr<CompileResult>> Compiled;
      Timer.time([&](bool Twin) {
        NameSource Names;
        auto R = spanned("bench:compileSource", [&] {
          return compileSource(C.Program.Source, Names, C.Opts);
        });
        if (!Twin)
          Compiled.emplace(std::move(R));
      });
      if (!*Compiled)
        S.fail(what(C) + ": " + Compiled->getError().str());
      else if (First)
        Artifacts[I] = Compiled->take();
    }
  }

  void afterPass(bool First, PassStats &S) override {
    if (!First)
      return;
    for (size_t I = 0; I < Cases.size(); ++I)
      if (Artifacts[I]) {
        recordArtifact(*Artifacts[I], S);
        check(Cases[I], *Artifacts[I], S);
      }
    Artifacts.clear();
  }

private:
  static std::string what(const Case &C) {
    return std::string(C.Grad ? "grad" : "fuzz") + " seed " +
           std::to_string(C.Program.Seed);
  }

  void check(const Case &C, const CompileResult &A, PassStats &S) {
    DeviceRunOptions RO;
    RO.MemPlan = &A.MemPlan;
    if (C.Opts.Devices > 1) {
      RO.Shards = &A.Shards;
      RO.Devices = C.Opts.Devices;
    }
    const std::vector<Value> &Args = C.Program.Args;
    if (!C.Grad) {
      auto Got = runOnDevice(A.P, Args, RO);
      if (Got)
        recordRun(Got->Cost, S);
      checkRun(what(C), Got, reference(C.Program.Source, Args,
                                        fuzzInterpOptions()),
               S);
      return;
    }
    // main_vjp with output seed 1 returns (primal, adj x0, adj a0).
    std::vector<Value> VArgs = Args;
    VArgs.push_back(Value::scalar(PrimValue::makeF64(1.0)));
    auto Got = runOnDevice(A.P, VArgs, RO, "main_vjp");
    auto Want = reference(C.Program.Source, Args, fuzzInterpOptions());
    if (!Got || Got->InterpFallback) {
      checkRun(what(C), Got, Want, S);
      return;
    }
    const std::vector<Value> &Out = Got->Outputs;
    if (Out.size() != 3 || !Out[0].isScalar() || !Out[1].isScalar() ||
        !Out[2].isArray() || Out[2].numElems() != Args[2].numElems()) {
      S.fail(what(C) + ": main_vjp results do not have the shape "
                       "(primal, adj x0, adj a0)");
      return;
    }
    recordRun(Got->Cost, S);
    std::vector<Value> Primal = {Out[0]};
    checkOutcome(what(C) + " (primal)", &Primal, "", Want, S);
    checkGradient(C, *Got, S);
  }

  /// Adjoints against central finite differences of the interpreted
  /// primal, with fuzz::runGradientCheck's step and tolerance.
  void checkGradient(const Case &C, const gpusim::RunResult &Got,
                     PassStats &S) {
    const std::vector<Value> &Args = C.Program.Args;
    auto PrimalAt = [&](size_t ArgIdx, size_t Elem, double H) -> double {
      std::vector<Value> A = Args;
      if (A[ArgIdx].isScalar()) {
        A[ArgIdx] = Value::scalar(
            PrimValue::makeF64(A[ArgIdx].getScalar().getFloat() + H));
      } else {
        Value V = A[ArgIdx];
        V.flatMut()[Elem] = PrimValue::makeF64(V.flat()[Elem].getFloat() + H);
        A[ArgIdx] = V;
      }
      auto R = reference(C.Program.Source, A, fuzzInterpOptions());
      return R ? (*R)[0].getScalar().getFloat() : NAN;
    };
    auto Component = [&](double Adj, double X, size_t ArgIdx, size_t Elem) {
      double H = 1e-6 * std::max(1.0, std::fabs(X));
      double Fd = (PrimalAt(ArgIdx, Elem, H) - PrimalAt(ArgIdx, Elem, -H)) /
                  (2 * H);
      double Rel = std::fabs(Adj - Fd) /
                   std::max({1.0, std::fabs(Adj), std::fabs(Fd)});
      return Rel < fuzz::GradRelTol; // false for NaN too
    };
    bool Ok = Component(Got.Outputs[1].getScalar().getFloat(),
                        Args[1].getScalar().getFloat(), 1, 0);
    const std::vector<PrimValue> &AdjA = Got.Outputs[2].flat();
    for (size_t I = 0; Ok && I < AdjA.size(); ++I)
      Ok = Component(AdjA[I].getFloat(), Args[2].flat()[I].getFloat(), 2, I);
    if (!Ok)
      S.fail(what(C) + ": adjoint deviates from central differences");
  }
};

//===----------------------------------------------------------------------===//
// serve-mix: one closed-loop client against a serve::Server with an on-disk
// artifact store, in sessions of a fresh program pool, each restarted
// half-way through.
//===----------------------------------------------------------------------===//

class ServeMix final : public Workload {
  /// One session: a fresh server and store, a pool of 32 programs and
  /// 250 requests, the server restarted after request 125.  The pool's 64
  /// (program, device count) artifacts fit the default 64-entry cache, so
  /// a session misses only on first use and the restart causes the disk
  /// loads.  The pool size is that of the serve probe that motivated this
  /// workload.  Sixteen sessions per pass put 512 programs behind the
  /// latency percentiles: with one pool, the few programs Zipf(1) makes
  /// hot set the median, and it moved by 0.48 between seeds.
  static constexpr size_t Sessions = 16, PoolSize = 32, SessionRequests = 250;

  struct Request {
    size_t Program = 0;
    int Devices = 1;
    bool Faulty = false;
    uint64_t FaultSeed = 0;
  };
  std::string StoreDir;
  std::vector<fuzz::FuzzCase> Pool;
  std::vector<Request> Stream;
  /// Responses of the last pass, checked after it.
  std::vector<serve::ServeResponse> Responses;
  std::map<size_t, ErrorOr<std::vector<Value>>> References;

public:
  explicit ServeMix(std::string StoreDir) : StoreDir(std::move(StoreDir)) {}
  ~ServeMix() override { std::filesystem::remove_all(StoreDir); }

  void setup(uint64_t Seed) override {
    SplitMix64 Rng = stream(Seed, 0x5e7e);
    Pool.clear();
    for (size_t I = 0; I < Sessions * PoolSize; ++I) {
      uint64_t ProgramSeed = Rng.next();
      Pool.push_back(spanned("bench:fuzz.generate",
                             [&] { return fuzz::generate(ProgramSeed); }));
    }
    // Zipf(1) popularity within a session's pool: its program K is
    // requested in proportion to 1/(K+1).
    std::vector<double> Cumulative;
    double Total = 0;
    for (size_t K = 0; K < PoolSize; ++K)
      Cumulative.push_back(Total += 1.0 / static_cast<double>(K + 1));
    Stream.clear();
    for (size_t I = 0; I < Sessions * SessionRequests; ++I) {
      Request R;
      size_t Rank = static_cast<size_t>(
          std::upper_bound(Cumulative.begin(), Cumulative.end(),
                           Rng.nextDouble() * Total) -
          Cumulative.begin());
      R.Program = I / SessionRequests * PoolSize + std::min(Rank, PoolSize - 1);
      R.Devices = Rng.nextDouble() < 0.25 ? 2 : 1;
      R.Faulty = Rng.nextDouble() < 0.02;
      R.FaultSeed = Rng.next();
      Stream.push_back(R);
    }
    References.clear();
  }

  size_t opsPerPass() const override { return Stream.size(); }

  void runPass(bool First, OpTimer &Timer, PassStats &S) override {
    // The twin server replays the stream untraced when the timer pairs
    // operations; its own store keeps its cache state identical.
    std::filesystem::remove_all(StoreDir);
    serve::ServerConfig Config, TwinConfig;
    std::optional<serve::Server> Server, Twin;
    auto Retire = [&] {
      const serve::ServerStats &St = Server->stats();
      S.Lookups += St.CacheHits + St.CacheMisses;
      S.CacheHits += St.CacheHits;
      S.DiskHits += St.DiskHits;
      S.Fallbacks += St.Fallbacks;
    };
    Responses.clear();
    for (size_t I = 0; I < Stream.size(); ++I) {
      size_t Session = I / SessionRequests;
      if (I % SessionRequests == 0) {
        // A new session: fresh servers on empty stores.
        if (Server)
          Retire();
        Config.ArtifactDir = sessionDir(Session);
        TwinConfig.ArtifactDir = sessionDir(Session) + "-twin";
        Server.emplace(Config);
        Twin.emplace(TwinConfig);
      } else if (I % SessionRequests == SessionRequests / 2) {
        // Restart: the second half starts cold in memory and warm on disk.
        Retire();
        Server.emplace(Config);
        Twin.emplace(TwinConfig);
      }
      serve::ServeRequest Q = request(Stream[I]), TwinQ = Q;
      ++S.Attempted;
      S.SourceBytes += static_cast<int64_t>(Q.Source.size());
      std::vector<serve::ServeResponse> Out;
      Timer.time([&](bool IsTwin) {
        serve::Server &Srv = IsTwin ? *Twin : *Server;
        serve::ServeRequest &R = IsTwin ? TwinQ : Q;
        R.ArrivalCycle = Srv.stats().LastCompletionCycle;
        spanned("bench:serve.submit",
                [&] { return Srv.submit(std::move(R)); });
        auto Got = spanned("bench:serve.drain", [&] { return Srv.drain(); });
        if (!IsTwin)
          Out = std::move(Got);
      });
      if (Out.size() != 1) {
        S.fail("request " + std::to_string(I) + ": drain returned " +
               std::to_string(Out.size()) + " responses");
        Out.resize(1);
      }
      Responses.push_back(std::move(Out[0]));
    }
    Retire();
  }

  void afterPass(bool First, PassStats &S) override {
    std::set<std::pair<size_t, int>> Seen;
    for (size_t I = 0; I < Stream.size(); ++I) {
      const Request &R = Stream[I];
      const serve::ServeResponse &Resp = Responses[I];
      auto Ref = References.find(R.Program);
      if (Ref == References.end())
        Ref = References
                  .emplace(R.Program, reference(Pool[R.Program].Source,
                                                Pool[R.Program].Args,
                                                fuzzInterpOptions()))
                  .first;
      std::string What = "request " + std::to_string(I) + " (fuzz seed " +
                         std::to_string(Pool[R.Program].Seed) + ")";
      if (Resp.Ok)
        checkOutcome(What, &Resp.Outputs, "", Ref->second, S);
      else
        checkOutcome(What, nullptr, programError(Resp, Ref->second),
                     Ref->second, S);
      if (!Resp.Ok || Resp.InterpFallback)
        continue;
      addCounters(Resp.Cost, S);
      // One emitted-code sample per distinct artifact, from a fault-free
      // request so retry backoff stays out of the cycles.
      if (!R.Faulty && Seen.insert({R.Program, R.Devices}).second) {
        S.SimCycles.push_back(Resp.Cost.TotalCycles);
        S.PeakBytes.push_back(static_cast<double>(Resp.Cost.PeakDeviceBytes));
        if (First)
          recordStored(I / SessionRequests, R, S);
      }
    }
  }

private:
  /// The error a failed response reports for the program.  When injected
  /// faults exhaust the device and the interpreter fallback then raises
  /// the program's own runtime error, serve answers FallbackExhausted
  /// with that error at the end of the message: the program's outcome is
  /// the runtime error, so that is what the oracle compares.
  static std::string programError(const serve::ServeResponse &Resp,
                                  const ErrorOr<std::vector<Value>> &Want) {
    if (Resp.Error != ErrorKind::FallbackExhausted || Want)
      return Resp.Message;
    std::string Tail =
        "interpreter fallback also failed: " + Want.getError().Message;
    return Resp.Message.size() >= Tail.size() &&
                   Resp.Message.compare(Resp.Message.size() - Tail.size(),
                                        Tail.size(), Tail) == 0
               ? Want.getError().str()
               : Resp.Message;
  }

  serve::ServeRequest request(const Request &R) const {
    serve::ServeRequest Q;
    Q.Source = Pool[R.Program].Source;
    Q.Args = Pool[R.Program].Args;
    Q.Compile.Devices = R.Devices;
    if (R.Faulty) {
      // Every launch fails half the time with one device-level retry: the
      // serve layer's retry, quarantine and fallback ladder takes over.
      Q.Limits.LaunchFailRate = 0.5;
      Q.Limits.MaxRetries = 1;
      Q.Limits.FaultSeed = R.FaultSeed;
    }
    return Q;
  }

  std::string sessionDir(size_t Session) const {
    return StoreDir + "/session" + std::to_string(Session);
  }

  /// Code-quality counts and the fingerprint of the artifact the server
  /// stored for \p R in \p Session.
  void recordStored(size_t Session, const Request &R, PassStats &S) const {
    serve::ServeRequest Q = request(R);
    auto A = serve::ArtifactStore(sessionDir(Session)).load(
        artifactCacheKey(Q.Source, Q.Compile));
    if (!A) {
      S.fail("artifact store lost fuzz seed " +
             std::to_string(Pool[R.Program].Seed) + ": " +
             A.getError().str());
      return;
    }
    recordArtifact(*A, S);
  }
};

} // namespace

std::unique_ptr<Workload> perfbench::makeWorkload(const std::string &Name,
                                                  const std::string &StoreDir) {
  if (Name == "paper-suite")
    return std::make_unique<PaperSuite>();
  if (Name == "compile")
    return std::make_unique<CompileStream>();
  if (Name == "serve-mix")
    return std::make_unique<ServeMix>(StoreDir);
  return nullptr;
}
