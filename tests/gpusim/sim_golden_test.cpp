//===- sim_golden_test.cpp - Byte-identity pins for the kernel simulator ---===//
//
// Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pins everything the simulator reports, so that a rewrite of its
/// evaluator can be shown to change nothing.  Each case compiles a program,
/// runs it on the simulated device and renders one record: the full
/// CostReport::str() line plus the exact bits of every output, or the typed
/// error kind and message.  Records are folded into one FNV-1a hash per
/// group of cases, compared against constants recorded with the original
/// hash-map-environment simulator.
///
/// The groups cover the generated-program fuzzer at one and two devices
/// (the two-device runs exercise the sharded OuterOffset windows), the
/// global-atomic histogram lowering, the pipeline cost model (whose cost
/// line carries the warp-level KernelProfile), injected faults with
/// retries and interpreter fallback, gradient programs (main_vjp), the
/// smallest paper benchmarks, and the span names and args of traced runs.
///
/// A mismatch prints the recomputed hash; re-record a constant only for a
/// change that is meant to move simulated results.
///
//===----------------------------------------------------------------------===//

#include "bench_suite/Benchmarks.h"
#include "driver/Compiler.h"
#include "fuzz/Fuzz.h"
#include "fuzz/GradFuzz.h"
#include "support/Utils.h"
#include "trace/Trace.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <functional>

using namespace fut;

namespace {

/// The exact bits of a value: element kind, shape and every element
/// (floats in hexadecimal, so no rounding hides a difference).
std::string valueBits(const Value &V) {
  auto Elem = [](const PrimValue &P) {
    char Buf[64];
    if (P.isFloat())
      std::snprintf(Buf, sizeof(Buf), "%a", P.getFloat());
    else if (P.kind() == ScalarKind::Bool)
      std::snprintf(Buf, sizeof(Buf), "%d", P.getBool() ? 1 : 0);
    else
      std::snprintf(Buf, sizeof(Buf), "%lld",
                    static_cast<long long>(P.getInt()));
    return std::string(Buf);
  };
  if (V.isScalar())
    return std::string(scalarKindName(V.elemKind())) + " " +
           Elem(V.getScalar());
  std::string Out = scalarKindName(V.elemKind());
  for (int64_t D : V.shape())
    Out += "[" + std::to_string(D) + "]";
  for (const PrimValue &P : V.flat())
    Out += " " + Elem(P);
  return Out;
}

struct RunSpec {
  gpusim::DeviceParams DP = gpusim::DeviceParams::gtx780();
  gpusim::ResilienceParams RP;
  int Devices = 1;
  std::string VJP;
  std::string Fun = "main";
};

/// Compiles \p Source and runs it once; renders the cost line and outputs,
/// or the error.
std::string record(const std::string &Source, const std::vector<Value> &Args,
                   const RunSpec &S) {
  NameSource Names;
  CompilerOptions CO;
  CO.Devices = S.Devices;
  CO.VJP = S.VJP;
  auto C = compileSource(Source, Names, CO);
  if (!C)
    return "compile " + C.getError().str();
  DeviceRunOptions RO;
  RO.Device = S.DP;
  RO.Resilience = S.RP;
  if (S.DP.UseMemPlan)
    RO.MemPlan = &C->MemPlan;
  if (S.Devices > 1) {
    RO.Shards = &C->Shards;
    RO.Devices = S.Devices;
  }
  auto R = runOnDevice(C->P, Args, RO, S.Fun);
  if (!R)
    return "run " + R.getError().str();
  std::string Out = R->Cost.str();
  if (R->InterpFallback)
    Out += "\nfallback " + R->FallbackError.str();
  for (const Value &V : R->Outputs)
    Out += "\n" + valueBits(V);
  return Out;
}

/// Span and instant names, tracks, nesting and args of the recorded
/// events plus every counter: everything in the trace but wall time.
std::string traceRecord(const trace::TraceSession &TS) {
  std::string Out;
  for (const trace::TraceEvent &E : TS.events()) {
    Out += E.Name + "|" + E.Category + "|" + std::to_string(E.Tid) + "|" +
           std::to_string(E.Depth) + (E.Instant ? "|i" : "|x");
    for (const trace::TraceArg &A : E.Args) {
      char Buf[64];
      if (A.IsNumber)
        std::snprintf(Buf, sizeof(Buf), "%a", A.Num);
      Out += " " + A.Key + "=" + (A.IsNumber ? std::string(Buf) : A.Str);
    }
    Out += "\n";
  }
  for (const auto &[Name, V] : TS.counters())
    Out += Name + "=" + std::to_string(V) + "\n";
  return Out;
}

using Recorder = std::function<std::string(uint64_t Seed)>;

uint64_t hashSeeds(uint64_t First, uint64_t Last, const Recorder &R) {
  uint64_t H = fnv1a64("sim-golden");
  for (uint64_t Seed = First; Seed <= Last; ++Seed) {
    H = fnv1a64(std::to_string(Seed) + ":", H);
    H = fnv1a64(R(Seed), H);
    H = fnv1a64(std::string(1, '\0'), H);
  }
  return H;
}

std::string hex(uint64_t H) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "0x%016llxULL",
                static_cast<unsigned long long>(H));
  return Buf;
}

#define EXPECT_GOLDEN(GOT, WANT)                                               \
  EXPECT_EQ(GOT, WANT) << "recomputed hash: " << hex(GOT)

Recorder fuzzRecorder(const RunSpec &S) {
  return [S](uint64_t Seed) {
    fuzz::FuzzCase C = fuzz::generate(Seed);
    return record(C.Source, C.Args, S);
  };
}

} // namespace

TEST(SimGoldenTest, FuzzOneDevice) {
  RunSpec S;
  EXPECT_GOLDEN(hashSeeds(1, 100, fuzzRecorder(S)), 0x6d69fdc0a2b5f420ULL);
  EXPECT_GOLDEN(hashSeeds(101, 200, fuzzRecorder(S)),
                0xc5dcedc691b5d5a3ULL);
}

TEST(SimGoldenTest, FuzzTwoDevices) {
  RunSpec S;
  S.Devices = 2;
  EXPECT_GOLDEN(hashSeeds(1, 100, fuzzRecorder(S)), 0x6ef471644d6798f1ULL);
  EXPECT_GOLDEN(hashSeeds(101, 200, fuzzRecorder(S)),
                0xccd608217b0d9574ULL);
}

TEST(SimGoldenTest, FuzzGlobalHistograms) {
  RunSpec S;
  S.DP.HistLocalWidthMax = 0;
  EXPECT_GOLDEN(hashSeeds(1, 50, fuzzRecorder(S)), 0x4491e13ef324dcbfULL);
  S.Devices = 2;
  EXPECT_GOLDEN(hashSeeds(1, 50, fuzzRecorder(S)), 0x08465abc2cb0c3b5ULL);
}

TEST(SimGoldenTest, FuzzPipelineModelAndRuntimeAllocator) {
  RunSpec S;
  S.DP.CostModelName = "pipeline";
  EXPECT_GOLDEN(hashSeeds(1, 50, fuzzRecorder(S)), 0xd8fe8b78e6f6af63ULL);
  RunSpec NoPlan;
  NoPlan.DP.UseMemPlan = false;
  EXPECT_GOLDEN(hashSeeds(1, 50, fuzzRecorder(NoPlan)),
                0xcfb889a4096d8a93ULL);
}

TEST(SimGoldenTest, FuzzInjectedFaults) {
  // Retries, persistent failures and the interpreter fallback; the fault
  // seed follows the program seed so every case draws its own plan.
  EXPECT_GOLDEN(hashSeeds(1, 50,
                          [](uint64_t Seed) {
                            RunSpec S;
                            S.RP.Faults.LaunchFailRate = 0.2;
                            S.RP.Faults.CorruptRate = 0.1;
                            S.RP.Faults.Seed = Seed;
                            S.RP.MaxRetries = 1;
                            S.Devices = Seed % 2 ? 1 : 2;
                            return fuzzRecorder(S)(Seed);
                          }),
                0x03e6e047d384b05bULL);
}

TEST(SimGoldenTest, GradientPrograms) {
  RunSpec S;
  S.VJP = "main";
  S.Fun = "main_vjp";
  EXPECT_GOLDEN(hashSeeds(1, 50,
                          [&](uint64_t Seed) {
                            fuzz::FuzzCase C = fuzz::generateGrad(Seed);
                            std::vector<Value> Args = C.Args;
                            Args.push_back(
                                Value::scalar(PrimValue::makeF64(1.0)));
                            return record(C.Source, Args, S);
                          }),
                0x5cfa700765c74a2fULL);
}

TEST(SimGoldenTest, TracedRuns) {
  trace::TraceSession &TS = trace::TraceSession::global();
  auto Traced = [&](int Devices) {
    return [&, Devices](uint64_t Seed) {
      RunSpec S;
      S.Devices = Devices;
      fuzz::FuzzCase C = fuzz::generate(Seed);
      TS.clear();
      TS.setEnabled(true);
      std::string R = record(C.Source, C.Args, S);
      TS.setEnabled(false);
      R += "\n" + traceRecord(TS);
      TS.clear();
      return R;
    };
  };
  EXPECT_GOLDEN(hashSeeds(1, 25, Traced(1)), 0x58556b5be9865766ULL);
  EXPECT_GOLDEN(hashSeeds(1, 25, Traced(2)), 0x840434679a5005e7ULL);
}

TEST(SimGoldenTest, SmallestPaperBenchmarks) {
  // The four paper programs with the shortest device runs.
  const std::pair<const char *, uint64_t> Pins[] = {
      {"cfd", 0x298814d16c4e7a6cULL},
      {"kmeans", 0x0b2454288618917aULL},
      {"nn", 0xbd81b7444fe5e2dcULL},
      {"fluid", 0x062752deb75bea03ULL},
  };
  for (const auto &[Name, Want] : Pins) {
    const bench::BenchmarkDef *B = bench::findBenchmark(Name);
    ASSERT_NE(B, nullptr) << Name;
    uint64_t H = fnv1a64(record(B->Source, B->MakeInputs(), RunSpec()));
    EXPECT_EQ(H, Want) << Name << " recomputed hash: " << hex(H);
  }
}
