//===- compile_golden_test.cpp - Output pins for the optimising pipeline --===//
//
// Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pins what the compiler emits, so that a rewrite of the optimiser's
/// analyses (fusion's dependency queries, the simplifier's dead-code
/// elimination and hoisting) can be shown to change nothing.  Each case
/// compiles a program and renders one record: the artifact fingerprint
/// (canonical program dump, memory plan, shard plan at more than one
/// device, pass statistics) plus every FusionStats and FlattenStats field,
/// or the typed error of a rejected compile.  Records are folded into one
/// FNV-1a hash per group of cases.
///
/// The groups cover the generated-program fuzzer at one and two devices,
/// gradient programs (reverse-mode AD of main), and every paper benchmark.
///
/// A mismatch prints the recomputed hash; re-record a constant only for a
/// change that is meant to move compiled output.
///
//===----------------------------------------------------------------------===//

#include "bench_suite/Benchmarks.h"
#include "driver/Compiler.h"
#include "fuzz/Fuzz.h"
#include "fuzz/GradFuzz.h"
#include "support/Utils.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <functional>

using namespace fut;

namespace {

std::string hex(uint64_t H) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "0x%016llxULL",
                static_cast<unsigned long long>(H));
  return Buf;
}

/// Compiles \p Source and renders the fingerprint and every pass statistic,
/// or the error.
std::string record(const std::string &Source, const CompilerOptions &CO) {
  NameSource Names;
  auto C = compileSource(Source, Names, CO);
  if (!C)
    return "compile " + C.getError().str();
  const FusionStats &Fu = C->Fusion;
  const FlattenStats &Fl = C->Flatten;
  return hex(C->fingerprint()) + " fusion=" + std::to_string(Fu.Vertical) +
         "," + std::to_string(Fu.Redomap) + "," +
         std::to_string(Fu.StreamFusions) + "," +
         std::to_string(Fu.Horizontal) + "," +
         std::to_string(Fu.HistFusions) +
         " flatten=" + std::to_string(Fl.ThreadKernels) + "," +
         std::to_string(Fl.SegReduces) + "," + std::to_string(Fl.SegScans) +
         "," + std::to_string(Fl.SegHists) + "," +
         std::to_string(Fl.Interchanges) + "," +
         std::to_string(Fl.VectorisedReduceInterchanges) + "," +
         std::to_string(Fl.SequentialisedSOACs);
}

using Recorder = std::function<std::string(uint64_t Seed)>;

uint64_t hashSeeds(uint64_t First, uint64_t Last, const Recorder &R) {
  uint64_t H = fnv1a64("compile-golden");
  for (uint64_t Seed = First; Seed <= Last; ++Seed) {
    H = fnv1a64(std::to_string(Seed) + ":", H);
    H = fnv1a64(R(Seed), H);
    H = fnv1a64(std::string(1, '\0'), H);
  }
  return H;
}

#define EXPECT_GOLDEN(GOT, WANT)                                               \
  EXPECT_EQ(GOT, WANT) << "recomputed hash: " << hex(GOT)

Recorder fuzzRecorder(int Devices) {
  return [Devices](uint64_t Seed) {
    CompilerOptions CO;
    CO.Devices = Devices;
    return record(fuzz::generate(Seed).Source, CO);
  };
}

} // namespace

TEST(CompileGoldenTest, FuzzOneDevice) {
  EXPECT_GOLDEN(hashSeeds(1, 100, fuzzRecorder(1)), 0x7391fcf661b64312ULL);
  EXPECT_GOLDEN(hashSeeds(101, 200, fuzzRecorder(1)),
                0x4fb941da7f069abcULL);
}

TEST(CompileGoldenTest, FuzzTwoDevices) {
  EXPECT_GOLDEN(hashSeeds(1, 100, fuzzRecorder(2)), 0xf235d6f9145748deULL);
  EXPECT_GOLDEN(hashSeeds(101, 200, fuzzRecorder(2)),
                0xdaa3d96b9652fff3ULL);
}

TEST(CompileGoldenTest, GradientPrograms) {
  EXPECT_GOLDEN(hashSeeds(1, 50,
                          [](uint64_t Seed) {
                            CompilerOptions CO;
                            CO.VJP = "main";
                            return record(fuzz::generateGrad(Seed).Source,
                                          CO);
                          }),
                0x7aecea4700977278ULL);
}

TEST(CompileGoldenTest, PaperBenchmarks) {
  const std::vector<bench::BenchmarkDef> &All = bench::allBenchmarks();
  EXPECT_EQ(All.size(), 16u);
  uint64_t H = fnv1a64("compile-golden");
  for (const bench::BenchmarkDef &B : All) {
    H = fnv1a64(B.Name + ":", H);
    H = fnv1a64(record(B.Source, CompilerOptions()), H);
    H = fnv1a64(std::string(1, '\0'), H);
  }
  EXPECT_GOLDEN(H, 0x8e62e07ae6147a33ULL);
}
