//===- interp_golden_test.cpp - Byte-identity pins for the interpreter ----===//
//
// Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pins everything the reference interpreter computes, so that a rewrite of
/// its evaluator can be shown to change nothing.  Each case runs a program
/// on the interpreter and renders one record: the exact bits of every
/// output, or the typed error (kind, location and message).  Records are
/// folded into one FNV-1a hash per group of cases, compared against
/// constants recorded with the hash-map-environment interpreter.
///
/// The groups cover generated programs as the frontend emits them and as
/// the full pipeline compiles them (kernels interpreted functionally), with
/// consumption on update on and off; the stream partitionings; gradient
/// programs (main_vjp); the smallest paper benchmarks; the exact number of
/// evaluation steps (found as the smallest MaxSteps that does not trip);
/// and hand-written programs that fail while binding parameters.
///
/// A mismatch prints the recomputed hash; re-record a constant only for a
/// change that is meant to move interpreted results.
///
//===----------------------------------------------------------------------===//

#include "bench_suite/Benchmarks.h"
#include "driver/Compiler.h"
#include "fuzz/Fuzz.h"
#include "fuzz/GradFuzz.h"
#include "interp/Interp.h"
#include "parser/Desugar.h"
#include "support/Utils.h"

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

std::string render(const ErrorOr<std::vector<Value>> &R) {
  if (!R)
    return "error " + R.getError().str();
  std::string Out;
  for (const Value &V : *R)
    Out += valueBits(V) + "\n";
  return Out;
}

std::string runRecord(const Program &P, const std::string &Fun,
                      const std::vector<Value> &Args,
                      const InterpOptions &IO) {
  Interpreter I(P, IO);
  return render(I.runFunction(Fun, Args));
}

/// Which program of a case the interpreter runs.
enum class Form { Source, Compiled };

/// Interprets generated program \p Seed in form \p F.
std::string fuzzRecord(uint64_t Seed, Form F, const InterpOptions &IO) {
  fuzz::FuzzCase C = fuzz::generate(Seed);
  NameSource Names;
  if (F == Form::Source) {
    auto P = frontend(C.Source, Names);
    if (!P)
      return "frontend " + P.getError().str();
    return runRecord(*P, "main", C.Args, IO);
  }
  auto Comp = compileSource(C.Source, Names, CompilerOptions());
  if (!Comp)
    return "compile " + Comp.getError().str();
  return runRecord(Comp->P, "main", C.Args, IO);
}

using Recorder = std::function<std::string(uint64_t Seed)>;

uint64_t hashSeeds(uint64_t First, uint64_t Last, const Recorder &R) {
  uint64_t H = fnv1a64("interp-golden");
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

Recorder fuzzRecorder(Form F, const InterpOptions &IO) {
  return [F, IO](uint64_t Seed) { return fuzzRecord(Seed, F, IO); };
}

InterpOptions consuming(bool On) {
  InterpOptions IO;
  IO.ConsumeOnUpdate = On;
  return IO;
}

} // namespace

TEST(InterpGoldenTest, FuzzSourcePrograms) {
  EXPECT_GOLDEN(hashSeeds(1, 200, fuzzRecorder(Form::Source, consuming(true))),
                0x3db1cd545b851316ULL);
  EXPECT_GOLDEN(
      hashSeeds(1, 200, fuzzRecorder(Form::Source, consuming(false))), 0x3db1cd545b851316ULL);
}

TEST(InterpGoldenTest, FuzzCompiledPrograms) {
  EXPECT_GOLDEN(
      hashSeeds(1, 200, fuzzRecorder(Form::Compiled, consuming(true))),
      0x3db1cd545b851316ULL);
  EXPECT_GOLDEN(
      hashSeeds(1, 200, fuzzRecorder(Form::Compiled, consuming(false))),
      0x3db1cd545b851316ULL);
}

TEST(InterpGoldenTest, StreamPartitionings) {
  InterpOptions IO = consuming(true);
  IO.StreamChunk = 1;
  EXPECT_GOLDEN(hashSeeds(1, 100, fuzzRecorder(Form::Source, IO)), 0x2d7e1144d6947cecULL);
  IO.StreamChunk = 3;
  EXPECT_GOLDEN(hashSeeds(1, 100, fuzzRecorder(Form::Source, IO)), 0x2d7e1144d6947cecULL);
  EXPECT_GOLDEN(hashSeeds(1, 100, fuzzRecorder(Form::Compiled, IO)), 0x2d7e1144d6947cecULL);
  IO.StreamChunk = 0;
  IO.StreamInterleave = 4;
  EXPECT_GOLDEN(hashSeeds(1, 100, fuzzRecorder(Form::Source, IO)), 0x2d7e1144d6947cecULL);
  EXPECT_GOLDEN(hashSeeds(1, 100, fuzzRecorder(Form::Compiled, IO)), 0x2d7e1144d6947cecULL);
}

TEST(InterpGoldenTest, GradientPrograms) {
  EXPECT_GOLDEN(hashSeeds(1, 50,
                          [](uint64_t Seed) {
                            fuzz::FuzzCase C = fuzz::generateGrad(Seed);
                            NameSource Names;
                            CompilerOptions CO;
                            CO.VJP = "main";
                            auto Comp = compileSource(C.Source, Names, CO);
                            if (!Comp)
                              return "compile " + Comp.getError().str();
                            std::vector<Value> Args = C.Args;
                            Args.push_back(
                                Value::scalar(PrimValue::makeF64(1.0)));
                            return runRecord(Comp->P, "main_vjp", Args,
                                             consuming(true));
                          }),
                0x34448c54f1c87651ULL);
}

TEST(InterpGoldenTest, StepLimit) {
  // A small limit trips on every generated program.
  InterpOptions Tiny = consuming(true);
  Tiny.MaxSteps = 3;
  EXPECT_GOLDEN(hashSeeds(1, 50, fuzzRecorder(Form::Source, Tiny)), 0xa62d2107730c0bffULL);
  // The exact step count: the smallest limit that does not trip.
  auto StepCount = [](Form F) {
    return [F](uint64_t Seed) {
      fuzz::FuzzCase C = fuzz::generate(Seed);
      auto Trips = [&](int64_t Limit) {
        InterpOptions IO = consuming(true);
        IO.MaxSteps = Limit;
        return fuzzRecord(Seed, F, IO).find("step limit exceeded") !=
               std::string::npos;
      };
      int64_t Hi = 1;
      while (Trips(Hi))
        Hi *= 2;
      int64_t Lo = Hi / 2; // Trips(Lo), or Lo == 0.
      while (Hi - Lo > 1) {
        int64_t Mid = (Lo + Hi) / 2;
        (Trips(Mid) ? Lo : Hi) = Mid;
      }
      return std::to_string(Hi);
    };
  };
  EXPECT_GOLDEN(hashSeeds(1, 50, StepCount(Form::Source)), 0x7d1353f12b86171fULL);
  EXPECT_GOLDEN(hashSeeds(1, 50, StepCount(Form::Compiled)), 0xc3091e7469320163ULL);
}

TEST(InterpGoldenTest, SmallestPaperBenchmarks) {
  const std::pair<const char *, uint64_t> Pins[] = {
      {"cfd", 0x1dc8c27d0c607ba6ULL},
      {"kmeans", 0x3f0c4dd071f4b20aULL},
      {"nn", 0x665cc82e71ca5cfeULL},
      {"fluid", 0xa8a7efe54e45558dULL},
  };
  for (const auto &[Name, Want] : Pins) {
    const bench::BenchmarkDef *B = bench::findBenchmark(Name);
    ASSERT_NE(B, nullptr) << Name;
    NameSource Names;
    auto P = frontend(B->Source, Names);
    ASSERT_TRUE(P) << P.getError().str();
    InterpOptions IO;
    IO.StreamInterleave = B->VerifyInterleave;
    uint64_t H = fnv1a64(runRecord(*P, "main", B->MakeInputs(), IO));
    EXPECT_EQ(H, Want) << Name << " recomputed hash: " << hex(H);
  }
}

TEST(InterpGoldenTest, ParameterBindingErrors) {
  auto I32 = [](int32_t V) { return Value::scalar(PrimValue::makeI32(V)); };
  auto Vec = [](std::vector<int64_t> Xs) {
    return makeIntVectorValue(ScalarKind::I32, Xs);
  };
  const std::pair<const char *, std::vector<Value>> Cases[] = {
      // Shape variable bound by a scalar parameter, then contradicted.
      {"fun main (n: i32) (xs: [n]i32): i32 = n", {I32(3), Vec({1, 2})}},
      // Shape variable bound by its first appearance, then contradicted.
      {"fun main (xs: [n]i32) (ys: [n]i32): i32 = n",
       {Vec({1, 2}), Vec({1, 2, 3})}},
      // Wrong rank, wrong arity.
      {"fun main (xs: [n]i32): i32 = n", {I32(4)}},
      {"fun main (x: i32): i32 = x", {I32(1), I32(2)}},
      // A size bound by a parameter's first appearance, then used inside
      // a lambda whose parameter type mentions it.
      {"fun main (n: i32) (xss: [n][m]i32): [n]i32 = map (\\(r: [m]i32) -> "
       "reduce (+) 0 r) xss",
       {I32(2), makeMatrixValue(ScalarKind::I32, 2, 3, {1, 2, 3, 4, 5, 6})}},
      {"fun main (n: i32) (xs: [n]i32): i32 = xs[n]", {I32(2), Vec({1, 2})}},
      // A loop whose merge parameter is updated in place, read afterwards.
      {"fun main (n: i32) (xs: *[n]i32): [n]i32 = loop (acc = xs) for i < n "
       "do acc with [i] <- i * 2",
       {I32(3), Vec({1, 2, 3})}},
  };
  uint64_t H = fnv1a64("interp-golden-binding");
  for (const auto &[Source, Args] : Cases) {
    for (bool Consume : {false, true}) {
      NameSource Names;
      auto P = frontend(Source, Names);
      std::string R = P ? runRecord(*P, "main", Args, consuming(Consume))
                        : "frontend " + P.getError().str();
      H = fnv1a64(R + std::string(1, '\0'), H);
    }
  }
  EXPECT_GOLDEN(H, 0x754d25fe15c7ddb3ULL);
}
