//===- fusion_test.cpp - Tests for the fusion engine -----------------------===//
//
// Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
//
//===----------------------------------------------------------------------===//

#include "fusion/Fusion.h"

#include "interp/Interp.h"
#include "ir/Builder.h"
#include "ir/Printer.h"
#include "ir/Traversal.h"
#include "opt/Simplify.h"
#include "parser/Desugar.h"
#include "TestUtil.h"

#include <gtest/gtest.h>

using namespace fut;
using namespace fut::test;

namespace {

Program compile(const std::string &Src, NameSource &NS) {
  auto P = frontend(Src, NS);
  EXPECT_TRUE(static_cast<bool>(P)) << P.getError().str();
  Program Out = P ? P.take() : Program{};
  inlineFunctions(Out, NS);
  simplifyProgram(Out, NS);
  return Out;
}

int countExps(const Body &B, ExpKind K) {
  int N = 0;
  for (const Stm &S : B.Stms) {
    if (S.E->kind() == K)
      ++N;
    forEachChildBody(*S.E,
                     [&](const Body &Inner) { N += countExps(Inner, K); });
  }
  return N;
}

/// SOACs at the top level of a body only (not nested).
int topLevelSOACs(const Body &B) {
  int N = 0;
  for (const Stm &S : B.Stms)
    if (S.E->isSOAC())
      ++N;
  return N;
}

Value iv(int32_t V) { return Value::scalar(PrimValue::makeI32(V)); }
Value ivec(const std::vector<int64_t> &Xs) {
  return makeIntVectorValue(ScalarKind::I32, Xs);
}

void expectSemanticsPreserved(const Program &Before, const Program &After,
                              const std::vector<Value> &Args) {
  Interpreter I1(Before), I2(After);
  auto R1 = I1.run(Args);
  auto R2 = I2.run(Args);
  ASSERT_OK(R1);
  ASSERT_OK(R2);
  ASSERT_EQ(R1->size(), R2->size());
  for (size_t I = 0; I < R1->size(); ++I)
    EXPECT_TRUE((*R1)[I].approxEqual((*R2)[I]))
        << "result " << I << " differs:\n"
        << (*R1)[I].str() << "\nvs\n"
        << (*R2)[I].str() << "\n"
        << printProgram(After);
}

} // namespace

TEST(FusionTest, MapMapVerticalFusion) {
  NameSource NS;
  Program P = compile("fun main (n: i32) (xs: [n]i32): [n]i32 =\n"
                      "  let a = map (+1) xs\n"
                      "  in map (*2) a",
                      NS);
  Program Before;
  Before.Funs.push_back(
      {P.Funs[0].Name, P.Funs[0].Params, P.Funs[0].RetTypes,
       cloneBody(P.Funs[0].FBody)});
  FusionStats S = fuseProgram(P, NS);
  EXPECT_EQ(S.Vertical, 1);
  EXPECT_EQ(countExps(P.Funs[0].FBody, ExpKind::Map), 1);
  expectSemanticsPreserved(Before, P, {iv(4), ivec({1, 2, 3, 4})});
}

TEST(FusionTest, MapMapChainFusesCompletely) {
  NameSource NS;
  Program P = compile("fun main (n: i32) (xs: [n]i32): [n]i32 =\n"
                      "  let a = map (+1) xs\n"
                      "  let b = map (*2) a\n"
                      "  let c = map (+3) b\n"
                      "  in c",
                      NS);
  FusionStats S = fuseProgram(P, NS);
  EXPECT_EQ(S.Vertical, 2);
  EXPECT_EQ(countExps(P.Funs[0].FBody, ExpKind::Map), 1);
}

TEST(FusionTest, MapReduceBecomesStreamRed) {
  NameSource NS;
  Program P = compile("fun main (n: i32) (xs: [n]i32): i32 =\n"
                      "  reduce (+) 0 (map (\\(x: i32): i32 -> x * x) xs)",
                      NS);
  Program Before;
  Before.Funs.push_back(
      {P.Funs[0].Name, P.Funs[0].Params, P.Funs[0].RetTypes,
       cloneBody(P.Funs[0].FBody)});
  FusionStats S = fuseProgram(P, NS);
  EXPECT_EQ(S.Redomap, 1);
  EXPECT_EQ(topLevelSOACs(P.Funs[0].FBody), 1);
  EXPECT_EQ(countExps(P.Funs[0].FBody, ExpKind::Stream), 1);
  for (int64_t Chunk : {0, 1, 3, 7}) {
    InterpOptions Opts;
    Opts.StreamChunk = Chunk;
    Interpreter I(P, Opts);
    auto R = I.run({iv(5), ivec({1, 2, 3, 4, 5})});
    ASSERT_OK(R);
    EXPECT_EQ((*R)[0], iv(55)) << "chunk " << Chunk;
  }
  expectSemanticsPreserved(Before, P, {iv(5), ivec({1, 2, 3, 4, 5})});
}

TEST(FusionTest, MultiUseBlocksVerticalFusion) {
  NameSource NS;
  Program P = compile("fun main (n: i32) (xs: [n]i32): (i32, [n]i32) =\n"
                      "  let a = map (+1) xs\n"
                      "  let s = reduce (+) 0 a\n"
                      "  in (s, a)",
                      NS);
  FusionStats S = fuseProgram(P, NS);
  // a is used both by the reduce and as a result: no fusion.
  EXPECT_EQ(S.total(), 0);
}

TEST(FusionTest, ExplicitIndexingBlocksFusion) {
  // Section 4.2: "If an array is indexed explicitly in a target SOAC, then
  // its producer SOAC will not be fused with the target."
  NameSource NS;
  Program P = compile(
      "fun main (n: i32) (xs: [n]i32): [n]i32 =\n"
      "  let a = map (+1) xs\n"
      "  in map (\\(i: i32): i32 -> a[i]) (iota n)",
      NS);
  FusionStats S = fuseProgram(P, NS);
  EXPECT_EQ(S.Vertical, 0);
}

TEST(FusionTest, ConsumptionPointBlocksFusion) {
  // Section 4.2: do not move a SOAC past a consumption point of one of its
  // inputs: let x = map f a; let a' = a with [0] <- 0; map g x.
  NameSource NS;
  Program P = compile("fun main (n: i32): ([n]i32, [n]i32) =\n"
                      "  let a = iota n\n"
                      "  let x = map (+1) a\n"
                      "  let a2 = a with [0] <- 0\n"
                      "  let y = map (*2) x\n"
                      "  in (a2, y)",
                      NS);
  Program Before;
  Before.Funs.push_back(
      {P.Funs[0].Name, P.Funs[0].Params, P.Funs[0].RetTypes,
       cloneBody(P.Funs[0].FBody)});
  FusionStats S = fuseProgram(P, NS);
  EXPECT_EQ(S.Vertical, 0) << printProgram(P);
  expectSemanticsPreserved(Before, P, {iv(4)});
}

TEST(FusionTest, HorizontalFusionOfIndependentMaps) {
  NameSource NS;
  Program P = compile("fun main (n: i32) (xs: [n]i32): ([n]i32, [n]i32) =\n"
                      "  let a = map (+1) xs\n"
                      "  let b = map (*2) xs\n"
                      "  in (a, b)",
                      NS);
  Program Before;
  Before.Funs.push_back(
      {P.Funs[0].Name, P.Funs[0].Params, P.Funs[0].RetTypes,
       cloneBody(P.Funs[0].FBody)});
  FusionStats S = fuseProgram(P, NS);
  EXPECT_EQ(S.Horizontal, 1);
  EXPECT_EQ(countExps(P.Funs[0].FBody, ExpKind::Map), 1);
  expectSemanticsPreserved(Before, P, {iv(3), ivec({1, 2, 3})});
}

TEST(FusionTest, NestedFusionInsideMapLambda) {
  // Fusion happens at all nesting levels (T2 reduction bottom-up).
  NameSource NS;
  Program P = compile(
      "fun main (a: [n][m]i32): [n]i32 =\n"
      "  map (\\(row: [m]i32): i32 ->\n"
      "         reduce (+) 0 (map (*2) row))\n"
      "      a",
      NS);
  FusionStats S = fuseProgram(P, NS);
  EXPECT_EQ(S.Redomap, 1);
}

TEST(FusionTest, StreamMapReduceFusesLikeFig10) {
  // Fig 10a -> 10b: the outer reduce fuses into the stream_map, producing
  // a stream_red.
  NameSource NS;
  const char *Src =
      "fun main (n: i32) (xs: [n]i32): i32 =\n"
      "  let ys = stream_map (\\(c: [csz]i32): [csz]i32 ->\n"
      "                         let t = map (*3) c\n"
      "                         in scan (+) 0 t)\n"
      "                      xs\n"
      "  in reduce (+) 0 ys";
  Program P = compile(Src, NS);
  Program Before;
  Before.Funs.push_back(
      {P.Funs[0].Name, P.Funs[0].Params, P.Funs[0].RetTypes,
       cloneBody(P.Funs[0].FBody)});
  FusionStats S = fuseProgram(P, NS);
  EXPECT_EQ(S.StreamFusions, 1) << printProgram(P);
  EXPECT_EQ(topLevelSOACs(P.Funs[0].FBody), 1);
  const Body &B = P.Funs[0].FBody;
  bool FoundRed = false;
  for (const Stm &St : B.Stms)
    if (const auto *SE = expDynCast<StreamExp>(St.E.get()))
      FoundRed = SE->Form == StreamExp::FormKind::Red;
  EXPECT_TRUE(FoundRed);
  // NOTE: chunking must give identical results only chunk-wise for the
  // whole-stream semantics; scan inside a chunk depends on the chunk
  // boundaries, so here we compare with the same chunk configuration.
  Interpreter I1(Before), I2(P);
  auto R1 = I1.run({iv(6), ivec({1, 2, 3, 4, 5, 6})});
  auto R2 = I2.run({iv(6), ivec({1, 2, 3, 4, 5, 6})});
  ASSERT_OK(R1);
  ASSERT_OK(R2);
  EXPECT_EQ((*R1)[0], (*R2)[0]);
}

TEST(FusionTest, KMeansFig4bDoesNotFuseVectorisedReduce) {
  NameSource NS;
  const char *Src =
      "fun main (k: i32) (n: i32) (membership: [n]i32): [k]i32 =\n"
      "  let increments =\n"
      "    map (\\(cluster: i32): [k]i32 ->\n"
      "           let incr = replicate k 0\n"
      "           let incr[cluster] = 1\n"
      "           in incr)\n"
      "        membership\n"
      "  in reduce (map (+)) (replicate k 0) increments";
  Program P = compile(Src, NS);
  Program Before;
  Before.Funs.push_back(
      {P.Funs[0].Name, P.Funs[0].Params, P.Funs[0].RetTypes,
       cloneBody(P.Funs[0].FBody)});
  FusionStats S = fuseProgram(P, NS);
  // A vectorised-operator reduce is left for rule G5 (segmented
  // reduction over the materialised input) rather than fused — the
  // reason Fig 4b is x8.3 slower than Fig 4c without in-place updates.
  EXPECT_EQ(S.Redomap, 0);
  expectSemanticsPreserved(Before, P,
                           {iv(3), iv(6), ivec({0, 1, 0, 2, 1, 0})});
}

TEST(FusionTest, UserInNestedBodiesBlocksVerticalFusion) {
  // The producer's output is also read inside another statement's lambda,
  // loop body or branch: a user the fuser must see through the nesting.
  const char *Users[] = {
      "  let s = reduce (+) 0 (map (\\(i: i32): i32 -> a[i]) (iota n))\n",
      "  let s = loop (acc = 0) for i < n do acc + a[i]\n",
      "  let s = if n > 2 then a[1] else 0\n",
  };
  for (const char *User : Users) {
    SCOPED_TRACE(User);
    NameSource NS;
    Program P = compile(std::string("fun main (n: i32) (xs: [n]i32): "
                                    "([n]i32, i32) =\n"
                                    "  let a = map (+1) xs\n"
                                    "  let b = map (*2) a\n") +
                            User + "  in (b, s)",
                        NS);
    FusionStats S = fuseProgram(P, NS);
    EXPECT_EQ(S.Vertical, 0) << printProgram(P);
  }
}

TEST(FusionTest, PatternTypeDimIsAUserInAnyOrder) {
  // A statement that mentions the producer's output only in its pattern's
  // type counts as a user whether it comes before or after the consumer.
  // Built by hand: well-typed source never names an array in a dim, so
  // this pins the dependency query itself.
  for (bool DimUserFirst : {false, true}) {
    SCOPED_TRACE(DimUserFirst ? "dim user first" : "consumer first");
    NameSource NS;
    VName N = NS.fresh("n"), Xs = NS.fresh("xs");
    Type I32 = Type::scalar(ScalarKind::I32);
    auto ByOne = [&](BinOp Op) {
      VName X = NS.fresh("x");
      BodyBuilder LB(NS);
      SubExp R = LB.binOp(Op, SubExp::var(X), i32(1), ScalarKind::I32);
      return Lambda({Param(X, I32)}, LB.finish({R}), {I32});
    };
    Type Vec = Type::array(ScalarKind::I32, {SubExp::var(N)});
    BodyBuilder BB(NS);
    VName A = BB.bind("a", Vec,
                      std::make_unique<MapExp>(SubExp::var(N),
                                               ByOne(BinOp::Add),
                                               std::vector<VName>{Xs}));
    auto DimUser = [&] {
      return BB.bind("d", Type::array(ScalarKind::I32, {SubExp::var(A)}),
                     std::make_unique<IotaExp>(SubExp::var(N)));
    };
    VName D = DimUserFirst ? DimUser() : VName();
    VName B = BB.bind("b", Vec,
                      std::make_unique<MapExp>(SubExp::var(N),
                                               ByOne(BinOp::Mul),
                                               std::vector<VName>{A}));
    if (!DimUserFirst)
      D = DimUser();
    Body Fn = BB.finish({SubExp::var(B), SubExp::var(D)});
    FusionStats S = fuseBody(Fn, NS);
    EXPECT_EQ(S.Vertical, 0);
    EXPECT_EQ(Fn.Stms.size(), 3u);
  }
}

TEST(FusionTest, IntermediateUserBlocksHorizontalFusion) {
  // a and b share xs, but s reads a between them: merging a into b's
  // position would move a's definition past its use.
  NameSource NS;
  Program P = compile("fun main (n: i32) (xs: [n]i32): "
                      "([n]i32, i32, [n]i32) =\n"
                      "  let a = map (+1) xs\n"
                      "  let s = reduce (+) 0 a\n"
                      "  let b = map (*2) xs\n"
                      "  in (a, s, b)",
                      NS);
  FusionStats S = fuseProgram(P, NS);
  EXPECT_EQ(S.Horizontal, 0) << printProgram(P);
  EXPECT_EQ(countExps(P.Funs[0].FBody, ExpKind::Map), 2);
}

TEST(FusionTest, LoopMergeInitialiserIsAConsumptionPoint) {
  // The loop consumes h, which the producer reads: fusing ys into zs would
  // read h after the loop consumed it.
  NameSource NS;
  Program P = compile(
      "fun main (n: i32) (xs: [n]i32) (h: *[16]i32): (i32, [n]i32) =\n"
      "  let ys = map (\\(x: i32): i32 -> x + h[0]) xs\n"
      "  let s = loop (acc = h) for i < 2 do acc with [i] <- 7\n"
      "  let zs = map (\\(y: i32): i32 -> y * 2) ys\n"
      "  in (s[0], zs)",
      NS);
  FusionStats S = fuseProgram(P, NS);
  EXPECT_EQ(S.Vertical, 0) << printProgram(P);
}

TEST(FusionTest, MapOverUniqueRowsIsAConsumptionPoint) {
  // The middle map's lambda takes its rows unique, so it consumes h.
  NameSource NS;
  Program P = compile(
      "fun main (n: i32) (xs: [n]i32) (h: *[n][2]i32): "
      "([n][2]i32, [n]i32) =\n"
      "  let ys = map (\\(x: i32): i32 -> x + h[0, 0]) xs\n"
      "  let h2 = map (\\(r: *[2]i32): [2]i32 -> r with [0] <- 1) h\n"
      "  let zs = map (\\(y: i32): i32 -> y * 2) ys\n"
      "  in (h2, zs)",
      NS);
  FusionStats S = fuseProgram(P, NS);
  EXPECT_EQ(S.Vertical, 0) << printProgram(P);
}

TEST(FusionTest, ConsumptionInsideABranchBlocksFusion) {
  // The if's branch consumes h, which the producer reads.
  NameSource NS;
  Program P = compile(
      "fun main (n: i32) (xs: [n]i32) (h: *[16]i32): (i32, [n]i32) =\n"
      "  let ys = map (\\(x: i32): i32 -> x + h[0]) xs\n"
      "  let s = if n > 2 then (let h2 = h with [0] <- 9 in h2[0]) else 0\n"
      "  let zs = map (\\(y: i32): i32 -> y * 2) ys\n"
      "  in (s, zs)",
      NS);
  FusionStats S = fuseProgram(P, NS);
  EXPECT_EQ(S.Vertical, 0) << printProgram(P);
}
