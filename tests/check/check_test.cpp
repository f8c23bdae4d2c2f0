//===- check_test.cpp - Tests for the IR consistency checker ---------------===//
//
// Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
//
//===----------------------------------------------------------------------===//

#include "check/Check.h"

#include "check/Scope.h"
#include "check/Verify.h"

#include "driver/Compiler.h"
#include "ir/Builder.h"
#include "parser/Desugar.h"
#include "TestUtil.h"

#include <gtest/gtest.h>

using namespace fut;
using namespace fut::test;

namespace {

Type i32s() { return Type::scalar(ScalarKind::I32); }

} // namespace

TEST(CheckTest, FrontendOutputIsWellFormed) {
  NameSource NS;
  auto P = frontend("fun main (n: i32) (xs: [n]i32): i32 =\n"
                    "  reduce (+) 0 (map (+1) xs)",
                    NS);
  ASSERT_OK(P);
  auto Err = checkProgram(*P);
  EXPECT_FALSE(static_cast<bool>(Err)) << Err.getError().str();
}

TEST(CheckTest, WholePipelineOutputIsWellFormed) {
  NameSource NS;
  auto C = compileSource(
      "fun main (a: [n][m]f32) (steps: i32): [n][m]f32 =\n"
      "  map (\\(row: [m]f32): [m]f32 ->\n"
      "         loop (r = row) for t < steps do\n"
      "           map (\\(x: f32): f32 -> x * 0.5) r)\n"
      "      a",
      NS);
  ASSERT_OK(C);
  auto Err = checkProgram(C->P);
  EXPECT_FALSE(static_cast<bool>(Err)) << Err.getError().str();
}

TEST(CheckTest, UnboundVariableDetected) {
  NameSource NS;
  VName Ghost = NS.fresh("ghost");
  BodyBuilder BB(NS);
  SubExp R = BB.binOp(BinOp::Add, SubExp::var(Ghost), i32(1),
                      ScalarKind::I32);
  Program P = singleFun({}, {i32s()}, BB.finish({R}));
  auto Err = checkProgram(P);
  ASSERT_TRUE(static_cast<bool>(Err));
  EXPECT_NE(Err.getError().Message.find("unbound"), std::string::npos);
}

TEST(CheckTest, DoubleBindingDetected) {
  NameSource NS;
  VName X = NS.fresh("x");
  BodyBuilder BB(NS);
  BB.append({Param(X, i32s())}, subExpE(i32(1)));
  BB.append({Param(X, i32s())}, subExpE(i32(2)));
  Program P = singleFun({}, {i32s()}, BB.finish({SubExp::var(X)}));
  auto Err = checkProgram(P);
  ASSERT_TRUE(static_cast<bool>(Err));
  EXPECT_NE(Err.getError().Message.find("bound twice"), std::string::npos);
}

TEST(CheckTest, PatternArityMismatchDetected) {
  NameSource NS;
  VName C = NS.fresh("c");
  BodyBuilder TB(NS), EB(NS), BB(NS);
  Body Then = TB.finish({i32(1), i32(2)});
  Body Else = EB.finish({i32(3), i32(4)});
  // The if produces two values but the pattern binds one.
  VName R = NS.fresh("r");
  BB.append({Param(R, i32s())},
            std::make_unique<IfExp>(SubExp::var(C), std::move(Then),
                                    std::move(Else),
                                    std::vector<Type>{i32s(), i32s()}));
  Program P = singleFun({Param(C, Type::scalar(ScalarKind::Bool))},
                        {i32s()}, BB.finish({SubExp::var(R)}));
  auto Err = checkProgram(P);
  ASSERT_TRUE(static_cast<bool>(Err));
  EXPECT_NE(Err.getError().Message.find("arity"), std::string::npos);
}

TEST(CheckTest, BadPermutationDetected) {
  NameSource NS;
  VName A = NS.fresh("a");
  BodyBuilder BB(NS);
  VName T = BB.bind("t", Type::array(ScalarKind::I32, {i32(2), i32(2)}),
                    std::make_unique<RearrangeExp>(std::vector<int>{0, 0},
                                                   A));
  Program P = singleFun(
      {Param(A, Type::array(ScalarKind::I32, {i32(2), i32(2)}))},
      {Type::array(ScalarKind::I32, {i32(2), i32(2)})},
      BB.finish({SubExp::var(T)}));
  auto Err = checkProgram(P);
  ASSERT_TRUE(static_cast<bool>(Err));
  EXPECT_NE(Err.getError().Message.find("permutation"), std::string::npos);
}

TEST(CheckTest, ScalarUsedAsArrayDetected) {
  NameSource NS;
  VName X = NS.fresh("x");
  BodyBuilder BB(NS);
  SubExp R = BB.index(X, {i32(0)}, i32s());
  Program P = singleFun({Param(X, i32s())}, {i32s()}, BB.finish({R}));
  auto Err = checkProgram(P);
  ASSERT_TRUE(static_cast<bool>(Err));
  EXPECT_NE(Err.getError().Message.find("scalar"), std::string::npos);
}

TEST(CheckTest, ReduceOperatorArityDetected) {
  NameSource NS;
  VName Xs = NS.fresh("xs");
  BodyBuilder BB(NS);
  // A reduce whose operator takes one parameter instead of two.
  VName P1 = NS.fresh("p");
  BodyBuilder LB(NS);
  Lambda Bad({Param(P1, i32s())}, LB.finish({SubExp::var(P1)}), {i32s()});
  VName R = BB.bind("r", i32s(),
                    std::make_unique<ReduceExp>(
                        i32(4), std::move(Bad), std::vector<SubExp>{i32(0)},
                        std::vector<VName>{Xs}));
  Program P = singleFun({Param(Xs, Type::array(ScalarKind::I32, {i32(4)}))},
                        {i32s()}, BB.finish({SubExp::var(R)}));
  auto Err = checkProgram(P);
  ASSERT_TRUE(static_cast<bool>(Err));
  EXPECT_NE(Err.getError().Message.find("parameters"), std::string::npos);
}

TEST(CheckTest, AllBenchmarkPipelinesRecheck) {
  // The driver runs the checker after every phase (InternalChecks); this
  // test asserts the final artifact of a deep pipeline also rechecks
  // standalone.
  NameSource NS;
  auto C = compileSource(
      "fun main (k: i32) (n: i32) (membership: [n]i32): [k]i32 =\n"
      "  stream_red (map (+))\n"
      "    (\\(acc: *[k]i32) (chunk: [chunksize]i32): [k]i32 ->\n"
      "       loop (acc) for i < chunksize do\n"
      "         let cl = chunk[i]\n"
      "         in acc with [cl] <- acc[cl] + 1)\n"
      "    (replicate k 0) membership",
      NS);
  ASSERT_OK(C);
  auto Err = checkProgram(C->P);
  EXPECT_FALSE(static_cast<bool>(Err)) << Err.getError().str();
}

TEST(CheckTest, ScopeTableUndoTrail) {
  // Popping to a mark takes exactly the names bound since out of scope;
  // they stay known as bound, and may be brought back into scope.
  NameSource NS;
  VName A = NS.fresh("a"), B = NS.fresh("b"), K = NS.fresh("k");
  Type ArrT = Type::array(ScalarKind::F32, {SubExp::var(K)});
  ScopeTable S;
  EXPECT_FALSE(S.everBound(A));
  S.bind(A, ArrT);
  size_t Mark = S.mark();
  S.bind(B, ScopeTable::i32());
  S.bind(K, ScopeTable::i32());
  EXPECT_EQ(S.lookup(A), &ArrT);
  EXPECT_EQ(S.lookup(B), &ScopeTable::i32());
  S.popTo(Mark);
  EXPECT_EQ(S.lookup(A), &ArrT);
  EXPECT_EQ(S.lookup(B), nullptr);
  EXPECT_EQ(S.lookup(K), nullptr);
  EXPECT_TRUE(S.everBound(B));
  EXPECT_TRUE(S.everBound(K));
  S.bind(K, ScopeTable::i32());
  EXPECT_EQ(S.lookup(K), &ScopeTable::i32());
  // A name equal by value but stored elsewhere is the same name.
  VName ACopy = A;
  EXPECT_EQ(S.lookup(ACopy), &ArrT);
  // Same tag, different base: a different name.
  EXPECT_FALSE(S.everBound(VName("z", A.Tag)));
  // Enough names to grow the table past its first size.
  std::vector<VName> Many;
  for (int I = 0; I < 200; ++I)
    Many.push_back(NS.fresh("m"));
  for (const VName &N : Many)
    S.bind(N, ScopeTable::i32());
  for (const VName &N : Many)
    EXPECT_EQ(S.lookup(N), &ScopeTable::i32());
  EXPECT_EQ(S.lookup(A), &ArrT);
  S.clear();
  EXPECT_FALSE(S.everBound(A));
  EXPECT_FALSE(S.everBound(Many.back()));
}

TEST(CheckTest, DiagContextRendersOnDemand) {
  std::string Fun = "main";
  VName X("x", 7);
  DiagContext Root("", Fun);
  DiagContext Then(Root, " (then)");
  DiagContext Fn(Then, " (map fn)");
  EXPECT_EQ(Fn.str(), "main (then) (map fn)");
  EXPECT_EQ(DiagContext("binding '", X, "'").str(), "binding 'x_7'");
  EXPECT_EQ(DiagContext("<empty pattern>").str(), "<empty pattern>");
  EXPECT_EQ(DiagContext("parameter of ", Fun).str(), "parameter of main");
}

TEST(CheckTest, LoopConsumingItsInitialiserConsumesIt) {
  // let s = loop (acc = h) for i < 2 do acc with [i] <- 7
  // consumes h through the merge parameter, so reading h[0] afterwards is
  // a use after consumption.
  NameSource NS;
  VName H = NS.fresh("h"), Acc = NS.fresh("acc"), I = NS.fresh("i");
  Type ArrT = Type::array(ScalarKind::I32, {i32(4)});
  BodyBuilder LB(NS);
  VName Upd = LB.bind("upd", ArrT,
                      std::make_unique<UpdateExp>(
                          Acc, std::vector<SubExp>{SubExp::var(I)}, i32(7)));
  auto Loop = std::make_unique<LoopExp>(
      std::vector<Param>{Param(Acc, ArrT.asUnique())},
      std::vector<SubExp>{SubExp::var(H)}, I, i32(2),
      LB.finish({SubExp::var(Upd)}));
  auto Build = [&](bool ReadAfter) {
    NameSource BNS = NS;
    BodyBuilder BB(BNS);
    VName S = BB.bind("s", ArrT, Loop->clone());
    SubExp R = BB.index(ReadAfter ? H : S, {i32(0)}, i32s());
    return singleFun({Param(H, ArrT.asUnique())}, {i32s()}, BB.finish({R}));
  };
  auto Ok = verifyProgram(Build(false), "test-pass", {});
  EXPECT_FALSE(static_cast<bool>(Ok)) << Ok.getError().str();
  auto Err = verifyProgram(Build(true), "test-pass", {});
  ASSERT_TRUE(static_cast<bool>(Err));
  EXPECT_NE(Err.getError().Message.find("use of " + H.str() +
                                        " after it was consumed"),
            std::string::npos)
      << Err.getError().str();
}
