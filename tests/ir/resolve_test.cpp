//===- resolve_test.cpp - Tests for slot resolution ------------------------===//
//
// Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The scoping facts evaluators rely on: every binding occurrence gets its
/// own slot, branch bindings stay in their branch, free names share one
/// slot, constants get slots holding their values, updates know who owns
/// the array they consume, and only a body's own last-used results may be
/// moved out.
///
//===----------------------------------------------------------------------===//

#include "ir/Resolve.h"

#include "ir/Builder.h"
#include "TestUtil.h"

#include <gtest/gtest.h>

using namespace fut;

namespace {

Type i32Ty() { return Type::scalar(ScalarKind::I32); }

/// Resolves \p B with \p Params bound first, as a kernel prebinds its
/// inputs and indices.
RBody resolve(SlotResolver &R, const std::vector<VName> &Params,
              const Body &B) {
  RBody Out;
  R.openScope();
  for (const VName &P : Params)
    R.bind(P);
  R.stms(B, Out);
  R.closeScope();
  return Out;
}

} // namespace

TEST(ResolveTest, RebindingAndFreeNames) {
  NameSource NS;
  VName X = NS.fresh("x"), H = NS.fresh("h");
  BodyBuilder BB(NS);
  // let a = x + h; let x = a + h (rebinding x); result (x, a, 7).
  SubExp A = BB.binOp(BinOp::Add, SubExp::var(X), SubExp::var(H),
                      ScalarKind::I32);
  BB.append({Param(X, i32Ty())},
            std::make_unique<BinOpExp>(BinOp::Add, A, SubExp::var(H)));
  Body B = BB.finish({SubExp::var(X), A, i32(7)});

  SlotResolver R;
  RBody RB = resolve(R, {X}, B);
  std::vector<SlotInfo> Slots = R.takeSlots();
  ASSERT_EQ(RB.Stms.size(), 2u);
  int PreX = 0; // the first slot: the prebound x
  // Both reads of the free h resolve to one free slot.
  EXPECT_EQ(RB.Stms[0].Ops[1], RB.Stms[1].Ops[1]);
  EXPECT_EQ(Slots[RB.Stms[0].Ops[1]].Kind, SlotKind::Free);
  EXPECT_EQ(*Slots[RB.Stms[0].Ops[1]].Name, H);
  // The first statement reads the prebound x; the rebinding gets a new
  // slot, which the result refers to.
  EXPECT_EQ(RB.Stms[0].Ops[0], PreX);
  EXPECT_NE(RB.Stms[1].Pat[0], PreX);
  EXPECT_EQ(RB.Result[0], RB.Stms[1].Pat[0]);
  // A constant result is a slot holding the value.
  EXPECT_EQ(Slots[RB.Result[2]].Kind, SlotKind::Const);
  EXPECT_EQ(Slots[RB.Result[2]].Const.getInt(), 7);
}

TEST(ResolveTest, BranchScopesAndMoves) {
  NameSource NS;
  VName C = NS.fresh("c"), Y = NS.fresh("y");
  BodyBuilder Then(NS);
  SubExp T = Then.binOp(BinOp::Add, SubExp::var(Y), i32(1), ScalarKind::I32);
  Body ThenB = Then.finish({T, SubExp::var(Y)});
  BodyBuilder Else(NS);
  Body ElseB = Else.finish({SubExp::var(Y), SubExp::var(Y)});
  BodyBuilder BB(NS);
  std::vector<VName> R2 = BB.bindMulti(
      "r", {i32Ty(), i32Ty()},
      std::make_unique<IfExp>(SubExp::var(C), std::move(ThenB),
                              std::move(ElseB),
                              std::vector<Type>{i32Ty(), i32Ty()}));
  Body B = BB.finish({SubExp::var(R2[0]), SubExp::var(R2[0])});

  SlotResolver R;
  RBody RB = resolve(R, {C, Y}, B);
  const RStm &If = RB.Stms[0];
  ASSERT_EQ(If.Bodies.size(), 2u);
  // The branch's own binding may move out; the enclosing body's y may not.
  EXPECT_EQ(If.Bodies[0].MoveResult, (std::vector<uint8_t>{1, 0}));
  EXPECT_EQ(If.Bodies[1].MoveResult, (std::vector<uint8_t>{0, 0}));
  // Of two uses of one slot, only the last may move.
  EXPECT_EQ(RB.MoveResult, (std::vector<uint8_t>{0, 1}));
  // The branch binding is a slot of its own, distinct from the pattern.
  EXPECT_NE(If.Bodies[0].Result[0], If.Pat[0]);
}

TEST(ResolveTest, UpdatesKnowWhoOwnsTheArray) {
  NameSource NS;
  VName Xs = NS.fresh("xs"), Host = NS.fresh("hs"), C = NS.fresh("c");
  Type ArrTy = Type::array(ScalarKind::I32, {i32(4)});
  auto Update = [&](const VName &Arr) {
    return std::make_unique<UpdateExp>(Arr, std::vector<SubExp>{i32(0)},
                                       i32(1));
  };
  // if c then xs with [0] <- 1 else xs  -- consumes the enclosing xs
  BodyBuilder Then(NS);
  VName Upd = Then.bind("u", ArrTy, Update(Xs));
  Body ThenB = Then.finish({SubExp::var(Upd)});
  BodyBuilder Else(NS);
  Body ElseB = Else.finish({SubExp::var(Xs)});
  BodyBuilder BB(NS);
  VName Ys = BB.bind("ys", ArrTy,
                     std::make_unique<IfExp>(SubExp::var(C), std::move(ThenB),
                                             std::move(ElseB),
                                             std::vector<Type>{ArrTy}));
  VName Zs = BB.bind("zs", ArrTy, Update(Ys)); // consumes this body's ys
  VName Ws = BB.bind("ws", ArrTy, Update(Host)); // consumes a free array
  Body B = BB.finish({SubExp::var(Zs), SubExp::var(Ws)});

  SlotResolver R;
  RBody RB = resolve(R, {C, Xs}, B);
  EXPECT_EQ(RB.Stms[0].Bodies[0].Stms[0].Consume, ConsumeKind::Outer);
  EXPECT_EQ(RB.Stms[1].Consume, ConsumeKind::Local);
  EXPECT_EQ(RB.Stms[2].Consume, ConsumeKind::Free);
}

TEST(ResolveTest, LoopParametersBelongToTheLoopBody) {
  NameSource NS;
  VName Acc = NS.fresh("acc"), I = NS.fresh("i"), N = NS.fresh("n");
  BodyBuilder LB(NS);
  SubExp Next = LB.binOp(BinOp::Add, SubExp::var(Acc), SubExp::var(I),
                         ScalarKind::I32);
  Body LoopBody = LB.finish({Next});
  BodyBuilder BB(NS);
  VName Out = BB.bind("out", i32Ty(),
                      std::make_unique<LoopExp>(
                          std::vector<Param>{Param(Acc, i32Ty())},
                          std::vector<SubExp>{SubExp::var(Acc)}, I,
                          SubExp::var(N), std::move(LoopBody)));
  Body B = BB.finish({SubExp::var(Out)});

  SlotResolver R;
  RBody RB = resolve(R, {Acc}, B);
  const RStm &Loop = RB.Stms[0];
  // The initial value reads the enclosing acc; the body reads the merge
  // parameter, a slot of its own.
  ASSERT_EQ(Loop.Binds.size(), 2u);
  EXPECT_EQ(Loop.Ops[1], 0);
  EXPECT_NE(Loop.Binds[1], 0);
  EXPECT_EQ(Loop.Bodies[0].Stms[0].Ops[0], Loop.Binds[1]);
  EXPECT_EQ(Loop.Bodies[0].Stms[0].Ops[1], Loop.Binds[0]);
}
