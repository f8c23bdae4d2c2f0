//===- check_golden_test.cpp - Verdict and message pins for the checkers --===//
//
// Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pins the verdict and the full message of the two pass-boundary checkers,
/// checkProgram (Check.h) and verifyProgram (Verify.h), so that a rewrite of
/// their scope handling or of how they build diagnostics can be shown to
/// change nothing.
///
/// The sweep compiles the generated programs of fuzz seeds 1..200, keeps
/// the IR at one unflattened and one flattened pass boundary, and applies
/// deterministic corruptions to it: drop a binding, duplicate a binder,
/// point an operand at a name bound in a closed scope, change a pattern
/// type.  Each case renders both checkers' verdicts (the verifier in the
/// Flattened mode matching the IR, with CheckConsumption on) and the
/// records are folded into one FNV-1a hash per group.  The scoping tests
/// below pin exact strings for the rules a scope implementation can get
/// wrong: names of one branch seen in the other, loop, lambda and kernel
/// parameters seen after their construct, one name bound in both branches,
/// and an existential size registered again after its scope closes.
///
/// A mismatch prints the recomputed hash; re-record a constant only for a
/// change that is meant to move a verdict or a message.
///
//===----------------------------------------------------------------------===//

#include "check/Check.h"
#include "check/Verify.h"
#include "driver/Compiler.h"
#include "fuzz/Fuzz.h"
#include "ir/Builder.h"
#include "ir/Traversal.h"
#include "support/Utils.h"
#include "TestUtil.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <functional>
#include <map>

using namespace fut;
using namespace fut::test;

namespace {

std::string verdict(const MaybeError &E) {
  if (!E)
    return "ok";
  return std::string(errorKindName(E.getError().Kind)) + ": " +
         E.getError().Message;
}

std::string checkVerdict(const Program &P) { return verdict(checkProgram(P)); }

std::string verifyVerdict(const Program &P, bool Flattened) {
  VerifyOptions VO;
  VO.Flattened = Flattened;
  VO.CheckConsumption = true;
  return verdict(verifyProgram(P, "golden", VO));
}

/// A statement of some body of a program, with the statement of the
/// enclosing body whose expression owns that body (null at function level).
struct Site {
  Body *B;
  size_t Index;
  Body *Parent;
  size_t ParentIndex;
};

void collectSites(Body &B, Body *Parent, size_t ParentIndex,
                  std::vector<Site> &Out) {
  for (size_t I = 0; I < B.Stms.size(); ++I) {
    Out.push_back({&B, I, Parent, ParentIndex});
    forEachChildBody(*B.Stms[I].E, [&](Body &Child) {
      collectSites(Child, &B, I, Out);
    });
  }
}

std::vector<Site> sitesOf(Program &P) {
  std::vector<Site> Out;
  for (FunDef &F : P.Funs)
    collectSites(F.FBody, nullptr, 0, Out);
  return Out;
}

enum class Corruption { None, DropBinding, DuplicateBinder, ClosedScope,
                        PatternType };

const char *corruptionName(Corruption C) {
  switch (C) {
  case Corruption::None:
    return "none";
  case Corruption::DropBinding:
    return "drop-binding";
  case Corruption::DuplicateBinder:
    return "duplicate-binder";
  case Corruption::ClosedScope:
    return "closed-scope";
  case Corruption::PatternType:
    return "pattern-type";
  }
  return "?";
}

/// Applies corruption \p C to \p P at the site picked by \p Pick; returns
/// a description of what was changed, or "" when \p P offers no such site.
std::string corrupt(Program &P, Corruption C, uint64_t Pick) {
  std::vector<Site> Sites = sitesOf(P);
  if (Sites.empty())
    return "";
  switch (C) {
  case Corruption::None:
    return "none";

  case Corruption::DropBinding: {
    const Site &S = Sites[Pick % Sites.size()];
    std::string What = "drop stm " + std::to_string(Pick % Sites.size());
    S.B->Stms.erase(S.B->Stms.begin() + static_cast<long>(S.Index));
    return What;
  }

  case Corruption::DuplicateBinder: {
    std::vector<const Site *> Named;
    for (const Site &S : Sites)
      if (!S.B->Stms[S.Index].Pat.empty())
        Named.push_back(&S);
    if (Named.size() < 2)
      return "";
    size_t K = Pick % Named.size();
    size_t J = (K + 1 + Pick / Named.size()) % Named.size();
    if (J == K)
      J = (K + 1) % Named.size();
    Param &Victim = Named[K]->B->Stms[Named[K]->Index].Pat[0];
    const VName &Other = Named[J]->B->Stms[Named[J]->Index].Pat[0].Name;
    std::string What = "rename " + Victim.Name.str() + " to " + Other.str();
    Victim.Name = Other;
    return What;
  }

  case Corruption::ClosedScope: {
    std::vector<const Site *> Inner;
    for (const Site &S : Sites)
      if (S.Parent && !S.B->Stms[S.Index].Pat.empty())
        Inner.push_back(&S);
    if (Inner.empty())
      return "";
    const Site &S = *Inner[Pick % Inner.size()];
    VName Closed = S.B->Stms[S.Index].Pat[0].Name;
    Body &Outer = *S.Parent;
    // The first later statement of the enclosing body that reads a name
    // reads the closed-scope name instead; failing that, the result does.
    for (size_t I = S.ParentIndex + 1; I < Outer.Stms.size(); ++I) {
      NameSet Free = freeVarsInExp(*Outer.Stms[I].E);
      if (Free.empty())
        continue;
      VName Min = *Free.begin();
      for (const VName &V : Free)
        if (V < Min)
          Min = V;
      NameMap<SubExp> Subst{{Min, SubExp::var(Closed)}};
      substituteInExp(Subst, *Outer.Stms[I].E);
      return "read " + Closed.str() + " for " + Min.str();
    }
    if (Outer.Result.empty())
      return "";
    Outer.Result[0] = SubExp::var(Closed);
    return "return " + Closed.str();
  }

  case Corruption::PatternType: {
    std::vector<const Site *> Named;
    for (const Site &S : Sites)
      if (!S.B->Stms[S.Index].Pat.empty())
        Named.push_back(&S);
    if (Named.empty())
      return "";
    Param &Pat = Named[Pick % Named.size()]->B->Stms[
        Named[Pick % Named.size()]->Index].Pat[0];
    Type Old = Pat.Ty;
    switch ((Pick / Named.size()) % 3) {
    case 0:
      Pat.Ty = Type(Old.elemKind() == ScalarKind::I32 ? ScalarKind::F32
                                                      : ScalarKind::I32,
                    Old.shape());
      break;
    case 1:
      Pat.Ty = Old.arrayOf(SubExp::intConst(3));
      break;
    default:
      Pat.Ty = Old.isArray() ? Old.rowType()
                             : Type::scalar(ScalarKind::Bool);
      break;
    }
    return "retype " + Pat.Name.str() + " " + Old.str() + " -> " +
           Pat.Ty.str();
  }
  }
  return "";
}

/// Pass boundaries whose IR the sweep corrupts.
struct Boundary {
  const char *Pass;
  bool Flattened;
};
const Boundary Boundaries[] = {{"simplify-post-fusion", false},
                               {"locality", true}};

struct GroupResult {
  uint64_t Hash = 0xcbf29ce484222325ULL;
  int Cases = 0;
  int Rejected = 0;
};

/// Runs the sweep and returns one result per (boundary, corruption).
std::map<std::string, GroupResult> sweep() {
  std::map<std::string, GroupResult> Groups;
  const Corruption Kinds[] = {Corruption::None, Corruption::DropBinding,
                              Corruption::DuplicateBinder,
                              Corruption::ClosedScope,
                              Corruption::PatternType};
  for (uint64_t Seed = 1; Seed <= 200; ++Seed) {
    fuzz::FuzzCase FC = fuzz::generate(Seed);
    Program Snap[2];
    CompilerOptions Opts;
    Opts.PostPassHook = [&](Program &P, const std::string &Pass) {
      for (int M = 0; M < 2; ++M)
        if (Pass == Boundaries[M].Pass)
          Snap[M] = P;
    };
    NameSource NS;
    auto C = compileSource(FC.Source, NS, Opts);
    for (int M = 0; M < 2; ++M) {
      for (Corruption K : Kinds) {
        int Picks = K == Corruption::None ? 1 : 2;
        for (int Pick = 0; Pick < Picks; ++Pick) {
          std::string Group =
              std::string(Boundaries[M].Pass) + "/" + corruptionName(K);
          std::string Rec = "seed " + std::to_string(Seed) + " " + Group;
          if (!C) {
            Rec += " compile " + C.getError().str();
          } else {
            Program P = Snap[M];
            uint64_t At = Seed * 7919 + static_cast<uint64_t>(Pick) * 104729;
            std::string What = corrupt(P, K, At);
            if (What.empty())
              continue;
            std::string Check = checkVerdict(P);
            std::string Verify = verifyVerdict(P, Boundaries[M].Flattened);
            Rec += " [" + What + "]\ncheck " + Check + "\nverify " + Verify;
            GroupResult &G = Groups[Group];
            G.Rejected += (Check != "ok" || Verify != "ok") ? 1 : 0;
          }
          GroupResult &G = Groups[Group];
          G.Hash = fnv1a64(Rec + "\n", G.Hash);
          ++G.Cases;
        }
      }
    }
  }
  return Groups;
}

struct Expected {
  const char *Group;
  uint64_t Hash;
  int Cases;
  int Rejected;
};

// Recorded on the checkers that copied their scope at every construct.
const Expected Pinned[] = {
    {"locality/closed-scope", 0x99d7e4a17acda991ULL, 400, 400},
    {"locality/drop-binding", 0x9ee3a78bb4068f83ULL, 400, 400},
    {"locality/duplicate-binder", 0x484a1ef8e3d4f180ULL, 400, 400},
    {"locality/none", 0xfff26dcc9e1dfc99ULL, 200, 0},
    {"locality/pattern-type", 0x1068025fc00b38d8ULL, 400, 398},
    {"simplify-post-fusion/closed-scope", 0xd377188e2d39215bULL, 400, 400},
    {"simplify-post-fusion/drop-binding", 0xa9124f24e3618491ULL, 400, 400},
    {"simplify-post-fusion/duplicate-binder", 0x23b55376c72ae7fbULL, 400, 400},
    {"simplify-post-fusion/none", 0x9b133e44be19a0d9ULL, 200, 0},
    {"simplify-post-fusion/pattern-type", 0xbec5637bccda2c4aULL, 400, 400},
};

Type i32s() { return Type::scalar(ScalarKind::I32); }
Type boolT() { return Type::scalar(ScalarKind::Bool); }

ExpPtr add(SubExp A, SubExp B) {
  return std::make_unique<BinOpExp>(BinOp::Add, std::move(A), std::move(B));
}

/// The exact verdicts of both checkers, for the scoping tests.
void expectVerdicts(const Program &P, bool Flattened, const std::string &Check,
                    const std::string &Verify) {
  EXPECT_EQ(checkVerdict(P), Check);
  EXPECT_EQ(verifyVerdict(P, Flattened), Verify);
}

} // namespace

TEST(CheckGoldenTest, CorruptedFuzzPrograms) {
  std::map<std::string, GroupResult> Groups = sweep();
  ASSERT_EQ(Groups.size(), sizeof(Pinned) / sizeof(Pinned[0]));
  for (const Expected &E : Pinned) {
    SCOPED_TRACE(E.Group);
    ASSERT_TRUE(Groups.count(E.Group));
    const GroupResult &G = Groups[E.Group];
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "0x%016llxULL",
                  static_cast<unsigned long long>(G.Hash));
    EXPECT_EQ(G.Hash, E.Hash) << "recomputed hash " << Buf;
    EXPECT_EQ(G.Cases, E.Cases);
    EXPECT_EQ(G.Rejected, E.Rejected);
  }
  // The uncorrupted programs are accepted; every corruption kind is
  // rejected somewhere, so the hashes pin real diagnostics.
  for (const auto &[Name, G] : Groups) {
    if (Name.find("/none") != std::string::npos)
      EXPECT_EQ(G.Rejected, 0) << Name;
    else
      EXPECT_GT(G.Rejected, 0) << Name;
  }
}

TEST(CheckGoldenTest, ThenNameUsedInElse) {
  // let r = if c then (let a = 1 in a) else (let b = a + 1 in b) in r
  NameSource NS;
  VName C = NS.fresh("c"), A = NS.fresh("a"), B = NS.fresh("b"),
        R = NS.fresh("r");
  BodyBuilder TB(NS), EB(NS), BB(NS);
  TB.append({Param(A, i32s())}, subExpE(i32(1)));
  EB.append({Param(B, i32s())}, add(SubExp::var(A), i32(1)));
  BB.append({Param(R, i32s())},
            std::make_unique<IfExp>(SubExp::var(C),
                                    TB.finish({SubExp::var(A)}),
                                    EB.finish({SubExp::var(B)}),
                                    std::vector<Type>{i32s()}));
  Program P = singleFun({Param(C, boolT())}, {i32s()},
                        BB.finish({SubExp::var(R)}));
  expectVerdicts(P, false,
                 "compile: in function main: "
                 "use of unbound variable a_1 in main (else)",
                 "verify: after pass 'golden': in function 'main': "
                 "binding 'b_2': use of unbound name a_1");
}

TEST(CheckGoldenTest, SameNameBoundInBothBranches) {
  NameSource NS;
  VName C = NS.fresh("c"), A = NS.fresh("a"), R = NS.fresh("r");
  BodyBuilder TB(NS), EB(NS), BB(NS);
  TB.append({Param(A, i32s())}, subExpE(i32(1)));
  EB.append({Param(A, i32s())}, subExpE(i32(2)));
  BB.append({Param(R, i32s())},
            std::make_unique<IfExp>(SubExp::var(C),
                                    TB.finish({SubExp::var(A)}),
                                    EB.finish({SubExp::var(A)}),
                                    std::vector<Type>{i32s()}));
  Program P = singleFun({Param(C, boolT())}, {i32s()},
                        BB.finish({SubExp::var(R)}));
  expectVerdicts(P, false,
                 "compile: in function main: "
                 "name a_1 bound twice (main (else))",
                 "verify: after pass 'golden': in function 'main': "
                 "binding 'a_1': name a_1 bound twice");
}

namespace {

/// let r = loop (acc = 0) for i < 4 do (let t = acc + i in t)
/// let u = <Late> + 1 in u
Program loopThenUse(NameSource &NS, bool UseIndex) {
  VName Acc = NS.fresh("acc"), I = NS.fresh("i"), T = NS.fresh("t"),
        R = NS.fresh("r"), U = NS.fresh("u");
  BodyBuilder LB(NS), BB(NS);
  LB.append({Param(T, i32s())}, add(SubExp::var(Acc), SubExp::var(I)));
  BB.append({Param(R, i32s())},
            std::make_unique<LoopExp>(std::vector<Param>{Param(Acc, i32s())},
                                      std::vector<SubExp>{i32(0)}, I, i32(4),
                                      LB.finish({SubExp::var(T)})));
  BB.append({Param(U, i32s())}, add(SubExp::var(UseIndex ? I : Acc), i32(1)));
  return singleFun({}, {i32s()}, BB.finish({SubExp::var(U)}));
}

} // namespace

TEST(CheckGoldenTest, LoopParamsUsedAfterLoop) {
  NameSource NS;
  expectVerdicts(loopThenUse(NS, true), false,
                 "compile: in function main: "
                 "use of unbound variable i_1 in main",
                 "verify: after pass 'golden': in function 'main': "
                 "binding 'u_4': use of unbound name i_1");
  NameSource NS2;
  expectVerdicts(loopThenUse(NS2, false), false,
                 "compile: in function main: "
                 "use of unbound variable acc_0 in main",
                 "verify: after pass 'golden': in function 'main': "
                 "binding 'u_4': use of unbound name acc_0");
}

TEST(CheckGoldenTest, LambdaParamUsedAfterMap) {
  // let ys = map (\x -> x + 1) xs; let z = x + 1 in z
  NameSource NS;
  VName Xs = NS.fresh("xs"), X = NS.fresh("x"), Y = NS.fresh("y"),
        Ys = NS.fresh("ys"), Z = NS.fresh("z");
  Type ArrT = Type::array(ScalarKind::I32, {i32(4)});
  BodyBuilder LB(NS), BB(NS);
  LB.append({Param(Y, i32s())}, add(SubExp::var(X), i32(1)));
  Lambda Fn({Param(X, i32s())}, LB.finish({SubExp::var(Y)}), {i32s()});
  BB.append({Param(Ys, ArrT)},
            std::make_unique<MapExp>(i32(4), std::move(Fn),
                                     std::vector<VName>{Xs}));
  BB.append({Param(Z, i32s())}, add(SubExp::var(X), i32(1)));
  Program P = singleFun({Param(Xs, ArrT)}, {i32s()},
                        BB.finish({SubExp::var(Z)}));
  expectVerdicts(P, false,
                 "compile: in function main: "
                 "use of unbound variable x_1 in main",
                 "verify: after pass 'golden': in function 'main': "
                 "binding 'z_4': use of unbound name x_1");
}

TEST(CheckGoldenTest, KernelIndexUsedAfterKernel) {
  // let ys = kernel [4] (gtid -> let v = gtid + 1 in v); let z = gtid + 1
  NameSource NS;
  VName G = NS.fresh("gtid"), V = NS.fresh("v"), Ys = NS.fresh("ys"),
        Z = NS.fresh("z");
  Type ArrT = Type::array(ScalarKind::I32, {i32(4)});
  BodyBuilder KB(NS), BB(NS);
  KB.append({Param(V, i32s())}, add(SubExp::var(G), i32(1)));
  auto K = std::make_unique<KernelExp>();
  K->GridDims = {i32(4)};
  K->ThreadIndices = {G};
  K->ThreadBody = KB.finish({SubExp::var(V)});
  K->RetTypes = {ArrT};
  BB.append({Param(Ys, ArrT)}, std::move(K));
  BB.append({Param(Z, i32s())}, add(SubExp::var(G), i32(1)));
  Program P = singleFun({}, {i32s()}, BB.finish({SubExp::var(Z)}));
  expectVerdicts(P, true,
                 "compile: in function main: "
                 "use of unbound variable gtid_0 in main",
                 "verify: after pass 'golden': in function 'main': "
                 "binding 'z_3': use of unbound name gtid_0");
}

namespace {

enum class AfterIf { Reregister, UseBeforeReregister, BindExplicitly };

/// let r = if c then (let xs: [k]i32 = iota n in 0) else 0
/// followed, per \p Mode, by a use of the existential size k after its
/// scope closed: re-registered by a later pattern first, used bare, or
/// bound by name.
Program existentialSize(NameSource &NS, AfterIf Mode) {
  VName C = NS.fresh("c"), N = NS.fresh("n"), K = NS.fresh("k"),
        Xs = NS.fresh("xs"), R = NS.fresh("r"), Ys = NS.fresh("ys"),
        Z = NS.fresh("z");
  Type KArr = Type::array(ScalarKind::I32, {SubExp::var(K)});
  BodyBuilder TB(NS), EB(NS), BB(NS);
  TB.append({Param(Xs, KArr)}, std::make_unique<IotaExp>(SubExp::var(N)));
  BB.append({Param(R, i32s())},
            std::make_unique<IfExp>(SubExp::var(C), TB.finish({i32(0)}),
                                    EB.finish({i32(0)}),
                                    std::vector<Type>{i32s()}));
  switch (Mode) {
  case AfterIf::Reregister:
    BB.append({Param(Ys, KArr)}, std::make_unique<IotaExp>(SubExp::var(N)));
    BB.append({Param(Z, i32s())}, add(SubExp::var(K), SubExp::var(R)));
    break;
  case AfterIf::UseBeforeReregister:
    BB.append({Param(Z, i32s())}, add(SubExp::var(K), SubExp::var(R)));
    BB.append({Param(Ys, KArr)}, std::make_unique<IotaExp>(SubExp::var(N)));
    break;
  case AfterIf::BindExplicitly:
    BB.append({Param(K, i32s())}, subExpE(SubExp::var(N)));
    BB.append({Param(Z, i32s())}, add(SubExp::var(K), SubExp::var(R)));
    break;
  }
  return singleFun({Param(C, boolT()), Param(N, i32s())}, {i32s()},
                   BB.finish({SubExp::var(Z)}));
}

} // namespace

TEST(CheckGoldenTest, ExistentialSizeAfterItsScope) {
  NameSource NS1, NS2, NS3;
  expectVerdicts(existentialSize(NS1, AfterIf::Reregister), false,
                 "ok",
                 "ok");
  expectVerdicts(existentialSize(NS2, AfterIf::UseBeforeReregister), false,
                 "compile: in function main: "
                 "use of unbound variable k_2 in main",
                 "verify: after pass 'golden': in function 'main': "
                 "binding 'z_6': use of unbound name k_2");
  expectVerdicts(existentialSize(NS3, AfterIf::BindExplicitly), false,
                 "compile: in function main: name k_2 bound twice (main)",
                 "verify: after pass 'golden': in function 'main': "
                 "binding 'k_2': name k_2 bound twice");
}
