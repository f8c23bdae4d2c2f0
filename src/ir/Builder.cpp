//===- Builder.cpp - Convenient IR construction ----------------------------===//
//
// Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
//
//===----------------------------------------------------------------------===//

#include "ir/Builder.h"

using namespace fut;

std::vector<int> fut::identityPerm(int Rank) {
  std::vector<int> P(Rank);
  for (int I = 0; I < Rank; ++I)
    P[I] = I;
  return P;
}

std::vector<int> fut::composePerms(const std::vector<int> &A,
                                   const std::vector<int> &B) {
  assert(A.size() == B.size() && "permutation ranks differ");
  std::vector<int> Out(B.size());
  for (size_t I = 0; I < B.size(); ++I)
    Out[I] = A[B[I]];
  return Out;
}

std::vector<int> fut::inversePerm(const std::vector<int> &P) {
  std::vector<int> Out(P.size());
  for (size_t I = 0; I < P.size(); ++I)
    Out[P[I]] = static_cast<int>(I);
  return Out;
}

bool fut::isIdentityPerm(const std::vector<int> &P) {
  for (size_t I = 0; I < P.size(); ++I)
    if (P[I] != static_cast<int>(I))
      return false;
  return true;
}

bool fut::isPermutation(const std::vector<int> &P) {
  const size_t N = P.size();
  // Real ranks fit a bit mask; only corrupted input pays for a vector.
  uint64_t Mask = 0;
  std::vector<bool> Wide(N > 64 ? N : 0, false);
  for (int X : P) {
    if (X < 0 || static_cast<size_t>(X) >= N)
      return false;
    if (N <= 64) {
      if (Mask >> X & 1)
        return false;
      Mask |= uint64_t(1) << X;
    } else {
      if (Wide[X])
        return false;
      Wide[X] = true;
    }
  }
  return true;
}

Lambda fut::binOpLambda(BinOp Op, ScalarKind K, NameSource &Names) {
  VName X = Names.fresh("x");
  VName Y = Names.fresh("y");
  BodyBuilder BB(Names);
  SubExp R = BB.binOp(Op, SubExp::var(X), SubExp::var(Y), K);
  Type ST = Type::scalar(K);
  return Lambda({Param(X, ST), Param(Y, ST)}, BB.finish({R}),
                {Type::scalar(binOpResultKind(Op, K))});
}

Lambda fut::vectorisedBinOpLambda(BinOp Op, ScalarKind K, Dim D,
                                  NameSource &Names) {
  VName Xs = Names.fresh("xs");
  VName Ys = Names.fresh("ys");
  Type ArrT = Type::array(K, {D});
  BodyBuilder BB(Names);
  Lambda Inner = binOpLambda(Op, K, Names);
  VName R = BB.bind("r", ArrT,
                    std::make_unique<MapExp>(D, std::move(Inner),
                                             std::vector<VName>{Xs, Ys}));
  return Lambda({Param(Xs, ArrT), Param(Ys, ArrT)},
                BB.finish({SubExp::var(R)}), {ArrT});
}
