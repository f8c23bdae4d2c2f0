//===- Builder.h - Convenient IR construction -------------------*- C++ -*-===//
//
// Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small helper for building ANF bodies: allocates fresh names from a
/// NameSource and accumulates bindings.  Used by the desugarer, the
/// compiler passes, tests, and the hand-written reference implementations.
///
//===----------------------------------------------------------------------===//

#ifndef FUTHARKCC_IR_BUILDER_H
#define FUTHARKCC_IR_BUILDER_H

#include "ir/IR.h"

namespace fut {

class BodyBuilder {
  NameSource &Names;
  std::vector<Stm> Stms;

public:
  explicit BodyBuilder(NameSource &Names) : Names(Names) {}

  NameSource &nameSource() { return Names; }

  /// Appends an already-formed binding.
  void append(Stm S) { Stms.push_back(std::move(S)); }
  void append(std::vector<Param> Pat, ExpPtr E) {
    Stms.emplace_back(std::move(Pat), std::move(E));
  }

  /// Binds \p E to a single fresh name of type \p Ty.
  VName bind(const std::string &Base, Type Ty, ExpPtr E) {
    VName N = Names.fresh(Base);
    append({Param(N, std::move(Ty))}, std::move(E));
    return N;
  }

  /// Binds \p E to several fresh names of the given types.
  std::vector<VName> bindMulti(const std::string &Base,
                               const std::vector<Type> &Tys, ExpPtr E) {
    std::vector<Param> Pat;
    std::vector<VName> Out;
    Pat.reserve(Tys.size());
    for (const Type &T : Tys) {
      VName N = Names.fresh(Base);
      Out.push_back(N);
      Pat.emplace_back(N, T);
    }
    append(std::move(Pat), std::move(E));
    return Out;
  }

  /// let x = a `op` b, returning x.
  SubExp binOp(BinOp Op, SubExp A, SubExp B, ScalarKind OperandKind,
               const std::string &Base = "t") {
    Type Ty = Type::scalar(binOpResultKind(Op, OperandKind));
    return SubExp::var(
        bind(Base, Ty, std::make_unique<BinOpExp>(Op, std::move(A),
                                                  std::move(B))));
  }

  SubExp unOp(UnOp Op, SubExp A, ScalarKind OperandKind,
              const std::string &Base = "t") {
    Type Ty = Type::scalar(unOpResultKind(Op, OperandKind));
    return SubExp::var(
        bind(Base, Ty, std::make_unique<UnOpExp>(Op, std::move(A))));
  }

  SubExp convOp(ScalarKind From, ScalarKind To, SubExp A,
                const std::string &Base = "t") {
    return SubExp::var(bind(Base, Type::scalar(To),
                            std::make_unique<ConvOpExp>(ConvOp{From, To},
                                                        std::move(A))));
  }

  /// let x = a[indices], returning x (a scalar of kind \p ElemKind when the
  /// index is full).
  SubExp index(const VName &Arr, std::vector<SubExp> Indices, Type ResultTy,
               const std::string &Base = "x") {
    return SubExp::var(bind(Base, std::move(ResultTy),
                            std::make_unique<IndexExp>(Arr,
                                                       std::move(Indices))));
  }

  size_t numStms() const { return Stms.size(); }

  /// Finalises the body with the given result operands.
  Body finish(std::vector<SubExp> Result) {
    return Body(std::move(Stms), std::move(Result));
  }
};

/// Shorthand constructors for common operand forms.
inline SubExp i32(int32_t V) { return SubExp::constant(PrimValue::makeI32(V)); }
inline SubExp i64c(int64_t V) {
  return SubExp::constant(PrimValue::makeI64(V));
}
inline SubExp f32c(float V) { return SubExp::constant(PrimValue::makeF32(V)); }
inline SubExp f64c(double V) {
  return SubExp::constant(PrimValue::makeF64(V));
}
inline SubExp boolc(bool V) {
  return SubExp::constant(PrimValue::makeBool(V));
}
inline ExpPtr subExpE(SubExp S) {
  return std::make_unique<SubExpExp>(std::move(S));
}
inline ExpPtr varE(const VName &N) {
  return std::make_unique<SubExpExp>(SubExp::var(N));
}

/// The identity permutation of the given rank.
std::vector<int> identityPerm(int Rank);
/// Composition: result[i] = A[B[i]].
std::vector<int> composePerms(const std::vector<int> &A,
                              const std::vector<int> &B);
/// Inverse permutation.
std::vector<int> inversePerm(const std::vector<int> &P);
/// True if P is the identity.
bool isIdentityPerm(const std::vector<int> &P);
/// True if P holds each of 0..P.size()-1 exactly once.
bool isPermutation(const std::vector<int> &P);

/// Builds a binary-operator lambda (\x y -> x op y) on scalars of kind K,
/// e.g. for reduce (+) — the workhorse of tests and desugaring.
Lambda binOpLambda(BinOp Op, ScalarKind K, NameSource &Names);

/// Builds a lambda that applies \p Op component-wise on arrays of type
/// [D]K, i.e. the paper's vectorised operator map(op) used by K-means.
Lambda vectorisedBinOpLambda(BinOp Op, ScalarKind K, Dim D,
                             NameSource &Names);

} // namespace fut

#endif // FUTHARKCC_IR_BUILDER_H
