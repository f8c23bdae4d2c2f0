//===- Verify.cpp - Type-rederiving IR verifier ---------------------------===//
//
// Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
//
//===----------------------------------------------------------------------===//

#include "check/Verify.h"

#include "check/Scope.h"
#include "ir/Builder.h"
#include "ir/Traversal.h"

#include <algorithm>
#include <span>

using namespace fut;

namespace {

/// A dimension whose value the verifier cannot re-derive (existential
/// sizes, concat sums over symbolic operands).  Any symbolic dimension is
/// treated as a wildcard by dimsAgree, so one shared sentinel suffices.
Dim unknownDim() { return SubExp::var(VName("?", -2)); }

/// Two dimensions agree unless both are constants with different values;
/// symbolic dimensions are wildcards (passes rename and substitute them
/// freely, so name identity is not an invariant).
bool dimsAgree(const Dim &A, const Dim &B) {
  if (A.isConst() && B.isConst())
    return A.getConst().asInt64() == B.getConst().asInt64();
  return true;
}

/// Element kind and rank exactly, constant dimensions exactly; uniqueness
/// is ignored.
bool typesAgree(const Type &A, const Type &B) {
  if (A.elemKind() != B.elemKind() || A.rank() != B.rank())
    return false;
  for (int I = 0; I < A.rank(); ++I)
    if (!dimsAgree(A.shape()[I], B.shape()[I]))
      return false;
  return true;
}

bool allAgree(std::span<const Type> A, std::span<const Type> B) {
  if (A.size() != B.size())
    return false;
  for (size_t I = 0; I < A.size(); ++I)
    if (!typesAgree(A[I], B[I]))
      return false;
  return true;
}

std::string typeListStr(std::span<const Type> Ts) {
  std::string S = "(";
  for (size_t I = 0; I < Ts.size(); ++I)
    S += (I ? ", " : "") + Ts[I].str();
  return S + ")";
}

class Verifier {
  const Program &Prog;
  const VerifyOptions &Opts;
  const std::string &Pass;
  const std::string *FunName = nullptr;

  ScopeTable Scope;
  /// The types derived for expressions and bodies, innermost last: checkExp
  /// and checkBody push the types of the values they produce, and whoever
  /// consumes them truncates the stack again.  Reading a span of it is safe
  /// until the next push.
  std::vector<Type> Results;
  /// > 0 while inside a kernel thread body (kernels must not nest).
  int KernelDepth = 0;

public:
  Verifier(const Program &Prog, const VerifyOptions &Opts,
           const std::string &Pass)
      : Prog(Prog), Opts(Opts), Pass(Pass) {}

  MaybeError verifyFunDef(const FunDef &F) {
    FunName = &F.Name;
    Scope.clear();
    Results.clear();
    KernelDepth = 0;
    for (const Param &P : F.Params)
      if (auto Err = bind(P.Name, P.Ty, DiagContext("parameter ", P.Name)))
        return Err;
    DiagContext Where("result of ", F.Name);
    if (auto Err = checkBody(F.FBody, Where))
      return Err;
    std::span<const Type> RTs = resultsFrom(0);
    if (RTs.size() != F.RetTypes.size())
      return err(Where, "returns " + std::to_string(RTs.size()) +
                            " values but declares " +
                            std::to_string(F.RetTypes.size()));
    for (size_t I = 0; I < RTs.size(); ++I)
      if (!typesAgree(RTs[I], F.RetTypes[I]))
        return err(Where, "result " + std::to_string(I) + " has type " +
                              RTs[I].str() + " but the function declares " +
                              F.RetTypes[I].str());
    return MaybeError::success();
  }

private:
  CompilerError err(const DiagContext &Where, const std::string &Msg) {
    return CompilerError(ErrorKind::Verify,
                         "after pass '" + Pass + "': in function '" +
                             *FunName + "': " + Where.str() + ": " + Msg);
  }

  std::span<const Type> resultsFrom(size_t Base) const {
    return {Results.data() + Base, Results.size() - Base};
  }

  MaybeError bind(const VName &N, const Type &T, const DiagContext &Where) {
    if (Scope.everBound(N))
      return err(Where, "name " + N.str() + " bound twice");
    // Symbolic dimensions must be in scope or are registered as fresh
    // existential sizes at their first appearance.
    for (const Dim &D : T.shape())
      if (D.isVar() && !Scope.lookup(D.getVar()))
        Scope.bind(D.getVar(), ScopeTable::i32());
    Scope.bind(N, T);
    return MaybeError::success();
  }

  ErrorOr<const Type *> typeOfSub(const SubExp &S, const DiagContext &Where) {
    if (S.isConst())
      return &staticScalarType(S.getConst().kind());
    if (const Type *T = Scope.lookup(S.getVar()))
      return T;
    return err(Where, "use of unbound name " + S.getVar().str());
  }

  /// Demands an integer scalar; \p What (followed by \p Index unless it is
  /// negative) names the operand in the diagnostic.
  MaybeError wantIntScalar(const SubExp &S, const char *What,
                           const DiagContext &Where, int Index = -1) {
    auto T = typeOfSub(S, Where);
    if (!T)
      return T.getError();
    if (!(*T)->isScalar() || !isIntKind((*T)->elemKind()))
      return err(Where, What +
                            (Index >= 0 ? std::to_string(Index)
                                        : std::string()) +
                            " has type " + (*T)->str() +
                            "; expected an integer scalar");
    return MaybeError::success();
  }

  ErrorOr<const Type *> arrayType(const VName &V, const DiagContext &Where) {
    const Type *T = Scope.lookup(V);
    if (!T)
      return err(Where, "use of unbound name " + V.str());
    if (!T->isArray())
      return err(Where, V.str() + " used as an array but has scalar type " +
                            T->str());
    return T;
  }

  /// Statically checks a constant index against a constant dimension.
  MaybeError boundsCheck(const SubExp &Idx, const Dim &D,
                         const DiagContext &Where) {
    if (!Idx.isConst())
      return MaybeError::success();
    int64_t I = Idx.getConst().asInt64();
    if (I < 0)
      return err(Where, "constant index " + std::to_string(I) +
                            " is negative");
    if (D.isConst() && I >= D.getConst().asInt64())
      return err(Where, "constant index " + std::to_string(I) +
                            " out of bounds for dimension of size " +
                            D.getConst().str());
    return MaybeError::success();
  }

  /// Verifies a lambda: binds parameters, verifies the body, and demands
  /// the derived result types agree with the declared return types.
  /// \p ArgTypes, when non-null, are the types the call site feeds the
  /// parameters (checked element-kind/rank/const-dim compatible).
  MaybeError checkLambda(const Lambda &L, const std::vector<Type> *ArgTypes,
                         const DiagContext &Where) {
    if (ArgTypes && L.Params.size() != ArgTypes->size())
      return err(Where, "lambda takes " + std::to_string(L.Params.size()) +
                            " parameters but is applied to " +
                            std::to_string(ArgTypes->size()) + " values");
    size_t Mark = Scope.mark();
    for (size_t I = 0; I < L.Params.size(); ++I) {
      if (ArgTypes && !typesAgree(L.Params[I].Ty, (*ArgTypes)[I]))
        return err(Where, "lambda parameter " + L.Params[I].Name.str() +
                              " has type " + L.Params[I].Ty.str() +
                              " but is applied to a value of type " +
                              (*ArgTypes)[I].str());
      if (auto Err = bind(L.Params[I].Name, L.Params[I].Ty, Where))
        return Err;
    }
    size_t Base = Results.size();
    if (auto Err = checkBody(L.B, Where))
      return Err;
    Scope.popTo(Mark);
    std::span<const Type> RTs = resultsFrom(Base);
    if (!allAgree(RTs, L.RetTypes))
      return err(Where, "lambda body produces " + typeListStr(RTs) +
                            " but declares " + typeListStr(L.RetTypes));
    Results.resize(Base);
    return MaybeError::success();
  }

  //===-- Expression type derivation --------------------------------------===//

  /// Derives the types of the values \p E produces and pushes them onto
  /// Results.
  MaybeError checkExp(const Exp &E, const DiagContext &Where) {
    // Every free operand must be in scope, whatever the construct.
    MaybeError OperandErr;
    auto UseName = [&](const VName &V) {
      if (!OperandErr && !Scope.lookup(V))
        OperandErr = err(Where, "use of unbound name " + V.str());
    };
    forEachOperand(
        E,
        [&](const SubExp &S) {
          if (S.isVar())
            UseName(S.getVar());
        },
        UseName);
    if (OperandErr)
      return OperandErr;

    if (Opts.Flattened && KernelDepth == 0 && !Opts.AllowHostSOACs &&
        E.isSOAC())
      return err(Where, std::string("host-level ") + expKindName(E.kind()) +
                            " after flattening (nested parallelism must "
                            "have been extracted into kernels)");

    switch (E.kind()) {
    case ExpKind::SubExpE: {
      auto T = typeOfSub(expCast<SubExpExp>(&E)->Val, Where);
      if (!T)
        return T.getError();
      Results.push_back(**T);
      return MaybeError::success();
    }

    case ExpKind::BinOpE: {
      const auto *X = expCast<BinOpExp>(&E);
      auto TA = typeOfSub(X->A, Where);
      if (!TA)
        return TA.getError();
      auto TB = typeOfSub(X->B, Where);
      if (!TB)
        return TB.getError();
      const Type &A = **TA, &B = **TB;
      if (!A.isScalar() || !B.isScalar())
        return err(Where, std::string("operator ") + binOpName(X->Op) +
                              " applied to non-scalar operands " + A.str() +
                              ", " + B.str());
      if (A.elemKind() != B.elemKind())
        return err(Where, std::string("operator ") + binOpName(X->Op) +
                              " applied to mismatched kinds " + A.str() +
                              " and " + B.str());
      if (!binOpDefinedOn(X->Op, A.elemKind()))
        return err(Where, std::string("operator ") + binOpName(X->Op) +
                              " undefined on " +
                              scalarKindName(A.elemKind()));
      Results.push_back(Type::scalar(binOpResultKind(X->Op, A.elemKind())));
      return MaybeError::success();
    }

    case ExpKind::UnOpE: {
      const auto *X = expCast<UnOpExp>(&E);
      auto TA = typeOfSub(X->A, Where);
      if (!TA)
        return TA.getError();
      const Type &A = **TA;
      if (!A.isScalar())
        return err(Where, std::string("operator ") + unOpName(X->Op) +
                              " applied to non-scalar operand " + A.str());
      if (!unOpDefinedOn(X->Op, A.elemKind()))
        return err(Where, std::string("operator ") + unOpName(X->Op) +
                              " undefined on " +
                              scalarKindName(A.elemKind()));
      Results.push_back(Type::scalar(unOpResultKind(X->Op, A.elemKind())));
      return MaybeError::success();
    }

    case ExpKind::ConvOpE: {
      const auto *X = expCast<ConvOpExp>(&E);
      auto TA = typeOfSub(X->A, Where);
      if (!TA)
        return TA.getError();
      if (!(*TA)->isScalar() || (*TA)->elemKind() != X->Op.From)
        return err(Where, std::string("conversion from ") +
                              scalarKindName(X->Op.From) +
                              " applied to operand of type " + (*TA)->str());
      Results.push_back(Type::scalar(X->Op.To));
      return MaybeError::success();
    }

    case ExpKind::If: {
      const auto *X = expCast<IfExp>(&E);
      auto TC = typeOfSub(X->Cond, Where);
      if (!TC)
        return TC.getError();
      if (!(*TC)->isScalar() || (*TC)->elemKind() != ScalarKind::Bool)
        return err(Where, "if condition has type " + (*TC)->str() +
                              "; expected bool");
      size_t Mark = Scope.mark();
      size_t Base = Results.size();
      if (auto Err = checkBody(X->Then, DiagContext(Where, " (then)")))
        return Err;
      size_t ElseBase = Results.size();
      Scope.popTo(Mark);
      if (auto Err = checkBody(X->Else, DiagContext(Where, " (else)")))
        return Err;
      Scope.popTo(Mark);
      std::span<const Type> TT(Results.data() + Base, ElseBase - Base);
      std::span<const Type> TE = resultsFrom(ElseBase);
      if (!allAgree(TT, X->RetTypes))
        return err(Where, "then-branch produces " + typeListStr(TT) +
                              " but the if declares " +
                              typeListStr(X->RetTypes));
      if (!allAgree(TE, X->RetTypes))
        return err(Where, "else-branch produces " + typeListStr(TE) +
                              " but the if declares " +
                              typeListStr(X->RetTypes));
      Results.resize(Base);
      Results.insert(Results.end(), X->RetTypes.begin(), X->RetTypes.end());
      return MaybeError::success();
    }

    case ExpKind::Index: {
      const auto *X = expCast<IndexExp>(&E);
      auto TA = arrayType(X->Arr, Where);
      if (!TA)
        return TA.getError();
      const Type &A = **TA;
      if (static_cast<int>(X->Indices.size()) > A.rank())
        return err(Where, "indexing " + X->Arr.str() + " of rank " +
                              std::to_string(A.rank()) + " with " +
                              std::to_string(X->Indices.size()) +
                              " indices");
      for (size_t I = 0; I < X->Indices.size(); ++I) {
        if (auto Err = wantIntScalar(X->Indices[I], "index ", Where,
                                     static_cast<int>(I)))
          return Err;
        if (auto Err = boundsCheck(X->Indices[I], A.shape()[I], Where))
          return Err;
      }
      Results.push_back(A.peel(static_cast<int>(X->Indices.size())));
      return MaybeError::success();
    }

    case ExpKind::Apply: {
      const auto *X = expCast<ApplyExp>(&E);
      const FunDef *Callee = Prog.findFun(X->Func);
      if (!Callee)
        return err(Where, "call of unknown function " + X->Func);
      if (X->Args.size() != Callee->Params.size())
        return err(Where, "call of " + X->Func + " with " +
                              std::to_string(X->Args.size()) +
                              " arguments; expected " +
                              std::to_string(Callee->Params.size()));
      for (size_t I = 0; I < X->Args.size(); ++I) {
        auto TA = typeOfSub(X->Args[I], Where);
        if (!TA)
          return TA.getError();
        if (!typesAgree(**TA, Callee->Params[I].Ty))
          return err(Where, "argument " + std::to_string(I) + " of " +
                                X->Func + " has type " + (*TA)->str() +
                                "; expected " + Callee->Params[I].Ty.str());
      }
      // Callee return shapes may reference callee-local names; export
      // their ranks and element kinds with wildcard dimensions.
      for (const Type &T : Callee->RetTypes)
        Results.push_back(
            Type(T.elemKind(), std::vector<Dim>(T.rank(), unknownDim())));
      return MaybeError::success();
    }

    case ExpKind::Loop: {
      const auto *X = expCast<LoopExp>(&E);
      if (X->MergeInit.size() != X->MergeParams.size())
        return err(Where, "loop has " + std::to_string(X->MergeInit.size()) +
                              " initial merge values for " +
                              std::to_string(X->MergeParams.size()) +
                              " merge parameters");
      if (auto Err = wantIntScalar(X->Bound, "loop bound", Where))
        return Err;
      for (size_t I = 0; I < X->MergeInit.size(); ++I) {
        auto TI = typeOfSub(X->MergeInit[I], Where);
        if (!TI)
          return TI.getError();
        if (!typesAgree(**TI, X->MergeParams[I].Ty))
          return err(Where, "loop merge parameter " +
                                X->MergeParams[I].Name.str() +
                                " has type " + X->MergeParams[I].Ty.str() +
                                " but is initialised with a value of type " +
                                (*TI)->str());
      }
      size_t Mark = Scope.mark();
      if (auto Err = bind(X->IndexVar, ScopeTable::i32(), Where))
        return Err;
      for (const Param &P : X->MergeParams)
        if (auto Err = bind(P.Name, P.Ty, Where))
          return Err;
      size_t Base = Results.size();
      if (auto Err = checkBody(X->LoopBody, DiagContext(Where, " (loop body)")))
        return Err;
      Scope.popTo(Mark);
      std::span<const Type> TB = resultsFrom(Base);
      bool Agree = TB.size() == X->MergeParams.size();
      for (size_t I = 0; Agree && I < TB.size(); ++I)
        Agree = typesAgree(TB[I], X->MergeParams[I].Ty);
      if (!Agree) {
        std::vector<Type> MergeTys;
        for (const Param &P : X->MergeParams)
          MergeTys.push_back(P.Ty.asNonUnique());
        return err(Where, "loop body produces " + typeListStr(TB) +
                              " but the merge parameters have types " +
                              typeListStr(MergeTys));
      }
      Results.resize(Base);
      for (const Param &P : X->MergeParams)
        Results.push_back(P.Ty.asNonUnique());
      return MaybeError::success();
    }

    case ExpKind::Update: {
      const auto *X = expCast<UpdateExp>(&E);
      auto TA = arrayType(X->Arr, Where);
      if (!TA)
        return TA.getError();
      const Type &A = **TA;
      if (static_cast<int>(X->Indices.size()) > A.rank())
        return err(Where, "in-place update of " + X->Arr.str() +
                              " of rank " + std::to_string(A.rank()) +
                              " with " + std::to_string(X->Indices.size()) +
                              " indices");
      for (size_t I = 0; I < X->Indices.size(); ++I) {
        if (auto Err = wantIntScalar(X->Indices[I], "index ", Where,
                                     static_cast<int>(I)))
          return Err;
        if (auto Err = boundsCheck(X->Indices[I], A.shape()[I], Where))
          return Err;
      }
      auto TV = typeOfSub(X->Value, Where);
      if (!TV)
        return TV.getError();
      Type Want = A.peel(static_cast<int>(X->Indices.size()));
      if (!typesAgree(**TV, Want))
        return err(Where, "in-place update writes a value of type " +
                              (*TV)->str() + " into an element slot of type " +
                              Want.str());
      Results.push_back(A.asNonUnique());
      return MaybeError::success();
    }

    case ExpKind::Iota: {
      const auto *X = expCast<IotaExp>(&E);
      if (auto Err = wantIntScalar(X->N, "iota length", Where))
        return Err;
      if (!isIntKind(X->Elem))
        return err(Where, "iota of non-integer element kind");
      Results.push_back(Type::array(X->Elem, {X->N}));
      return MaybeError::success();
    }

    case ExpKind::Replicate: {
      const auto *X = expCast<ReplicateExp>(&E);
      if (auto Err = wantIntScalar(X->N, "replicate count", Where))
        return Err;
      auto TV = typeOfSub(X->Val, Where);
      if (!TV)
        return TV.getError();
      if (!typesAgree(**TV, X->ValType))
        return err(Where, "replicate declares element type " +
                              X->ValType.str() +
                              " but replicates a value of type " +
                              (*TV)->str());
      Results.push_back(X->ValType.arrayOf(X->N));
      return MaybeError::success();
    }

    case ExpKind::Rearrange: {
      const auto *X = expCast<RearrangeExp>(&E);
      auto TA = arrayType(X->Arr, Where);
      if (!TA)
        return TA.getError();
      const Type &A = **TA;
      if (static_cast<int>(X->Perm.size()) != A.rank())
        return err(Where, "rearrange permutation of size " +
                              std::to_string(X->Perm.size()) +
                              " applied to " + X->Arr.str() + " of rank " +
                              std::to_string(A.rank()));
      if (!isPermutation(X->Perm))
        return err(Where, "invalid rearrange permutation");
      std::vector<Dim> Shape;
      for (int P : X->Perm)
        Shape.push_back(A.shape()[P]);
      Results.push_back(Type(A.elemKind(), std::move(Shape)));
      return MaybeError::success();
    }

    case ExpKind::Reshape: {
      const auto *X = expCast<ReshapeExp>(&E);
      auto TA = arrayType(X->Arr, Where);
      if (!TA)
        return TA.getError();
      if (X->NewShape.empty())
        return err(Where, "reshape to rank 0");
      for (const SubExp &D : X->NewShape)
        if (auto Err = wantIntScalar(D, "reshape dimension", Where))
          return Err;
      Results.push_back(Type((*TA)->elemKind(), X->NewShape));
      return MaybeError::success();
    }

    case ExpKind::Concat: {
      const auto *X = expCast<ConcatExp>(&E);
      if (X->Arrays.empty())
        return err(Where, "concat of zero arrays");
      std::vector<const Type *> Ts;
      for (const VName &A : X->Arrays) {
        auto TA = arrayType(A, Where);
        if (!TA)
          return TA.getError();
        Ts.push_back(*TA);
      }
      const Type &First = *Ts[0];
      int64_t OuterSum = 0;
      bool OuterKnown = true;
      for (const Type *T : Ts) {
        if (T->elemKind() != First.elemKind() || T->rank() != First.rank())
          return err(Where, "concat of arrays with mismatched types " +
                                First.str() + " and " + T->str());
        for (int I = 1; I < T->rank(); ++I)
          if (!dimsAgree(T->shape()[I], First.shape()[I]))
            return err(Where, "concat of arrays with mismatched inner "
                              "dimensions " +
                                  First.str() + " and " + T->str());
        if (T->outerDim().isConst())
          OuterSum += T->outerDim().getConst().asInt64();
        else
          OuterKnown = false;
      }
      std::vector<Dim> Shape = First.shape();
      Shape[0] = OuterKnown
                     ? SubExp::constant(PrimValue::makeI64(OuterSum))
                     : unknownDim();
      Results.push_back(Type(First.elemKind(), std::move(Shape)));
      return MaybeError::success();
    }

    case ExpKind::Copy: {
      auto TA = arrayType(expCast<CopyExp>(&E)->Arr, Where);
      if (!TA)
        return TA.getError();
      Results.push_back((*TA)->asNonUnique());
      return MaybeError::success();
    }

    case ExpKind::Slice: {
      const auto *X = expCast<SliceExp>(&E);
      auto TA = arrayType(X->Arr, Where);
      if (!TA)
        return TA.getError();
      const Type &A = **TA;
      if (auto Err = wantIntScalar(X->Offset, "slice offset", Where))
        return Err;
      if (auto Err = wantIntScalar(X->Len, "slice length", Where))
        return Err;
      if (auto Err = wantIntScalar(X->Stride, "slice stride", Where))
        return Err;
      // Static bounds: the last touched row must exist.
      if (X->Offset.isConst() && X->Len.isConst() && X->Stride.isConst() &&
          A.outerDim().isConst()) {
        int64_t Off = X->Offset.getConst().asInt64();
        int64_t Len = X->Len.getConst().asInt64();
        int64_t Str = X->Stride.getConst().asInt64();
        int64_t N = A.outerDim().getConst().asInt64();
        int64_t Last = Off + (Len > 0 ? (Len - 1) * Str : 0);
        if (Len < 0 || Off < 0 || (Len > 0 && (Last < 0 || Last >= N)))
          return err(Where, "slice [" + std::to_string(Off) + "; " +
                                std::to_string(Len) + "; stride " +
                                std::to_string(Str) +
                                "] out of bounds for outer dimension " +
                                std::to_string(N));
      }
      std::vector<Dim> Shape = A.shape();
      Shape[0] = X->Len;
      Results.push_back(Type(A.elemKind(), std::move(Shape)));
      return MaybeError::success();
    }

    case ExpKind::Map: {
      const auto *X = expCast<MapExp>(&E);
      if (auto Err = wantIntScalar(X->Width, "map width", Where))
        return Err;
      std::vector<Type> RowTys;
      for (const VName &A : X->Arrays) {
        auto TA = arrayType(A, Where);
        if (!TA)
          return TA.getError();
        if (!dimsAgree((*TA)->outerDim(), X->Width))
          return err(Where, "map of width " + X->Width.str() +
                                " over " + A.str() + " of outer size " +
                                (*TA)->outerDim().str());
        RowTys.push_back((*TA)->rowType());
      }
      if (auto Err =
              checkLambda(X->Fn, &RowTys, DiagContext(Where, " (map fn)")))
        return Err;
      for (const Type &T : X->Fn.RetTypes)
        Results.push_back(T.arrayOf(X->Width));
      return MaybeError::success();
    }

    case ExpKind::Reduce:
    case ExpKind::Scan: {
      bool IsScan = E.kind() == ExpKind::Scan;
      const SubExp &Width = IsScan ? expCast<ScanExp>(&E)->Width
                                   : expCast<ReduceExp>(&E)->Width;
      const Lambda &Fn =
          IsScan ? expCast<ScanExp>(&E)->Fn : expCast<ReduceExp>(&E)->Fn;
      const std::vector<SubExp> &Neutral = IsScan
                                               ? expCast<ScanExp>(&E)->Neutral
                                               : expCast<ReduceExp>(&E)->Neutral;
      const std::vector<VName> &Arrays = IsScan
                                             ? expCast<ScanExp>(&E)->Arrays
                                             : expCast<ReduceExp>(&E)->Arrays;
      const char *What = IsScan ? "scan" : "reduce";
      if (auto Err = wantIntScalar(Width, IsScan ? "scan width"
                                                 : "reduce width",
                                   Where))
        return Err;
      if (Neutral.size() != Arrays.size())
        return err(Where, std::string(What) + " with " +
                              std::to_string(Neutral.size()) +
                              " neutral elements over " +
                              std::to_string(Arrays.size()) + " arrays");
      // Operator: (acc..., elem...) -> acc..., all of the element types.
      // The element types are the first half of its arguments.
      std::vector<Type> OpArgs;
      OpArgs.reserve(2 * Arrays.size());
      for (const VName &A : Arrays) {
        auto TA = arrayType(A, Where);
        if (!TA)
          return TA.getError();
        if (!dimsAgree((*TA)->outerDim(), Width))
          return err(Where, std::string(What) + " of width " + Width.str() +
                                " over " + A.str() + " of outer size " +
                                (*TA)->outerDim().str());
        OpArgs.push_back((*TA)->rowType());
      }
      std::span<const Type> ElemTys(OpArgs.data(), Arrays.size());
      for (size_t I = 0; I < Neutral.size(); ++I) {
        auto TN = typeOfSub(Neutral[I], Where);
        if (!TN)
          return TN.getError();
        if (!typesAgree(**TN, ElemTys[I]))
          return err(Where, std::string(What) + " neutral element " +
                                std::to_string(I) + " has type " +
                                (*TN)->str() + " but the elements have type " +
                                ElemTys[I].str());
      }
      for (size_t I = 0; I < Arrays.size(); ++I)
        OpArgs.push_back(OpArgs[I]);
      if (auto Err = checkLambda(Fn, &OpArgs,
                                 DiagContext(Where, IsScan ? " (scan op)"
                                                           : " (reduce op)")))
        return Err;
      if (!allAgree(Fn.RetTypes, ElemTys))
        return err(Where, std::string(What) + " operator returns " +
                              typeListStr(Fn.RetTypes) +
                              " but the elements have types " +
                              typeListStr(ElemTys));
      for (const Type &T : ElemTys)
        Results.push_back(IsScan ? T.arrayOf(Width) : T);
      return MaybeError::success();
    }

    case ExpKind::Stream: {
      const auto *X = expCast<StreamExp>(&E);
      if (auto Err = wantIntScalar(X->Width, "stream width", Where))
        return Err;
      if (static_cast<int>(X->AccInit.size()) != X->NumAccs)
        return err(Where, "stream with " +
                              std::to_string(X->AccInit.size()) +
                              " initial accumulators but NumAccs = " +
                              std::to_string(X->NumAccs));
      std::vector<Type> AccTys;
      for (const SubExp &A : X->AccInit) {
        auto TA = typeOfSub(A, Where);
        if (!TA)
          return TA.getError();
        AccTys.push_back((*TA)->asNonUnique());
      }
      std::vector<const Type *> InTys;
      for (const VName &A : X->Arrays) {
        auto TA = arrayType(A, Where);
        if (!TA)
          return TA.getError();
        if (!dimsAgree((*TA)->outerDim(), X->Width))
          return err(Where, "stream of width " + X->Width.str() + " over " +
                                A.str() + " of outer size " +
                                (*TA)->outerDim().str());
        InTys.push_back(*TA);
      }
      // Fold convention: chunk size, accumulators, chunk arrays (whose
      // outer dimension is the chunk size, unknowable here).
      if (X->FoldFn.Params.size() != 1 + AccTys.size() + InTys.size())
        return err(Where, "stream fold takes " +
                              std::to_string(X->FoldFn.Params.size()) +
                              " parameters; expected " +
                              std::to_string(1 + AccTys.size() +
                                             InTys.size()));
      std::vector<Type> FoldArgs;
      {
        const Type &ChunkTy = X->FoldFn.Params[0].Ty;
        if (!ChunkTy.isScalar() || !isIntKind(ChunkTy.elemKind()))
          return err(Where, "stream fold's first parameter has type " +
                                ChunkTy.str() +
                                "; expected the integer chunk size");
        FoldArgs.push_back(ChunkTy);
      }
      FoldArgs.insert(FoldArgs.end(), AccTys.begin(), AccTys.end());
      for (const Type *T : InTys) {
        std::vector<Dim> Shape = T->shape();
        Shape[0] = unknownDim();
        FoldArgs.push_back(Type(T->elemKind(), std::move(Shape)));
      }
      if (auto Err = checkLambda(X->FoldFn, &FoldArgs,
                                 DiagContext(Where, " (stream fold)")))
        return Err;
      if (static_cast<int>(X->FoldFn.RetTypes.size()) < X->NumAccs)
        return err(Where, "stream fold returns " +
                              std::to_string(X->FoldFn.RetTypes.size()) +
                              " values; expected at least NumAccs = " +
                              std::to_string(X->NumAccs));
      for (int I = 0; I < X->NumAccs; ++I)
        if (!typesAgree(X->FoldFn.RetTypes[I], AccTys[I]))
          return err(Where, "stream fold accumulator result " +
                                std::to_string(I) + " has type " +
                                X->FoldFn.RetTypes[I].str() +
                                " but the accumulator has type " +
                                AccTys[I].str());
      if (X->Form == StreamExp::FormKind::Red) {
        std::vector<Type> RedArgs = AccTys;
        RedArgs.insert(RedArgs.end(), AccTys.begin(), AccTys.end());
        if (auto Err = checkLambda(X->ReduceFn, &RedArgs,
                                   DiagContext(Where, " (stream_red op)")))
          return Err;
        if (!allAgree(X->ReduceFn.RetTypes, AccTys))
          return err(Where, "stream_red operator returns " +
                                typeListStr(X->ReduceFn.RetTypes) +
                                " but the accumulators have types " +
                                typeListStr(AccTys));
      }
      Results.insert(Results.end(), AccTys.begin(), AccTys.end());
      for (size_t I = X->NumAccs; I < X->FoldFn.RetTypes.size(); ++I) {
        const Type &T = X->FoldFn.RetTypes[I];
        if (!T.isArray())
          return err(Where, "stream fold's mapped result " +
                                std::to_string(I) + " has scalar type " +
                                T.str() +
                                "; per-chunk results must be arrays");
        std::vector<Dim> Shape = T.shape();
        Shape[0] = X->Width;
        Results.push_back(Type(T.elemKind(), std::move(Shape)));
      }
      return MaybeError::success();
    }

    case ExpKind::ReduceByIndex: {
      const auto *X = expCast<ReduceByIndexExp>(&E);
      if (auto Err = wantIntScalar(X->Width, "reduce_by_index width", Where))
        return Err;
      auto TD = arrayType(X->Dest, DiagContext(Where, " (hist dest)"));
      if (!TD)
        return TD.getError();
      const Type &D = **TD;
      if (D.rank() != 1)
        return err(Where, "reduce_by_index destination " + X->Dest.str() +
                              " has rank " + std::to_string(D.rank()) +
                              "; expected 1");
      if (!dimsAgree(D.outerDim(), X->Width))
        return err(Where, "reduce_by_index of width " + X->Width.str() +
                              " into destination of outer size " +
                              D.outerDim().str());
      Type Elem = D.rowType();
      auto TI = arrayType(X->IndexArr, DiagContext(Where, " (hist indices)"));
      if (!TI)
        return TI.getError();
      const Type &Idx = **TI;
      if (Idx.rank() != 1 || !isIntKind(Idx.elemKind()))
        return err(Where, "reduce_by_index index array " + X->IndexArr.str() +
                              " has type " + Idx.str() +
                              "; expected a one-dimensional integer array");
      std::vector<Type> RowTys;
      DiagContext ValuesWhere(Where, " (hist values)");
      for (const VName &A : X->ValueArrs) {
        auto TA = arrayType(A, ValuesWhere);
        if (!TA)
          return TA.getError();
        if (!dimsAgree((*TA)->outerDim(), Idx.outerDim()))
          return err(Where, "reduce_by_index value array " + A.str() +
                                " of outer size " + (*TA)->outerDim().str() +
                                " does not match the index array's outer "
                                "size " +
                                Idx.outerDim().str());
        RowTys.push_back((*TA)->rowType());
      }
      auto TN = typeOfSub(X->Neutral, Where);
      if (!TN)
        return TN.getError();
      if (!typesAgree(**TN, Elem))
        return err(Where, "reduce_by_index neutral element has type " +
                              (*TN)->str() + " but the bins have type " +
                              Elem.str());
      if (auto Err = checkLambda(X->ValueFn, &RowTys,
                                 DiagContext(Where, " (hist value fn)")))
        return Err;
      if (X->ValueFn.RetTypes.size() != 1 ||
          !typesAgree(X->ValueFn.RetTypes[0], Elem))
        return err(Where, "reduce_by_index value function produces " +
                              typeListStr(X->ValueFn.RetTypes) +
                              " but the bins have type " + Elem.str());
      std::vector<Type> OpArgs{Elem, Elem};
      if (auto Err = checkLambda(X->CombineFn, &OpArgs,
                                 DiagContext(Where, " (hist op)")))
        return Err;
      if (X->CombineFn.RetTypes.size() != 1 ||
          !typesAgree(X->CombineFn.RetTypes[0], Elem))
        return err(Where, "reduce_by_index operator returns " +
                              typeListStr(X->CombineFn.RetTypes) +
                              " but the bins have type " + Elem.str());
      Results.push_back(D.asNonUnique());
      return MaybeError::success();
    }

    case ExpKind::Kernel:
      return checkKernel(*expCast<KernelExp>(&E), Where);
    }
    return err(Where, "unhandled expression kind");
  }

  MaybeError checkKernel(const KernelExp &K, const DiagContext &Where) {
    if (KernelDepth > 0)
      return err(Where, "kernel nested inside another kernel's thread body");
    if (K.ThreadIndices.size() != K.GridDims.size())
      return err(Where, "kernel with " +
                            std::to_string(K.ThreadIndices.size()) +
                            " thread indices over a grid of rank " +
                            std::to_string(K.GridDims.size()));
    for (const SubExp &D : K.GridDims)
      if (auto Err = wantIntScalar(D, "kernel grid dimension", Where))
        return Err;

    // Inputs: the declared type must agree with the bound array (the
    // simulator charges tiled traffic by the element width of exactly
    // these arrays), and the layout permutation must be valid.
    DiagContext InputWhere(Where, " (kernel input)");
    for (const KernelExp::KInput &In : K.Inputs) {
      auto TA = arrayType(In.Arr, InputWhere);
      if (!TA)
        return TA.getError();
      const Type &A = **TA;
      if (!typesAgree(In.Ty, A))
        return err(Where, "kernel input " + In.Arr.str() +
                              " declares type " + In.Ty.str() +
                              " but the bound array has type " + A.str());
      if (static_cast<int>(In.LayoutPerm.size()) != A.rank())
        return err(Where, "kernel input " + In.Arr.str() +
                              " has a layout permutation of size " +
                              std::to_string(In.LayoutPerm.size()) +
                              " for rank " + std::to_string(A.rank()));
      if (!isPermutation(In.LayoutPerm))
        return err(Where, "kernel input " + In.Arr.str() +
                              " has an invalid layout permutation");
    }

    size_t Mark = Scope.mark();
    for (const VName &T : K.ThreadIndices)
      if (auto Err = bind(T, ScopeTable::i32(), Where))
        return Err;
    if (K.isSegmented()) {
      if (auto Err = wantIntScalar(K.SegSize, "segment size", Where))
        return Err;
      if (auto Err = bind(K.SegIndex, ScopeTable::i32(), Where))
        return Err;
    }

    size_t Base = Results.size();
    ++KernelDepth;
    MaybeError BodyErr =
        checkBody(K.ThreadBody, DiagContext(Where, " (thread body)"));
    --KernelDepth;
    if (BodyErr)
      return BodyErr;
    Scope.popTo(Mark);
    // Every branch below reads the thread results, pushes nothing until
    // it is done with them, and leaves the kernel's results in their place.
    std::span<const Type> TR = resultsFrom(Base);

    if (K.Op == KernelExp::OpKind::SegHist) {
      if (TR.size() != 2)
        return err(Where, "seghist kernel thread body produces " +
                              std::to_string(TR.size()) +
                              " values; expected (bin index, value)");
      const Type &BinTy = TR[0];
      if (!BinTy.isScalar() || !isIntKind(BinTy.elemKind()))
        return err(Where, "seghist kernel bin index has type " +
                              BinTy.str() + "; expected an integer scalar");
      Type Elem = TR[1].asNonUnique();
      Results.resize(Base);
      if (K.Neutral.size() != 1)
        return err(Where, "seghist kernel must have exactly one neutral "
                          "element");
      auto TN = typeOfSub(K.Neutral[0], Where);
      if (!TN)
        return TN.getError();
      if (!typesAgree(**TN, Elem))
        return err(Where, "seghist kernel neutral element has type " +
                              (*TN)->str() + " but the values have type " +
                              Elem.str());
      std::vector<Type> OpArgs{Elem, Elem};
      if (auto Err = checkLambda(K.ReduceFn, &OpArgs,
                                 DiagContext(Where, " (kernel op)")))
        return Err;
      if (K.ReduceFn.RetTypes.size() != 1 ||
          !typesAgree(K.ReduceFn.RetTypes[0], Elem))
        return err(Where, "seghist kernel operator returns " +
                              typeListStr(K.ReduceFn.RetTypes) +
                              " but the values have type " + Elem.str());
      if (auto Err = wantIntScalar(K.HistWidth, "histogram width", Where))
        return Err;
      auto TD =
          arrayType(K.HistDest, DiagContext(Where, " (kernel hist dest)"));
      if (!TD)
        return TD.getError();
      const Type &D = **TD;
      if (D.rank() != 1 || D.elemKind() != Elem.elemKind())
        return err(Where, "seghist kernel destination " + K.HistDest.str() +
                              " has type " + D.str() +
                              " but the values have type " + Elem.str());
      if (!dimsAgree(D.outerDim(), K.HistWidth))
        return err(Where, "seghist kernel of width " + K.HistWidth.str() +
                              " into destination of outer size " +
                              D.outerDim().str());
      if (K.RetTypes.size() != 1 || !typesAgree(K.RetTypes[0], D))
        return err(Where, "seghist kernel declares result types " +
                              typeListStr(K.RetTypes) +
                              " but the destination has type " + D.str());
      Results.push_back(D.asNonUnique());
      return MaybeError::success();
    }

    if (K.isSegmented()) {
      if (TR.size() != K.Neutral.size())
        return err(Where, "segmented kernel thread body produces " +
                              std::to_string(TR.size()) +
                              " element values for " +
                              std::to_string(K.Neutral.size()) +
                              " neutral elements");
      // The element types are the first half of the operator's arguments.
      std::vector<Type> OpArgs;
      OpArgs.reserve(2 * TR.size());
      for (const Type &T : TR)
        OpArgs.push_back(T.asNonUnique());
      Results.resize(Base);
      std::span<const Type> ElemTys(OpArgs.data(), K.Neutral.size());
      for (size_t I = 0; I < K.Neutral.size(); ++I) {
        auto TN = typeOfSub(K.Neutral[I], Where);
        if (!TN)
          return TN.getError();
        if (!typesAgree(**TN, ElemTys[I]))
          return err(Where, "segmented kernel neutral element " +
                                std::to_string(I) + " has type " +
                                (*TN)->str() + " but the elements have type " +
                                ElemTys[I].str());
      }
      for (size_t I = 0; I < K.Neutral.size(); ++I)
        OpArgs.push_back(OpArgs[I]);
      if (auto Err = checkLambda(K.ReduceFn, &OpArgs,
                                 DiagContext(Where, " (kernel op)")))
        return Err;
      if (!allAgree(K.ReduceFn.RetTypes, ElemTys))
        return err(Where, "segmented kernel operator returns " +
                              typeListStr(K.ReduceFn.RetTypes) +
                              " but the elements have types " +
                              typeListStr(ElemTys));
      if (K.RetTypes.size() != K.Neutral.size())
        return err(Where, "segmented kernel declares " +
                              std::to_string(K.RetTypes.size()) +
                              " result types for " +
                              std::to_string(K.Neutral.size()) +
                              " reduced values");
      bool IsScan = K.Op == KernelExp::OpKind::SegScan;
      for (size_t I = 0; I < K.RetTypes.size(); ++I) {
        const Type &Elem = ElemTys[I];
        std::vector<Dim> Shape(K.GridDims.begin(), K.GridDims.end());
        if (IsScan)
          Shape.push_back(K.SegSize);
        Shape.insert(Shape.end(), Elem.shape().begin(), Elem.shape().end());
        Type Derived(Elem.elemKind(), std::move(Shape));
        if (!typesAgree(K.RetTypes[I], Derived))
          return err(Where, "segmented kernel result " + std::to_string(I) +
                                " declares type " + K.RetTypes[I].str() +
                                " but the grid and elements derive " +
                                Derived.str());
        Results.push_back(std::move(Derived));
      }
      return MaybeError::success();
    }

    if (K.RetTypes.size() != TR.size())
      return err(Where, "kernel thread body produces " +
                            std::to_string(TR.size()) +
                            " values but the kernel declares " +
                            std::to_string(K.RetTypes.size()) +
                            " result types");
    // Each thread result is replaced in place by the array it gathers to.
    for (size_t I = 0; I < TR.size(); ++I) {
      const Type &Elem = TR[I];
      std::vector<Dim> Shape(K.GridDims.begin(), K.GridDims.end());
      Shape.insert(Shape.end(), Elem.shape().begin(), Elem.shape().end());
      Type Derived(Elem.elemKind(), std::move(Shape));
      if (!typesAgree(K.RetTypes[I], Derived))
        return err(Where, "kernel result " + std::to_string(I) +
                              " declares type " + K.RetTypes[I].str() +
                              " but the grid and thread results derive " +
                              Derived.str());
      Results[Base + I] = std::move(Derived);
    }
    return MaybeError::success();
  }

  //===-- Bodies ----------------------------------------------------------===//

  /// Verifies \p B and pushes the types of its results onto Results.
  MaybeError checkBody(const Body &B, const DiagContext &Where) {
    NameSet Consumed;
    for (const Stm &S : B.Stms) {
      DiagContext Binding = S.Pat.empty()
                                ? DiagContext("<empty pattern>")
                                : DiagContext("binding '", S.Pat[0].Name, "'");
      // Only a statement that mentions a consumed name at all can observe
      // one; the exact free-variable scan runs for those alone.
      if (Opts.CheckConsumption && !Consumed.empty() &&
          mentionsAnyOf(*S.E, Consumed))
        for (const VName &V : freeVarsInExp(*S.E))
          if (Consumed.count(V))
            return err(Binding, "use of " + V.str() +
                                    " after it was consumed by an in-place "
                                    "update");
      size_t Base = Results.size();
      if (auto Err = checkExp(*S.E, Binding))
        return Err;
      // Apply's return arity is derived from the callee, so every
      // expression's arity is decidable here, unlike in Check.h.
      std::span<const Type> Ts = resultsFrom(Base);
      if (Ts.size() != S.Pat.size())
        return err(Binding, std::string("pattern of arity ") +
                                std::to_string(S.Pat.size()) +
                                " bound to a " + expKindName(S.E->kind()) +
                                " producing " + std::to_string(Ts.size()) +
                                " values");
      for (size_t I = 0; I < S.Pat.size(); ++I) {
        if (!typesAgree(Ts[I], S.Pat[I].Ty))
          return err(Binding, "declares type " + S.Pat[I].Ty.str() +
                                  " for " + S.Pat[I].Name.str() +
                                  " but the expression derives " +
                                  Ts[I].str());
        if (auto Err = bind(S.Pat[I].Name, S.Pat[I].Ty, Binding))
          return Err;
      }
      Results.resize(Base);
      if (Opts.CheckConsumption) {
        if (const auto *U = expDynCast<UpdateExp>(S.E.get()))
          Consumed.insert(U->Arr);
        if (const auto *R = expDynCast<ReduceByIndexExp>(S.E.get()))
          Consumed.insert(R->Dest);
        if (const auto *K = expDynCast<KernelExp>(S.E.get()))
          if (K->Op == KernelExp::OpKind::SegHist)
            Consumed.insert(K->HistDest);
      }
    }

    for (const SubExp &R : B.Result) {
      if (Opts.CheckConsumption && R.isVar() && !Consumed.empty() &&
          Consumed.count(R.getVar()))
        return err(Where, "result returns " + R.getVar().str() +
                              " after it was consumed by an in-place "
                              "update");
      auto T = typeOfSub(R, Where);
      if (!T)
        return T.getError();
      Results.push_back((*T)->asNonUnique());
    }
    return MaybeError::success();
  }
};

} // namespace

MaybeError fut::verifyFun(const Program &P, const FunDef &F,
                          const std::string &Pass,
                          const VerifyOptions &Opts) {
  return Verifier(P, Opts, Pass).verifyFunDef(F);
}

MaybeError fut::verifyProgram(const Program &P, const std::string &Pass,
                              const VerifyOptions &Opts) {
  Verifier V(P, Opts, Pass);
  for (const FunDef &F : P.Funs)
    if (auto Err = V.verifyFunDef(F))
      return Err;
  return MaybeError::success();
}
