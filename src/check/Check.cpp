//===- Check.cpp - Internal IR consistency checking ----------------------------===//
//
// Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
//
//===----------------------------------------------------------------------===//

#include "check/Check.h"

#include "check/Scope.h"
#include "ir/Builder.h"
#include "ir/Traversal.h"

using namespace fut;

namespace {

class Checker {
  /// Types of names in scope.  With globally unique tags a flat table
  /// suffices; scoping is enforced by checking *dominance* (a use must
  /// have been bound before, in traversal order).
  ScopeTable Scope;

public:
  MaybeError checkFunDef(const FunDef &F) {
    Scope.clear();
    DiagContext ParamWhere("parameter of ", F.Name);
    for (const Param &P : F.Params)
      if (auto Err = bind(P.Name, P.Ty, ParamWhere))
        return Err;
    if (auto Err = checkBody(F.FBody, DiagContext("", F.Name)))
      return Err;
    if (F.FBody.Result.size() != F.RetTypes.size())
      return CompilerError("function " + F.Name + " returns " +
                           std::to_string(F.FBody.Result.size()) +
                           " values but declares " +
                           std::to_string(F.RetTypes.size()));
    return MaybeError::success();
  }

private:
  MaybeError bind(const VName &N, const Type &T, const DiagContext &Where) {
    if (Scope.everBound(N))
      return CompilerError("name " + N.str() + " bound twice (" +
                           Where.str() + ")");
    Scope.bind(N, T);
    // Dimension variables must themselves be in scope or freshly implied.
    for (const Dim &D : T.shape())
      if (D.isVar() && !Scope.lookup(D.getVar()))
        // Sizes are bound dynamically when unseen (existential sizes);
        // register them so later uses are legal.
        Scope.bind(D.getVar(), ScopeTable::i32());
    return MaybeError::success();
  }

  MaybeError use(const VName &V, const DiagContext &Where) {
    if (!Scope.lookup(V))
      return CompilerError("use of unbound variable " + V.str() + " in " +
                           Where.str());
    return MaybeError::success();
  }

  MaybeError useSub(const SubExp &S, const DiagContext &Where) {
    if (S.isVar())
      return use(S.getVar(), Where);
    return MaybeError::success();
  }

  MaybeError useArray(const VName &V, const DiagContext &Where) {
    if (auto Err = use(V, Where))
      return Err;
    // use() above guarantees presence.
    const Type &T = *Scope.lookup(V);
    if (!T.isArray())
      return CompilerError("variable " + V.str() + " used as an array in " +
                           Where.str() + " but has scalar type " + T.str());
    return MaybeError::success();
  }

  /// The number of values \p E produces, or -1 when not locally decidable.
  int arityOf(const Exp &E) const {
    switch (E.kind()) {
    case ExpKind::If:
      return static_cast<int>(expCast<IfExp>(&E)->RetTypes.size());
    case ExpKind::Loop:
      return static_cast<int>(expCast<LoopExp>(&E)->MergeParams.size());
    case ExpKind::Map:
      return static_cast<int>(expCast<MapExp>(&E)->Fn.RetTypes.size());
    case ExpKind::Reduce:
      return static_cast<int>(expCast<ReduceExp>(&E)->Neutral.size());
    case ExpKind::Scan:
      return static_cast<int>(expCast<ScanExp>(&E)->Neutral.size());
    case ExpKind::Stream:
      return static_cast<int>(
          expCast<StreamExp>(&E)->FoldFn.RetTypes.size());
    case ExpKind::Kernel: {
      const auto *K = expCast<KernelExp>(&E);
      if (K->Op == KernelExp::OpKind::SegHist)
        return 1;
      return static_cast<int>(K->isSegmented() ? K->Neutral.size()
                                               : K->RetTypes.size());
    }
    case ExpKind::Apply:
      return -1; // Needs the callee's signature; checked by the frontend.
    default:
      return 1;
    }
  }

  MaybeError checkLambda(const Lambda &L, size_t ExpectedParams,
                         const DiagContext &Where) {
    if (L.Params.size() != ExpectedParams)
      return CompilerError(Where.str() + " has " +
                           std::to_string(L.Params.size()) +
                           " parameters; expected " +
                           std::to_string(ExpectedParams));
    size_t Mark = Scope.mark();
    for (const Param &P : L.Params)
      if (auto Err = bind(P.Name, P.Ty, Where))
        return Err;
    if (auto Err = checkBody(L.B, Where))
      return Err;
    if (L.B.Result.size() != L.RetTypes.size())
      return CompilerError(Where.str() + " returns " +
                           std::to_string(L.B.Result.size()) +
                           " values but declares " +
                           std::to_string(L.RetTypes.size()));
    Scope.popTo(Mark);
    return MaybeError::success();
  }

  MaybeError checkExp(const Exp &E, const DiagContext &Where) {
    // All free operands must be in scope.
    MaybeError OperandErr;
    auto UseName = [&](const VName &V) {
      if (!OperandErr)
        OperandErr = use(V, Where);
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

    switch (E.kind()) {
    case ExpKind::Index: {
      const auto *X = expCast<IndexExp>(&E);
      if (auto Err = useArray(X->Arr, Where))
        return Err;
      const Type &T = *Scope.lookup(X->Arr);
      if (static_cast<int>(X->Indices.size()) > T.rank())
        return CompilerError("indexing " + X->Arr.str() + " of rank " +
                             std::to_string(T.rank()) + " with " +
                             std::to_string(X->Indices.size()) +
                             " indices in " + Where.str());
      return MaybeError::success();
    }

    case ExpKind::Update: {
      const auto *X = expCast<UpdateExp>(&E);
      return useArray(X->Arr, Where);
    }

    case ExpKind::Rearrange: {
      const auto *X = expCast<RearrangeExp>(&E);
      if (auto Err = useArray(X->Arr, Where))
        return Err;
      if (static_cast<int>(X->Perm.size()) != Scope.lookup(X->Arr)->rank())
        return CompilerError("rearrange permutation rank mismatch on " +
                             X->Arr.str() + " in " + Where.str());
      if (!isPermutation(X->Perm))
        return CompilerError("invalid permutation in " + Where.str());
      return MaybeError::success();
    }

    case ExpKind::If: {
      const auto *X = expCast<IfExp>(&E);
      size_t Mark = Scope.mark();
      if (auto Err = checkBody(X->Then, DiagContext(Where, " (then)")))
        return Err;
      Scope.popTo(Mark);
      if (auto Err = checkBody(X->Else, DiagContext(Where, " (else)")))
        return Err;
      Scope.popTo(Mark);
      if (X->Then.Result.size() != X->RetTypes.size() ||
          X->Else.Result.size() != X->RetTypes.size())
        return CompilerError("if branches disagree with the declared "
                             "result arity in " +
                             Where.str());
      return MaybeError::success();
    }

    case ExpKind::Loop: {
      const auto *X = expCast<LoopExp>(&E);
      if (X->MergeInit.size() != X->MergeParams.size())
        return CompilerError("loop merge arity mismatch in " + Where.str());
      size_t Mark = Scope.mark();
      if (auto Err = bind(X->IndexVar, ScopeTable::i32(), Where))
        return Err;
      for (const Param &P : X->MergeParams)
        if (auto Err = bind(P.Name, P.Ty, Where))
          return Err;
      if (auto Err = checkBody(X->LoopBody, DiagContext(Where, " (loop)")))
        return Err;
      Scope.popTo(Mark);
      if (X->LoopBody.Result.size() != X->MergeParams.size())
        return CompilerError("loop body arity mismatch in " + Where.str());
      return MaybeError::success();
    }

    case ExpKind::Map: {
      const auto *X = expCast<MapExp>(&E);
      for (const VName &A : X->Arrays)
        if (auto Err = useArray(A, Where))
          return Err;
      return checkLambda(X->Fn, X->Arrays.size(),
                         DiagContext(Where, " (map fn)"));
    }

    case ExpKind::Reduce: {
      const auto *X = expCast<ReduceExp>(&E);
      for (const VName &A : X->Arrays)
        if (auto Err = useArray(A, Where))
          return Err;
      if (X->Neutral.size() != X->Arrays.size())
        return CompilerError("reduce neutral/array arity mismatch in " +
                             Where.str());
      return checkLambda(X->Fn, 2 * X->Neutral.size(),
                         DiagContext(Where, " (reduce op)"));
    }

    case ExpKind::Scan: {
      const auto *X = expCast<ScanExp>(&E);
      for (const VName &A : X->Arrays)
        if (auto Err = useArray(A, Where))
          return Err;
      if (X->Neutral.size() != X->Arrays.size())
        return CompilerError("scan neutral/array arity mismatch in " +
                             Where.str());
      return checkLambda(X->Fn, 2 * X->Neutral.size(),
                         DiagContext(Where, " (scan op)"));
    }

    case ExpKind::Stream: {
      const auto *X = expCast<StreamExp>(&E);
      for (const VName &A : X->Arrays)
        if (auto Err = useArray(A, Where))
          return Err;
      if (static_cast<int>(X->AccInit.size()) != X->NumAccs)
        return CompilerError("stream accumulator arity mismatch in " +
                             Where.str());
      // Fold convention: chunk size, accumulators, chunk arrays.
      size_t Expected = 1 + X->NumAccs + X->Arrays.size();
      if (auto Err = checkLambda(X->FoldFn, Expected,
                                 DiagContext(Where, " (stream fold)")))
        return Err;
      if (static_cast<int>(X->FoldFn.RetTypes.size()) < X->NumAccs)
        return CompilerError("stream fold returns fewer values than "
                             "accumulators in " +
                             Where.str());
      if (X->Form == StreamExp::FormKind::Red)
        return checkLambda(X->ReduceFn, 2 * X->NumAccs,
                           DiagContext(Where, " (stream_red op)"));
      return MaybeError::success();
    }

    case ExpKind::ReduceByIndex: {
      const auto *X = expCast<ReduceByIndexExp>(&E);
      if (auto Err = useArray(X->Dest, DiagContext(Where, " (hist dest)")))
        return Err;
      if (auto Err =
              useArray(X->IndexArr, DiagContext(Where, " (hist indices)")))
        return Err;
      DiagContext ValuesWhere(Where, " (hist values)");
      for (const VName &A : X->ValueArrs)
        if (auto Err = useArray(A, ValuesWhere))
          return Err;
      if (auto Err = checkLambda(X->CombineFn, 2,
                                 DiagContext(Where, " (hist op)")))
        return Err;
      return checkLambda(X->ValueFn, X->ValueArrs.size(),
                         DiagContext(Where, " (hist value fn)"));
    }

    case ExpKind::Kernel: {
      const auto *K = expCast<KernelExp>(&E);
      if (K->ThreadIndices.size() != K->GridDims.size())
        return CompilerError("kernel thread-index/grid mismatch in " +
                             Where.str());
      if (K->Op == KernelExp::OpKind::SegHist)
        if (auto Err = useArray(K->HistDest,
                                DiagContext(Where, " (kernel hist dest)")))
          return Err;
      DiagContext InputWhere(Where, " (kernel input)");
      for (const KernelExp::KInput &In : K->Inputs) {
        if (auto Err = useArray(In.Arr, InputWhere))
          return Err;
        if (static_cast<int>(In.LayoutPerm.size()) != In.Ty.rank())
          return CompilerError("kernel input layout rank mismatch for " +
                               In.Arr.str() + " in " + Where.str());
      }
      size_t Mark = Scope.mark();
      for (const VName &T : K->ThreadIndices)
        if (auto Err = bind(T, ScopeTable::i32(), Where))
          return Err;
      if (K->isSegmented())
        if (auto Err = bind(K->SegIndex, ScopeTable::i32(), Where))
          return Err;
      if (K->usesReduceFn()) {
        if (auto Err = checkLambda(K->ReduceFn, 2 * K->Neutral.size(),
                                   DiagContext(Where, " (kernel op)")))
          return Err;
        // SegHist threads yield (bin index, value): one extra result in
        // front of the Neutral-arity value tuple.
        size_t ExpectedElems = K->Neutral.size() +
                               (K->Op == KernelExp::OpKind::SegHist ? 1 : 0);
        if (K->ThreadBody.Result.size() != ExpectedElems)
          return CompilerError("segmented kernel element arity "
                               "mismatch in " +
                               Where.str());
      }
      if (auto Err = checkBody(K->ThreadBody, DiagContext(Where, " (kernel)")))
        return Err;
      Scope.popTo(Mark);
      return MaybeError::success();
    }

    default:
      return MaybeError::success();
    }
  }

  MaybeError checkBody(const Body &B, const DiagContext &Where) {
    for (const Stm &S : B.Stms) {
      if (auto Err = checkExp(*S.E, Where))
        return Err;
      int Arity = arityOf(*S.E);
      if (Arity >= 0 && static_cast<int>(S.Pat.size()) != Arity)
        return CompilerError("pattern of arity " +
                             std::to_string(S.Pat.size()) +
                             " bound to a " + expKindName(S.E->kind()) +
                             " producing " + std::to_string(Arity) +
                             " values in " + Where.str());
      for (const Param &P : S.Pat)
        if (auto Err = bind(P.Name, P.Ty, Where))
          return Err;
    }
    DiagContext ResultWhere(Where, " (result)");
    for (const SubExp &R : B.Result)
      if (auto Err = useSub(R, ResultWhere))
        return Err;
    return MaybeError::success();
  }
};

} // namespace

MaybeError fut::checkFun(const FunDef &F) {
  return Checker().checkFunDef(F);
}

MaybeError fut::checkProgram(const Program &P) {
  Checker C;
  for (const FunDef &F : P.Funs)
    if (auto Err = C.checkFunDef(F))
      return CompilerError("in function " + F.Name + ": " +
                           Err.getError().Message);
  return MaybeError::success();
}
