//===- Traversal.h - IR walking, free variables, renaming ------*- C++ -*-===//
//
// Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Generic traversal utilities over the core IR: free-variable computation,
/// capture-free substitution of names by operands (including inside the
/// symbolic dimensions of types), and alpha-renaming used when lambdas and
/// bodies are duplicated by fusion, inlining and flattening.
///
//===----------------------------------------------------------------------===//

#ifndef FUTHARKCC_IR_TRAVERSAL_H
#define FUTHARKCC_IR_TRAVERSAL_H

#include "ir/IR.h"

#include <functional>

namespace fut {

/// Invokes \p Use on every operand SubExp of \p E itself (not of nested
/// bodies; symbolic dimensions of its types included) and \p UseName on
/// every array-name operand, in one fixed order.  A template, so hot
/// callers such as the pass-boundary checkers pay for no std::function and
/// no SubExp copy per array operand.
template <typename SubFn, typename NameFn>
void forEachOperand(const Exp &E, SubFn &&Use, NameFn &&UseName) {
  auto UseT = [&](const Type &T) {
    for (const Dim &D : T.shape())
      Use(D);
  };

  switch (E.kind()) {
  case ExpKind::SubExpE:
    Use(expCast<SubExpExp>(&E)->Val);
    break;
  case ExpKind::BinOpE: {
    const auto *B = expCast<BinOpExp>(&E);
    Use(B->A);
    Use(B->B);
    break;
  }
  case ExpKind::UnOpE:
    Use(expCast<UnOpExp>(&E)->A);
    break;
  case ExpKind::ConvOpE:
    Use(expCast<ConvOpExp>(&E)->A);
    break;
  case ExpKind::If: {
    const auto *I = expCast<IfExp>(&E);
    Use(I->Cond);
    for (const Type &T : I->RetTypes)
      UseT(T);
    break;
  }
  case ExpKind::Index: {
    const auto *I = expCast<IndexExp>(&E);
    UseName(I->Arr);
    for (const SubExp &S : I->Indices)
      Use(S);
    break;
  }
  case ExpKind::Apply:
    for (const SubExp &S : expCast<ApplyExp>(&E)->Args)
      Use(S);
    break;
  case ExpKind::Loop: {
    const auto *L = expCast<LoopExp>(&E);
    for (const SubExp &S : L->MergeInit)
      Use(S);
    Use(L->Bound);
    break;
  }
  case ExpKind::Update: {
    const auto *U = expCast<UpdateExp>(&E);
    UseName(U->Arr);
    for (const SubExp &S : U->Indices)
      Use(S);
    Use(U->Value);
    break;
  }
  case ExpKind::Iota:
    Use(expCast<IotaExp>(&E)->N);
    break;
  case ExpKind::Replicate: {
    const auto *R = expCast<ReplicateExp>(&E);
    Use(R->N);
    Use(R->Val);
    UseT(R->ValType);
    break;
  }
  case ExpKind::Rearrange:
    UseName(expCast<RearrangeExp>(&E)->Arr);
    break;
  case ExpKind::Reshape: {
    const auto *R = expCast<ReshapeExp>(&E);
    for (const SubExp &S : R->NewShape)
      Use(S);
    UseName(R->Arr);
    break;
  }
  case ExpKind::Concat:
    for (const VName &N : expCast<ConcatExp>(&E)->Arrays)
      UseName(N);
    break;
  case ExpKind::Copy:
    UseName(expCast<CopyExp>(&E)->Arr);
    break;
  case ExpKind::Slice: {
    const auto *S = expCast<SliceExp>(&E);
    UseName(S->Arr);
    Use(S->Offset);
    Use(S->Len);
    Use(S->Stride);
    break;
  }
  case ExpKind::Map: {
    const auto *M = expCast<MapExp>(&E);
    Use(M->Width);
    for (const VName &N : M->Arrays)
      UseName(N);
    break;
  }
  case ExpKind::Reduce: {
    const auto *R = expCast<ReduceExp>(&E);
    Use(R->Width);
    for (const SubExp &S : R->Neutral)
      Use(S);
    for (const VName &N : R->Arrays)
      UseName(N);
    break;
  }
  case ExpKind::Scan: {
    const auto *S = expCast<ScanExp>(&E);
    Use(S->Width);
    for (const SubExp &N : S->Neutral)
      Use(N);
    for (const VName &N : S->Arrays)
      UseName(N);
    break;
  }
  case ExpKind::Stream: {
    const auto *S = expCast<StreamExp>(&E);
    Use(S->Width);
    for (const SubExp &N : S->AccInit)
      Use(N);
    for (const VName &N : S->Arrays)
      UseName(N);
    break;
  }
  case ExpKind::ReduceByIndex: {
    const auto *R = expCast<ReduceByIndexExp>(&E);
    Use(R->Width);
    UseName(R->Dest);
    Use(R->Neutral);
    UseName(R->IndexArr);
    for (const VName &N : R->ValueArrs)
      UseName(N);
    break;
  }
  case ExpKind::Kernel: {
    const auto *K = expCast<KernelExp>(&E);
    for (const SubExp &D : K->GridDims)
      Use(D);
    if (K->isSegmented())
      Use(K->SegSize);
    if (K->Op == KernelExp::OpKind::SegHist) {
      UseName(K->HistDest);
      Use(K->HistWidth);
    }
    for (const SubExp &N : K->Neutral)
      Use(N);
    for (const KernelExp::KInput &In : K->Inputs) {
      UseName(In.Arr);
      UseT(In.Ty);
    }
    for (const Type &T : K->RetTypes)
      UseT(T);
    break;
  }
  }
}

namespace detail {

/// Walks every occurrence of a name in an expression, nested bodies and
/// lambdas included, in the shape of freeVarsInExp's scan but with no set
/// of bound names.  Stops once \p Visit returns true.
template <typename VisitFn> struct MentionWalk {
  VisitFn &Visit;
  bool Stopped = false;

  void use(const VName &N) {
    if (!Stopped && Visit(N))
      Stopped = true;
  }
  void use(const SubExp &S) {
    if (S.isVar())
      use(S.getVar());
  }
  void useType(const Type &T) {
    for (const Dim &D : T.shape())
      use(D);
  }

  void scanExp(const Exp &E) {
    forEachOperand(
        E, [&](const SubExp &S) { use(S); }, [&](const VName &N) { use(N); });
    switch (E.kind()) {
    case ExpKind::If: {
      const auto *I = expCast<IfExp>(&E);
      scanBody(I->Then);
      scanBody(I->Else);
      break;
    }
    case ExpKind::Loop: {
      const auto *L = expCast<LoopExp>(&E);
      for (const Param &P : L->MergeParams)
        useType(P.Ty);
      scanBody(L->LoopBody);
      break;
    }
    case ExpKind::Map:
      scanLambda(expCast<MapExp>(&E)->Fn);
      break;
    case ExpKind::Reduce:
      scanLambda(expCast<ReduceExp>(&E)->Fn);
      break;
    case ExpKind::Scan:
      scanLambda(expCast<ScanExp>(&E)->Fn);
      break;
    case ExpKind::Stream: {
      const auto *S = expCast<StreamExp>(&E);
      if (S->Form == StreamExp::FormKind::Red)
        scanLambda(S->ReduceFn);
      scanLambda(S->FoldFn);
      break;
    }
    case ExpKind::ReduceByIndex: {
      const auto *R = expCast<ReduceByIndexExp>(&E);
      scanLambda(R->CombineFn);
      scanLambda(R->ValueFn);
      break;
    }
    case ExpKind::Kernel: {
      const auto *K = expCast<KernelExp>(&E);
      if (K->usesReduceFn())
        scanLambda(K->ReduceFn);
      scanBody(K->ThreadBody);
      break;
    }
    default:
      break;
    }
  }

  void scanBody(const Body &B) {
    for (const Stm &S : B.Stms) {
      if (Stopped)
        return;
      scanExp(*S.E);
      for (const Param &P : S.Pat)
        useType(P.Ty);
    }
    for (const SubExp &S : B.Result)
      use(S);
  }

  void scanLambda(const Lambda &L) {
    for (const Param &P : L.Params)
      useType(P.Ty);
    for (const Type &T : L.RetTypes)
      useType(T);
    scanBody(L.B);
  }
};

} // namespace detail

/// Invokes \p Fn on every occurrence of a name in \p E: its operands and
/// the symbolic dimensions of its types, and the operands, types and
/// results of every body and lambda nested in it.  Names at binding sites
/// (patterns, parameters, loop indices) are not occurrences, so the names
/// reported are the free variables of \p E plus names bound inside it.
/// Where no name is bound twice in a function (the checker's unique-binding
/// rule), a reported name that is bound outside \p E is free in \p E: a
/// "does this statement use V" query for a name V of an enclosing scope
/// needs no set of bound names and no freeVarsInExp set.
template <typename NameFn> void forEachMention(const Exp &E, NameFn &&Fn) {
  auto Visit = [&](const VName &N) {
    Fn(N);
    return false;
  };
  detail::MentionWalk<decltype(Visit)> Walk{Visit};
  Walk.scanExp(E);
}

/// Invokes \p Fn on every name that \p E may consume at its own level (not
/// inside nested bodies): the source of an in-place update, the destination
/// of a reduce_by_index or SegHist kernel, every variable loop merge
/// initialiser, every variable argument of a call (the callee's uniqueness
/// signature is not consulted), and every map input whose lambda parameter
/// is unique.  The one definition of consumption that the optimiser's
/// reordering and sharing guards use.
template <typename NameFn> void forEachConsumedName(const Exp &E, NameFn &&Fn) {
  switch (E.kind()) {
  case ExpKind::Update:
    Fn(expCast<UpdateExp>(&E)->Arr);
    break;
  case ExpKind::ReduceByIndex:
    Fn(expCast<ReduceByIndexExp>(&E)->Dest);
    break;
  case ExpKind::Kernel: {
    const auto *K = expCast<KernelExp>(&E);
    if (K->Op == KernelExp::OpKind::SegHist)
      Fn(K->HistDest);
    break;
  }
  case ExpKind::Loop:
    for (const SubExp &I : expCast<LoopExp>(&E)->MergeInit)
      if (I.isVar())
        Fn(I.getVar());
    break;
  case ExpKind::Apply:
    for (const SubExp &A : expCast<ApplyExp>(&E)->Args)
      if (A.isVar())
        Fn(A.getVar());
    break;
  case ExpKind::Map: {
    const auto *M = expCast<MapExp>(&E);
    for (size_t I = 0; I < M->Fn.Params.size() && I < M->Arrays.size(); ++I)
      if (M->Fn.Params[I].Ty.isUnique())
        Fn(M->Arrays[I]);
    break;
  }
  default:
    break;
  }
}

/// forEachOperand with array-name operands wrapped as variables.
void forEachFreeOperand(const Exp &E,
                        const std::function<void(const SubExp &)> &Fn);

/// Invokes \p Fn on every nested Body of \p E (if/loop bodies, lambda
/// bodies, kernel thread bodies).
void forEachChildBody(Exp &E, const std::function<void(Body &)> &Fn);
void forEachChildBody(const Exp &E,
                      const std::function<void(const Body &)> &Fn);

/// Free variables (both scalar and array uses, and uses inside nested
/// bodies and types).
NameSet freeVarsInExp(const Exp &E);
NameSet freeVarsInBody(const Body &B);
NameSet freeVarsInLambda(const Lambda &L);

/// True if a name of \p Names occurs anywhere in \p E (forEachMention), bound
/// inside it or free: a cheap, allocation-free superset test for
/// freeVarsInExp.
bool mentionsAnyOf(const Exp &E, const NameSet &Names);

/// Capture-free substitution.  Every free occurrence of a key is replaced by
/// its mapped operand; occurrences in positions that require a variable
/// (array operands, update targets) assert that the operand is a variable.
/// Also rewrites symbolic dimensions inside types.
void substituteInBody(const NameMap<SubExp> &Subst, Body &B);
void substituteInExp(const NameMap<SubExp> &Subst, Exp &E);
void substituteInLambda(const NameMap<SubExp> &Subst, Lambda &L);
Type substituteInType(const NameMap<SubExp> &Subst, const Type &T);

/// Alpha-renames every name bound inside the body/lambda/exp to a fresh one
/// (free names are rewritten through \p Outer).  Used when cloning code.
Body renameBody(const Body &B, NameSource &Names,
                const NameMap<SubExp> &Outer = {});
Lambda renameLambda(const Lambda &L, NameSource &Names,
                    const NameMap<SubExp> &Outer = {});

/// Ensures every tag in \p P is unique, renaming where needed; also makes
/// \p Names produce tags above anything in \p P.
void uniquifyProgram(Program &P, NameSource &Names);

/// A shallow structural hash/equality for expressions without nested bodies
/// (used by CSE).  Expressions with bodies hash to distinct sentinels and
/// never compare equal.
size_t hashExpShallow(const Exp &E);
bool expsStructurallyEqual(const Exp &A, const Exp &B);
/// True if \p E has no nested body and no side conditions preventing CSE.
bool expIsCSEable(const Exp &E);

} // namespace fut

#endif // FUTHARKCC_IR_TRAVERSAL_H
