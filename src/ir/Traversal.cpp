//===- Traversal.cpp - IR walking, free variables, renaming ---------------===//
//
// Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
//
//===----------------------------------------------------------------------===//

#include "ir/Traversal.h"

using namespace fut;

//===----------------------------------------------------------------------===//
// Operand enumeration
//===----------------------------------------------------------------------===//

void fut::forEachFreeOperand(const Exp &E,
                             const std::function<void(const SubExp &)> &Fn) {
  forEachOperand(E, Fn, [&](const VName &N) { Fn(SubExp::var(N)); });
}

void fut::forEachChildBody(Exp &E, const std::function<void(Body &)> &Fn) {
  switch (E.kind()) {
  case ExpKind::If: {
    auto *I = expCast<IfExp>(&E);
    Fn(I->Then);
    Fn(I->Else);
    break;
  }
  case ExpKind::Loop:
    Fn(expCast<LoopExp>(&E)->LoopBody);
    break;
  case ExpKind::Map:
    Fn(expCast<MapExp>(&E)->Fn.B);
    break;
  case ExpKind::Reduce:
    Fn(expCast<ReduceExp>(&E)->Fn.B);
    break;
  case ExpKind::Scan:
    Fn(expCast<ScanExp>(&E)->Fn.B);
    break;
  case ExpKind::Stream: {
    auto *S = expCast<StreamExp>(&E);
    Fn(S->ReduceFn.B);
    Fn(S->FoldFn.B);
    break;
  }
  case ExpKind::ReduceByIndex: {
    auto *R = expCast<ReduceByIndexExp>(&E);
    Fn(R->CombineFn.B);
    Fn(R->ValueFn.B);
    break;
  }
  case ExpKind::Kernel: {
    auto *K = expCast<KernelExp>(&E);
    Fn(K->ReduceFn.B);
    Fn(K->ThreadBody);
    break;
  }
  default:
    break;
  }
}

void fut::forEachChildBody(const Exp &E,
                           const std::function<void(const Body &)> &Fn) {
  forEachChildBody(const_cast<Exp &>(E),
                   [&](Body &B) { Fn(const_cast<const Body &>(B)); });
}

//===----------------------------------------------------------------------===//
// Free variables
//===----------------------------------------------------------------------===//

namespace {

struct FreeVarScan {
  NameSet Free;
  NameSet Bound;

  void use(const VName &N) {
    if (!Bound.count(N))
      Free.insert(N);
  }
  void use(const SubExp &S) {
    if (S.isVar())
      use(S.getVar());
  }
  void useType(const Type &T) {
    for (const Dim &D : T.shape())
      use(D);
  }
  void bindParams(const std::vector<Param> &Ps) {
    for (const Param &P : Ps)
      Bound.insert(P.Name);
    for (const Param &P : Ps)
      useType(P.Ty);
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
      Bound.insert(L->IndexVar);
      bindParams(L->MergeParams);
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
      for (const VName &N : K->ThreadIndices)
        Bound.insert(N);
      if (K->isSegmented())
        Bound.insert(K->SegIndex);
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
      scanExp(*S.E);
      for (const Param &P : S.Pat)
        Bound.insert(P.Name);
      for (const Param &P : S.Pat)
        useType(P.Ty);
    }
    for (const SubExp &S : B.Result)
      use(S);
  }

  void scanLambda(const Lambda &L) {
    bindParams(L.Params);
    for (const Type &T : L.RetTypes)
      useType(T);
    scanBody(L.B);
  }
};

} // namespace

NameSet fut::freeVarsInExp(const Exp &E) {
  FreeVarScan Scan;
  Scan.scanExp(E);
  return std::move(Scan.Free);
}

bool fut::mentionsAnyOf(const Exp &E, const NameSet &Names) {
  auto Hit = [&](const VName &N) { return Names.count(N) != 0; };
  detail::MentionWalk<decltype(Hit)> Walk{Hit};
  Walk.scanExp(E);
  return Walk.Stopped;
}

NameSet fut::freeVarsInBody(const Body &B) {
  FreeVarScan Scan;
  Scan.scanBody(B);
  return std::move(Scan.Free);
}

NameSet fut::freeVarsInLambda(const Lambda &L) {
  FreeVarScan Scan;
  Scan.scanLambda(L);
  return std::move(Scan.Free);
}

//===----------------------------------------------------------------------===//
// Substitution
//===----------------------------------------------------------------------===//

namespace {

struct Subst {
  const NameMap<SubExp> &M;

  SubExp sub(const SubExp &S) const {
    if (S.isVar()) {
      auto It = M.find(S.getVar());
      if (It != M.end())
        return It->second;
    }
    return S;
  }

  VName subV(const VName &N) const {
    auto It = M.find(N);
    if (It == M.end())
      return N;
    assert(It->second.isVar() &&
           "variable-only position substituted by a constant");
    return It->second.getVar();
  }

  Type subT(const Type &T) const {
    std::vector<Dim> Shape;
    Shape.reserve(T.shape().size());
    for (const Dim &D : T.shape())
      Shape.push_back(sub(D));
    Type R(T.elemKind(), std::move(Shape));
    return T.isUnique() ? R.asUnique() : R;
  }

  void params(std::vector<Param> &Ps) const {
    for (Param &P : Ps)
      P.Ty = subT(P.Ty);
  }

  void types(std::vector<Type> &Ts) const {
    for (Type &T : Ts)
      T = subT(T);
  }

  void operandsOnly(Exp &E) const {
    switch (E.kind()) {
    case ExpKind::SubExpE: {
      auto *X = expCast<SubExpExp>(&E);
      X->Val = sub(X->Val);
      break;
    }
    case ExpKind::BinOpE: {
      auto *X = expCast<BinOpExp>(&E);
      X->A = sub(X->A);
      X->B = sub(X->B);
      break;
    }
    case ExpKind::UnOpE: {
      auto *X = expCast<UnOpExp>(&E);
      X->A = sub(X->A);
      break;
    }
    case ExpKind::ConvOpE: {
      auto *X = expCast<ConvOpExp>(&E);
      X->A = sub(X->A);
      break;
    }
    case ExpKind::If: {
      auto *X = expCast<IfExp>(&E);
      X->Cond = sub(X->Cond);
      types(X->RetTypes);
      break;
    }
    case ExpKind::Index: {
      auto *X = expCast<IndexExp>(&E);
      X->Arr = subV(X->Arr);
      for (SubExp &S : X->Indices)
        S = sub(S);
      break;
    }
    case ExpKind::Apply: {
      auto *X = expCast<ApplyExp>(&E);
      for (SubExp &S : X->Args)
        S = sub(S);
      break;
    }
    case ExpKind::Loop: {
      auto *X = expCast<LoopExp>(&E);
      for (SubExp &S : X->MergeInit)
        S = sub(S);
      X->Bound = sub(X->Bound);
      params(X->MergeParams);
      break;
    }
    case ExpKind::Update: {
      auto *X = expCast<UpdateExp>(&E);
      X->Arr = subV(X->Arr);
      for (SubExp &S : X->Indices)
        S = sub(S);
      X->Value = sub(X->Value);
      break;
    }
    case ExpKind::Iota: {
      auto *X = expCast<IotaExp>(&E);
      X->N = sub(X->N);
      break;
    }
    case ExpKind::Replicate: {
      auto *X = expCast<ReplicateExp>(&E);
      X->N = sub(X->N);
      X->Val = sub(X->Val);
      X->ValType = subT(X->ValType);
      break;
    }
    case ExpKind::Rearrange: {
      auto *X = expCast<RearrangeExp>(&E);
      X->Arr = subV(X->Arr);
      break;
    }
    case ExpKind::Reshape: {
      auto *X = expCast<ReshapeExp>(&E);
      for (SubExp &S : X->NewShape)
        S = sub(S);
      X->Arr = subV(X->Arr);
      break;
    }
    case ExpKind::Concat: {
      auto *X = expCast<ConcatExp>(&E);
      for (VName &N : X->Arrays)
        N = subV(N);
      break;
    }
    case ExpKind::Copy: {
      auto *X = expCast<CopyExp>(&E);
      X->Arr = subV(X->Arr);
      break;
    }
    case ExpKind::Slice: {
      auto *X = expCast<SliceExp>(&E);
      X->Arr = subV(X->Arr);
      X->Offset = sub(X->Offset);
      X->Len = sub(X->Len);
      X->Stride = sub(X->Stride);
      break;
    }
    case ExpKind::Map: {
      auto *X = expCast<MapExp>(&E);
      X->Width = sub(X->Width);
      for (VName &N : X->Arrays)
        N = subV(N);
      break;
    }
    case ExpKind::Reduce: {
      auto *X = expCast<ReduceExp>(&E);
      X->Width = sub(X->Width);
      for (SubExp &S : X->Neutral)
        S = sub(S);
      for (VName &N : X->Arrays)
        N = subV(N);
      break;
    }
    case ExpKind::Scan: {
      auto *X = expCast<ScanExp>(&E);
      X->Width = sub(X->Width);
      for (SubExp &S : X->Neutral)
        S = sub(S);
      for (VName &N : X->Arrays)
        N = subV(N);
      break;
    }
    case ExpKind::Stream: {
      auto *X = expCast<StreamExp>(&E);
      X->Width = sub(X->Width);
      for (SubExp &S : X->AccInit)
        S = sub(S);
      for (VName &N : X->Arrays)
        N = subV(N);
      break;
    }
    case ExpKind::ReduceByIndex: {
      auto *X = expCast<ReduceByIndexExp>(&E);
      X->Width = sub(X->Width);
      X->Dest = subV(X->Dest);
      X->Neutral = sub(X->Neutral);
      X->IndexArr = subV(X->IndexArr);
      for (VName &N : X->ValueArrs)
        N = subV(N);
      break;
    }
    case ExpKind::Kernel: {
      auto *X = expCast<KernelExp>(&E);
      for (SubExp &D : X->GridDims)
        D = sub(D);
      X->SegSize = sub(X->SegSize);
      if (X->Op == KernelExp::OpKind::SegHist) {
        X->HistDest = subV(X->HistDest);
        X->HistWidth = sub(X->HistWidth);
      }
      for (SubExp &S : X->Neutral)
        S = sub(S);
      for (KernelExp::KInput &In : X->Inputs) {
        In.Arr = subV(In.Arr);
        In.Ty = subT(In.Ty);
      }
      types(X->RetTypes);
      break;
    }
    }
  }

  void exp(Exp &E) const {
    operandsOnly(E);
    switch (E.kind()) {
    case ExpKind::If: {
      auto *X = expCast<IfExp>(&E);
      body(X->Then);
      body(X->Else);
      break;
    }
    case ExpKind::Loop:
      body(expCast<LoopExp>(&E)->LoopBody);
      break;
    case ExpKind::Map:
      lambda(expCast<MapExp>(&E)->Fn);
      break;
    case ExpKind::Reduce:
      lambda(expCast<ReduceExp>(&E)->Fn);
      break;
    case ExpKind::Scan:
      lambda(expCast<ScanExp>(&E)->Fn);
      break;
    case ExpKind::Stream: {
      auto *X = expCast<StreamExp>(&E);
      lambda(X->ReduceFn);
      lambda(X->FoldFn);
      break;
    }
    case ExpKind::ReduceByIndex: {
      auto *X = expCast<ReduceByIndexExp>(&E);
      lambda(X->CombineFn);
      lambda(X->ValueFn);
      break;
    }
    case ExpKind::Kernel: {
      auto *X = expCast<KernelExp>(&E);
      lambda(X->ReduceFn);
      body(X->ThreadBody);
      break;
    }
    default:
      break;
    }
  }

  void body(Body &B) const {
    for (Stm &S : B.Stms) {
      exp(*S.E);
      params(S.Pat);
    }
    for (SubExp &S : B.Result)
      S = sub(S);
  }

  void lambda(Lambda &L) const {
    params(L.Params);
    types(L.RetTypes);
    body(L.B);
  }
};

} // namespace

void fut::substituteInBody(const NameMap<SubExp> &M, Body &B) {
  if (M.empty())
    return;
  Subst{M}.body(B);
}

void fut::substituteInExp(const NameMap<SubExp> &M, Exp &E) {
  if (M.empty())
    return;
  Subst{M}.exp(E);
}

void fut::substituteInLambda(const NameMap<SubExp> &M, Lambda &L) {
  if (M.empty())
    return;
  Subst{M}.lambda(L);
}

Type fut::substituteInType(const NameMap<SubExp> &M, const Type &T) {
  return Subst{M}.subT(T);
}

//===----------------------------------------------------------------------===//
// Alpha-renaming
//===----------------------------------------------------------------------===//

namespace {

struct Renamer {
  NameSource &Names;

  void freshenParams(std::vector<Param> &Ps, NameMap<SubExp> &Map) {
    for (Param &P : Ps) {
      VName Fresh = Names.freshFrom(P.Name);
      Map[P.Name] = SubExp::var(Fresh);
      P.Name = Fresh;
    }
    for (Param &P : Ps)
      P.Ty = Subst{Map}.subT(P.Ty);
  }

  void renameExp(Exp &E, NameMap<SubExp> Map) {
    Subst{Map}.operandsOnly(E);
    switch (E.kind()) {
    case ExpKind::If: {
      auto *X = expCast<IfExp>(&E);
      renameBodyIn(X->Then, Map);
      renameBodyIn(X->Else, Map);
      break;
    }
    case ExpKind::Loop: {
      auto *X = expCast<LoopExp>(&E);
      VName FreshIdx = Names.freshFrom(X->IndexVar);
      Map[X->IndexVar] = SubExp::var(FreshIdx);
      X->IndexVar = FreshIdx;
      freshenParams(X->MergeParams, Map);
      renameBodyIn(X->LoopBody, Map);
      break;
    }
    case ExpKind::Map:
      renameLambdaIn(expCast<MapExp>(&E)->Fn, Map);
      break;
    case ExpKind::Reduce:
      renameLambdaIn(expCast<ReduceExp>(&E)->Fn, Map);
      break;
    case ExpKind::Scan:
      renameLambdaIn(expCast<ScanExp>(&E)->Fn, Map);
      break;
    case ExpKind::Stream: {
      auto *X = expCast<StreamExp>(&E);
      renameLambdaIn(X->ReduceFn, Map);
      renameLambdaIn(X->FoldFn, Map);
      break;
    }
    case ExpKind::ReduceByIndex: {
      auto *X = expCast<ReduceByIndexExp>(&E);
      renameLambdaIn(X->CombineFn, Map);
      renameLambdaIn(X->ValueFn, Map);
      break;
    }
    case ExpKind::Kernel: {
      auto *X = expCast<KernelExp>(&E);
      for (VName &N : X->ThreadIndices) {
        VName Fresh = Names.freshFrom(N);
        Map[N] = SubExp::var(Fresh);
        N = Fresh;
      }
      if (X->isSegmented()) {
        VName Fresh = Names.freshFrom(X->SegIndex);
        Map[X->SegIndex] = SubExp::var(Fresh);
        X->SegIndex = Fresh;
      }
      renameLambdaIn(X->ReduceFn, Map);
      renameBodyIn(X->ThreadBody, Map);
      break;
    }
    default:
      break;
    }
  }

  void renameBodyIn(Body &B, NameMap<SubExp> Map) {
    for (Stm &S : B.Stms) {
      renameExp(*S.E, Map);
      for (Param &P : S.Pat) {
        VName Fresh = Names.freshFrom(P.Name);
        Map[P.Name] = SubExp::var(Fresh);
        P.Name = Fresh;
      }
      for (Param &P : S.Pat)
        P.Ty = Subst{Map}.subT(P.Ty);
    }
    for (SubExp &S : B.Result)
      S = Subst{Map}.sub(S);
  }

  void renameLambdaIn(Lambda &L, NameMap<SubExp> Map) {
    freshenParams(L.Params, Map);
    for (Type &T : L.RetTypes)
      T = Subst{Map}.subT(T);
    renameBodyIn(L.B, Map);
  }
};

} // namespace

Body fut::renameBody(const Body &B, NameSource &Names,
                     const NameMap<SubExp> &Outer) {
  Body Out = cloneBody(B);
  Renamer{Names}.renameBodyIn(Out, Outer);
  return Out;
}

Lambda fut::renameLambda(const Lambda &L, NameSource &Names,
                         const NameMap<SubExp> &Outer) {
  Lambda Out = cloneLambda(L);
  Renamer{Names}.renameLambdaIn(Out, Outer);
  return Out;
}

void fut::uniquifyProgram(Program &P, NameSource &Names) {
  for (FunDef &F : P.Funs) {
    NameMap<SubExp> Map;
    Renamer R{Names};
    R.freshenParams(F.Params, Map);
    for (Type &T : F.RetTypes)
      T = Subst{Map}.subT(T);
    R.renameBodyIn(F.FBody, Map);
  }
}

//===----------------------------------------------------------------------===//
// Structural hashing for CSE
//===----------------------------------------------------------------------===//

bool fut::expIsCSEable(const Exp &E) {
  switch (E.kind()) {
  case ExpKind::SubExpE:
  case ExpKind::BinOpE:
  case ExpKind::UnOpE:
  case ExpKind::ConvOpE:
  case ExpKind::Index:
  case ExpKind::Iota:
  case ExpKind::Replicate:
  case ExpKind::Rearrange:
  case ExpKind::Reshape:
  case ExpKind::Concat:
  case ExpKind::Slice:
    return true;
  default:
    return false;
  }
}

size_t fut::hashExpShallow(const Exp &E) {
  size_t Seed = std::hash<int>()(static_cast<int>(E.kind()));
  auto Hash = [&](const SubExp &S) { hashCombine(Seed, S.hash()); };
  forEachOperand(E, Hash, [&](const VName &N) { Hash(SubExp::var(N)); });
  // Kind-specific non-operand payload.
  switch (E.kind()) {
  case ExpKind::BinOpE:
    hashCombine(Seed, static_cast<size_t>(expCast<BinOpExp>(&E)->Op));
    break;
  case ExpKind::UnOpE:
    hashCombine(Seed, static_cast<size_t>(expCast<UnOpExp>(&E)->Op));
    break;
  case ExpKind::ConvOpE: {
    const auto *C = expCast<ConvOpExp>(&E);
    hashCombine(Seed, static_cast<size_t>(C->Op.From));
    hashCombine(Seed, static_cast<size_t>(C->Op.To));
    break;
  }
  case ExpKind::Iota:
    hashCombine(Seed, static_cast<size_t>(expCast<IotaExp>(&E)->Elem));
    break;
  case ExpKind::Rearrange:
    for (int P : expCast<RearrangeExp>(&E)->Perm)
      hashCombine(Seed, std::hash<int>()(P));
    break;
  default:
    break;
  }
  return Seed;
}

bool fut::expsStructurallyEqual(const Exp &A, const Exp &B) {
  if (A.kind() != B.kind())
    return false;
  if (!expIsCSEable(A) || !expIsCSEable(B))
    return false;

  // Compare operand sequences.
  std::vector<SubExp> OpsA, OpsB;
  auto Collect = [](const Exp &E, std::vector<SubExp> &Ops) {
    forEachOperand(
        E, [&](const SubExp &S) { Ops.push_back(S); },
        [&](const VName &N) { Ops.push_back(SubExp::var(N)); });
  };
  Collect(A, OpsA);
  Collect(B, OpsB);
  if (OpsA != OpsB)
    return false;

  switch (A.kind()) {
  case ExpKind::BinOpE:
    return expCast<BinOpExp>(&A)->Op == expCast<BinOpExp>(&B)->Op;
  case ExpKind::UnOpE:
    return expCast<UnOpExp>(&A)->Op == expCast<UnOpExp>(&B)->Op;
  case ExpKind::ConvOpE: {
    const auto *CA = expCast<ConvOpExp>(&A);
    const auto *CB = expCast<ConvOpExp>(&B);
    return CA->Op.From == CB->Op.From && CA->Op.To == CB->Op.To;
  }
  case ExpKind::Iota:
    return expCast<IotaExp>(&A)->Elem == expCast<IotaExp>(&B)->Elem;
  case ExpKind::Rearrange:
    return expCast<RearrangeExp>(&A)->Perm == expCast<RearrangeExp>(&B)->Perm;
  default:
    return true;
  }
}
