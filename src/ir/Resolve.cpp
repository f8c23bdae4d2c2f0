//===- Resolve.cpp - Slot-resolved bodies ---------------------------------===//
//
// Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
//
//===----------------------------------------------------------------------===//

#include "ir/Resolve.h"

#include <algorithm>

using namespace fut;

int SlotResolver::newSlot(SlotKind K, const VName *N) {
  SlotInfo SI;
  SI.Kind = K;
  SI.Name = N;
  Slots.push_back(SI);
  SlotDepth.push_back(static_cast<int>(ScopeMarks.size()));
  return static_cast<int>(Slots.size()) - 1;
}

namespace {

size_t nameHash(const VName &N) {
  size_t H = N.Tag >= 0 ? static_cast<size_t>(N.Tag)
                        : std::hash<std::string>()(N.Base);
  return H * 0x9E3779B97F4A7C15ULL;
}

} // namespace

int SlotResolver::entryOf(const VName &N) const {
  if (Index.empty())
    return -1;
  size_t Mask = Index.size() - 1;
  for (size_t I = nameHash(N) & Mask;; I = (I + 1) & Mask) {
    const Cell &C = Index[I];
    if (C.Entry == 0)
      return -1;
    if (C.Tag == N.Tag && Names[C.Entry - 1].Name->Base == N.Base)
      return static_cast<int>(C.Entry - 1);
  }
}

void SlotResolver::insertCell(uint32_t Entry) {
  size_t Mask = Index.size() - 1;
  const VName &N = *Names[Entry].Name;
  size_t I = nameHash(N) & Mask;
  while (Index[I].Entry != 0)
    I = (I + 1) & Mask;
  Index[I] = {N.Tag, Entry + 1};
}

int SlotResolver::addEntry(const VName &N) {
  int E = entryOf(N);
  if (E >= 0)
    return E;
  E = static_cast<int>(Names.size());
  Names.push_back({&N});
  if (2 * Names.size() > Index.size()) {
    Index.assign(std::max<size_t>(64, 2 * Index.size()), Cell());
    for (uint32_t I = 0; I < Names.size(); ++I)
      insertCell(I);
  } else {
    insertCell(static_cast<uint32_t>(E));
  }
  return E;
}

void SlotResolver::openScope() { ScopeMarks.push_back(Shadowed.size()); }

void SlotResolver::closeScope() {
  size_t Mark = ScopeMarks.back();
  ScopeMarks.pop_back();
  while (Shadowed.size() > Mark) {
    Names[Shadowed.back().first].Visible = Shadowed.back().second;
    Shadowed.pop_back();
  }
}

int SlotResolver::bind(const VName &N) {
  int Slot = newSlot(SlotKind::Bound, &N);
  int E = addEntry(N);
  Shadowed.push_back({E, Names[E].Visible});
  Names[E].Visible = Slot;
  return Slot;
}

int SlotResolver::use(const VName &N) {
  int E = entryOf(N);
  if (E >= 0 && Names[E].Visible >= 0)
    return Names[E].Visible;
  if (E < 0)
    E = addEntry(N);
  if (Names[E].Free >= 0)
    return Names[E].Free;
  int Slot = newSlot(SlotKind::Free, &N);
  // A free name belongs to no scope of the unit.
  SlotDepth[Slot] = -1;
  Names[E].Free = Slot;
  return Slot;
}

int SlotResolver::use(const SubExp &S) {
  return S.isConst() ? constant(S.getConst()) : use(S.getVar());
}

int SlotResolver::visible(const VName &N) const {
  int E = entryOf(N);
  return E < 0 ? -1 : Names[E].Visible;
}

void SlotResolver::params(const std::vector<Param> &Ps,
                          std::vector<int> &Out, std::vector<RDim> &Dims) {
  for (size_t I = 0; I < Ps.size(); ++I) {
    Out.push_back(bind(Ps[I].Name));
    if (!BindDims || Ps[I].Ty.isScalar())
      continue;
    for (const Dim &D : Ps[I].Ty.shape()) {
      if (!D.isVar())
        continue;
      RDim R;
      R.Slot = visible(D.getVar());
      R.Fresh = R.Slot < 0;
      if (R.Fresh)
        R.Slot = bind(D.getVar());
      Dims.push_back(R);
    }
  }
}

ConsumeKind SlotResolver::consumeOf(int Slot) const {
  if (Slots[Slot].Kind != SlotKind::Bound)
    return ConsumeKind::Free;
  if (SlotDepth[Slot] == static_cast<int>(ScopeMarks.size()))
    return ConsumeKind::Local;
  return ConsumeKind::Outer;
}

int SlotResolver::constant(const PrimValue &V) {
  int Slot = newSlot(SlotKind::Const, nullptr);
  Slots[Slot].Const = V;
  SlotDepth[Slot] = -1;
  return Slot;
}

void SlotResolver::finishResult(RBody &Out) {
  int Depth = static_cast<int>(ScopeMarks.size());
  Out.MoveResult.assign(Out.Result.size(), 0);
  for (size_t I = 0; I < Out.Result.size(); ++I) {
    int Slot = Out.Result[I];
    bool Last = std::find(Out.Result.begin() + I + 1, Out.Result.end(),
                          Slot) == Out.Result.end();
    Out.MoveResult[I] = Last && Slots[Slot].Kind == SlotKind::Bound &&
                        SlotDepth[Slot] == Depth;
  }
}

void SlotResolver::stms(const Body &B, RBody &Out) {
  Out.Stms.reserve(B.Stms.size());
  for (const Stm &S : B.Stms)
    Out.Stms.push_back(stm(S));
  for (const SubExp &R : B.Result)
    Out.Result.push_back(use(R));
  finishResult(Out);
}

RBody SlotResolver::body(const Body &B) {
  RBody Out;
  openScope();
  stms(B, Out);
  closeScope();
  return Out;
}

RLambda SlotResolver::lambda(const Lambda &L) {
  RLambda Out;
  Out.L = &L;
  openScope();
  params(L.Params, Out.Params, Out.ParamDims);
  stms(L.B, Out.Body);
  closeScope();
  return Out;
}

RStm SlotResolver::stm(const Stm &S) {
  RStm R;
  const Exp &E = *S.E;
  R.E = &E;
  R.St = &S;
  auto Uses = [&](const auto &Xs) {
    for (const auto &X : Xs)
      R.Ops.push_back(use(X));
  };
  switch (E.kind()) {
  case ExpKind::SubExpE:
    R.Ops.push_back(use(expCast<SubExpExp>(&E)->Val));
    break;
  case ExpKind::BinOpE: {
    const auto *X = expCast<BinOpExp>(&E);
    R.Ops = {use(X->A), use(X->B)};
    break;
  }
  case ExpKind::UnOpE:
    R.Ops.push_back(use(expCast<UnOpExp>(&E)->A));
    break;
  case ExpKind::ConvOpE:
    R.Ops.push_back(use(expCast<ConvOpExp>(&E)->A));
    break;
  case ExpKind::If: {
    const auto *X = expCast<IfExp>(&E);
    R.Ops.push_back(use(X->Cond));
    R.Bodies.push_back(body(X->Then));
    R.Bodies.push_back(body(X->Else));
    break;
  }
  case ExpKind::Index: {
    const auto *X = expCast<IndexExp>(&E);
    R.Ops.push_back(use(X->Arr));
    Uses(X->Indices);
    break;
  }
  case ExpKind::Apply:
    Uses(expCast<ApplyExp>(&E)->Args);
    break;
  case ExpKind::Loop: {
    const auto *X = expCast<LoopExp>(&E);
    R.Ops.push_back(use(X->Bound));
    Uses(X->MergeInit);
    RBody LB;
    openScope();
    R.Binds.push_back(bind(X->IndexVar));
    params(X->MergeParams, R.Binds, R.BindDims);
    stms(X->LoopBody, LB);
    closeScope();
    R.Bodies.push_back(std::move(LB));
    break;
  }
  case ExpKind::Update: {
    const auto *X = expCast<UpdateExp>(&E);
    int Arr = use(X->Arr);
    R.Ops.push_back(Arr);
    Uses(X->Indices);
    R.Ops.push_back(use(X->Value));
    R.Consume = consumeOf(Arr);
    break;
  }
  case ExpKind::Iota:
    R.Ops.push_back(use(expCast<IotaExp>(&E)->N));
    break;
  case ExpKind::Replicate: {
    const auto *X = expCast<ReplicateExp>(&E);
    R.Ops = {use(X->N), use(X->Val)};
    break;
  }
  case ExpKind::Rearrange:
    R.Ops.push_back(use(expCast<RearrangeExp>(&E)->Arr));
    break;
  case ExpKind::Reshape: {
    const auto *X = expCast<ReshapeExp>(&E);
    R.Ops.push_back(use(X->Arr));
    Uses(X->NewShape);
    break;
  }
  case ExpKind::Concat:
    Uses(expCast<ConcatExp>(&E)->Arrays);
    break;
  case ExpKind::Copy:
    R.Ops.push_back(use(expCast<CopyExp>(&E)->Arr));
    break;
  case ExpKind::Slice: {
    const auto *X = expCast<SliceExp>(&E);
    R.Ops = {use(X->Arr), use(X->Offset), use(X->Len), use(X->Stride)};
    break;
  }
  case ExpKind::Map: {
    const auto *X = expCast<MapExp>(&E);
    R.Ops.push_back(use(X->Width));
    Uses(X->Arrays);
    R.Lams.push_back(lambda(X->Fn));
    break;
  }
  case ExpKind::Reduce: {
    const auto *X = expCast<ReduceExp>(&E);
    R.Ops.push_back(use(X->Width));
    Uses(X->Neutral);
    Uses(X->Arrays);
    R.Lams.push_back(lambda(X->Fn));
    break;
  }
  case ExpKind::Scan: {
    const auto *X = expCast<ScanExp>(&E);
    R.Ops.push_back(use(X->Width));
    Uses(X->Neutral);
    Uses(X->Arrays);
    R.Lams.push_back(lambda(X->Fn));
    break;
  }
  case ExpKind::Stream: {
    const auto *X = expCast<StreamExp>(&E);
    R.Ops.push_back(use(X->Width));
    Uses(X->AccInit);
    Uses(X->Arrays);
    R.Lams.push_back(lambda(X->FoldFn));
    R.Lams.push_back(lambda(X->ReduceFn));
    break;
  }
  case ExpKind::ReduceByIndex: {
    const auto *X = expCast<ReduceByIndexExp>(&E);
    R.Ops = {use(X->Width), use(X->Dest), use(X->Neutral),
             use(X->IndexArr)};
    Uses(X->ValueArrs);
    R.Consume = consumeOf(R.Ops[1]);
    R.Lams.push_back(lambda(X->CombineFn));
    R.Lams.push_back(lambda(X->ValueFn));
    break;
  }
  case ExpKind::Kernel: {
    const auto *X = expCast<KernelExp>(&E);
    if (OnKernel)
      OnKernel(*X);
    Uses(X->GridDims);
    if (X->isSegmented())
      R.Ops.push_back(use(X->SegSize));
    if (X->Op == KernelExp::OpKind::SegHist) {
      R.Ops.push_back(use(X->HistWidth));
      int Dest = use(X->HistDest);
      R.Ops.push_back(Dest);
      R.Consume = consumeOf(Dest);
    }
    Uses(X->Neutral);
    for (const KernelExp::KInput &In : X->Inputs)
      R.Ops.push_back(use(In.Arr));
    if (!KernelBodies)
      break;
    if (X->usesReduceFn())
      R.Lams.push_back(lambda(X->ReduceFn));
    RBody TB;
    openScope();
    for (const VName &N : X->ThreadIndices)
      R.Binds.push_back(bind(N));
    if (X->isSegmented())
      R.Binds.push_back(bind(X->SegIndex));
    stms(X->ThreadBody, TB);
    closeScope();
    R.Bodies.push_back(std::move(TB));
    break;
  }
  }
  params(S.Pat, R.Pat, R.PatDims);
  return R;
}
