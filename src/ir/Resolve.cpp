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

void SlotResolver::openScope() { ScopeMarks.push_back(Shadowed.size()); }

void SlotResolver::closeScope() {
  size_t Mark = ScopeMarks.back();
  ScopeMarks.pop_back();
  while (Shadowed.size() > Mark) {
    auto &[Name, Prev] = Shadowed.back();
    if (Prev < 0)
      Visible.erase(Name);
    else
      Visible[Name] = Prev;
    Shadowed.pop_back();
  }
}

int SlotResolver::bind(const VName &N) {
  int Slot = newSlot(SlotKind::Bound, &N);
  auto It = Visible.find(N);
  if (It == Visible.end()) {
    Shadowed.push_back({N, -1});
    Visible.emplace(N, Slot);
  } else {
    Shadowed.push_back({N, It->second});
    It->second = Slot;
  }
  return Slot;
}

int SlotResolver::use(const VName &N) {
  auto It = Visible.find(N);
  if (It != Visible.end())
    return It->second;
  auto F = FreeSlots.find(N);
  if (F != FreeSlots.end())
    return F->second;
  int Slot = newSlot(SlotKind::Free, &N);
  // A free name belongs to no scope of the unit.
  SlotDepth[Slot] = -1;
  FreeSlots.emplace(N, Slot);
  return Slot;
}

int SlotResolver::use(const SubExp &S) {
  return S.isConst() ? constant(S.getConst()) : use(S.getVar());
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
  for (const Param &P : L.Params)
    Out.Params.push_back(bind(P.Name));
  stms(L.B, Out.Body);
  closeScope();
  return Out;
}

RStm SlotResolver::stm(const Stm &S) {
  RStm R;
  const Exp &E = *S.E;
  R.E = &E;
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
    for (const Param &P : X->MergeParams)
      R.Binds.push_back(bind(P.Name));
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
    if (Slots[Arr].Kind != SlotKind::Bound)
      R.Consume = ConsumeKind::Free;
    else if (SlotDepth[Arr] == static_cast<int>(ScopeMarks.size()))
      R.Consume = ConsumeKind::Local;
    else
      R.Consume = ConsumeKind::Outer;
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
    R.Lams.push_back(lambda(X->CombineFn));
    R.Lams.push_back(lambda(X->ValueFn));
    break;
  }
  case ExpKind::Kernel:
    break;
  }
  for (const Param &P : S.Pat)
    R.Pat.push_back(bind(P.Name));
  return R;
}
