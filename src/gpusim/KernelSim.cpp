//===- KernelSim.cpp - Per-launch kernel simulation -----------------------===//
//
// Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
//
//===----------------------------------------------------------------------===//

#include "gpusim/KernelSim.h"

#include "gpusim/BufferManager.h"
#include "gpusim/Prepared.h"

#include <algorithm>
#include <cassert>
#include <functional>

using namespace fut;
using namespace fut::gpusim;

#define FUT_TRY(VAR, EXPR)                                                     \
  auto VAR##OrErr = (EXPR);                                                    \
  if (!VAR##OrErr)                                                             \
    return VAR##OrErr.getError();                                              \
  auto VAR = VAR##OrErr.take();

#define FUT_CHECK(EXPR)                                                        \
  do {                                                                         \
    if (auto Err = (EXPR))                                                     \
      return Err.getError();                                                   \
  } while (false)

namespace {

int64_t elemBytes(ScalarKind K) {
  switch (K) {
  case ScalarKind::Bool:
    return 1;
  case ScalarKind::I32:
  case ScalarKind::F32:
    return 4;
  case ScalarKind::I64:
  case ScalarKind::F64:
    return 8;
  }
  return 4;
}

/// Whether \p B runs on scalars alone with the interpreter's semantics:
/// scalar operations and branches, every binding scalar-typed and of the
/// arity its expression produces.
bool plainBody(const Body &B) {
  for (const Stm &S : B.Stms) {
    for (const Param &P : S.Pat)
      if (!P.Ty.isScalar())
        return false;
    switch (S.E->kind()) {
    case ExpKind::SubExpE:
    case ExpKind::BinOpE:
    case ExpKind::UnOpE:
    case ExpKind::ConvOpE:
      if (S.Pat.size() != 1)
        return false;
      break;
    case ExpKind::If: {
      const auto *X = expCast<IfExp>(S.E.get());
      if (X->Then.Result.size() != S.Pat.size() ||
          X->Else.Result.size() != S.Pat.size() || !plainBody(X->Then) ||
          !plainBody(X->Else))
        return false;
      break;
    }
    default:
      return false;
    }
  }
  return true;
}

} // namespace

//===----------------------------------------------------------------------===//
// Preparation
//===----------------------------------------------------------------------===//

PreparedOp::PreparedOp(const Lambda &Fn)
    : R(std::make_unique<ResolvedLambda>(Fn)) {
  const std::vector<SlotInfo> &Slots = R->Slots;
  Plain = plainBody(Fn.B);
  for (const Param &Prm : Fn.Params)
    Plain = Plain && Prm.Ty.isScalar();
  Init.resize(Slots.size());
  for (size_t I = 0; I < Slots.size(); ++I) {
    if (Slots[I].Kind == SlotKind::Free)
      Plain = false; // the interpreter reports the unbound name
    if (Slots[I].Kind == SlotKind::Const)
      Init[I] = Slots[I].Const;
  }
}

PreparedKernel::PreparedKernel(const KernelExp &Kern, NameSet *KeepAfter)
    : K(&Kern) {
  SlotResolver Res;
  Res.openScope();
  for (const KernelExp::KInput &In : Kern.Inputs)
    InputSlots.push_back(Res.bind(In.Arr));
  for (const VName &N : Kern.ThreadIndices)
    IndexSlots.push_back(Res.bind(N));
  if (Kern.isSegmented())
    SegSlot = Res.bind(Kern.SegIndex);
  Res.stms(Kern.ThreadBody, Body);
  Res.closeScope();
  Slots = Res.takeSlots();
  for (size_t I = 0; I < Slots.size(); ++I)
    if (Slots[I].Kind == SlotKind::Free)
      FreeSlots.push_back(static_cast<int>(I));
  if (Kern.usesReduceFn())
    ReduceOp = PreparedOp(Kern.ReduceFn);

  // stream_red combine operators anywhere in the thread body.
  std::function<void(const RBody &)> Walk = [&](const RBody &B) {
    for (const RStm &S : B.Stms) {
      if (const auto *X = expDynCast<StreamExp>(S.E))
        if (X->Form == StreamExp::FormKind::Red)
          StreamOps.emplace(S.E, PreparedOp(X->ReduceFn));
      for (const RBody &Inner : S.Bodies)
        Walk(Inner);
      for (const RLambda &Lam : S.Lams)
        Walk(Lam.Body);
    }
  };
  Walk(Body);

  if (KeepAfter)
    Keep = std::move(*KeepAfter);
}

PreparedProgram::PreparedProgram(const Program &P) : Prog(P), Host(P) {
  Host.KernelBodies = false;
  Host.OnKernel = [this](const KernelExp &K, const SlotResolver &R) {
    prepareKernel(K, R);
  };
}

PreparedProgram::~PreparedProgram() = default;

void PreparedProgram::prepareKernel(const KernelExp &K,
                                    const SlotResolver &R) {
  if (!KeepOf) {
    KeepOf.emplace();
    LivenessInfo Liveness(Prog);
    for (const FunDef &F : Prog.Funs)
      shard::forEachKernel(F, [&](const KernelExp &Kern, const Stm &, int,
                                  bool) {
        if (const NameSet *Live = Liveness.liveAfter(&Kern)) {
          NameSet &Keep = (*KeepOf)[&Kern] = *Live;
          for (const KernelExp::KInput &In : Kern.Inputs)
            Keep.insert(In.Arr);
        }
      });
  }
  auto It = KeepOf->find(&K);
  auto PK = std::make_unique<PreparedKernel>(
      K, It == KeepOf->end() ? nullptr : &It->second);
  PK->HostSlot.assign(PK->Slots.size(), -1);
  for (size_t I = 0; I < PK->Slots.size(); ++I)
    if (const VName *N = PK->Slots[I].Name)
      PK->HostSlot[I] = R.visible(*N);
  Kernels[&K] = std::move(PK);
}

const PreparedKernel &PreparedProgram::kernel(const KernelExp &K) const {
  auto It = Kernels.find(&K);
  assert(It != Kernels.end() && "kernel of an unresolved function");
  return *It->second;
}

const PreparedProgram::ShardMap &
PreparedProgram::shards(const FunDef &F, const shard::FunShardPlan &SP) {
  ShardEntry &E = Shards[&F];
  if (E.Plan != &SP) {
    E.Plan = &SP;
    E.Of.clear();
    shard::forEachKernel(F, [&](const KernelExp &K, const Stm &, int Id,
                                bool) {
      if (const shard::KernelShard *KS = SP.kernel(Id))
        E.Of[&K] = KS;
    });
  }
  return E.Of;
}

//===----------------------------------------------------------------------===//
// Operators
//===----------------------------------------------------------------------===//

MaybeError PreparedOp::apply(const std::vector<Value> &Args,
                             std::vector<Value> &Out,
                             std::vector<PrimValue> &Frame) const {
  bool Scalars = Plain;
  for (const Value &A : Args)
    Scalars = Scalars && A.isScalar();
  if (!Scalars) {
    static const Program Empty;
    Interpreter I(Empty);
    auto Res = I.applyLambda(*R, Args);
    if (!Res)
      return Res.getError();
    Out = Res.take();
    return MaybeError::success();
  }
  const RLambda &L = R->L;
  if (Args.size() != L.Params.size())
    return CompilerError("lambda arity mismatch: expected " +
                         std::to_string(L.Params.size()) +
                         " arguments, got " + std::to_string(Args.size()));
  Frame = Init;
  for (size_t I = 0; I < Args.size(); ++I)
    Frame[L.Params[I]] = Args[I].getScalar();
  FUT_CHECK(runPlain(L.Body, Frame));
  Out.resize(L.Body.Result.size());
  for (size_t I = 0; I < Out.size(); ++I)
    Out[I] = Value::scalar(Frame[L.Body.Result[I]]);
  return MaybeError::success();
}

MaybeError PreparedOp::runPlain(const RBody &B,
                                std::vector<PrimValue> &F) const {
  for (const RStm &S : B.Stms) {
    switch (S.E->kind()) {
    case ExpKind::SubExpE:
      F[S.Pat[0]] = F[S.Ops[0]];
      break;
    case ExpKind::BinOpE: {
      FUT_TRY(V, evalBinOp(expCast<BinOpExp>(S.E)->Op, F[S.Ops[0]],
                           F[S.Ops[1]]));
      F[S.Pat[0]] = V;
      break;
    }
    case ExpKind::UnOpE: {
      FUT_TRY(V, evalUnOp(expCast<UnOpExp>(S.E)->Op, F[S.Ops[0]]));
      F[S.Pat[0]] = V;
      break;
    }
    case ExpKind::ConvOpE:
      F[S.Pat[0]] = evalConvOp(expCast<ConvOpExp>(S.E)->Op, F[S.Ops[0]]);
      break;
    case ExpKind::If: {
      const PrimValue &C = F[S.Ops[0]];
      if (C.kind() != ScalarKind::Bool)
        return CompilerError(S.E->Loc, "if condition is not a bool");
      const RBody &Branch = C.getBool() ? S.Bodies[0] : S.Bodies[1];
      FUT_CHECK(runPlain(Branch, F));
      for (size_t I = 0; I < S.Pat.size(); ++I)
        F[S.Pat[I]] = F[Branch.Result[I]];
      break;
    }
    default:
      return CompilerError("operator statement is not scalar");
    }
  }
  return MaybeError::success();
}

//===----------------------------------------------------------------------===//
// Setup
//===----------------------------------------------------------------------===//

MaybeError KernelSim::resolveInputs() {
  uint64_t Base = 1ULL << 40;
  for (size_t I = 0; I < K.Inputs.size(); ++I) {
    const KernelExp::KInput &In = K.Inputs[I];
    const Value *V = Host.op(KOps.Inputs + static_cast<int>(I));
    if (!V)
      return CompilerError("kernel input " + In.Arr.str() +
                           " is not bound on the host");
    InputVals.push_back(*V);
    InputBase.push_back(Base);
    Base += static_cast<uint64_t>(V->numElems() + 64) *
            elemBytes(V->elemKind());
    InputTiled.push_back(In.Tiled);
    InputPerm.push_back(In.LayoutPerm);
  }
  return MaybeError::success();
}

void KernelSim::bindFrame() {
  Frame.assign(PK.Slots.size(), Slot());
  for (size_t I = 0; I < PK.Slots.size(); ++I)
    if (PK.Slots[I].Kind == SlotKind::Const) {
      Frame[I].T = TValue(Value::scalar(PK.Slots[I].Const));
      Frame[I].Bound = true;
    }
  for (int S : PK.FreeSlots) {
    if (const Value *H = Host.named(PK, S)) {
      Frame[S].T = TValue(*H);
      Frame[S].Bound = true;
    }
  }
}

/// Re-binds what a thread starts with: the input views (an update or a
/// moved-out result may have erased one in the previous thread).
void KernelSim::startThread() {
  Fallbacks.clear();
  for (size_t I = 0; I < PK.InputSlots.size(); ++I) {
    Slot &S = Frame[PK.InputSlots[I]];
    if (S.Bound)
      continue;
    GlobalView G;
    G.InputIdx = static_cast<int>(I);
    S.T = TValue::view(std::move(G));
    S.Bound = true;
  }
}

ErrorOr<int64_t> KernelSim::resolveInt(int Op, const SubExp &S) const {
  const Value *V = Host.op(Op);
  if (!V)
    return CompilerError("kernel size " + S.getVar().str() +
                         " is not bound on the host");
  return V->getScalar().asInt64();
}

ErrorOr<Value> KernelSim::neutral(size_t I) const {
  const Value *V = Host.op(KOps.Neutral + static_cast<int>(I));
  if (!V)
    return CompilerError("kernel neutral element is unbound");
  return *V;
}

//===----------------------------------------------------------------------===//
// Global memory
//===----------------------------------------------------------------------===//

std::vector<int64_t> KernelSim::viewShape(const GlobalView &G) const {
  const Value &In = inputOf(G);
  std::vector<int64_t> Shape(In.shape().begin() + G.Prefix.size(),
                             In.shape().end());
  if (G.Sliced && !Shape.empty())
    Shape[0] = G.SliceLen;
  return Shape;
}

/// Reads the element at index FullIdx of \p G's input, charging the
/// access.
ErrorOr<PrimValue> KernelSim::readFull(const GlobalView &G) {
  const Value &In = inputOf(G);
  if (!In.inBounds(FullIdx))
    return CompilerError("global read out of bounds");
  chargeGlobal(G.InputIdx, FullIdx, In);
  return In.at(FullIdx);
}

void KernelSim::chargeGlobal(int InputIdx, const std::vector<int64_t> &Full,
                             const Value &In) {
  if (InputTiled[InputIdx]) {
    ++Cost.LocalAccesses;
    ++Cost.TiledElementTouches;
    Cost.TiledElementBytes += elemBytes(In.elemKind());
    return;
  }
  // Storage address under the layout permutation.
  const std::vector<int> &Perm = InputPerm[InputIdx];
  uint64_t Off = 0;
  if (Perm.size() == Full.size()) {
    for (size_t D = 0; D < Perm.size(); ++D)
      Off = Off * static_cast<uint64_t>(In.shape()[Perm[D]]) +
            static_cast<uint64_t>(Full[Perm[D]]);
  } else {
    Off = static_cast<uint64_t>(In.flatIndex(Full));
  }
  uint64_t Addr = InputBase[InputIdx] + Off * elemBytes(In.elemKind());
  ++Cost.GlobalAccesses;
  if (Trace)
    Trace->push_back(Addr);
}

/// Charges a synthetic global write (kernel outputs).
void KernelSim::chargeWrite(uint64_t Addr) {
  ++Cost.GlobalAccesses;
  if (Trace)
    Trace->push_back(Addr);
}

/// Accounts one materialised result value against the device-memory
/// budget.  Scalars count as one element: per-thread scalar results are
/// exactly the elements of the assembled output array, so the running
/// total matches the final outputs' footprint.
MaybeError KernelSim::chargeOutput(const Value &V) {
  OutBytesSoFar += V.numElems() * elemBytes(V.elemKind());
  if (OutBudgetBytes < 0)
    return MaybeError::success();
  if (OutBytesSoFar > OutBudgetBytes)
    return CompilerError::deviceOOM(
        "device out of memory materialising kernel results: " +
        std::to_string(OutBytesSoFar) + " bytes needed, " +
        std::to_string(OutBudgetBytes) + " free");
  return MaybeError::success();
}

/// Charges \p N accesses to a thread-private array of \p ArrElems
/// elements.  Arrays too large for registers/private memory spill to
/// global memory with poor locality (roughly one transaction per two
/// accesses).
void KernelSim::chargePrivate(int64_t N, int64_t ArrElems) {
  if (ArrElems > P.PrivateSpillElems) {
    Cost.GlobalAccesses += N;
    // Spilled traffic is address-scattered by construction.
    Cost.GlobalTransactions += (N + 1) / 2;
    Cost.ScatteredTransactions += (N + 1) / 2;
    return;
  }
  Cost.PrivateAccesses += N;
}

/// Materialises a value into private memory, charging all reads of a
/// view.
ErrorOr<Value> KernelSim::force(const TValue &T) {
  if (!T.IsView)
    return T.V;
  const GlobalView &G = T.View;
  std::vector<int64_t> Shape = viewShape(G);
  int64_t N = 1;
  for (int64_t D : Shape)
    N *= D;
  auto Read = [&](const std::vector<int64_t> &Idx) {
    FullIdx.assign(G.Prefix.begin(), G.Prefix.end());
    bool First = true;
    for (int64_t I : Idx) {
      FullIdx.push_back(First && G.Sliced ? I * G.SliceStride + G.SliceOff
                                          : I);
      First = false;
    }
    return readFull(G);
  };
  if (Shape.empty()) {
    FUT_TRY(V, Read({}));
    return Value::scalar(V);
  }
  std::vector<PrimValue> Data;
  Data.reserve(N);
  std::vector<int64_t> Idx(Shape.size(), 0);
  for (int64_t F = 0; F < N; ++F) {
    FUT_TRY(V, Read(Idx));
    Data.push_back(V);
    for (int D = static_cast<int>(Shape.size()) - 1; D >= 0; --D) {
      if (++Idx[D] < Shape[D])
        break;
      Idx[D] = 0;
    }
  }
  Cost.PrivateAccesses += N;
  return Value::array(inputOf(G).elemKind(), std::move(Shape),
                      std::move(Data));
}

//===----------------------------------------------------------------------===//
// Thread-level evaluation
//===----------------------------------------------------------------------===//

/// The value slot \p S holds or, when it is unbound, the host binding of
/// its name.
ErrorOr<const TValue *> KernelSim::valueOf(int S) {
  Slot &Sl = Frame[S];
  if (Sl.Bound)
    return &Sl.T;
  const Value *H = Host.named(PK, S);
  if (!H)
    return CompilerError("unbound variable " + PK.Slots[S].Name->str() +
                         " in kernel");
  Fallbacks.emplace_back(*H);
  return &Fallbacks.back();
}

ErrorOr<PrimValue> KernelSim::scalarOf(int S) {
  FUT_TRY(T, valueOf(S));
  if (T->IsView)
    return CompilerError("expected a scalar, found a view");
  if (!T->V.isScalar())
    return CompilerError("expected a scalar");
  return T->V.getScalar();
}

void KernelSim::bindValue(int S, Value V) {
  Slot &Sl = Frame[S];
  Sl.T.IsView = false;
  Sl.T.V = std::move(V);
  Sl.Bound = true;
}

/// Reads row I of a (private or view) array value, charging reads.
ErrorOr<Value> KernelSim::rowOf(const TValue &T, int64_t I) {
  if (T.IsView) {
    const GlobalView &G0 = T.View;
    const Value &In = inputOf(G0);
    int64_t Real = G0.Sliced ? I * G0.SliceStride + G0.SliceOff : I;
    if (G0.Prefix.size() + 1 == static_cast<size_t>(In.rank())) {
      FullIdx.assign(G0.Prefix.begin(), G0.Prefix.end());
      FullIdx.push_back(Real);
      FUT_TRY(V, readFull(G0));
      return Value::scalar(V);
    }
    GlobalView G = G0;
    G.Prefix.push_back(Real);
    G.Sliced = false;
    G.SliceStride = 1;
    return force(TValue::view(std::move(G)));
  }
  if (!T.V.isArray() || I < 0 || I >= T.V.outerSize())
    return CompilerError("row read out of bounds in kernel");
  chargePrivate(T.V.rowElems(), T.V.numElems());
  return T.V.row(I);
}

ErrorOr<int64_t> KernelSim::outerSizeOf(const TValue &T) {
  if (T.IsView) {
    const Value &In = inputOf(T.View);
    if (T.View.Prefix.size() >= static_cast<size_t>(In.rank()))
      return CompilerError("scalar view has no outer size");
    return T.View.Sliced ? T.View.SliceLen
                         : In.shape()[T.View.Prefix.size()];
  }
  if (!T.V.isArray())
    return CompilerError("scalar has no outer size");
  return T.V.outerSize();
}

/// Runs \p B's statements, then collects its results into \p Out; updates
/// of enclosing bodies' arrays are undone once the results are read.
MaybeError KernelSim::evalBody(const RBody &B, std::vector<TValue> &Out) {
  size_t Mark = Undo.size();
  for (const RStm &S : B.Stms)
    FUT_CHECK(evalStm(S));
  Out.clear();
  for (size_t I = 0; I < B.Result.size(); ++I) {
    int R = B.Result[I];
    Slot &Sl = Frame[R];
    if (B.MoveResult[I] && Sl.Bound) {
      Out.push_back(std::move(Sl.T));
      Sl.Bound = false;
      continue;
    }
    FUT_TRY(T, valueOf(R));
    Out.push_back(*T);
  }
  while (Undo.size() > Mark) {
    Frame[Undo.back()].Bound = true;
    Undo.pop_back();
  }
  return MaybeError::success();
}

/// Applies \p L to the NumArgs arguments already bound to its leading
/// parameter slots; the results, forced to private values, go to \p Out.
MaybeError KernelSim::applyLambda(const RLambda &L, size_t NumArgs,
                                  std::vector<Value> &Out) {
  if (NumArgs != L.Params.size())
    return CompilerError("kernel lambda arity mismatch");
  if (ResDepth == ResPool.size())
    ResPool.emplace_back();
  std::vector<TValue> &Res = ResPool[ResDepth++];
  MaybeError Err = evalBody(L.Body, Res);
  if (!Err) {
    Out.clear();
    for (TValue &T : Res) {
      auto V = force(T);
      if (!V) {
        Err = V.getError();
        break;
      }
      Out.push_back(V.take());
    }
  }
  --ResDepth;
  return Err;
}

MaybeError KernelSim::bindResults(const RStm &S, std::vector<TValue> &Vals) {
  if (Vals.size() != S.Pat.size())
    return CompilerError("pattern arity mismatch in kernel body");
  for (size_t I = 0; I < Vals.size(); ++I) {
    Slot &Sl = Frame[S.Pat[I]];
    Sl.T = std::move(Vals[I]);
    Sl.Bound = true;
  }
  return MaybeError::success();
}

MaybeError KernelSim::evalStm(const RStm &S) {
  ++Cost.ComputeOps;
  switch (S.E->kind()) {
  case ExpKind::If:
  case ExpKind::Loop:
  case ExpKind::Map:
  case ExpKind::Reduce:
  case ExpKind::Scan:
  case ExpKind::Stream: {
    if (ResDepth == ResPool.size())
      ResPool.emplace_back();
    std::vector<TValue> &Vals = ResPool[ResDepth++];
    MaybeError Err = evalMulti(S, Vals);
    if (!Err)
      Err = bindResults(S, Vals);
    --ResDepth;
    return Err;
  }
  default:
    break;
  }
  // Single-valued expressions evaluate straight into their binding's slot
  // (operands never name the slot being bound: every binding has its own).
  bool Direct = S.Pat.size() == 1;
  TValue &Out = Direct ? Frame[S.Pat[0]].T : Discard;
  FUT_CHECK(evalOne(S, Out));
  if (!Direct)
    return CompilerError("pattern arity mismatch in kernel body");
  Frame[S.Pat[0]].Bound = true;
  return MaybeError::success();
}

MaybeError KernelSim::evalOne(const RStm &S, TValue &Out) {
  const Exp &E = *S.E;
  auto SetScalar = [&](PrimValue V) {
    Out.IsView = false;
    Out.V = Value::scalar(V);
  };
  auto SetValue = [&](Value V) {
    Out.IsView = false;
    Out.V = std::move(V);
  };

  switch (E.kind()) {
  case ExpKind::SubExpE: {
    FUT_TRY(T, valueOf(S.Ops[0]));
    Out = *T;
    return MaybeError::success();
  }

  case ExpKind::BinOpE: {
    FUT_TRY(A, scalarOf(S.Ops[0]));
    FUT_TRY(B, scalarOf(S.Ops[1]));
    FUT_TRY(R, evalBinOp(expCast<BinOpExp>(&E)->Op, A, B));
    SetScalar(R);
    return MaybeError::success();
  }

  case ExpKind::UnOpE: {
    FUT_TRY(A, scalarOf(S.Ops[0]));
    FUT_TRY(R, evalUnOp(expCast<UnOpExp>(&E)->Op, A));
    SetScalar(R);
    return MaybeError::success();
  }

  case ExpKind::ConvOpE: {
    FUT_TRY(A, scalarOf(S.Ops[0]));
    SetScalar(evalConvOp(expCast<ConvOpExp>(&E)->Op, A));
    return MaybeError::success();
  }

  case ExpKind::Index: {
    FUT_TRY(T, valueOf(S.Ops[0]));
    std::vector<int64_t> Idx;
    Idx.reserve(S.Ops.size() - 1);
    for (size_t I = 1; I < S.Ops.size(); ++I) {
      FUT_TRY(V, scalarOf(S.Ops[I]));
      Idx.push_back(V.asInt64());
    }
    if (T->IsView) {
      const GlobalView &G0 = T->View;
      // Apply indices one by one (the first may hit the slice window).
      FullIdx.assign(G0.Prefix.begin(), G0.Prefix.end());
      bool Sliced = G0.Sliced;
      for (int64_t I : Idx) {
        if (Sliced && (I < 0 || I >= G0.SliceLen))
          return CompilerError(E.Loc, "index out of slice bounds");
        FullIdx.push_back(Sliced ? I * G0.SliceStride + G0.SliceOff : I);
        Sliced = false;
      }
      const Value &In = inputOf(G0);
      if (FullIdx.size() == static_cast<size_t>(In.rank())) {
        if (!In.inBounds(FullIdx))
          return CompilerError(E.Loc, "global read out of bounds");
        chargeGlobal(G0.InputIdx, FullIdx, In);
        SetScalar(In.at(FullIdx));
        return MaybeError::success();
      }
      GlobalView G;
      G.InputIdx = G0.InputIdx;
      G.Prefix = FullIdx;
      G.SliceOff = G0.SliceOff;
      G.SliceLen = G0.SliceLen;
      G.Sliced = Sliced;
      G.SliceStride = Idx.empty() ? G0.SliceStride : 1;
      Out = TValue::view(std::move(G));
      return MaybeError::success();
    }
    const Value &A = T->V;
    if (!A.inBounds(Idx))
      return CompilerError(E.Loc, "index out of bounds in kernel");
    if (Idx.size() == A.shape().size()) {
      chargePrivate(1, A.numElems());
      SetScalar(A.at(Idx));
      return MaybeError::success();
    }
    Value Sliced = A.slice(Idx);
    chargePrivate(Sliced.numElems(), A.numElems());
    SetValue(std::move(Sliced));
    return MaybeError::success();
  }

  case ExpKind::Slice: {
    FUT_TRY(T, valueOf(S.Ops[0]));
    FUT_TRY(Off, scalarOf(S.Ops[1]));
    FUT_TRY(Len, scalarOf(S.Ops[2]));
    FUT_TRY(Str, scalarOf(S.Ops[3]));
    int64_t O = Off.asInt64(), L = Len.asInt64(), SS = Str.asInt64();
    FUT_TRY(N, outerSizeOf(*T));
    if (O < 0 || L < 0 || SS <= 0 || (L > 0 && O + (L - 1) * SS >= N))
      return CompilerError(E.Loc, "slice out of bounds in kernel");
    if (T->IsView && !T->View.Sliced) {
      GlobalView G = T->View;
      G.SliceOff = O;
      G.Sliced = true;
      G.SliceLen = L;
      G.SliceStride = SS;
      Out = TValue::view(std::move(G));
      return MaybeError::success();
    }
    FUT_TRY(V, force(*T));
    std::vector<int64_t> Shape = V.shape();
    Shape[0] = L;
    int64_t RowElems = V.rowElems();
    std::vector<PrimValue> Data;
    Data.reserve(L * RowElems);
    for (int64_t I = 0; I < L; ++I) {
      int64_t Row = O + I * SS;
      Data.insert(Data.end(), V.flat().begin() + Row * RowElems,
                  V.flat().begin() + (Row + 1) * RowElems);
    }
    chargePrivate(L * RowElems, V.numElems());
    SetValue(Value::array(V.elemKind(), std::move(Shape), std::move(Data)));
    return MaybeError::success();
  }

  case ExpKind::Update: {
    int ArrSlot = S.Ops[0];
    FUT_TRY(T, valueOf(ArrSlot));
    // The update consumes its array: it is erased for the rest of the
    // body that binds it (from an enclosing body, until this body ends);
    // erasing what the kernel does not bind changes nothing.  A private
    // array erased for good is taken over, so the update is in place.
    Value A;
    Slot &Arr = Frame[ArrSlot];
    if (T == &Arr.T && S.Consume == ConsumeKind::Local && !T->IsView) {
      A = std::move(Arr.T.V);
      Arr.Bound = false;
    } else {
      FUT_TRY(F, force(*T));
      A = std::move(F);
      if (T == &Arr.T && S.Consume != ConsumeKind::Free) {
        Arr.Bound = false;
        if (S.Consume == ConsumeKind::Outer)
          Undo.push_back(ArrSlot);
      }
    }
    size_t NumIdx = S.Ops.size() - 2;
    std::vector<int64_t> Idx;
    Idx.reserve(NumIdx);
    for (size_t I = 0; I < NumIdx; ++I) {
      FUT_TRY(V, scalarOf(S.Ops[1 + I]));
      Idx.push_back(V.asInt64());
    }
    FUT_TRY(VT, valueOf(S.Ops.back()));
    FUT_TRY(V, force(*VT));
    if (!A.inBounds(Idx))
      return CompilerError(E.Loc, "update out of bounds in kernel");
    if (Idx.size() == A.shape().size()) {
      A.flatMut()[A.flatIndex(Idx)] = V.getScalar();
      chargePrivate(1, A.numElems());
    } else {
      int64_t Inner = V.numElems();
      int64_t Off = 0;
      for (size_t I = 0; I < Idx.size(); ++I)
        Off = Off * A.shape()[I] + Idx[I];
      Off *= Inner;
      auto &Flat = A.flatMut();
      for (int64_t I = 0; I < Inner; ++I)
        Flat[Off + I] = V.flat()[I];
      chargePrivate(Inner, A.numElems());
    }
    SetValue(std::move(A));
    return MaybeError::success();
  }

  case ExpKind::Iota: {
    const auto *X = expCast<IotaExp>(&E);
    FUT_TRY(N, scalarOf(S.Ops[0]));
    int64_t Len = N.asInt64();
    if (Len < 0)
      return CompilerError(E.Loc, "iota of negative length");
    std::vector<PrimValue> Data;
    Data.reserve(Len);
    for (int64_t I = 0; I < Len; ++I)
      Data.push_back(X->Elem == ScalarKind::I64
                         ? PrimValue::makeI64(I)
                         : PrimValue::makeI32(static_cast<int32_t>(I)));
    chargePrivate(Len, Len);
    SetValue(Value::array(X->Elem, {Len}, std::move(Data)));
    return MaybeError::success();
  }

  case ExpKind::Replicate: {
    FUT_TRY(N, scalarOf(S.Ops[0]));
    int64_t Len = N.asInt64();
    FUT_TRY(T, valueOf(S.Ops[1]));
    FUT_TRY(V, force(*T));
    if (Len < 0)
      return CompilerError(E.Loc, "replicate of negative count");
    Value R;
    if (V.isScalar()) {
      R = Value::filledArray(V.getScalar().kind(), {Len}, V.getScalar());
    } else {
      std::vector<int64_t> Shape;
      Shape.push_back(Len);
      Shape.insert(Shape.end(), V.shape().begin(), V.shape().end());
      std::vector<PrimValue> Data;
      Data.reserve(Len * V.numElems());
      for (int64_t I = 0; I < Len; ++I)
        Data.insert(Data.end(), V.flat().begin(), V.flat().end());
      R = Value::array(V.elemKind(), std::move(Shape), std::move(Data));
    }
    chargePrivate(R.numElems(), R.numElems());
    SetValue(std::move(R));
    return MaybeError::success();
  }

  case ExpKind::Rearrange: {
    const auto *X = expCast<RearrangeExp>(&E);
    FUT_TRY(T, valueOf(S.Ops[0]));
    FUT_TRY(A, force(*T));
    int Rank = A.rank();
    std::vector<int64_t> NewShape(Rank);
    for (int I = 0; I < Rank; ++I)
      NewShape[I] = A.shape()[X->Perm[I]];
    std::vector<PrimValue> Data(A.numElems());
    std::vector<int64_t> OutIdx(Rank, 0), SrcIdx(Rank, 0);
    for (int64_t F = 0; F < A.numElems(); ++F) {
      for (int I = 0; I < Rank; ++I)
        SrcIdx[X->Perm[I]] = OutIdx[I];
      Data[F] = A.at(SrcIdx);
      for (int I = Rank - 1; I >= 0; --I) {
        if (++OutIdx[I] < NewShape[I])
          break;
        OutIdx[I] = 0;
      }
    }
    chargePrivate(2 * A.numElems(), A.numElems());
    SetValue(
        Value::array(A.elemKind(), std::move(NewShape), std::move(Data)));
    return MaybeError::success();
  }

  case ExpKind::Reshape: {
    FUT_TRY(T, valueOf(S.Ops[0]));
    FUT_TRY(A, force(*T));
    std::vector<int64_t> Shape;
    for (size_t I = 1; I < S.Ops.size(); ++I) {
      FUT_TRY(D, scalarOf(S.Ops[I]));
      Shape.push_back(D.asInt64());
    }
    std::vector<PrimValue> Data = A.flat();
    SetValue(Value::array(A.elemKind(), std::move(Shape), std::move(Data)));
    return MaybeError::success();
  }

  case ExpKind::Concat: {
    std::vector<Value> Parts;
    for (int Op : S.Ops) {
      FUT_TRY(T, valueOf(Op));
      FUT_TRY(V, force(*T));
      Parts.push_back(std::move(V));
    }
    FUT_TRY(R, concatValues(Parts));
    chargePrivate(R.numElems(), R.numElems());
    SetValue(std::move(R));
    return MaybeError::success();
  }

  case ExpKind::Copy: {
    FUT_TRY(T, valueOf(S.Ops[0]));
    FUT_TRY(V, force(*T));
    if (V.isArray()) {
      chargePrivate(V.numElems(), V.numElems());
      std::vector<PrimValue> Data = V.flat();
      std::vector<int64_t> Shape = V.shape();
      V = Value::array(V.elemKind(), std::move(Shape), std::move(Data));
    }
    SetValue(std::move(V));
    return MaybeError::success();
  }

  default:
    return CompilerError(E.Loc, std::string("expression kind '") +
                                    expKindName(E.kind()) +
                                    "' is not executable inside a kernel");
  }
}

MaybeError KernelSim::evalMulti(const RStm &S, std::vector<TValue> &Out) {
  const Exp &E = *S.E;
  Out.clear();

  switch (E.kind()) {
  case ExpKind::If: {
    FUT_TRY(C, scalarOf(S.Ops[0]));
    return evalBody(C.getBool() ? S.Bodies[0] : S.Bodies[1], Out);
  }

  case ExpKind::Loop: {
    FUT_TRY(BoundV, scalarOf(S.Ops[0]));
    int64_t Bound = BoundV.asInt64();
    for (size_t I = 1; I < S.Ops.size(); ++I) {
      FUT_TRY(T, valueOf(S.Ops[I]));
      Out.push_back(*T);
    }
    ScalarKind IK = BoundV.kind();
    const RBody &LB = S.Bodies[0];
    for (int64_t I = 0; I < Bound; ++I) {
      PrimValue Index = IK == ScalarKind::I64
                            ? PrimValue::makeI64(I)
                            : PrimValue::makeI32(static_cast<int32_t>(I));
      bindValue(S.Binds[0], Value::scalar(Index));
      for (size_t J = 1; J < S.Binds.size(); ++J) {
        Slot &Sl = Frame[S.Binds[J]];
        Sl.T = std::move(Out[J - 1]);
        Sl.Bound = true;
      }
      FUT_CHECK(evalBody(LB, Out));
    }
    return MaybeError::success();
  }

  case ExpKind::Map: {
    const auto *X = expCast<MapExp>(&E);
    FUT_TRY(WV, scalarOf(S.Ops[0]));
    int64_t W = WV.asInt64();
    std::vector<const TValue *> Arrays;
    for (size_t I = 1; I < S.Ops.size(); ++I) {
      FUT_TRY(T, valueOf(S.Ops[I]));
      Arrays.push_back(T);
    }
    const RLambda &Fn = S.Lams[0];
    size_t NumRes = X->Fn.RetTypes.size();
    std::vector<std::vector<Value>> Cols(NumRes);
    std::vector<Value> Res;
    for (int64_t I = 0; I < W; ++I) {
      for (size_t J = 0; J < Arrays.size(); ++J) {
        FUT_TRY(R, rowOf(*Arrays[J], I));
        if (J < Fn.Params.size())
          bindValue(Fn.Params[J], std::move(R));
      }
      FUT_CHECK(applyLambda(Fn, Arrays.size(), Res));
      for (size_t J = 0; J < NumRes; ++J)
        Cols[J].push_back(std::move(Res[J]));
    }
    for (size_t J = 0; J < NumRes; ++J) {
      if (W == 0) {
        Out.push_back(
            TValue(Value::array(X->Fn.RetTypes[J].elemKind(), {0}, {})));
        continue;
      }
      FUT_TRY(Col, assembleArray(Cols[J]));
      chargePrivate(Col.numElems(), Col.numElems());
      Out.push_back(TValue(std::move(Col)));
    }
    return MaybeError::success();
  }

  case ExpKind::Reduce:
  case ExpKind::Scan: {
    // Sequential in-thread reduction / scan.
    bool IsScan = E.kind() == ExpKind::Scan;
    const Lambda &FnL = IsScan ? expCast<ScanExp>(&E)->Fn
                               : expCast<ReduceExp>(&E)->Fn;
    size_t NumNeutral = IsScan ? expCast<ScanExp>(&E)->Neutral.size()
                               : expCast<ReduceExp>(&E)->Neutral.size();
    FUT_TRY(WV, scalarOf(S.Ops[0]));
    int64_t W = WV.asInt64();
    std::vector<Value> Acc;
    for (size_t I = 0; I < NumNeutral; ++I) {
      FUT_TRY(T, valueOf(S.Ops[1 + I]));
      FUT_TRY(V, force(*T));
      Acc.push_back(std::move(V));
    }
    std::vector<const TValue *> Ins;
    for (size_t I = 1 + NumNeutral; I < S.Ops.size(); ++I) {
      FUT_TRY(T, valueOf(S.Ops[I]));
      Ins.push_back(T);
    }
    const RLambda &Fn = S.Lams[0];
    std::vector<std::vector<Value>> Cols(Acc.size());
    std::vector<Value> Res;
    for (int64_t I = 0; I < W; ++I) {
      size_t NumArgs = Acc.size() + Ins.size();
      for (size_t J = 0; J < Acc.size() && J < Fn.Params.size(); ++J)
        bindValue(Fn.Params[J], std::move(Acc[J]));
      for (size_t J = 0; J < Ins.size(); ++J) {
        FUT_TRY(R, rowOf(*Ins[J], I));
        if (Acc.size() + J < Fn.Params.size())
          bindValue(Fn.Params[Acc.size() + J], std::move(R));
      }
      FUT_CHECK(applyLambda(Fn, NumArgs, Res));
      Acc.swap(Res);
      if (IsScan)
        for (size_t J = 0; J < Acc.size(); ++J)
          Cols[J].push_back(Acc[J]);
    }
    if (!IsScan) {
      for (Value &A : Acc)
        Out.push_back(TValue(std::move(A)));
      return MaybeError::success();
    }
    for (size_t J = 0; J < Cols.size(); ++J) {
      if (W == 0) {
        Out.push_back(
            TValue(Value::array(FnL.RetTypes[J].elemKind(), {0}, {})));
        continue;
      }
      FUT_TRY(Col, assembleArray(Cols[J]));
      chargePrivate(Col.numElems(), Col.numElems());
      Out.push_back(TValue(std::move(Col)));
    }
    return MaybeError::success();
  }

  case ExpKind::Stream: {
    // Sequentialised in-thread stream, run with chunk size one — the
    // paper's "efficient sequentialisation with asymptotically reduced
    // per-thread memory footprint" (Section 4.1): all per-chunk arrays
    // are singletons, so nothing spills.
    const auto *X = expCast<StreamExp>(&E);
    FUT_TRY(WV, scalarOf(S.Ops[0]));
    int64_t W = WV.asInt64();

    size_t NumInit = X->AccInit.size();
    std::vector<Value> AccInit;
    for (size_t I = 0; I < NumInit; ++I) {
      FUT_TRY(T, valueOf(S.Ops[1 + I]));
      FUT_TRY(V, force(*T));
      AccInit.push_back(std::move(V));
    }
    std::vector<const TValue *> Ins;
    for (size_t I = 1 + NumInit; I < S.Ops.size(); ++I) {
      FUT_TRY(T, valueOf(S.Ops[I]));
      Ins.push_back(T);
    }

    PrimValue One1 = WV.kind() == ScalarKind::I64 ? PrimValue::makeI64(1)
                                                  : PrimValue::makeI32(1);
    size_t NumMapped = X->FoldFn.RetTypes.size() - X->NumAccs;
    std::vector<std::vector<Value>> MappedElems(NumMapped);
    std::vector<Value> Accs = AccInit;
    const RLambda &Fn = S.Lams[0];
    const PreparedOp *RedOp = nullptr;
    if (X->Form == StreamExp::FormKind::Red)
      RedOp = &PK.StreamOps.at(&E);

    std::vector<Value> Res;
    for (int64_t I = 0; I < W; ++I) {
      size_t NumArgs = 0;
      auto Arg = [&](Value V) {
        if (NumArgs < Fn.Params.size())
          bindValue(Fn.Params[NumArgs], std::move(V));
        ++NumArgs;
      };
      Arg(Value::scalar(One1));
      const std::vector<Value> &ChunkAccs =
          X->Form == StreamExp::FormKind::Seq ? Accs : AccInit;
      if (X->Form != StreamExp::FormKind::Par)
        for (const Value &A : ChunkAccs)
          Arg(A);
      for (const TValue *A : Ins) {
        FUT_TRY(Row, rowOf(*A, I));
        if (Row.isScalar()) {
          Arg(Value::array(Row.getScalar().kind(), {1}, {Row.getScalar()}));
        } else {
          std::vector<int64_t> Shape;
          Shape.push_back(1);
          Shape.insert(Shape.end(), Row.shape().begin(), Row.shape().end());
          std::vector<PrimValue> Data = Row.flat();
          Arg(Value::array(Row.elemKind(), std::move(Shape),
                           std::move(Data)));
        }
      }
      FUT_CHECK(applyLambda(Fn, NumArgs, Res));
      switch (X->Form) {
      case StreamExp::FormKind::Par:
        break;
      case StreamExp::FormKind::Seq:
        Accs.assign(Res.begin(), Res.begin() + X->NumAccs);
        break;
      case StreamExp::FormKind::Red: {
        OpArgs = Accs;
        OpArgs.insert(OpArgs.end(), Res.begin(), Res.begin() + X->NumAccs);
        FUT_CHECK(RedOp->apply(OpArgs, OpOut, OpFrame));
        Accs.swap(OpOut);
        ++Cost.ComputeOps;
        break;
      }
      }
      for (size_t J = 0; J < NumMapped; ++J)
        MappedElems[J].push_back(Res[X->NumAccs + J].row(0));
    }

    for (Value &A : Accs)
      Out.push_back(TValue(std::move(A)));
    for (size_t J = 0; J < NumMapped; ++J) {
      if (W == 0) {
        Out.push_back(TValue(Value::array(
            X->FoldFn.RetTypes[X->NumAccs + J].elemKind(), {0}, {})));
        continue;
      }
      FUT_TRY(Col, assembleArray(MappedElems[J]));
      chargePrivate(Col.numElems(), Col.numElems());
      Out.push_back(TValue(std::move(Col)));
    }
    return MaybeError::success();
  }

  default:
    return CompilerError("not a multi-valued expression");
  }
}

//===----------------------------------------------------------------------===//
// Warps
//===----------------------------------------------------------------------===//

void KernelSim::beginLane() {
  if (NumLanes == LaneTraces.size())
    LaneTraces.emplace_back();
  LaneTraces[NumLanes].clear();
  Trace = &LaneTraces[NumLanes++];
  LaneOpsStart.push_back(Cost.ComputeOps);
}

void KernelSim::mergeWarp() {
  Trace = nullptr;
  size_t MaxLen = 0;
  for (size_t L = 0; L < NumLanes; ++L)
    MaxLen = std::max(MaxLen, LaneTraces[L].size());
  for (size_t I = 0; I < MaxLen; ++I) {
    Segs.clear();
    int64_t Lanes = 0;
    for (size_t L = 0; L < NumLanes; ++L)
      if (I < LaneTraces[L].size()) {
        Segs.push_back(LaneTraces[L][I] /
                       static_cast<uint64_t>(P.SegmentBytes));
        ++Lanes;
      }
    std::sort(Segs.begin(), Segs.end());
    Segs.erase(std::unique(Segs.begin(), Segs.end()), Segs.end());
    int64_t Tx = static_cast<int64_t>(Segs.size());
    Cost.GlobalTransactions += Tx;
    // A time-step whose accesses merged into fewer segments than active
    // lanes coalesced; one segment per lane means no merging happened.
    if (Tx < Lanes)
      Cost.CoalescedTransactions += Tx;
    else
      Cost.ScatteredTransactions += Tx;
    ++Prof.MemSteps;
    Prof.CoalescerExcessTx +=
        std::max<int64_t>(0, Tx - P.CoalescerQueueDepth);
  }
  NumLanes = 0;

  if (LaneOpsStart.empty())
    return;
  ++Prof.Warps;
  int64_t MinOps = INT64_MAX, MaxOps = 0, SumOps = 0;
  for (size_t I = 0; I < LaneOpsStart.size(); ++I) {
    int64_t End = I + 1 < LaneOpsStart.size() ? LaneOpsStart[I + 1]
                                              : Cost.ComputeOps;
    int64_t Ops = End - LaneOpsStart[I];
    MinOps = std::min(MinOps, Ops);
    MaxOps = std::max(MaxOps, Ops);
    SumOps += Ops;
  }
  Prof.LaneOps += SumOps;
  // The converged prefix issues once warp-wide; the divergent remainder
  // serialises per lane.  Uniform warps issue exactly MaxOps slots.
  int64_t LaneCount = static_cast<int64_t>(LaneOpsStart.size());
  Prof.WarpIssueOps += SumOps - (LaneCount - 1) * MinOps;
  if (MaxOps != MinOps)
    ++Prof.DivergentWarps;
  LaneOpsStart.clear();
}

//===----------------------------------------------------------------------===//
// Kernel driving
//===----------------------------------------------------------------------===//

ErrorOr<std::vector<Value>> KernelSim::run() {
  FUT_CHECK(resolveInputs());
  bindFrame();
  ReduceFnOps = static_cast<int>(K.ReduceFn.B.Stms.size()) + 1;
  if (K.Op == KernelExp::OpKind::ThreadBody)
    return runThreadBody();
  if (K.Op == KernelExp::OpKind::SegHist)
    return runSegHist();
  return runSegmented();
}

ErrorOr<std::vector<Value>> KernelSim::runThreadBody() {
  std::vector<int64_t> Grid;
  for (size_t I = 0; I < K.GridDims.size(); ++I) {
    FUT_TRY(G, resolveInt(static_cast<int>(I), K.GridDims[I]));
    Grid.push_back(G);
  }
  // A sharded launch covers only [OuterOffset, OuterOffset + OuterCount)
  // of the outer grid dimension; addresses and thread-index values stay
  // global so per-shard coalescing matches the unsharded access pattern.
  int64_t OuterTotal = Grid.empty() ? 1 : Grid[0];
  if (OuterCount >= 0 && !Grid.empty())
    Grid[0] = OuterCount;
  int64_t Threads = 1;
  for (int64_t G : Grid)
    Threads *= G;
  int64_t InnerElems = 1;
  for (size_t I = 1; I < Grid.size(); ++I)
    InnerElems *= Grid[I];
  int64_t GlobalThreads = OuterTotal * InnerElems;
  int64_t ThreadOffset = OuterOffset * InnerElems;

  size_t NumRes = K.RetTypes.size();
  std::vector<std::vector<Value>> PerThread(NumRes);
  std::vector<TValue> Res;

  std::vector<int64_t> Idx(Grid.size(), 0);
  for (int64_t T = 0; T < Threads; ++T) {
    beginLane();

    startThread();
    for (size_t I = 0; I < Grid.size(); ++I)
      bindValue(PK.IndexSlots[I],
                Value::scalar(PrimValue::makeI32(static_cast<int32_t>(
                    Idx[I] + (I == 0 ? OuterOffset : 0)))));

    int64_t GlobalT = T + ThreadOffset;
    FUT_CHECK(evalBody(PK.Body, Res));
    if (Res.size() != NumRes)
      return CompilerError("kernel thread result arity mismatch");
    for (size_t J = 0; J < NumRes; ++J) {
      FUT_TRY(V, force(Res[J]));
      FUT_CHECK(chargeOutput(V));
      // Charge the output writes: row-major per thread, or with the
      // thread index innermost when results are stored transposed.  The
      // global thread id keeps shard-boundary addresses exact.
      uint64_t OutBase = (2ULL << 50) + (static_cast<uint64_t>(J) << 44);
      int64_t Elems = V.numElems();
      for (int64_t EIdx = 0; EIdx < Elems; ++EIdx) {
        uint64_t Off = K.TransposedOutputs
                           ? static_cast<uint64_t>(EIdx) *
                                     static_cast<uint64_t>(GlobalThreads) +
                                 static_cast<uint64_t>(GlobalT)
                           : static_cast<uint64_t>(GlobalT * Elems + EIdx);
        chargeWrite(OutBase + Off * elemBytes(V.elemKind()));
      }
      PerThread[J].push_back(std::move(V));
    }

    if (NumLanes == static_cast<size_t>(P.WarpSize) || T == Threads - 1)
      mergeWarp();

    for (int I = static_cast<int>(Grid.size()) - 1; I >= 0; --I) {
      if (++Idx[I] < Grid[I])
        break;
      Idx[I] = 0;
    }
  }
  Trace = nullptr;

  // Assemble results.
  std::vector<Value> Out;
  for (size_t J = 0; J < NumRes; ++J) {
    if (Threads == 0) {
      Out.push_back(Value::array(K.RetTypes[J].elemKind(), Grid, {}));
      continue;
    }
    FUT_TRY(Flat, assembleArray(PerThread[J]));
    std::vector<int64_t> Shape = Grid;
    const Value &First = PerThread[J][0];
    if (First.isArray())
      Shape.insert(Shape.end(), First.shape().begin(), First.shape().end());
    std::vector<PrimValue> Data = Flat.flat();
    Out.push_back(
        Value::array(Flat.elemKind(), std::move(Shape), std::move(Data)));
  }
  return Out;
}

ErrorOr<std::vector<Value>> KernelSim::runSegmented() {
  std::vector<int64_t> Grid;
  for (size_t I = 0; I < K.GridDims.size(); ++I) {
    FUT_TRY(G, resolveInt(static_cast<int>(I), K.GridDims[I]));
    Grid.push_back(G);
  }
  // Sharded window over the outer (segment) dimension; segment-index
  // values handed to the thread body stay global.
  if (OuterCount >= 0 && !Grid.empty())
    Grid[0] = OuterCount;
  int64_t NumSegs = 1;
  for (int64_t G : Grid)
    NumSegs *= G;
  FUT_TRY(SegSize, resolveInt(KOps.SegSize, K.SegSize));

  // Evaluate the neutral elements on the host.
  std::vector<Value> NeutralVals;
  for (size_t I = 0; I < K.Neutral.size(); ++I) {
    FUT_TRY(V, neutral(I));
    NeutralVals.push_back(std::move(V));
  }

  bool IsScan = K.Op == KernelExp::OpKind::SegScan;
  size_t NumRes = K.Neutral.size();
  std::vector<std::vector<Value>> PerSeg(NumRes);
  int64_t LaneInWarp = 0;
  std::vector<TValue> Res;

  // Thread mapping: with a grid, one thread handles one whole segment
  // sequentially (warps span consecutive segments — the layout-sensitive
  // case the coalescing transformation targets); a gridless kernel is a
  // single large reduction/scan parallelised within the segment.
  bool ThreadPerSegment = !Grid.empty();

  std::vector<int64_t> Idx(Grid.size(), 0);
  std::vector<Value> Acc;
  for (int64_t Seg = 0; Seg < NumSegs; ++Seg) {
    Acc = NeutralVals;
    std::vector<std::vector<Value>> ScanCols(NumRes);

    if (ThreadPerSegment)
      beginLane();

    for (int64_t S = 0; S < SegSize; ++S) {
      if (!ThreadPerSegment)
        beginLane();

      startThread();
      for (size_t I = 0; I < Grid.size(); ++I)
        bindValue(PK.IndexSlots[I],
                  Value::scalar(PrimValue::makeI32(static_cast<int32_t>(
                      Idx[I] + (I == 0 ? OuterOffset : 0)))));
      bindValue(PK.SegSlot,
                Value::scalar(PrimValue::makeI32(static_cast<int32_t>(S))));

      FUT_CHECK(evalBody(PK.Body, Res));
      OpArgs = Acc;
      for (TValue &T : Res) {
        FUT_TRY(V, force(T));
        OpArgs.push_back(std::move(V));
      }
      FUT_CHECK(PK.ReduceOp.apply(OpArgs, OpOut, OpFrame));
      Acc.swap(OpOut);
      Cost.ComputeOps += ReduceFnOps;
      if (IsScan)
        for (size_t J = 0; J < NumRes; ++J)
          ScanCols[J].push_back(Acc[J]);

      if (!ThreadPerSegment && ++LaneInWarp == P.WarpSize) {
        mergeWarp();
        LaneInWarp = 0;
      }
    }

    if (ThreadPerSegment && ++LaneInWarp == P.WarpSize) {
      mergeWarp();
      LaneInWarp = 0;
    }

    // The tree combine within the segment costs an extra log factor,
    // already roughly covered by charging the operator per element; the
    // result writes go to global memory.
    for (size_t J = 0; J < NumRes; ++J) {
      if (IsScan) {
        if (SegSize == 0) {
          PerSeg[J].push_back(Value::array(NeutralVals[J].elemKind(), {0}, {}));
        } else {
          FUT_TRY(Col, assembleArray(ScanCols[J]));
          FUT_CHECK(chargeOutput(Col));
          Cost.GlobalAccesses += Col.numElems();
          int64_t Tx = (Col.numElems() * elemBytes(Col.elemKind()) +
                        P.SegmentBytes - 1) /
                       P.SegmentBytes;
          Cost.GlobalTransactions += Tx;
          Cost.CoalescedTransactions += Tx; // contiguous result write
          PerSeg[J].push_back(std::move(Col));
        }
      } else {
        FUT_CHECK(chargeOutput(Acc[J]));
        Cost.GlobalAccesses += Acc[J].numElems();
        int64_t Tx = (Acc[J].numElems() * elemBytes(Acc[J].elemKind()) +
                      P.SegmentBytes - 1) /
                     P.SegmentBytes;
        Cost.GlobalTransactions += Tx;
        Cost.CoalescedTransactions += Tx; // contiguous result write
        PerSeg[J].push_back(Acc[J]);
      }
    }

    for (int I = static_cast<int>(Grid.size()) - 1; I >= 0; --I) {
      if (++Idx[I] < Grid[I])
        break;
      Idx[I] = 0;
    }
  }
  if (NumLanes > 0)
    mergeWarp();

  // Assemble.
  std::vector<Value> Out;
  for (size_t J = 0; J < NumRes; ++J) {
    if (Grid.empty()) {
      Out.push_back(std::move(PerSeg[J][0]));
      continue;
    }
    if (NumSegs == 0) {
      Out.push_back(Value::array(K.RetTypes[J].elemKind(), Grid, {}));
      continue;
    }
    FUT_TRY(Flat, assembleArray(PerSeg[J]));
    std::vector<int64_t> Shape = Grid;
    const Value &First = PerSeg[J][0];
    if (First.isArray())
      Shape.insert(Shape.end(), First.shape().begin(), First.shape().end());
    std::vector<PrimValue> Data = Flat.flat();
    Out.push_back(
        Value::array(Flat.elemKind(), std::move(Shape), std::move(Data)));
  }
  return Out;
}

ErrorOr<std::vector<Value>> KernelSim::runSegHist() {
  // One thread per input element; a sharded launch covers only the
  // [OuterOffset, OuterOffset + OuterCount) element window.  Device 0 (or
  // the only device) folds into the destination itself; other shards fold
  // into a neutral-filled partial the caller merges with the operator.
  std::vector<int64_t> Grid;
  for (size_t I = 0; I < K.GridDims.size(); ++I) {
    FUT_TRY(G, resolveInt(static_cast<int>(I), K.GridDims[I]));
    Grid.push_back(G);
  }
  if (OuterCount >= 0 && !Grid.empty())
    Grid[0] = OuterCount;
  int64_t Threads = 1;
  for (int64_t G : Grid)
    Threads *= G;

  FUT_TRY(W, resolveInt(KOps.HistWidth, K.HistWidth));
  const Value *DestP = Host.op(KOps.HistDest);
  if (!DestP)
    return CompilerError("histogram destination " + K.HistDest.str() +
                         " is not bound on the host");
  const Value &Dest = *DestP;
  if (!Dest.isArray() || Dest.outerSize() != W)
    return CompilerError("histogram destination has wrong outer size");
  ScalarKind EK = Dest.elemKind();
  int64_t EB = elemBytes(EK);

  PrimValue NeutralPV;
  if (K.Neutral.size() != 1)
    return CompilerError("seghist kernel needs exactly one neutral element");
  {
    FUT_TRY(V, neutral(0));
    NeutralPV = V.getScalar();
  }

  std::vector<PrimValue> Bins;
  if (OuterOffset == 0) {
    Bins = Dest.flat();
    // Priming the bins reads the whole destination once, coalesced.
    int64_t InitTx = (W * EB + P.SegmentBytes - 1) / P.SegmentBytes;
    Cost.GlobalAccesses += W;
    Cost.GlobalTransactions += InitTx;
    Cost.CoalescedTransactions += InitTx;
  } else {
    Bins.assign(static_cast<size_t>(W), NeutralPV);
  }

  // Lowering strategy (bit-identical results either way, different cost
  // profile): narrow histograms keep a subhistogram per workgroup in local
  // memory and merge once at the end; wide ones use global atomics whose
  // cost grows with same-segment conflicts inside a warp batch.
  const bool UseLocal = W <= P.HistLocalWidthMax;
  int64_t NumGroups =
      (Threads + P.WorkgroupSize - 1) / std::max(1, P.WorkgroupSize);

  // Global-atomic strategy: batch the destination segments one warp's
  // updates hit; unique segments each cost a transaction, extra lanes on
  // an already-hit segment serialise as conflicts.
  std::vector<int64_t> WarpSegs;
  auto FlushAtomics = [&] {
    if (WarpSegs.empty())
      return;
    int64_t Lanes = static_cast<int64_t>(WarpSegs.size());
    std::sort(WarpSegs.begin(), WarpSegs.end());
    int64_t Unique =
        std::unique(WarpSegs.begin(), WarpSegs.end()) - WarpSegs.begin();
    Cost.AtomicTransactions += Unique;
    Cost.AtomicConflicts += Lanes - Unique;
    WarpSegs.clear();
  };

  // Local-subhistogram strategy: the simulator knows which scratchpad bin
  // every lane updates, so bank conflicts are observable on this path —
  // lanes of one warp batch whose bins share a bank serialise.  Profile
  // only (the pipeline cost model charges it); the roofline charge stays
  // the plain scratchpad access count.
  std::vector<int64_t> WarpBanks;
  auto FlushBanks = [&] {
    if (WarpBanks.empty())
      return;
    int64_t Lanes = static_cast<int64_t>(WarpBanks.size());
    std::sort(WarpBanks.begin(), WarpBanks.end());
    int64_t Unique =
        std::unique(WarpBanks.begin(), WarpBanks.end()) - WarpBanks.begin();
    Prof.BankConflictExtra += Lanes - Unique;
    WarpBanks.clear();
  };

  std::vector<TValue> Res;
  std::vector<int64_t> Idx(Grid.size(), 0);
  for (int64_t T = 0; T < Threads; ++T) {
    beginLane();

    startThread();
    for (size_t I = 0; I < Grid.size(); ++I)
      bindValue(PK.IndexSlots[I],
                Value::scalar(PrimValue::makeI32(static_cast<int32_t>(
                    Idx[I] + (I == 0 ? OuterOffset : 0)))));

    FUT_CHECK(evalBody(PK.Body, Res));
    if (Res.size() != 2)
      return CompilerError("seghist thread result arity mismatch");
    FUT_TRY(BinV, force(Res[0]));
    FUT_TRY(Val, force(Res[1]));
    if (!BinV.isScalar() || !Val.isScalar())
      return CompilerError("seghist thread body must produce (bin, value)");
    int64_t Bin = BinV.getScalar().asInt64();
    // The value is computed before the bounds check (matching the
    // interpreter); out-of-range bins update nothing.
    if (Bin >= 0 && Bin < W) {
      OpArgs.clear();
      OpArgs.push_back(Value::scalar(Bins[Bin]));
      OpArgs.push_back(std::move(Val));
      FUT_CHECK(PK.ReduceOp.apply(OpArgs, OpOut, OpFrame));
      if (OpOut.size() != 1 || !OpOut[0].isScalar())
        return CompilerError("seghist operator must produce one scalar");
      Bins[static_cast<size_t>(Bin)] = OpOut[0].getScalar();
      Cost.ComputeOps += ReduceFnOps;
      if (UseLocal) {
        Cost.LocalAccesses += 2; // scratchpad read-modify-write
        WarpBanks.push_back(Bin % std::max(1, P.LocalMemBanks));
      } else {
        WarpSegs.push_back(Bin * EB / P.SegmentBytes);
      }
    }

    if (NumLanes == static_cast<size_t>(P.WarpSize) || T == Threads - 1) {
      mergeWarp();
      FlushAtomics();
      FlushBanks();
    }

    for (int I = static_cast<int>(Grid.size()) - 1; I >= 0; --I) {
      if (++Idx[I] < Grid[I])
        break;
      Idx[I] = 0;
    }
  }
  Trace = nullptr;
  FlushAtomics();
  FlushBanks();

  // Local strategy: each workgroup flushes its subhistogram into the
  // global one with a coalesced atomic pass over all W bins (consecutive
  // lanes hit consecutive bins, so there are no same-segment conflicts).
  if (UseLocal && Threads > 0) {
    int64_t MergeTx = (W * EB + P.SegmentBytes - 1) / P.SegmentBytes;
    Cost.AtomicTransactions += NumGroups * MergeTx;
  }

  Value OutV = Value::array(EK, {W}, std::move(Bins));
  FUT_CHECK(chargeOutput(OutV));
  std::vector<Value> Out;
  Out.push_back(std::move(OutV));
  return Out;
}
