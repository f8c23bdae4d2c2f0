//===- Interp.cpp - Reference interpreter -----------------------------------===//
//
// Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
//
//===----------------------------------------------------------------------===//

#include "interp/Interp.h"

#include <algorithm>
#include <cassert>
#include <span>

using namespace fut;

// Local helper for propagating errors out of ErrorOr-returning calls.
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

ErrorOr<Value> fut::assembleArray(const std::vector<Value> &Elems) {
  if (Elems.empty())
    return CompilerError::runtime(
        "cannot assemble an empty array without an element type");
  const Value &First = Elems.front();
  if (First.isScalar()) {
    std::vector<PrimValue> Data;
    Data.reserve(Elems.size());
    for (const Value &V : Elems) {
      if (!V.isScalar() || V.getScalar().kind() != First.getScalar().kind())
        return CompilerError("irregular array: element kind mismatch");
      Data.push_back(V.getScalar());
    }
    return Value::array(First.getScalar().kind(),
                        {static_cast<int64_t>(Elems.size())},
                        std::move(Data));
  }
  std::vector<PrimValue> Data;
  Data.reserve(Elems.size() * First.numElems());
  for (const Value &V : Elems) {
    if (V.isScalar() || V.shape() != First.shape() ||
        V.elemKind() != First.elemKind())
      return CompilerError(
          "irregular array: all rows must have the same shape");
    Data.insert(Data.end(), V.flat().begin(), V.flat().end());
  }
  std::vector<int64_t> Shape;
  Shape.push_back(static_cast<int64_t>(Elems.size()));
  Shape.insert(Shape.end(), First.shape().begin(), First.shape().end());
  return Value::array(First.elemKind(), std::move(Shape), std::move(Data));
}

ErrorOr<Value> fut::concatValues(const std::vector<Value> &Vs) {
  if (Vs.empty())
    return CompilerError::runtime("cannot concat zero arrays");
  const Value &First = Vs.front();
  if (First.isScalar())
    return CompilerError("cannot concat scalars");
  std::vector<int64_t> Inner(First.shape().begin() + 1, First.shape().end());
  int64_t Outer = 0;
  std::vector<PrimValue> Data;
  for (const Value &V : Vs) {
    if (V.isScalar() || V.elemKind() != First.elemKind())
      return CompilerError("concat: element kind mismatch");
    std::vector<int64_t> VInner(V.shape().begin() + 1, V.shape().end());
    if (VInner != Inner)
      return CompilerError("concat: inner shapes differ");
    Outer += V.outerSize();
    Data.insert(Data.end(), V.flat().begin(), V.flat().end());
  }
  std::vector<int64_t> Shape;
  Shape.push_back(Outer);
  Shape.insert(Shape.end(), Inner.begin(), Inner.end());
  return Value::array(First.elemKind(), std::move(Shape), std::move(Data));
}

//===----------------------------------------------------------------------===//
// Resolution
//===----------------------------------------------------------------------===//

ResolvedLambda::ResolvedLambda(const Lambda &Fn) {
  SlotResolver R;
  R.BindDims = true;
  L = R.lambda(Fn);
  Slots = R.takeSlots();
}

const ResolvedFun &ResolvedProgram::fun(const FunDef &F) {
  std::unique_ptr<ResolvedFun> &RF = Funs[&F];
  if (RF)
    return *RF;
  RF = std::make_unique<ResolvedFun>();
  RF->Id = static_cast<int>(Funs.size()) - 1;
  RF->F = &F;
  SlotResolver R;
  R.BindDims = true;
  R.KernelBodies = KernelBodies;
  if (OnKernel)
    R.OnKernel = [&](const KernelExp &K) { OnKernel(K, R); };
  R.openScope();
  R.params(F.Params, RF->Params, RF->ParamDims);
  R.stms(F.FBody, RF->Body);
  R.closeScope();
  RF->Slots = R.takeSlots();
  return *RF;
}

const ResolvedFun *ResolvedProgram::fun(const std::string &Name) {
  const FunDef *F = Prog.findFun(Name);
  return F ? &fun(*F) : nullptr;
}

Frame::Frame(const ResolvedUnit &U) : Unit(U), Slots(U.Slots.size()) {
  for (size_t I = 0; I < U.Slots.size(); ++I)
    if (U.Slots[I].Kind == SlotKind::Const) {
      Slots[I].V = Value::scalar(U.Slots[I].Const);
      Slots[I].Bound = true;
    }
}

namespace {

/// The value of slot \p S, or the error a missing environment entry gives.
ErrorOr<const Value *> valueAt(const Frame &F, int S) {
  if (const Value *V = F.get(S))
    return V;
  return CompilerError("unbound variable " + F.name(S).str() +
                       " (possibly used after being consumed)");
}

/// Binds \p V to \p Slot as parameter \p P (binding \p Index of its list)
/// and binds or checks the symbolic dimensions of its declared type
/// against the value's actual shape; \p Cursor walks \p Dims.
MaybeError bindParam(Frame &F, int Slot, const Param &P, Value V,
                     const std::vector<RDim> &Dims, size_t &Cursor) {
  Frame::Entry &E = F.Slots[Slot];
  E.V = std::move(V);
  E.Bound = true;
  if (P.Ty.isScalar())
    return MaybeError::success();
  const Value &Val = E.V;
  if (Val.isScalar() || Val.rank() != P.Ty.rank())
    return CompilerError("value for " + P.Name.str() +
                         " has wrong rank for type " + P.Ty.str());
  for (int I = 0; I < P.Ty.rank(); ++I) {
    const Dim &D = P.Ty.shape()[I];
    int64_t Actual = Val.shape()[I];
    if (D.isConst()) {
      if (D.getConst().asInt64() != Actual)
        return CompilerError("shape mismatch for " + P.Name.str() +
                             ": expected " + D.getConst().str() + ", got " +
                             std::to_string(Actual));
      continue;
    }
    const RDim &R = Dims[Cursor++];
    Frame::Entry &DE = F.Slots[R.Slot];
    if (R.Fresh || !DE.Bound) {
      DE.V = Value::scalar(PrimValue::makeI32(static_cast<int32_t>(Actual)));
      DE.Bound = true;
      continue;
    }
    if (!DE.V.isScalar())
      return CompilerError::runtime("shape dimension " + D.getVar().str() +
                                    " of " + P.Name.str() +
                                    " is bound to a non-scalar value");
    if (DE.V.getScalar().asInt64() != Actual)
      return CompilerError("shape mismatch for " + P.Name.str() + ": " +
                           D.getVar().str() + " = " +
                           DE.V.getScalar().str() + " but dimension is " +
                           std::to_string(Actual));
  }
  return MaybeError::success();
}

/// Binds \p Vals to \p Slots as the parameters \p Ps.
MaybeError bindParams(Frame &F, std::span<const int> Slots,
                      const std::vector<Param> &Ps, std::vector<Value> &Vals,
                      const std::vector<RDim> &Dims) {
  size_t Cursor = 0;
  for (size_t I = 0; I < Vals.size(); ++I)
    FUT_CHECK(bindParam(F, Slots[I], Ps[I], std::move(Vals[I]), Dims, Cursor));
  return MaybeError::success();
}

/// Erases the array a statement consumes from the environment: for the
/// rest of the body that binds it, or (bound by an enclosing body) until
/// the consuming body ends.  A name the unit does not bind is not there.
void consume(Frame &F, int Slot, ConsumeKind K) {
  if (K != ConsumeKind::Local && K != ConsumeKind::Outer)
    return;
  F.Slots[Slot].Bound = false;
  if (K == ConsumeKind::Outer)
    F.Undo.push_back(Slot);
}

/// The integer value of a scalar, or an error for non-scalars.
ErrorOr<int64_t> scalarInt(const Value &V, const char *What) {
  if (!V.isScalar())
    return CompilerError(std::string(What) + " must be a scalar");
  return V.getScalar().asInt64();
}

PrimValue intOfKind(ScalarKind K, int64_t V) {
  switch (K) {
  case ScalarKind::I64:
    return PrimValue::makeI64(V);
  case ScalarKind::I32:
  default:
    return PrimValue::makeI32(static_cast<int32_t>(V));
  }
}

/// Advances a row-major multi-index over \p Grid.
void nextIndex(std::vector<int64_t> &Idx, const std::vector<int64_t> &Grid) {
  for (int I = static_cast<int>(Grid.size()) - 1; I >= 0; --I) {
    if (++Idx[I] < Grid[I])
      break;
    Idx[I] = 0;
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// Evaluation
//===----------------------------------------------------------------------===//

Interpreter::Interpreter(const Program &Prog, InterpOptions O)
    : Prog(Prog), Opts(std::move(O)), Resolved(Opts.Resolved) {
  assert((!Resolved || &Resolved->program() == &Prog) &&
         "resolution of another program");
}

Interpreter::~Interpreter() = default;

MaybeError Interpreter::step(const Exp &E) {
  if (++Steps > Opts.MaxSteps)
    return CompilerError::runtime(E.Loc, "interpreter step limit exceeded");
  return MaybeError::success();
}

std::vector<Value> &Interpreter::results() {
  if (ResDepth == ResPool.size())
    ResPool.emplace_back();
  return ResPool[ResDepth++];
}

ErrorOr<std::vector<Value>>
Interpreter::runFunction(const std::string &Name,
                         const std::vector<Value> &Args) {
  std::vector<Value> Vals = Args, Out;
  FUT_CHECK(callFunction(Name, Vals, Out));
  return Out;
}

MaybeError Interpreter::callFunction(const std::string &Name,
                                     std::vector<Value> &Args,
                                     std::vector<Value> &Out) {
  if (!Resolved) {
    OwnResolved = std::make_unique<ResolvedProgram>(Prog);
    Resolved = OwnResolved.get();
  }
  const ResolvedFun *RF = Resolved->fun(Name);
  if (!RF)
    return CompilerError("unknown function " + Name);
  const FunDef &Fn = *RF->F;
  if (Args.size() != Fn.Params.size())
    return CompilerError("function " + Name + " expects " +
                         std::to_string(Fn.Params.size()) +
                         " arguments, got " + std::to_string(Args.size()));
  Frame F(*RF);
  FUT_CHECK(bindParams(F, RF->Params, Fn.Params, Args, RF->ParamDims));
  return evalBody(RF->Body, F, Out);
}

ErrorOr<std::vector<Value>>
Interpreter::applyLambda(const ResolvedLambda &L, std::vector<Value> Args) {
  Frame F(L);
  std::vector<Value> Out;
  FUT_CHECK(applyLambda(L.L, F, Args, Out));
  return Out;
}

MaybeError Interpreter::applyLambda(const RLambda &L, Frame &F,
                                    std::vector<Value> &Args,
                                    std::vector<Value> &Out) {
  if (Args.size() != L.Params.size())
    return CompilerError("lambda arity mismatch: expected " +
                         std::to_string(L.Params.size()) +
                         " arguments, got " + std::to_string(Args.size()));
  FUT_CHECK(bindParams(F, L.Params, L.L->Params, Args, L.ParamDims));
  return evalBody(L.Body, F, Out);
}

/// Runs \p B's statements, then collects its results into \p Out; updates
/// of enclosing bodies' arrays are undone once the results are read.
MaybeError Interpreter::evalBody(const RBody &B, Frame &F,
                                 std::vector<Value> &Out) {
  size_t Mark = F.Undo.size();
  for (const RStm &S : B.Stms)
    FUT_CHECK(evalStm(S, F));
  Out.clear();
  Out.reserve(B.Result.size());
  for (size_t I = 0; I < B.Result.size(); ++I) {
    Frame::Entry &E = F.Slots[B.Result[I]];
    if (!E.Bound)
      return valueAt(F, B.Result[I]).getError();
    if (B.MoveResult[I]) {
      Out.push_back(std::move(E.V));
      E.Bound = false;
    } else {
      Out.push_back(E.V);
    }
  }
  while (F.Undo.size() > Mark) {
    F.Slots[F.Undo.back()].Bound = true;
    F.Undo.pop_back();
  }
  return MaybeError::success();
}

MaybeError Interpreter::evalStm(const RStm &S, Frame &F) {
  std::vector<Value> &Vals = results();
  MaybeError Err = evalExp(S, F, Vals);
  if (!Err && Vals.size() != S.Pat.size())
    Err = CompilerError(S.E->Loc, "pattern arity mismatch: " +
                                      std::to_string(S.Pat.size()) +
                                      " names for " +
                                      std::to_string(Vals.size()) + " values");
  if (!Err)
    Err = bindParams(F, S.Pat, S.St->Pat, Vals, S.PatDims);
  --ResDepth;
  if (Err)
    return Err;
  if (Opts.OnBind)
    Opts.OnBind(S, F);
  return MaybeError::success();
}

MaybeError Interpreter::evalExp(const RStm &S, Frame &F,
                                std::vector<Value> &Out) {
  const Exp &E = *S.E;
  FUT_CHECK(step(E));
  if (Opts.OnExp)
    Opts.OnExp(S, F);
  Out.clear();
  auto Get = [&](int Slot) { return valueAt(F, Slot); };
  auto Push = [&](Value V) {
    Out.push_back(std::move(V));
    return MaybeError::success();
  };

  switch (E.kind()) {
  case ExpKind::SubExpE: {
    FUT_TRY(V, Get(S.Ops[0]));
    return Push(*V);
  }

  case ExpKind::BinOpE: {
    const auto *X = expCast<BinOpExp>(&E);
    FUT_TRY(A, Get(S.Ops[0]));
    FUT_TRY(B, Get(S.Ops[1]));
    if (!A->isScalar() || !B->isScalar())
      return CompilerError(E.Loc, "binop on non-scalar");
    FUT_TRY(R, evalBinOp(X->Op, A->getScalar(), B->getScalar()));
    return Push(Value::scalar(R));
  }

  case ExpKind::UnOpE: {
    const auto *X = expCast<UnOpExp>(&E);
    FUT_TRY(A, Get(S.Ops[0]));
    if (!A->isScalar())
      return CompilerError(E.Loc, "unop on non-scalar");
    FUT_TRY(R, evalUnOp(X->Op, A->getScalar()));
    return Push(Value::scalar(R));
  }

  case ExpKind::ConvOpE: {
    const auto *X = expCast<ConvOpExp>(&E);
    FUT_TRY(A, Get(S.Ops[0]));
    if (!A->isScalar())
      return CompilerError(E.Loc, "conversion of non-scalar");
    return Push(Value::scalar(evalConvOp(X->Op, A->getScalar())));
  }

  case ExpKind::If: {
    FUT_TRY(C, Get(S.Ops[0]));
    if (!C->isScalar() || C->getScalar().kind() != ScalarKind::Bool)
      return CompilerError(E.Loc, "if condition is not a bool");
    return evalBody(C->getScalar().getBool() ? S.Bodies[0] : S.Bodies[1], F,
                    Out);
  }

  case ExpKind::Index: {
    const auto *X = expCast<IndexExp>(&E);
    FUT_TRY(A, Get(S.Ops[0]));
    if (!A->isArray())
      return CompilerError(E.Loc, "indexing into a scalar");
    std::vector<int64_t> Idx;
    Idx.reserve(S.Ops.size() - 1);
    for (size_t I = 1; I < S.Ops.size(); ++I) {
      FUT_TRY(V, Get(S.Ops[I]));
      FUT_TRY(IV, scalarInt(*V, "index"));
      Idx.push_back(IV);
    }
    if (Idx.size() > A->shape().size())
      return CompilerError(E.Loc, "index rank exceeds array rank");
    if (!A->inBounds(Idx))
      return CompilerError::runtime(E.Loc,
                                    "index out of bounds for " + X->Arr.str());
    return Push(A->slice(Idx));
  }

  case ExpKind::Apply: {
    std::vector<Value> Args;
    Args.reserve(S.Ops.size());
    for (int Op : S.Ops) {
      FUT_TRY(V, Get(Op));
      Args.push_back(*V);
    }
    return callFunction(expCast<ApplyExp>(&E)->Func, Args, Out);
  }

  case ExpKind::Loop: {
    const auto *X = expCast<LoopExp>(&E);
    FUT_TRY(BoundV, Get(S.Ops[0]));
    FUT_TRY(Bound, scalarInt(*BoundV, "loop bound"));
    std::vector<Value> Merge;
    Merge.reserve(S.Ops.size() - 1);
    for (size_t I = 1; I < S.Ops.size(); ++I) {
      FUT_TRY(V, Get(S.Ops[I]));
      Merge.push_back(*V);
    }
    ScalarKind IdxKind = BoundV->getScalar().kind();
    std::span<const int> MergeSlots(S.Binds.data() + 1, S.Binds.size() - 1);
    for (int64_t I = 0; I < Bound; ++I) {
      Frame::Entry &Idx = F.Slots[S.Binds[0]];
      Idx.V = Value::scalar(intOfKind(IdxKind, I));
      Idx.Bound = true;
      FUT_CHECK(bindParams(F, MergeSlots, X->MergeParams, Merge, S.BindDims));
      FUT_CHECK(evalBody(S.Bodies[0], F, Out));
      if (Out.size() != Merge.size())
        return CompilerError(E.Loc, "loop body arity mismatch");
      std::swap(Merge, Out);
    }
    std::swap(Merge, Out);
    return MaybeError::success();
  }

  case ExpKind::Update: {
    const auto *X = expCast<UpdateExp>(&E);
    int ArrSlot = S.Ops[0];
    FUT_TRY(AP, Get(ArrSlot));
    // A consumed array erased for good is taken over, so the update is in
    // place; one restored later is copied.
    Value A;
    if (Opts.ConsumeOnUpdate && S.Consume == ConsumeKind::Local)
      A = std::move(F.Slots[ArrSlot].V);
    else
      A = *AP;
    if (Opts.ConsumeOnUpdate)
      consume(F, ArrSlot, S.Consume);
    size_t NumIdx = S.Ops.size() - 2;
    std::vector<int64_t> Idx;
    Idx.reserve(NumIdx);
    for (size_t I = 0; I < NumIdx; ++I) {
      FUT_TRY(V, Get(S.Ops[1 + I]));
      FUT_TRY(IV, scalarInt(*V, "index"));
      Idx.push_back(IV);
    }
    FUT_TRY(V, Get(S.Ops.back()));
    if (!A.inBounds(Idx))
      return CompilerError::runtime(E.Loc, "update index out of bounds for " +
                                               X->Arr.str());
    if (Idx.size() == A.shape().size()) {
      if (!V->isScalar())
        return CompilerError(E.Loc, "updating element with non-scalar");
      int64_t Off = A.flatIndex(Idx);
      A.flatMut()[Off] = V->getScalar();
      return Push(std::move(A));
    }
    // Bulk update of a whole subarray.
    int64_t Outer = 1;
    for (size_t I = 0; I < Idx.size(); ++I)
      Outer *= A.shape()[I];
    if (V->isScalar() || V->numElems() != A.numElems() / Outer)
      return CompilerError(E.Loc, "bulk update value has wrong size");
    int64_t Inner = V->numElems();
    int64_t Off = 0;
    for (size_t I = 0; I < Idx.size(); ++I)
      Off = Off * A.shape()[I] + Idx[I];
    Off *= Inner;
    auto &Flat = A.flatMut();
    for (int64_t I = 0; I < Inner; ++I)
      Flat[Off + I] = V->flat()[I];
    return Push(std::move(A));
  }

  case ExpKind::Iota: {
    const auto *X = expCast<IotaExp>(&E);
    FUT_TRY(NV, Get(S.Ops[0]));
    FUT_TRY(N, scalarInt(*NV, "iota length"));
    if (N < 0)
      return CompilerError::runtime(E.Loc, "iota of negative length");
    std::vector<PrimValue> Data;
    Data.reserve(N);
    for (int64_t I = 0; I < N; ++I)
      Data.push_back(intOfKind(X->Elem, I));
    return Push(Value::array(X->Elem, {N}, std::move(Data)));
  }

  case ExpKind::Replicate: {
    FUT_TRY(NV, Get(S.Ops[0]));
    FUT_TRY(N, scalarInt(*NV, "replicate count"));
    if (N < 0)
      return CompilerError::runtime(E.Loc, "replicate of negative count");
    FUT_TRY(V, Get(S.Ops[1]));
    if (V->isScalar())
      return Push(
          Value::filledArray(V->getScalar().kind(), {N}, V->getScalar()));
    std::vector<int64_t> Shape;
    Shape.push_back(N);
    Shape.insert(Shape.end(), V->shape().begin(), V->shape().end());
    std::vector<PrimValue> Data;
    Data.reserve(N * V->numElems());
    for (int64_t I = 0; I < N; ++I)
      Data.insert(Data.end(), V->flat().begin(), V->flat().end());
    return Push(Value::array(V->elemKind(), std::move(Shape), std::move(Data)));
  }

  case ExpKind::Rearrange: {
    const auto *X = expCast<RearrangeExp>(&E);
    FUT_TRY(A, Get(S.Ops[0]));
    if (A->rank() != static_cast<int>(X->Perm.size()))
      return CompilerError(E.Loc, "rearrange rank mismatch");
    std::vector<int64_t> NewShape(X->Perm.size());
    for (size_t I = 0; I < X->Perm.size(); ++I)
      NewShape[I] = A->shape()[X->Perm[I]];
    std::vector<PrimValue> Data(A->numElems());
    // For each output position, locate the source element.
    int Rank = A->rank();
    std::vector<int64_t> OutIdx(Rank, 0), SrcIdx(Rank, 0);
    for (int64_t Flat = 0; Flat < A->numElems(); ++Flat) {
      for (int I = 0; I < Rank; ++I)
        SrcIdx[X->Perm[I]] = OutIdx[I];
      Data[Flat] = A->at(SrcIdx);
      nextIndex(OutIdx, NewShape);
    }
    return Push(
        Value::array(A->elemKind(), std::move(NewShape), std::move(Data)));
  }

  case ExpKind::Reshape: {
    FUT_TRY(A, Get(S.Ops[0]));
    std::vector<int64_t> NewShape;
    int64_t N = 1;
    for (size_t I = 1; I < S.Ops.size(); ++I) {
      FUT_TRY(DV, Get(S.Ops[I]));
      FUT_TRY(D, scalarInt(*DV, "reshape dimension"));
      if (D < 0)
        return CompilerError::runtime(E.Loc,
                                      "reshape to a negative dimension");
      NewShape.push_back(D);
      N *= D;
    }
    if (N != A->numElems())
      return CompilerError(E.Loc, "reshape changes number of elements");
    std::vector<PrimValue> Data = A->flat();
    return Push(
        Value::array(A->elemKind(), std::move(NewShape), std::move(Data)));
  }

  case ExpKind::Concat: {
    std::vector<Value> Vs;
    Vs.reserve(S.Ops.size());
    for (int Op : S.Ops) {
      FUT_TRY(V, Get(Op));
      Vs.push_back(*V);
    }
    FUT_TRY(R, concatValues(Vs));
    return Push(std::move(R));
  }

  case ExpKind::Slice: {
    FUT_TRY(A, Get(S.Ops[0]));
    FUT_TRY(OffV, Get(S.Ops[1]));
    FUT_TRY(Off, scalarInt(*OffV, "slice offset"));
    FUT_TRY(LenV, Get(S.Ops[2]));
    FUT_TRY(Len, scalarInt(*LenV, "slice length"));
    FUT_TRY(StrV, Get(S.Ops[3]));
    FUT_TRY(Str, scalarInt(*StrV, "slice stride"));
    if (!A->isArray() || Off < 0 || Len < 0 || Str <= 0 ||
        (Len > 0 && Off + (Len - 1) * Str >= A->outerSize()))
      return CompilerError::runtime(E.Loc, "slice out of bounds");
    std::vector<int64_t> Shape = A->shape();
    Shape[0] = Len;
    int64_t RowElems = A->rowElems();
    std::vector<PrimValue> Data;
    Data.reserve(Len * RowElems);
    for (int64_t I = 0; I < Len; ++I) {
      int64_t Row = Off + I * Str;
      Data.insert(Data.end(), A->flat().begin() + Row * RowElems,
                  A->flat().begin() + (Row + 1) * RowElems);
    }
    return Push(Value::array(A->elemKind(), std::move(Shape), std::move(Data)));
  }

  case ExpKind::Copy: {
    FUT_TRY(A, Get(S.Ops[0]));
    if (!A->isArray())
      return Push(*A);
    std::vector<PrimValue> Data = A->flat();
    std::vector<int64_t> Shape = A->shape();
    return Push(Value::array(A->elemKind(), std::move(Shape), std::move(Data)));
  }

  case ExpKind::Map: {
    const auto *X = expCast<MapExp>(&E);
    FUT_TRY(WV, Get(S.Ops[0]));
    FUT_TRY(W, scalarInt(*WV, "map width"));
    // The inputs are bound outside the lambda, so nothing the lambda does
    // rebinds or moves them while they are read.
    std::vector<const Value *> Arrays;
    Arrays.reserve(S.Ops.size() - 1);
    for (size_t I = 1; I < S.Ops.size(); ++I) {
      FUT_TRY(A, Get(S.Ops[I]));
      if (!A->isArray() || A->outerSize() != W)
        return CompilerError(E.Loc, "map input " + X->Arrays[I - 1].str() +
                                        " has wrong outer size");
      Arrays.push_back(A);
    }
    size_t NumRes = X->Fn.RetTypes.size();
    std::vector<std::vector<Value>> Columns(NumRes);
    std::vector<Value> Args, Res;
    for (int64_t I = 0; I < W; ++I) {
      Args.clear();
      for (const Value *A : Arrays)
        Args.push_back(A->row(I));
      FUT_CHECK(applyLambda(S.Lams[0], F, Args, Res));
      if (Res.size() != NumRes)
        return CompilerError(E.Loc, "map function arity mismatch");
      for (size_t J = 0; J < NumRes; ++J)
        Columns[J].push_back(std::move(Res[J]));
    }
    for (size_t J = 0; J < NumRes; ++J) {
      if (W == 0) {
        // Empty result with the statically known row shape where possible.
        Out.push_back(Value::array(X->Fn.RetTypes[J].elemKind(), {0}, {}));
        continue;
      }
      FUT_TRY(Col, assembleArray(Columns[J]));
      Out.push_back(std::move(Col));
    }
    return MaybeError::success();
  }

  case ExpKind::Reduce:
  case ExpKind::Scan: {
    bool IsScan = E.kind() == ExpKind::Scan;
    const Lambda &Fn = IsScan ? expCast<ScanExp>(&E)->Fn
                              : expCast<ReduceExp>(&E)->Fn;
    size_t NumNeutral = IsScan ? expCast<ScanExp>(&E)->Neutral.size()
                               : expCast<ReduceExp>(&E)->Neutral.size();
    FUT_TRY(WV, Get(S.Ops[0]));
    FUT_TRY(W, scalarInt(*WV, IsScan ? "scan width" : "reduce width"));
    std::vector<Value> Acc;
    for (size_t I = 1; I <= NumNeutral; ++I) {
      FUT_TRY(V, Get(S.Ops[I]));
      Acc.push_back(*V);
    }
    std::vector<const Value *> Arrays;
    for (size_t I = 1 + NumNeutral; I < S.Ops.size(); ++I) {
      FUT_TRY(A, Get(S.Ops[I]));
      if (!A->isArray() || A->outerSize() != W)
        return CompilerError(E.Loc, IsScan ? "scan input has wrong outer size"
                                           : "reduce input has wrong outer "
                                             "size");
      Arrays.push_back(A);
    }
    std::vector<std::vector<Value>> Columns(IsScan ? Acc.size() : 0);
    std::vector<Value> Args;
    for (int64_t I = 0; I < W; ++I) {
      Args = std::move(Acc);
      for (const Value *A : Arrays)
        Args.push_back(A->row(I));
      FUT_CHECK(applyLambda(S.Lams[0], F, Args, Acc));
      if (IsScan)
        for (size_t J = 0; J < Acc.size(); ++J)
          Columns[J].push_back(Acc[J]);
    }
    if (!IsScan) {
      Out = std::move(Acc);
      return MaybeError::success();
    }
    for (size_t J = 0; J < Columns.size(); ++J) {
      if (W == 0) {
        Out.push_back(Value::array(Fn.RetTypes[J].elemKind(), {0}, {}));
        continue;
      }
      FUT_TRY(Col, assembleArray(Columns[J]));
      Out.push_back(std::move(Col));
    }
    return MaybeError::success();
  }

  case ExpKind::ReduceByIndex: {
    const auto *X = expCast<ReduceByIndexExp>(&E);
    FUT_TRY(WV, Get(S.Ops[0]));
    FUT_TRY(W, scalarInt(*WV, "reduce_by_index width"));
    FUT_TRY(D, Get(S.Ops[1]));
    if (!D->isArray() || D->outerSize() != W)
      return CompilerError(E.Loc,
                           "reduce_by_index destination has wrong outer size");
    std::vector<PrimValue> Data = D->flat();
    std::vector<int64_t> Shape = D->shape();
    ScalarKind Elem = D->elemKind();
    if (Opts.ConsumeOnUpdate)
      consume(F, S.Ops[1], S.Consume);
    FUT_TRY(IA, Get(S.Ops[3]));
    if (!IA->isArray())
      return CompilerError(E.Loc, "reduce_by_index indices are not an array");
    int64_t N = IA->outerSize();
    std::vector<const Value *> Arrays;
    for (size_t I = 4; I < S.Ops.size(); ++I) {
      FUT_TRY(V, Get(S.Ops[I]));
      if (!V->isArray() || V->outerSize() != N)
        return CompilerError(E.Loc, "reduce_by_index value array " +
                                        X->ValueArrs[I - 4].str() +
                                        " has wrong outer size");
      Arrays.push_back(V);
    }
    std::vector<Value> VArgs, Val, CArgs, Comb;
    for (int64_t J = 0; J < N; ++J) {
      FUT_TRY(Bin, scalarInt(IA->row(J), "reduce_by_index bin"));
      // The value is computed before the bounds check (every device thread
      // runs its body), so runtime errors inside the value function agree
      // between the interpreter and the compiled path.
      VArgs.clear();
      for (const Value *A : Arrays)
        VArgs.push_back(A->row(J));
      FUT_CHECK(applyLambda(S.Lams[1], F, VArgs, Val));
      if (Val.size() != 1 || !Val[0].isScalar())
        return CompilerError(E.Loc, "reduce_by_index value function must "
                                    "produce one scalar");
      if (Bin < 0 || Bin >= W)
        continue; // Out-of-range bins are skipped, never an error.
      CArgs.clear();
      CArgs.push_back(Value::scalar(Data[Bin]));
      CArgs.push_back(std::move(Val[0]));
      FUT_CHECK(applyLambda(S.Lams[0], F, CArgs, Comb));
      if (Comb.size() != 1 || !Comb[0].isScalar())
        return CompilerError(E.Loc,
                             "reduce_by_index operator must produce one "
                             "scalar");
      Data[Bin] = Comb[0].getScalar();
    }
    return Push(Value::array(Elem, std::move(Shape), std::move(Data)));
  }

  case ExpKind::Stream:
    return evalStream(S, F, Out);

  case ExpKind::Kernel:
    if (Opts.HandleKernel) {
      FUT_TRY(R, Opts.HandleKernel(S, F));
      Out = std::move(R);
      return MaybeError::success();
    }
    return evalKernel(S, F, Out);
  }
  return CompilerError(E.Loc, "unhandled expression kind in interpreter");
}

MaybeError Interpreter::evalStream(const RStm &RS, Frame &F,
                                   std::vector<Value> &Out) {
  const auto &S = *expCast<StreamExp>(RS.E);
  FUT_TRY(WV, valueAt(F, RS.Ops[0]));
  FUT_TRY(W, scalarInt(*WV, "stream width"));
  size_t ArraysAt = 1 + S.AccInit.size();
  std::vector<const Value *> Arrays;
  for (size_t I = ArraysAt; I < RS.Ops.size(); ++I) {
    FUT_TRY(A, valueAt(F, RS.Ops[I]));
    if (!A->isArray() || A->outerSize() != W)
      return CompilerError(S.Loc, "stream input has wrong outer size");
    Arrays.push_back(A);
  }
  std::vector<Value> AccInit;
  for (size_t I = 1; I < ArraysAt; ++I) {
    FUT_TRY(V, valueAt(F, RS.Ops[I]));
    AccInit.push_back(*V);
  }
  if (static_cast<int>(AccInit.size()) != S.NumAccs)
    return CompilerError::runtime(
        "stream accumulator count mismatch: " +
        std::to_string(AccInit.size()) + " initialisers for " +
        std::to_string(S.NumAccs) + " accumulators");

  // Partitioning: contiguous chunks of StreamChunk elements, or, when
  // StreamInterleave is set, P interleaved chunks (chunk g holds elements
  // g, g+P, g+2P, ... — the partitioning the compiler's device chunking
  // uses so warp accesses coalesce).
  int64_t Chunk = Opts.StreamChunk > 0 ? Opts.StreamChunk : (W > 0 ? W : 1);
  int64_t Interleave = 0;
  if (Opts.StreamInterleave > 0)
    Interleave = std::min<int64_t>(W > 0 ? W : 1, Opts.StreamInterleave);
  int64_t NumChunks =
      Interleave > 0 ? Interleave : std::max<int64_t>(1, (W + Chunk - 1) /
                                                             Chunk);
  if (W == 0)
    NumChunks = 1;
  ScalarKind ChunkKind = S.FoldFn.Params.empty()
                             ? ScalarKind::I32
                             : S.FoldFn.Params[0].Ty.elemKind();

  size_t NumMapped = S.FoldFn.RetTypes.size() - S.NumAccs;
  std::vector<std::vector<Value>> MappedChunks(NumMapped);
  std::vector<Value> Accs = AccInit;
  std::vector<Value> Args, Res;

  for (int64_t G = 0; G < NumChunks; ++G) {
    int64_t Start = Interleave > 0 ? G : G * Chunk;
    int64_t Stride = Interleave > 0 ? Interleave : 1;
    int64_t Len;
    if (W == 0)
      Len = 0;
    else if (Interleave > 0)
      Len = Start < W ? (W - Start + Interleave - 1) / Interleave : 0;
    else
      Len = std::min(Chunk, W - Start);
    // Slice out this chunk of every input array.
    Args.clear();
    Args.push_back(Value::scalar(intOfKind(ChunkKind, Len)));
    if (S.Form != StreamExp::FormKind::Par) {
      const std::vector<Value> &ChunkAccs =
          S.Form == StreamExp::FormKind::Seq ? Accs : AccInit;
      Args.insert(Args.end(), ChunkAccs.begin(), ChunkAccs.end());
    }
    for (const Value *A : Arrays) {
      std::vector<int64_t> Shape = A->shape();
      Shape[0] = Len;
      int64_t RowElems = A->rowElems();
      std::vector<PrimValue> Data;
      Data.reserve(Len * RowElems);
      for (int64_t I = 0; I < Len; ++I) {
        int64_t Row = Start + I * Stride;
        Data.insert(Data.end(), A->flat().begin() + Row * RowElems,
                    A->flat().begin() + (Row + 1) * RowElems);
      }
      Args.push_back(
          Value::array(A->elemKind(), std::move(Shape), std::move(Data)));
    }
    FUT_CHECK(applyLambda(RS.Lams[0], F, Args, Res));
    if (Res.size() != S.FoldFn.RetTypes.size())
      return CompilerError(S.Loc, "stream fold arity mismatch");

    switch (S.Form) {
    case StreamExp::FormKind::Par:
      break;
    case StreamExp::FormKind::Seq:
      Accs.assign(std::make_move_iterator(Res.begin()),
                  std::make_move_iterator(Res.begin() + S.NumAccs));
      break;
    case StreamExp::FormKind::Red: {
      // Combine with the running accumulator via the associative operator.
      std::vector<Value> CombArgs = Accs;
      CombArgs.insert(CombArgs.end(), std::make_move_iterator(Res.begin()),
                      std::make_move_iterator(Res.begin() + S.NumAccs));
      FUT_CHECK(applyLambda(RS.Lams[1], F, CombArgs, Accs));
      break;
    }
    }
    for (size_t J = 0; J < NumMapped; ++J)
      MappedChunks[J].push_back(std::move(Res[S.NumAccs + J]));
  }

  Out = std::move(Accs);
  for (size_t J = 0; J < NumMapped; ++J) {
    if (MappedChunks[J].empty()) {
      Out.push_back(Value::array(
          S.FoldFn.RetTypes[S.NumAccs + J].elemKind(), {0}, {}));
      continue;
    }
    FUT_TRY(Col, concatValues(MappedChunks[J]));
    Out.push_back(std::move(Col));
  }
  return MaybeError::success();
}

MaybeError Interpreter::evalKernel(const RStm &S, Frame &F,
                                   std::vector<Value> &Out) {
  const auto &K = *expCast<KernelExp>(S.E);
  if (S.Bodies.empty())
    return CompilerError(K.Loc, "kernel statement resolved for launching "
                                "only cannot be interpreted");
  const KernelOperands KO(K);
  auto Get = [&](int Op) { return valueAt(F, S.Ops[Op]); };
  auto BindIndex = [&](size_t I, int64_t V) {
    Frame::Entry &E = F.Slots[S.Binds[I]];
    E.V = Value::scalar(PrimValue::makeI32(static_cast<int32_t>(V)));
    E.Bound = true;
  };
  const RBody &Thread = S.Bodies[0];

  // Resolve grid dimensions.
  std::vector<int64_t> Grid;
  for (size_t I = 0; I < K.GridDims.size(); ++I) {
    FUT_TRY(V, Get(static_cast<int>(I)));
    FUT_TRY(G, scalarInt(*V, "grid dimension"));
    Grid.push_back(G);
  }
  int64_t NumGroups = 1;
  for (int64_t G : Grid)
    NumGroups *= G;
  std::vector<Value> Res, Args, Comb;

  if (K.Op == KernelExp::OpKind::SegHist) {
    // One thread per grid position computes (bin, value); values fold into
    // the destination bins with ReduceFn.  Ascending thread order keeps the
    // result bit-identical to the device, which serialises conflicting
    // atomics deterministically.
    FUT_TRY(WV, Get(KO.HistWidth));
    FUT_TRY(W, scalarInt(*WV, "histogram width"));
    FUT_TRY(D, Get(KO.HistDest));
    if (!D->isArray() || D->outerSize() != W)
      return CompilerError(K.Loc, "seghist destination has wrong outer size");
    std::vector<PrimValue> Data = D->flat();
    std::vector<int64_t> Shape = D->shape();
    ScalarKind Elem = D->elemKind();
    if (Opts.ConsumeOnUpdate)
      consume(F, S.Ops[KO.HistDest], S.Consume);
    std::vector<int64_t> HIdx(Grid.size(), 0);
    for (int64_t G = 0; G < NumGroups; ++G) {
      for (size_t I = 0; I < Grid.size(); ++I)
        BindIndex(I, HIdx[I]);
      FUT_CHECK(evalBody(Thread, F, Res));
      if (Res.size() != 2 || !Res[0].isScalar() || !Res[1].isScalar())
        return CompilerError(K.Loc,
                             "seghist thread body must produce (bin, value)");
      FUT_TRY(Bin, scalarInt(Res[0], "seghist bin"));
      if (Bin >= 0 && Bin < W) {
        Args.clear();
        Args.push_back(Value::scalar(Data[Bin]));
        Args.push_back(Res[1]);
        FUT_CHECK(applyLambda(S.Lams[0], F, Args, Comb));
        if (Comb.size() != 1 || !Comb[0].isScalar())
          return CompilerError(K.Loc,
                               "seghist operator must produce one scalar");
        Data[Bin] = Comb[0].getScalar();
      }
      nextIndex(HIdx, Grid);
    }
    Out.push_back(Value::array(Elem, std::move(Shape), std::move(Data)));
    return MaybeError::success();
  }

  int64_t SegSize = 1;
  if (K.isSegmented()) {
    FUT_TRY(V, Get(KO.SegSize));
    FUT_TRY(I, scalarInt(*V, "segment size"));
    SegSize = I;
  }

  size_t NumRes = K.isSegmented() ? K.Neutral.size() : K.RetTypes.size();
  std::vector<std::vector<Value>> PerPos(NumRes);

  std::vector<int64_t> Idx(Grid.size(), 0);
  std::vector<Value> Acc;
  for (int64_t G = 0; G < NumGroups; ++G) {
    for (size_t I = 0; I < Grid.size(); ++I)
      BindIndex(I, Idx[I]);

    if (!K.isSegmented()) {
      FUT_CHECK(evalBody(Thread, F, Res));
      for (size_t J = 0; J < NumRes; ++J)
        PerPos[J].push_back(std::move(Res[J]));
    } else {
      // Evaluate the per-element values, then combine within the segment.
      Acc.clear();
      for (size_t J = 0; J < K.Neutral.size(); ++J) {
        FUT_TRY(V, Get(KO.Neutral + static_cast<int>(J)));
        Acc.push_back(*V);
      }
      std::vector<std::vector<Value>> ScanCols(NumRes);
      for (int64_t Seg = 0; Seg < SegSize; ++Seg) {
        BindIndex(K.ThreadIndices.size(), Seg);
        FUT_CHECK(evalBody(Thread, F, Res));
        Args = Acc;
        for (Value &V : Res)
          Args.push_back(std::move(V));
        FUT_CHECK(applyLambda(S.Lams[0], F, Args, Acc));
        if (K.Op == KernelExp::OpKind::SegScan)
          for (size_t J = 0; J < NumRes; ++J)
            ScanCols[J].push_back(Acc[J]);
      }
      if (K.Op == KernelExp::OpKind::SegReduce) {
        for (size_t J = 0; J < NumRes; ++J)
          PerPos[J].push_back(std::move(Acc[J]));
      } else {
        for (size_t J = 0; J < NumRes; ++J) {
          if (SegSize == 0) {
            PerPos[J].push_back(
                Value::array(K.RetTypes[J].elemKind(), {0}, {}));
            continue;
          }
          FUT_TRY(Col, assembleArray(ScanCols[J]));
          PerPos[J].push_back(std::move(Col));
        }
      }
    }
    nextIndex(Idx, Grid);
  }

  // Assemble results: nested per grid dimensions.
  for (size_t J = 0; J < NumRes; ++J) {
    if (Grid.empty()) {
      Out.push_back(std::move(PerPos[J][0]));
      continue;
    }
    if (NumGroups == 0) {
      std::vector<int64_t> Shape = Grid;
      Out.push_back(Value::array(K.RetTypes[J].elemKind(), Shape, {}));
      continue;
    }
    FUT_TRY(FlatV, assembleArray(PerPos[J]));
    // Reshape the flat outer dimension into the grid shape.
    std::vector<int64_t> Shape = Grid;
    const Value &First = PerPos[J][0];
    if (First.isArray())
      Shape.insert(Shape.end(), First.shape().begin(), First.shape().end());
    std::vector<PrimValue> Data = FlatV.flat();
    Out.push_back(
        Value::array(FlatV.elemKind(), std::move(Shape), std::move(Data)));
  }
  return MaybeError::success();
}
