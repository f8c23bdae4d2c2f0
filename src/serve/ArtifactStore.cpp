//===- ArtifactStore.cpp - On-disk compiled-artifact persistence ----------===//
//
// Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
//
//===----------------------------------------------------------------------===//
//
// The binary format is deliberately dumb: a magic/version header, the
// saved fingerprint, then a field-by-field encoding of CompileResult in
// declaration order.  There is no forward/backward compatibility — the
// version bump *is* the migration story (an old file fails the header
// check and the server recompiles).  Robustness comes from the decoder
// never trusting the input: every read is bounds-checked, every count is
// sanity-capped, and the decoded artifact must reproduce the recorded
// fingerprint before anyone gets to run it.
//
//===----------------------------------------------------------------------===//

#include "serve/ArtifactStore.h"

#include "ir/IR.h"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

using namespace fut;
using namespace fut::serve;

namespace {

constexpr char kMagic[4] = {'F', 'U', 'T', 'A'};
constexpr uint32_t kVersion = 1;
/// Upper bound on any single decoded count (functions, statements,
/// dimensions, ...).  Real artifacts are far below it; a corrupt length
/// field fails fast instead of attempting a multi-gigabyte reserve.
constexpr uint64_t kMaxCount = 1u << 24;

//===----------------------------------------------------------------------===//
// Encoder
//===----------------------------------------------------------------------===//

struct Writer {
  std::string Out;

  void u8(uint8_t V) { Out.push_back(static_cast<char>(V)); }
  void u32(uint32_t V) { raw(&V, sizeof V); }
  void u64(uint64_t V) { raw(&V, sizeof V); }
  void i64(int64_t V) { u64(static_cast<uint64_t>(V)); }
  void i32(int32_t V) { u32(static_cast<uint32_t>(V)); }
  void f64(double V) {
    uint64_t Bits;
    std::memcpy(&Bits, &V, sizeof Bits);
    u64(Bits);
  }
  void boolean(bool V) { u8(V ? 1 : 0); }
  void str(const std::string &S) {
    u64(S.size());
    Out.append(S);
  }
  void raw(const void *P, size_t N) {
    Out.append(static_cast<const char *>(P), N);
  }

  void name(const VName &N) {
    str(N.Base);
    i32(N.Tag);
  }
  void prim(const PrimValue &V) {
    u8(static_cast<uint8_t>(V.kind()));
    switch (V.kind()) {
    case ScalarKind::Bool:
      u8(V.getBool() ? 1 : 0);
      break;
    case ScalarKind::I32:
    case ScalarKind::I64:
      i64(V.getInt());
      break;
    case ScalarKind::F32:
    case ScalarKind::F64:
      f64(V.getFloat());
      break;
    }
  }
  void sub(const SubExp &S) {
    boolean(S.isConst());
    if (S.isConst())
      prim(S.getConst());
    else
      name(S.getVar());
  }
  void type(const Type &T) {
    u8(static_cast<uint8_t>(T.elemKind()));
    boolean(T.isUnique());
    u64(T.shape().size());
    for (const Dim &D : T.shape())
      sub(D);
  }
  void param(const Param &P) {
    name(P.Name);
    type(P.Ty);
  }

  template <typename T, typename F> void vec(const std::vector<T> &V, F Fn) {
    u64(V.size());
    for (const T &X : V)
      Fn(X);
  }
  void subs(const std::vector<SubExp> &V) {
    vec(V, [&](const SubExp &S) { sub(S); });
  }
  void names(const std::vector<VName> &V) {
    vec(V, [&](const VName &N) { name(N); });
  }
  void types(const std::vector<Type> &V) {
    vec(V, [&](const Type &T) { type(T); });
  }
  void params(const std::vector<Param> &V) {
    vec(V, [&](const Param &P) { param(P); });
  }

  void body(const Body &B);
  void lambda(const Lambda &L) {
    params(L.Params);
    body(L.B);
    types(L.RetTypes);
  }
  void exp(const Exp &E);
};

void Writer::body(const Body &B) {
  u64(B.Stms.size());
  for (const Stm &S : B.Stms) {
    params(S.Pat);
    exp(*S.E);
  }
  subs(B.Result);
}

void Writer::exp(const Exp &E) {
  u8(static_cast<uint8_t>(E.kind()));
  switch (E.kind()) {
  case ExpKind::SubExpE:
    sub(expCast<SubExpExp>(&E)->Val);
    break;
  case ExpKind::BinOpE: {
    const auto *X = expCast<BinOpExp>(&E);
    u8(static_cast<uint8_t>(X->Op));
    sub(X->A);
    sub(X->B);
    break;
  }
  case ExpKind::UnOpE: {
    const auto *X = expCast<UnOpExp>(&E);
    u8(static_cast<uint8_t>(X->Op));
    sub(X->A);
    break;
  }
  case ExpKind::ConvOpE: {
    const auto *X = expCast<ConvOpExp>(&E);
    u8(static_cast<uint8_t>(X->Op.From));
    u8(static_cast<uint8_t>(X->Op.To));
    sub(X->A);
    break;
  }
  case ExpKind::If: {
    const auto *X = expCast<IfExp>(&E);
    sub(X->Cond);
    body(X->Then);
    body(X->Else);
    types(X->RetTypes);
    break;
  }
  case ExpKind::Index: {
    const auto *X = expCast<IndexExp>(&E);
    name(X->Arr);
    subs(X->Indices);
    break;
  }
  case ExpKind::Apply: {
    const auto *X = expCast<ApplyExp>(&E);
    str(X->Func);
    subs(X->Args);
    break;
  }
  case ExpKind::Loop: {
    const auto *X = expCast<LoopExp>(&E);
    params(X->MergeParams);
    subs(X->MergeInit);
    name(X->IndexVar);
    sub(X->Bound);
    body(X->LoopBody);
    break;
  }
  case ExpKind::Update: {
    const auto *X = expCast<UpdateExp>(&E);
    name(X->Arr);
    subs(X->Indices);
    sub(X->Value);
    break;
  }
  case ExpKind::Iota: {
    const auto *X = expCast<IotaExp>(&E);
    sub(X->N);
    u8(static_cast<uint8_t>(X->Elem));
    break;
  }
  case ExpKind::Replicate: {
    const auto *X = expCast<ReplicateExp>(&E);
    sub(X->N);
    sub(X->Val);
    type(X->ValType);
    break;
  }
  case ExpKind::Rearrange: {
    const auto *X = expCast<RearrangeExp>(&E);
    u64(X->Perm.size());
    for (int P : X->Perm)
      i32(P);
    name(X->Arr);
    break;
  }
  case ExpKind::Reshape: {
    const auto *X = expCast<ReshapeExp>(&E);
    subs(X->NewShape);
    name(X->Arr);
    break;
  }
  case ExpKind::Concat:
    names(expCast<ConcatExp>(&E)->Arrays);
    break;
  case ExpKind::Copy:
    name(expCast<CopyExp>(&E)->Arr);
    break;
  case ExpKind::Slice: {
    const auto *X = expCast<SliceExp>(&E);
    name(X->Arr);
    sub(X->Offset);
    sub(X->Len);
    sub(X->Stride);
    break;
  }
  case ExpKind::Map: {
    const auto *X = expCast<MapExp>(&E);
    sub(X->Width);
    lambda(X->Fn);
    names(X->Arrays);
    break;
  }
  case ExpKind::Reduce: {
    const auto *X = expCast<ReduceExp>(&E);
    sub(X->Width);
    lambda(X->Fn);
    subs(X->Neutral);
    names(X->Arrays);
    boolean(X->Commutative);
    break;
  }
  case ExpKind::Scan: {
    const auto *X = expCast<ScanExp>(&E);
    sub(X->Width);
    lambda(X->Fn);
    subs(X->Neutral);
    names(X->Arrays);
    break;
  }
  case ExpKind::Stream: {
    const auto *X = expCast<StreamExp>(&E);
    u8(static_cast<uint8_t>(X->Form));
    sub(X->Width);
    lambda(X->ReduceFn);
    i32(X->NumAccs);
    subs(X->AccInit);
    lambda(X->FoldFn);
    names(X->Arrays);
    break;
  }
  case ExpKind::ReduceByIndex: {
    const auto *X = expCast<ReduceByIndexExp>(&E);
    sub(X->Width);
    name(X->Dest);
    lambda(X->CombineFn);
    sub(X->Neutral);
    lambda(X->ValueFn);
    name(X->IndexArr);
    names(X->ValueArrs);
    break;
  }
  case ExpKind::Kernel: {
    const auto *X = expCast<KernelExp>(&E);
    u8(static_cast<uint8_t>(X->Op));
    subs(X->GridDims);
    names(X->ThreadIndices);
    sub(X->SegSize);
    name(X->SegIndex);
    lambda(X->ReduceFn);
    subs(X->Neutral);
    u64(X->Inputs.size());
    for (const KernelExp::KInput &In : X->Inputs) {
      name(In.Arr);
      type(In.Ty);
      u64(In.LayoutPerm.size());
      for (int P : In.LayoutPerm)
        i32(P);
      boolean(In.Tiled);
    }
    body(X->ThreadBody);
    types(X->RetTypes);
    name(X->HistDest);
    sub(X->HistWidth);
    boolean(X->TransposedOutputs);
    break;
  }
  }
}

//===----------------------------------------------------------------------===//
// Decoder
//===----------------------------------------------------------------------===//

struct Reader {
  const std::string &In;
  size_t Pos = 0;
  bool Fail = false;

  explicit Reader(const std::string &In) : In(In) {}

  bool take(void *P, size_t N) {
    if (Fail || In.size() - Pos < N) {
      Fail = true;
      return false;
    }
    std::memcpy(P, In.data() + Pos, N);
    Pos += N;
    return true;
  }
  uint8_t u8() {
    uint8_t V = 0;
    take(&V, sizeof V);
    return V;
  }
  uint32_t u32() {
    uint32_t V = 0;
    take(&V, sizeof V);
    return V;
  }
  uint64_t u64() {
    uint64_t V = 0;
    take(&V, sizeof V);
    return V;
  }
  int64_t i64() { return static_cast<int64_t>(u64()); }
  int32_t i32() { return static_cast<int32_t>(u32()); }
  double f64() {
    uint64_t Bits = u64();
    double V;
    std::memcpy(&V, &Bits, sizeof V);
    return V;
  }
  bool boolean() { return u8() != 0; }
  /// A decoded collection size, capped so corrupt lengths fail instead of
  /// allocating.
  size_t count() {
    uint64_t N = u64();
    if (N > kMaxCount) {
      Fail = true;
      return 0;
    }
    return static_cast<size_t>(N);
  }
  std::string str() {
    size_t N = count();
    if (Fail || In.size() - Pos < N) {
      Fail = true;
      return {};
    }
    std::string S(In, Pos, N);
    Pos += N;
    return S;
  }
  /// An enum discriminator with an inclusive upper bound.
  uint8_t tag(uint8_t Max) {
    uint8_t V = u8();
    if (V > Max)
      Fail = true;
    return Fail ? 0 : V;
  }

  VName name() {
    std::string Base = str();
    int Tag = i32();
    return VName(std::move(Base), Tag);
  }
  ScalarKind scalarKind() {
    return static_cast<ScalarKind>(tag(static_cast<uint8_t>(ScalarKind::F64)));
  }
  PrimValue prim() {
    ScalarKind K = scalarKind();
    switch (K) {
    case ScalarKind::Bool:
      return PrimValue::makeBool(u8() != 0);
    case ScalarKind::I32:
      return PrimValue::makeI32(static_cast<int32_t>(i64()));
    case ScalarKind::I64:
      return PrimValue::makeI64(i64());
    case ScalarKind::F32:
      return PrimValue::makeF32(static_cast<float>(f64()));
    case ScalarKind::F64:
      return PrimValue::makeF64(f64());
    }
    Fail = true;
    return PrimValue();
  }
  SubExp sub() {
    if (boolean())
      return SubExp::constant(prim());
    return SubExp::var(name());
  }
  Type type() {
    ScalarKind K = scalarKind();
    bool Unique = boolean();
    std::vector<Dim> Shape(count());
    for (Dim &D : Shape)
      D = sub();
    return Type(K, std::move(Shape), Unique);
  }
  Param param() {
    VName N = name();
    Type T = type();
    return Param(std::move(N), std::move(T));
  }

  std::vector<SubExp> subs() {
    std::vector<SubExp> V(count());
    for (SubExp &S : V)
      S = sub();
    return V;
  }
  std::vector<VName> names() {
    std::vector<VName> V(count());
    for (VName &N : V)
      N = name();
    return V;
  }
  std::vector<Type> types() {
    std::vector<Type> V(count());
    for (Type &T : V)
      T = type();
    return V;
  }
  std::vector<Param> params() {
    std::vector<Param> V(count());
    for (Param &P : V)
      P = param();
    return V;
  }
  std::vector<int> ints() {
    std::vector<int> V(count());
    for (int &X : V)
      X = i32();
    return V;
  }

  Body body();
  Lambda lambda() {
    Lambda L;
    L.Params = params();
    L.B = body();
    L.RetTypes = types();
    return L;
  }
  ExpPtr exp();
};

Body Reader::body() {
  Body B;
  size_t N = count();
  B.Stms.reserve(Fail ? 0 : N);
  for (size_t I = 0; I < N && !Fail; ++I) {
    std::vector<Param> Pat = params();
    ExpPtr E = exp();
    if (Fail || !E)
      break;
    B.Stms.emplace_back(std::move(Pat), std::move(E));
  }
  B.Result = subs();
  return B;
}

ExpPtr Reader::exp() {
  ExpKind K =
      static_cast<ExpKind>(tag(static_cast<uint8_t>(ExpKind::Kernel)));
  if (Fail)
    return nullptr;
  switch (K) {
  case ExpKind::SubExpE:
    return std::make_unique<SubExpExp>(sub());
  case ExpKind::BinOpE: {
    BinOp Op = static_cast<BinOp>(tag(static_cast<uint8_t>(BinOp::Geq)));
    SubExp A = sub(), B = sub();
    return std::make_unique<BinOpExp>(Op, std::move(A), std::move(B));
  }
  case ExpKind::UnOpE: {
    UnOp Op = static_cast<UnOp>(tag(static_cast<uint8_t>(UnOp::Floor)));
    return std::make_unique<UnOpExp>(Op, sub());
  }
  case ExpKind::ConvOpE: {
    ConvOp Op;
    Op.From = scalarKind();
    Op.To = scalarKind();
    return std::make_unique<ConvOpExp>(Op, sub());
  }
  case ExpKind::If: {
    SubExp Cond = sub();
    Body Then = body(), Else = body();
    return std::make_unique<IfExp>(std::move(Cond), std::move(Then),
                                   std::move(Else), types());
  }
  case ExpKind::Index: {
    VName Arr = name();
    return std::make_unique<IndexExp>(std::move(Arr), subs());
  }
  case ExpKind::Apply: {
    std::string F = str();
    return std::make_unique<ApplyExp>(std::move(F), subs());
  }
  case ExpKind::Loop: {
    std::vector<Param> MP = params();
    std::vector<SubExp> MI = subs();
    VName IV = name();
    SubExp Bound = sub();
    Body B = body();
    return std::make_unique<LoopExp>(std::move(MP), std::move(MI),
                                     std::move(IV), std::move(Bound),
                                     std::move(B));
  }
  case ExpKind::Update: {
    VName Arr = name();
    std::vector<SubExp> Idx = subs();
    SubExp V = sub();
    return std::make_unique<UpdateExp>(std::move(Arr), std::move(Idx),
                                       std::move(V));
  }
  case ExpKind::Iota: {
    SubExp N = sub();
    ScalarKind Elem = scalarKind();
    return std::make_unique<IotaExp>(std::move(N), Elem);
  }
  case ExpKind::Replicate: {
    SubExp N = sub(), V = sub();
    return std::make_unique<ReplicateExp>(std::move(N), std::move(V), type());
  }
  case ExpKind::Rearrange: {
    std::vector<int> Perm = ints();
    return std::make_unique<RearrangeExp>(std::move(Perm), name());
  }
  case ExpKind::Reshape: {
    std::vector<SubExp> Shape = subs();
    return std::make_unique<ReshapeExp>(std::move(Shape), name());
  }
  case ExpKind::Concat:
    return std::make_unique<ConcatExp>(names());
  case ExpKind::Copy:
    return std::make_unique<CopyExp>(name());
  case ExpKind::Slice: {
    VName Arr = name();
    SubExp Off = sub(), Len = sub(), Stride = sub();
    return std::make_unique<SliceExp>(std::move(Arr), std::move(Off),
                                      std::move(Len), std::move(Stride));
  }
  case ExpKind::Map: {
    SubExp W = sub();
    Lambda Fn = lambda();
    return std::make_unique<MapExp>(std::move(W), std::move(Fn), names());
  }
  case ExpKind::Reduce: {
    SubExp W = sub();
    Lambda Fn = lambda();
    std::vector<SubExp> Ne = subs();
    std::vector<VName> Arrs = names();
    bool Comm = boolean();
    return std::make_unique<ReduceExp>(std::move(W), std::move(Fn),
                                       std::move(Ne), std::move(Arrs), Comm);
  }
  case ExpKind::Scan: {
    SubExp W = sub();
    Lambda Fn = lambda();
    std::vector<SubExp> Ne = subs();
    return std::make_unique<ScanExp>(std::move(W), std::move(Fn),
                                     std::move(Ne), names());
  }
  case ExpKind::Stream: {
    StreamExp::FormKind Form = static_cast<StreamExp::FormKind>(
        tag(static_cast<uint8_t>(StreamExp::FormKind::Seq)));
    SubExp W = sub();
    Lambda RFn = lambda();
    int NumAccs = i32();
    std::vector<SubExp> Acc = subs();
    Lambda FFn = lambda();
    return std::make_unique<StreamExp>(Form, std::move(W), std::move(RFn),
                                       NumAccs, std::move(Acc),
                                       std::move(FFn), names());
  }
  case ExpKind::ReduceByIndex: {
    SubExp W = sub();
    VName Dest = name();
    Lambda CFn = lambda();
    SubExp Ne = sub();
    Lambda VFn = lambda();
    VName Idx = name();
    return std::make_unique<ReduceByIndexExp>(
        std::move(W), std::move(Dest), std::move(CFn), std::move(Ne),
        std::move(VFn), std::move(Idx), names());
  }
  case ExpKind::Kernel: {
    auto X = std::make_unique<KernelExp>();
    X->Op = static_cast<KernelExp::OpKind>(
        tag(static_cast<uint8_t>(KernelExp::OpKind::SegHist)));
    X->GridDims = subs();
    X->ThreadIndices = names();
    X->SegSize = sub();
    X->SegIndex = name();
    X->ReduceFn = lambda();
    X->Neutral = subs();
    size_t NI = count();
    for (size_t I = 0; I < NI && !Fail; ++I) {
      KernelExp::KInput In;
      In.Arr = name();
      In.Ty = type();
      In.LayoutPerm = ints();
      In.Tiled = boolean();
      X->Inputs.push_back(std::move(In));
    }
    X->ThreadBody = body();
    X->RetTypes = types();
    X->HistDest = name();
    X->HistWidth = sub();
    X->TransposedOutputs = boolean();
    return X;
  }
  }
  Fail = true;
  return nullptr;
}

//===----------------------------------------------------------------------===//
// The plans and statistics
//===----------------------------------------------------------------------===//

void putMemPlan(Writer &W, const mem::MemoryPlan &MP) {
  W.u64(MP.Funs.size());
  for (const mem::FunPlan &FP : MP.Funs) {
    W.str(FP.Fun);
    W.u64(FP.Entries.size());
    for (const mem::PlanEntry &E : FP.Entries) {
      W.name(E.Name);
      W.i32(E.Slab);
      W.i64(E.Offset);
      W.i64(E.Bytes);
      W.str(E.SizeExpr);
      W.boolean(E.HasAlias);
      W.name(E.AliasOf);
      W.u8(static_cast<uint8_t>(E.Alias));
      W.boolean(E.Hoisted);
      W.i32(E.BufferIndex);
      W.boolean(E.Reused);
      W.i32(E.Start);
      W.i32(E.End);
    }
    W.u64(FP.Slabs.size());
    for (const mem::SlabInfo &SI : FP.Slabs) {
      W.i32(SI.Id);
      W.i64(SI.Bytes);
      W.str(SI.SizeExpr);
      W.boolean(SI.Hoisted);
    }
    W.i64(FP.StaticArenaBytes);
    W.i32(FP.HoistedSlabs);
    W.i32(FP.ReuseLinks);
    W.i64(FP.TapeBytes);
    W.i32(FP.TapeArrays);
    W.i32(FP.TapeSymbolic);
  }
}

mem::MemoryPlan getMemPlan(Reader &R) {
  mem::MemoryPlan MP;
  size_t NF = R.count();
  for (size_t I = 0; I < NF && !R.Fail; ++I) {
    mem::FunPlan FP;
    FP.Fun = R.str();
    size_t NE = R.count();
    for (size_t J = 0; J < NE && !R.Fail; ++J) {
      mem::PlanEntry E;
      E.Name = R.name();
      E.Slab = R.i32();
      E.Offset = R.i64();
      E.Bytes = R.i64();
      E.SizeExpr = R.str();
      E.HasAlias = R.boolean();
      E.AliasOf = R.name();
      E.Alias = static_cast<mem::AliasKind>(
          R.tag(static_cast<uint8_t>(mem::AliasKind::LoopResult)));
      E.Hoisted = R.boolean();
      E.BufferIndex = R.i32();
      E.Reused = R.boolean();
      E.Start = R.i32();
      E.End = R.i32();
      FP.EntryIndex[E.Name] = static_cast<int>(FP.Entries.size());
      FP.Entries.push_back(std::move(E));
    }
    size_t NS = R.count();
    for (size_t J = 0; J < NS && !R.Fail; ++J) {
      mem::SlabInfo SI;
      SI.Id = R.i32();
      SI.Bytes = R.i64();
      SI.SizeExpr = R.str();
      SI.Hoisted = R.boolean();
      FP.Slabs.push_back(std::move(SI));
    }
    FP.StaticArenaBytes = R.i64();
    FP.HoistedSlabs = R.i32();
    FP.ReuseLinks = R.i32();
    FP.TapeBytes = R.i64();
    FP.TapeArrays = R.i32();
    FP.TapeSymbolic = R.i32();
    MP.Funs.push_back(std::move(FP));
  }
  return MP;
}

void putShardPlan(Writer &W, const shard::ShardPlan &SP) {
  W.i32(SP.Devices);
  W.u64(SP.Funs.size());
  for (const shard::FunShardPlan &FP : SP.Funs) {
    W.str(FP.Fun);
    W.u64(FP.Kernels.size());
    for (const shard::KernelShard &K : FP.Kernels) {
      W.i32(K.KernelId);
      W.boolean(K.Sharded);
      W.str(K.WhyNot);
      W.boolean(K.HistMerge);
      W.sub(K.Width);
      W.i64(K.ConstWidth);
      W.u64(K.Blocks.size());
      for (const auto &B : K.Blocks) {
        W.i64(B.first);
        W.i64(B.second);
      }
      W.u64(K.Inputs.size());
      for (const shard::ShardInput &In : K.Inputs) {
        W.name(In.Arr);
        W.u8(static_cast<uint8_t>(In.Class));
      }
      W.names(K.Outputs);
    }
    W.u64(FP.Transfers.size());
    for (const shard::TransferEdge &T : FP.Transfers) {
      W.name(T.Arr);
      W.i32(T.ProducerKernel);
      W.i32(T.ConsumerKernel);
      W.i64(T.Bytes);
    }
    W.u64(FP.PlannedPeakBytes.size());
    for (int64_t B : FP.PlannedPeakBytes)
      W.i64(B);
    W.i64(FP.PerDeviceMemBytes);
  }
}

shard::ShardPlan getShardPlan(Reader &R) {
  shard::ShardPlan SP;
  SP.Devices = R.i32();
  size_t NF = R.count();
  for (size_t I = 0; I < NF && !R.Fail; ++I) {
    shard::FunShardPlan FP;
    FP.Fun = R.str();
    size_t NK = R.count();
    for (size_t J = 0; J < NK && !R.Fail; ++J) {
      shard::KernelShard K;
      K.KernelId = R.i32();
      K.Sharded = R.boolean();
      K.WhyNot = R.str();
      K.HistMerge = R.boolean();
      K.Width = R.sub();
      K.ConstWidth = R.i64();
      size_t NB = R.count();
      for (size_t L = 0; L < NB && !R.Fail; ++L) {
        int64_t A = R.i64(), B = R.i64();
        K.Blocks.emplace_back(A, B);
      }
      size_t NI = R.count();
      for (size_t L = 0; L < NI && !R.Fail; ++L) {
        shard::ShardInput In;
        In.Arr = R.name();
        In.Class = static_cast<shard::InputClass>(
            R.tag(static_cast<uint8_t>(shard::InputClass::Broadcast)));
        K.Inputs.push_back(std::move(In));
      }
      K.Outputs = R.names();
      FP.Kernels.push_back(std::move(K));
    }
    size_t NT = R.count();
    for (size_t J = 0; J < NT && !R.Fail; ++J) {
      shard::TransferEdge T;
      T.Arr = R.name();
      T.ProducerKernel = R.i32();
      T.ConsumerKernel = R.i32();
      T.Bytes = R.i64();
      FP.Transfers.push_back(std::move(T));
    }
    size_t NP = R.count();
    for (size_t J = 0; J < NP && !R.Fail; ++J)
      FP.PlannedPeakBytes.push_back(R.i64());
    FP.PerDeviceMemBytes = R.i64();
    SP.Funs.push_back(std::move(FP));
  }
  return SP;
}

} // namespace

//===----------------------------------------------------------------------===//
// Public API
//===----------------------------------------------------------------------===//

std::string serve::serializeArtifact(const CompileResult &C) {
  return serializeArtifact(C, C.fingerprint());
}

std::string serve::serializeArtifact(const CompileResult &C,
                                     uint64_t Fingerprint) {
  Writer W;
  W.raw(kMagic, sizeof kMagic);
  W.u32(kVersion);
  W.u64(Fingerprint);

  W.u64(C.P.Funs.size());
  for (const FunDef &F : C.P.Funs) {
    W.str(F.Name);
    W.params(F.Params);
    W.types(F.RetTypes);
    W.body(F.FBody);
  }

  W.i32(C.Fusion.Vertical);
  W.i32(C.Fusion.Redomap);
  W.i32(C.Fusion.StreamFusions);
  W.i32(C.Fusion.Horizontal);
  W.i32(C.Fusion.HistFusions);

  W.i32(C.Flatten.ThreadKernels);
  W.i32(C.Flatten.SegReduces);
  W.i32(C.Flatten.SegScans);
  W.i32(C.Flatten.SegHists);
  W.i32(C.Flatten.Interchanges);
  W.i32(C.Flatten.VectorisedReduceInterchanges);
  W.i32(C.Flatten.SequentialisedSOACs);

  W.i32(C.Locality.CoalescedInputs);
  W.i32(C.Locality.TiledInputs);

  putMemPlan(W, C.MemPlan);
  putShardPlan(W, C.Shards);
  return std::move(W.Out);
}

ErrorOr<CompileResult> serve::deserializeArtifact(const std::string &Bytes,
                                                  uint64_t *Fingerprint) {
  Reader R(Bytes);
  char Magic[4];
  if (!R.take(Magic, sizeof Magic) || std::memcmp(Magic, kMagic, 4) != 0)
    return CompilerError::runtime("artifact: bad magic");
  if (R.u32() != kVersion)
    return CompilerError::runtime("artifact: version mismatch");
  uint64_t SavedFp = R.u64();

  CompileResult C;
  Program P;
  size_t NF = R.count();
  for (size_t I = 0; I < NF && !R.Fail; ++I) {
    FunDef F;
    F.Name = R.str();
    F.Params = R.params();
    F.RetTypes = R.types();
    F.FBody = R.body();
    P.Funs.push_back(std::move(F));
  }
  C.P = DeviceProgram(std::move(P));

  C.Fusion.Vertical = R.i32();
  C.Fusion.Redomap = R.i32();
  C.Fusion.StreamFusions = R.i32();
  C.Fusion.Horizontal = R.i32();
  C.Fusion.HistFusions = R.i32();

  C.Flatten.ThreadKernels = R.i32();
  C.Flatten.SegReduces = R.i32();
  C.Flatten.SegScans = R.i32();
  C.Flatten.SegHists = R.i32();
  C.Flatten.Interchanges = R.i32();
  C.Flatten.VectorisedReduceInterchanges = R.i32();
  C.Flatten.SequentialisedSOACs = R.i32();

  C.Locality.CoalescedInputs = R.i32();
  C.Locality.TiledInputs = R.i32();

  C.MemPlan = getMemPlan(R);
  C.Shards = getShardPlan(R);

  if (R.Fail)
    return CompilerError::runtime("artifact: truncated or corrupt");
  if (R.Pos != Bytes.size())
    return CompilerError::runtime("artifact: trailing garbage");
  // The content-hash check: the decoded artifact must reproduce the hash
  // recorded at save time, or the file is not the artifact it claims.
  if (C.fingerprint() != SavedFp)
    return CompilerError::runtime(
        "artifact: fingerprint mismatch (corrupt store)");
  if (Fingerprint)
    *Fingerprint = SavedFp;
  return C;
}

std::string ArtifactStore::pathFor(uint64_t Key) const {
  char Hex[17];
  std::snprintf(Hex, sizeof Hex, "%016llx",
                static_cast<unsigned long long>(Key));
  return Dir + "/" + Hex + ".futa";
}

bool ArtifactStore::exists(uint64_t Key) const {
  std::error_code EC;
  return std::filesystem::exists(pathFor(Key), EC);
}

bool ArtifactStore::save(uint64_t Key, const CompileResult &C) const {
  return save(Key, C, C.fingerprint());
}

bool ArtifactStore::save(uint64_t Key, const CompileResult &C,
                         uint64_t Fingerprint) const {
  std::error_code EC;
  std::filesystem::create_directories(Dir, EC);
  std::string Bytes = serializeArtifact(C, Fingerprint);
  std::string Path = pathFor(Key);
  std::string Tmp = Path + ".tmp";
  {
    std::ofstream OS(Tmp, std::ios::binary | std::ios::trunc);
    if (!OS)
      return false;
    OS.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
    if (!OS)
      return false;
  }
  std::filesystem::rename(Tmp, Path, EC);
  if (EC) {
    std::filesystem::remove(Tmp, EC);
    return false;
  }
  return true;
}

ErrorOr<CompileResult> ArtifactStore::load(uint64_t Key,
                                           uint64_t *Fingerprint) const {
  std::ifstream IS(pathFor(Key), std::ios::binary);
  if (!IS)
    return CompilerError::runtime("artifact: not stored");
  std::ostringstream OS;
  OS << IS.rdbuf();
  return deserializeArtifact(OS.str(), Fingerprint);
}
