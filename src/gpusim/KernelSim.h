//===- KernelSim.h - Per-launch kernel simulation ---------------*- C++ -*-===//
//
// Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The simulator's kernel side, internal to gpusim.  A PreparedKernel is a
/// kernel resolved once per artifact (see Prepared.h); a KernelSim runs one
/// launch of it: every simulated thread executes the slot-resolved thread
/// body on one reused frame, global reads go through views of the inputs
/// (GlobalView) so per-warp coalescing can be tracked, and the launch's
/// counters and warp profile accumulate into a CostReport/KernelProfile.
///
//===----------------------------------------------------------------------===//

#ifndef FUTHARKCC_GPUSIM_KERNELSIM_H
#define FUTHARKCC_GPUSIM_KERNELSIM_H

#include "gpusim/CostModel.h"
#include "gpusim/Device.h"
#include "interp/Value.h"
#include "ir/Resolve.h"

#include <deque>
#include <optional>
#include <unordered_map>

namespace fut {
namespace gpusim {

/// A reduction operator the runtime applies to plain values: the combine
/// of a segmented reduction/scan, a histogram update, a sharded
/// histogram merge, an in-thread stream_red's chunk combine.  Operators
/// run with the reference interpreter's semantics and error messages and
/// charge nothing themselves.  A scalar operator without free variables
/// (the common case) runs on a frame of scalars; anything else, or a call
/// with array arguments, runs on the interpreter.
class PreparedOp {
  const Lambda *L = nullptr;
  bool Plain = false;
  std::vector<PrimValue> Init; ///< Constants in place, the rest blank.
  RLambda R;

public:
  PreparedOp() = default;
  explicit PreparedOp(const Lambda &L);

  /// Applies the operator to \p Args; exactly the results and errors of
  /// Interpreter::evalLambda(L, Args, {}).  \p Frame is caller scratch.
  MaybeError apply(const std::vector<Value> &Args, std::vector<Value> &Out,
                   std::vector<PrimValue> &Frame) const;

private:
  MaybeError runPlain(const RBody &B, std::vector<PrimValue> &F) const;
};

/// One kernel resolved for simulation.
struct PreparedKernel {
  const KernelExp *K = nullptr;
  std::vector<SlotInfo> Slots;
  /// Slots bound before the thread body runs, in binding order.
  std::vector<int> InputSlots; ///< Parallel to K->Inputs.
  std::vector<int> IndexSlots; ///< Parallel to K->ThreadIndices.
  int SegSlot = -1;            ///< K->SegIndex (segmented kernels).
  std::vector<int> FreeSlots;  ///< Host variables, bound per launch.
  RBody Body;
  PreparedOp ReduceOp; ///< K->ReduceFn, for kernels that use it.
  /// stream_red combine operators of the thread body, by expression.
  std::unordered_map<const Exp *, PreparedOp> StreamOps;
  /// What the launch-time buffer sweep keeps: the names live after the
  /// kernel's statement plus its inputs; unset when the kernel is not a
  /// statement of the analysed program.
  std::optional<NameSet> Keep;

  /// \p KeepAfter (moved from) is the Keep set, or null.
  PreparedKernel(const KernelExp &K, NameSet *KeepAfter);
};

/// A view into a global input array: the input index plus leading indices
/// already applied, and an optional slice of the next dimension.
struct GlobalView {
  int InputIdx = -1;
  std::vector<int64_t> Prefix;
  int64_t SliceOff = 0;
  bool Sliced = false;
  int64_t SliceLen = 0;
  int64_t SliceStride = 1;
};

/// A thread-local value: either an ordinary Value (private memory /
/// registers) or a view of global memory.
struct TValue {
  bool IsView = false;
  Value V;
  GlobalView View;

  TValue() = default;
  TValue(Value V) : V(std::move(V)) {}
  static TValue view(GlobalView G) {
    TValue T;
    T.IsView = true;
    T.View = std::move(G);
    return T;
  }
};

/// Simulates one kernel launch: executes every thread, tracks per-warp
/// global-memory coalescing, and produces the kernel's result values.
class KernelSim {
  const DeviceParams &P;
  const PreparedKernel &PK;
  const KernelExp &K;
  const NameMap<Value> &HostEnv;
  CostReport &Cost;

  std::vector<Value> InputVals;
  std::vector<uint64_t> InputBase;
  std::vector<bool> InputTiled;
  std::vector<std::vector<int>> InputPerm;

  /// The thread frame: one entry per slot of PK.  An unbound entry (never
  /// bound, or erased by an in-place update) falls back to the host
  /// environment by name, exactly like a missing environment entry.
  struct Slot {
    TValue T;
    bool Bound = false;
  };
  std::vector<Slot> Frame;
  /// Host values read through unbound slots during the current thread.
  std::deque<TValue> Fallbacks;
  /// Slots erased by updates of an enclosing body's array; each is
  /// re-bound when the updating body ends.
  std::vector<int> Undo;
  /// Result buffers of multi-valued expressions, one per nesting level.
  std::deque<std::vector<TValue>> ResPool;
  size_t ResDepth = 0;
  /// Operator scratch (PreparedOp::apply).
  std::vector<PrimValue> OpFrame;
  std::vector<Value> OpArgs, OpOut;
  /// Index scratch for global reads.
  std::vector<int64_t> FullIdx;
  TValue Discard;

  /// Per-lane global access traces of the open warp; the first NumLanes
  /// are in use (their capacity is kept across warps).
  std::vector<std::vector<uint64_t>> LaneTraces;
  size_t NumLanes = 0;
  std::vector<uint64_t> Segs;
  /// The current thread's global access trace (addresses, in order).
  std::vector<uint64_t> *Trace = nullptr;

  /// Warp-level execution profile (CostModel.h), collected as warps
  /// retire; model-independent, so it is gathered unconditionally.
  KernelProfile Prof;
  /// ComputeOps snapshot at each open lane's start; lane op counts are
  /// the snapshot deltas (threads run sequentially, so the ops charged
  /// between two lane starts belong to the earlier lane).
  std::vector<int64_t> LaneOpsStart;

  int ReduceFnOps = 0;

  /// Remaining device-memory budget for this kernel's results, in bytes;
  /// negative means unlimited.  Checked as results materialise so a
  /// runaway kernel fails with DeviceOOM instead of growing host vectors
  /// unboundedly.
  int64_t OutBudgetBytes = -1;
  int64_t OutBytesSoFar = 0;

  /// Sharded launch window over the outer grid dimension; OuterCount < 0
  /// means the whole grid (the single-device default).
  int64_t OuterOffset = 0;
  int64_t OuterCount = -1;

public:
  KernelSim(const DeviceParams &P, const PreparedKernel &PK,
            const NameMap<Value> &HostEnv, CostReport &Cost,
            int64_t OutBudgetBytes = -1)
      : P(P), PK(PK), K(*PK.K), HostEnv(HostEnv), Cost(Cost),
        OutBudgetBytes(OutBudgetBytes) {}

  ErrorOr<std::vector<Value>> run();

  /// Restricts this launch to outer-grid indices [Off, Off + Count) of a
  /// sharded kernel.  Thread-index values and output-write addresses stay
  /// global (so coalescing behaves as on the real shard), but only the
  /// local rows are simulated and materialised — the caller concatenates
  /// the per-device results along the outer dimension.
  void setOuterRange(int64_t Off, int64_t Count) {
    OuterOffset = Off;
    OuterCount = Count;
  }

  /// Bytes of results this launch materialised (valid after run()).
  int64_t outBytes() const { return OutBytesSoFar; }

  /// Warp-level execution profile of this launch (valid after run()).
  const KernelProfile &profile() const { return Prof; }

private:
  // Setup.
  MaybeError resolveInputs();
  void bindFrame();
  void startThread();
  ErrorOr<int64_t> resolveInt(const SubExp &S) const;

  // Global memory.
  const Value &inputOf(const GlobalView &G) const {
    return InputVals[G.InputIdx];
  }
  std::vector<int64_t> viewShape(const GlobalView &G) const;
  ErrorOr<PrimValue> readFull(const GlobalView &G);
  void chargeGlobal(int InputIdx, const std::vector<int64_t> &Full,
                    const Value &In);
  void chargeWrite(uint64_t Addr);
  MaybeError chargeOutput(const Value &V);
  void chargePrivate(int64_t N, int64_t ArrElems);
  ErrorOr<Value> force(const TValue &T);

  // Thread evaluation.
  ErrorOr<const TValue *> valueOf(int S);
  ErrorOr<PrimValue> scalarOf(int S);
  ErrorOr<Value> rowOf(const TValue &T, int64_t I);
  ErrorOr<int64_t> outerSizeOf(const TValue &T);
  void bindValue(int S, Value V);
  MaybeError bindResults(const RStm &S, std::vector<TValue> &Vals);
  MaybeError evalStm(const RStm &S);
  MaybeError evalOne(const RStm &S, TValue &Out);
  MaybeError evalMulti(const RStm &S, std::vector<TValue> &Out);
  MaybeError evalBody(const RBody &B, std::vector<TValue> &Out);
  MaybeError applyLambda(const RLambda &L, size_t NumArgs,
                         std::vector<Value> &Out);

  // Per-kernel-kind driving.
  ErrorOr<std::vector<Value>> runThreadBody();
  ErrorOr<std::vector<Value>> runSegmented();
  ErrorOr<std::vector<Value>> runSegHist();

  /// Opens a new lane of the current warp: a fresh access trace, and a
  /// snapshot of the op counter so the lane's compute work can be
  /// attributed at warp close.
  void beginLane();
  /// Merges the per-lane traces of the open warp into transactions and
  /// closes the warp's profile entry (issue slots after divergence
  /// serialisation, coalescer-queue overflow).
  void mergeWarp();
};

} // namespace gpusim
} // namespace fut

#endif // FUTHARKCC_GPUSIM_KERNELSIM_H
