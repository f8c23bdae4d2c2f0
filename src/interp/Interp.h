//===- Interp.h - Reference interpreter -------------------------*- C++ -*-===//
//
// Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A direct implementation of the core language's denotational semantics
/// (Section 2.1).  The interpreter is the oracle against which every
/// compiler pass is property-tested: a pass is correct when the transformed
/// program computes the same values as the original.
///
/// Functions run on slot frames: each function body is resolved once
/// (ir/Resolve.h) so that every binding occurrence, constant and symbolic
/// dimension has a slot, and a call runs on one frame indexed by slot.
/// Lexical scoping, consumption on update and every error message are
/// those of an environment copied at each lambda, branch and loop
/// iteration: a body's bindings are invisible after it, and an update
/// erases the consumed array for the rest of the body that binds it (from
/// an enclosing body, until the updating body ends).
///
/// Streaming SOACs take an arbitrary partitioning of their input; the chunk
/// size is configurable so tests can verify the paper's invariant that
/// "any partitioning leads to the same result".
///
//===----------------------------------------------------------------------===//

#ifndef FUTHARKCC_INTERP_INTERP_H
#define FUTHARKCC_INTERP_INTERP_H

#include "interp/Value.h"
#include "ir/IR.h"
#include "ir/Resolve.h"
#include "support/Error.h"

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>

namespace fut {

/// A unit the interpreter runs on one frame: a function or a standalone
/// lambda, with its slot table.  Id numbers the units of one
/// ResolvedProgram densely, so per-slot state of a whole run can be kept
/// in vectors.
struct ResolvedUnit {
  int Id = 0;
  std::vector<SlotInfo> Slots;
};

struct ResolvedFun : ResolvedUnit {
  const FunDef *F = nullptr;
  std::vector<int> Params;
  std::vector<RDim> ParamDims;
  RBody Body;
};

/// An operator applied outside any function (Interpreter::applyLambda).
struct ResolvedLambda : ResolvedUnit {
  RLambda L;
  explicit ResolvedLambda(const Lambda &Fn);
};

/// The resolved functions of one program, each resolved on first use.
/// Holds pointers into the program: valid while it lives unchanged.
class ResolvedProgram {
  const Program &Prog;
  std::unordered_map<const FunDef *, std::unique_ptr<ResolvedFun>> Funs;

public:
  /// Invoked on every kernel statement as its function is resolved, with
  /// the resolver in the statement's scope.
  std::function<void(const KernelExp &, const SlotResolver &)> OnKernel;
  /// Resolve kernel thread bodies for functional interpretation; off for a
  /// resolution whose interpreters launch kernels (HandleKernel).
  bool KernelBodies = true;

  explicit ResolvedProgram(const Program &P) : Prog(P) {}
  const Program &program() const { return Prog; }

  /// The resolved form of \p F, a function of this program.
  const ResolvedFun &fun(const FunDef &F);
  /// Null when the program has no function \p Name.
  const ResolvedFun *fun(const std::string &Name);
};

/// One activation of a unit: a value per slot.  An unbound slot is a name
/// not (or no longer) in the environment: never bound yet, a free name,
/// or consumed by an in-place update.
struct Frame {
  struct Entry {
    Value V;
    bool Bound = false;
  };
  const ResolvedUnit &Unit;
  std::vector<Entry> Slots;
  /// Slots erased by updates of an enclosing body's array; each is
  /// re-bound when the updating body ends.
  std::vector<int> Undo;

  explicit Frame(const ResolvedUnit &U);
  /// The value of \p Slot, or null when it is unbound.
  const Value *get(int Slot) const {
    return Slots[Slot].Bound ? &Slots[Slot].V : nullptr;
  }
  const VName &name(int Slot) const { return *Unit.Slots[Slot].Name; }
};

struct InterpOptions {
  /// Chunk size used when splitting streaming SOAC inputs; 0 means one
  /// maximal chunk (the "recover all inner parallelism" extreme).
  int64_t StreamChunk = 0;

  /// When positive, split streams into min(width, StreamInterleave)
  /// interleaved chunks instead (chunk g holds elements g, g+P, ...),
  /// matching the device chunking of compiled stream_reds.
  int64_t StreamInterleave = 0;

  /// When true, the source array of an in-place update (and the
  /// destination of a reduce_by_index or histogram kernel) is erased from
  /// the environment (sound only on uniqueness-checked programs) so that
  /// the update really is O(element size), as Section 3 promises.
  bool ConsumeOnUpdate = false;

  /// Abort with an error after this many evaluation steps (guards tests
  /// against runaway loops).  One step is one statement evaluated, in any
  /// function, lambda or kernel body the run reaches.
  int64_t MaxSteps = INT64_MAX;

  /// Resolved functions to run on and to fill; null means the interpreter
  /// resolves for itself.  Must be a resolution of the interpreted program.
  /// The GPU simulator passes the one kept with a prepared artifact, so a
  /// cached artifact's host code is resolved once.
  ResolvedProgram *Resolved = nullptr;

  /// Observation hook, invoked once per statement evaluation, before the
  /// statement runs, with the frame it reads its operands (S.Ops) from.
  /// The GPU simulator uses it to charge host-side costs and to track
  /// host/device residency of arrays.
  std::function<void(const RStm &, const Frame &)> OnExp;

  /// Binding hook, invoked after a statement's pattern has been bound; the
  /// values just bound are in the frame at S.Pat.  The GPU simulator uses
  /// it to register kernel results as device-resident buffers under their
  /// bound names (and to release the buffer a loop-body rebinding
  /// replaces).
  std::function<void(const RStm &, const Frame &)> OnBind;

  /// When set, kernel statements are delegated here (the GPU simulator's
  /// entry point), with the frame the operands (KernelOperands) are read
  /// from; otherwise kernels are interpreted functionally.
  std::function<ErrorOr<std::vector<Value>>(const RStm &, const Frame &)>
      HandleKernel;
};

class Interpreter {
  const Program &Prog;
  InterpOptions Opts;
  int64_t Steps = 0;
  std::unique_ptr<ResolvedProgram> OwnResolved;
  ResolvedProgram *Resolved = nullptr;
  /// Result buffers of statements, one per nesting level.
  std::deque<std::vector<Value>> ResPool;
  size_t ResDepth = 0;

public:
  explicit Interpreter(const Program &Prog, InterpOptions Opts = {});
  ~Interpreter();

  /// Runs the named function on the given arguments.
  ErrorOr<std::vector<Value>> runFunction(const std::string &Name,
                                          const std::vector<Value> &Args);

  /// Runs "main".
  ErrorOr<std::vector<Value>> run(const std::vector<Value> &Args) {
    return runFunction("main", Args);
  }

  /// Applies a standalone lambda (one with no free variables) to \p Args.
  ErrorOr<std::vector<Value>> applyLambda(const ResolvedLambda &L,
                                          std::vector<Value> Args);

  /// Statements evaluated so far, over every run of this interpreter:
  /// the host operations a run is charged.
  int64_t steps() const { return Steps; }

private:
  /// Runs the named function on \p Args (taken over) into \p Out.
  MaybeError callFunction(const std::string &Name, std::vector<Value> &Args,
                          std::vector<Value> &Out);
  MaybeError evalStm(const RStm &S, Frame &F);
  MaybeError evalExp(const RStm &S, Frame &F, std::vector<Value> &Out);
  MaybeError evalBody(const RBody &B, Frame &F, std::vector<Value> &Out);
  MaybeError applyLambda(const RLambda &L, Frame &F, std::vector<Value> &Args,
                         std::vector<Value> &Out);
  MaybeError evalStream(const RStm &S, Frame &F, std::vector<Value> &Out);
  MaybeError evalKernel(const RStm &S, Frame &F, std::vector<Value> &Out);
  MaybeError step(const Exp &E);
  std::vector<Value> &results();
};

/// Concatenates rank>=1 values along the outer dimension (shapes of inner
/// dimensions must agree).
ErrorOr<Value> concatValues(const std::vector<Value> &Vs);

/// Assembles an array value from equally-shaped element values.
ErrorOr<Value> assembleArray(const std::vector<Value> &Elems);

} // namespace fut

#endif // FUTHARKCC_INTERP_INTERP_H
