//===- Prepared.h - Per-artifact simulator preparation ----------*- C++ -*-===//
//
// Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Everything the simulator derives from a program, computed once per
/// artifact instead of once per run:
///
///  * each function resolved for the interpreter that runs its host code
///    (interp/Interp.h), so a run's host statements evaluate on a slot
///    frame and its hooks read operands by slot;
///  * each kernel resolved to dense frame slots (ir/Resolve.h): its thread
///    body with every nested lambda, loop body and branch, plus its
///    reduction operators, so simulated threads run on one reused frame;
///    and, per kernel slot, the launching function's slot of the same name
///    (PreparedKernel::HostSlot), so a launch reads host values by slot;
///  * the launch-time buffer sweep's liveness facts: per kernel, the names
///    live after it (the full analysis runs once and is then dropped);
///  * the kernel -> shard lookup of each planned function.
///
/// A PreparedProgram keys on node addresses (KernelExp*, Exp*) and holds
/// pointers into the program, so it is valid only while that program
/// lives and is unchanged.  Functions and their kernels are prepared when
/// a run first reaches the function.  The serving layer keeps one next to
/// each cached artifact, builds it on the artifact's first run and drops
/// it with the artifact, so a cache hit resolves nothing; a Device without
/// one prepares the program for the run at hand.  Preparation is not part
/// of compilation and is never persisted: the artifact format and
/// fingerprint do not see it.
///
//===----------------------------------------------------------------------===//

#ifndef FUTHARKCC_GPUSIM_PREPARED_H
#define FUTHARKCC_GPUSIM_PREPARED_H

#include "interp/Interp.h"
#include "ir/IR.h"
#include "shard/ShardPlan.h"

#include <memory>
#include <optional>
#include <unordered_map>

namespace fut {
namespace gpusim {

struct PreparedKernel;

class PreparedProgram {
public:
  using ShardMap =
      std::unordered_map<const KernelExp *, const shard::KernelShard *>;

  explicit PreparedProgram(const Program &P);
  ~PreparedProgram();
  PreparedProgram(const PreparedProgram &) = delete;
  PreparedProgram &operator=(const PreparedProgram &) = delete;

  const Program &program() const { return Prog; }

  /// The program's functions, resolved for the host interpreter; resolving
  /// a function prepares its kernels.
  ResolvedProgram &host() { return Host; }

  /// The resolved form of \p K, a kernel of a function host() resolved.
  const PreparedKernel &kernel(const KernelExp &K) const;

  /// Kernel -> planned shard of \p F under \p SP (the simulator evaluates
  /// the very nodes the plan was derived from, so pointer identity maps
  /// each launch to its shard).
  const ShardMap &shards(const FunDef &F, const shard::FunShardPlan &SP);

private:
  const Program &Prog;
  ResolvedProgram Host;
  /// Per kernel: the names live after its statement plus its inputs.
  /// Filled from one liveness analysis on the first kernel preparation.
  std::optional<std::unordered_map<const KernelExp *, NameSet>> KeepOf;
  std::unordered_map<const KernelExp *, std::unique_ptr<PreparedKernel>>
      Kernels;
  struct ShardEntry {
    const shard::FunShardPlan *Plan = nullptr;
    ShardMap Of;
  };
  std::unordered_map<const FunDef *, ShardEntry> Shards;

  /// Prepares \p K as its function is resolved; \p R is in the kernel
  /// statement's scope.
  void prepareKernel(const KernelExp &K, const SlotResolver &R);
};

} // namespace gpusim
} // namespace fut

#endif // FUTHARKCC_GPUSIM_PREPARED_H
