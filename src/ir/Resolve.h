//===- Resolve.h - Slot-resolved bodies -------------------------*- C++ -*-===//
//
// Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Name resolution done once per body instead of once per lookup.  A
/// SlotResolver walks a unit of code (a kernel's thread body with its
/// nested lambdas, loop bodies and branches, or a standalone operator) and
/// gives every binding occurrence its own dense slot index, every constant
/// operand a slot holding its value, and every name the unit does not bind
/// (a host variable, seen from a kernel) one "free" slot.  The result is an
/// RBody tree mirroring the IR, with operands as slot indices, so an
/// evaluator can run on a flat frame (a vector indexed by slot) instead of
/// copying and hashing name maps.
///
/// Scoping is lexical and mirrors environment-copying evaluation exactly:
/// a body sees the bindings of its enclosing bodies and its own earlier
/// statements; a lambda's or loop's parameters belong to its body.  Since
/// every binding occurrence has its own slot, a body's bindings are never
/// visible after it, and a rebinding of a name never clobbers the binding
/// it shadows.  In-place updates record which body owns the array they
/// consume (ConsumeKind), so an evaluator can erase it exactly as long as
/// an environment copy would have.
///
/// The resolved tree and its slot table point into the IR they were built
/// from (RStm::E, RLambda::L, SlotInfo::Name); they are valid only while
/// that program lives.  The
/// tree is independent of the value representation: the kernel simulator
/// runs it with thread values; the reference interpreter can run it with
/// plain values.
///
//===----------------------------------------------------------------------===//

#ifndef FUTHARKCC_IR_RESOLVE_H
#define FUTHARKCC_IR_RESOLVE_H

#include "ir/IR.h"

#include <cstdint>
#include <vector>

namespace fut {

enum class SlotKind : uint8_t {
  Const, ///< A constant operand; the slot holds SlotInfo::Const.
  Free,  ///< A name the unit uses but does not bind.
  Bound, ///< Bound inside the unit (pattern, parameter, or prebound).
};

struct SlotInfo {
  SlotKind Kind = SlotKind::Bound;
  const VName *Name = nullptr; ///< Free and Bound slots (points into the IR).
  PrimValue Const;             ///< Const slots.
};

/// What an in-place update does to the array it consumes.
enum class ConsumeKind : uint8_t {
  None,  ///< Not an update.
  Free,  ///< The array is free in the unit; nothing in the unit to erase.
  Local, ///< Bound by the updating body itself: erased for the rest of it.
  Outer, ///< Bound by an enclosing body: erased, then restored when the
         ///< updating body ends (its enclosing body still sees the array).
};

struct RStm;

/// A resolved body: statements, result slots and scope facts.
struct RBody {
  std::vector<RStm> Stms;
  std::vector<int> Result;
  /// Per result: the slot is bound by this body and this is its last
  /// occurrence in Result, so the value may be moved out instead of copied.
  std::vector<uint8_t> MoveResult;
};

/// A resolved lambda: parameter slots plus the body they are bound in.
struct RLambda {
  const Lambda *L = nullptr;
  std::vector<int> Params;
  RBody Body;
};

/// A resolved statement.  Ops holds the expression's operands as slots,
/// in a fixed order per kind:
///
///   SubExpE [Val]            BinOpE [A, B]          UnOpE/ConvOpE [A]
///   If      [Cond]; Bodies {Then, Else}
///   Index   [Arr, Indices...]                       Apply [Args...]
///   Loop    [Bound, MergeInit...]; Bodies {LoopBody};
///           Binds [IndexVar, MergeParams...]
///   Update  [Arr, Indices..., Value]; Consume
///   Iota [N]   Replicate [N, Val]   Rearrange [Arr]   Copy [Arr]
///   Reshape [Arr, NewShape...]      Concat [Arrays...]
///   Slice   [Arr, Offset, Len, Stride]
///   Map     [Width, Arrays...]; Lams {Fn}
///   Reduce/Scan [Width, Neutral..., Arrays...]; Lams {Fn}
///   Stream  [Width, AccInit..., Arrays...]; Lams {FoldFn, ReduceFn}
///   ReduceByIndex [Width, Dest, Neutral, IndexArr, ValueArrs...];
///           Lams {CombineFn, ValueFn}
///
/// Kernel expressions are launched, not evaluated in a unit: their operands
/// are left unresolved.
struct RStm {
  const Exp *E = nullptr;
  std::vector<int> Pat;
  std::vector<int> Ops;
  std::vector<RBody> Bodies;
  std::vector<RLambda> Lams;
  std::vector<int> Binds;
  ConsumeKind Consume = ConsumeKind::None;
};

/// Resolves one unit.  Typical use: openScope(), bind() the names the
/// caller binds before the unit runs, resolve the body's statements with
/// stms(), closeScope(); then take the slot table.
class SlotResolver {
  std::vector<SlotInfo> Slots;
  std::vector<int> SlotDepth;
  NameMap<int> Visible;
  /// Undo log of Visible, one entry per binding: the name and the slot it
  /// shadowed (-1: none).  ScopeMarks index it per open scope.
  std::vector<std::pair<VName, int>> Shadowed;
  std::vector<size_t> ScopeMarks;
  NameMap<int> FreeSlots;

public:
  void openScope();
  void closeScope();

  /// Binds \p N in the innermost scope to a fresh slot.
  int bind(const VName &N);
  /// The slot \p N refers to here (a free slot when it is not bound).
  int use(const VName &N);
  int use(const SubExp &S);
  int constant(const PrimValue &V);

  /// Resolves \p B's statements and result in the innermost scope.
  void stms(const Body &B, RBody &Out);
  /// Resolves \p B in a scope of its own (an if branch).
  RBody body(const Body &B);
  /// Resolves \p L: its parameters and body share one fresh scope.
  RLambda lambda(const Lambda &L);

  std::vector<SlotInfo> takeSlots() { return std::move(Slots); }

private:
  int newSlot(SlotKind K, const VName *N);
  RStm stm(const Stm &S);
  void finishResult(RBody &Out);
};

} // namespace fut

#endif // FUTHARKCC_IR_RESOLVE_H
