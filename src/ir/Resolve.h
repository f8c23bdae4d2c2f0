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
/// With BindDims set (the reference interpreter's resolution), every
/// binding also resolves the symbolic dimensions of its declared type: a
/// dimension naming a visible binding is checked against it, any other
/// binds a fresh slot at its first appearance (RDim).  A kernel statement
/// inside a unit resolves its thread body in a scope of its own, as an
/// environment copy per thread would see it.
///
/// The resolved tree and its slot table point into the IR they were built
/// from (RStm::E, RStm::St, RLambda::L, SlotInfo::Name); they are valid
/// only while that program lives.  The tree is independent of the value
/// representation: the kernel simulator runs it with thread values, the
/// reference interpreter with plain values.
///
//===----------------------------------------------------------------------===//

#ifndef FUTHARKCC_IR_RESOLVE_H
#define FUTHARKCC_IR_RESOLVE_H

#include "ir/IR.h"

#include <cstdint>
#include <functional>
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

/// A symbolic dimension of a binding's declared type, in the order of the
/// bindings and of each type's dimensions.  Fresh: the name was not
/// visible, so the dimension binds Slot to the actual extent; otherwise the
/// extent is checked against Slot's value.
struct RDim {
  int Slot = -1;
  bool Fresh = false;
};

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
  std::vector<RDim> ParamDims; ///< BindDims only.
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
///           Lams {CombineFn, ValueFn}; Consume (of Dest)
///   Kernel  [GridDims..., SegSize, HistWidth, HistDest, Neutral...,
///           Inputs...] (see KernelOperands); Bodies {ThreadBody};
///           Binds [ThreadIndices..., SegIndex]; Lams {ReduceFn};
///           Consume (of HistDest)
///
/// Consume is set on Update, ReduceByIndex and SegHist kernels: what
/// erasing the consumed array does (see ConsumeKind).
struct RStm {
  const Exp *E = nullptr;
  const Stm *St = nullptr; ///< The statement (its pattern's declared types).
  std::vector<int> Pat;
  std::vector<int> Ops;
  std::vector<RBody> Bodies;
  std::vector<RLambda> Lams;
  std::vector<int> Binds;
  std::vector<RDim> PatDims;  ///< BindDims only: of Pat.
  std::vector<RDim> BindDims; ///< BindDims only: of a loop's merge params.
  ConsumeKind Consume = ConsumeKind::None;
};

/// Where a kernel statement's operands sit in RStm::Ops; -1 when the
/// kernel kind has no such operand.
struct KernelOperands {
  int SegSize = -1, HistWidth = -1, HistDest = -1;
  int Neutral = 0; ///< First of K.Neutral.size().
  int Inputs = 0;  ///< First of K.Inputs.size().

  explicit KernelOperands(const KernelExp &K) {
    int I = static_cast<int>(K.GridDims.size());
    if (K.isSegmented())
      SegSize = I++;
    if (K.Op == KernelExp::OpKind::SegHist) {
      HistWidth = I++;
      HistDest = I++;
    }
    Neutral = I;
    Inputs = I + static_cast<int>(K.Neutral.size());
  }
};

/// Resolves one unit.  Typical use: openScope(), bind() the names the
/// caller binds before the unit runs, resolve the body's statements with
/// stms(), closeScope(); then take the slot table.
class SlotResolver {
  std::vector<SlotInfo> Slots;
  std::vector<int> SlotDepth;
  /// One entry per distinct name the unit mentions: the slot it is bound
  /// to here and its free slot (-1: none).  Name points into the IR.
  struct NameEntry {
    const VName *Name;
    int Visible = -1;
    int Free = -1;
  };
  std::vector<NameEntry> Names;
  /// Open-addressing index into Names, a power of two at most half full;
  /// each cell keeps its name's tag so a probe past another name needs no
  /// dereference.
  struct Cell {
    int Tag = 0;
    uint32_t Entry = 0; ///< Names index + 1; 0 is empty.
  };
  std::vector<Cell> Index;
  /// Undo log of Visible, one entry per binding: the name's entry and the
  /// slot it shadowed (-1: none).  ScopeMarks index it per open scope.
  std::vector<std::pair<int, int>> Shadowed;
  std::vector<size_t> ScopeMarks;

public:
  /// Resolve the symbolic dimensions of binding types (see RDim).
  bool BindDims = false;
  /// Resolve kernel statements' thread bodies and operators in the unit,
  /// for an evaluator that runs kernels itself; off, a kernel statement
  /// gets only its operands (it is launched, not evaluated).
  bool KernelBodies = true;
  /// Invoked on each kernel statement before its thread body is resolved,
  /// while the names the launch reads are visible (see visible()).
  std::function<void(const KernelExp &)> OnKernel;

  void openScope();
  void closeScope();

  /// Binds \p N in the innermost scope to a fresh slot.
  int bind(const VName &N);
  /// The slot \p N refers to here (a free slot when it is not bound).
  int use(const VName &N);
  int use(const SubExp &S);
  int constant(const PrimValue &V);
  /// The slot \p N is bound to here, or -1 (no free slot is made).
  int visible(const VName &N) const;

  /// Binds each of \p Ps in the innermost scope, appending their slots to
  /// \p Slots and, with BindDims, their symbolic dimensions to \p Dims.
  void params(const std::vector<Param> &Ps, std::vector<int> &Slots,
              std::vector<RDim> &Dims);

  /// Resolves \p B's statements and result in the innermost scope.
  void stms(const Body &B, RBody &Out);
  /// Resolves \p B in a scope of its own (an if branch).
  RBody body(const Body &B);
  /// Resolves \p L: its parameters and body share one fresh scope.
  RLambda lambda(const Lambda &L);

  std::vector<SlotInfo> takeSlots() { return std::move(Slots); }

private:
  int newSlot(SlotKind K, const VName *N);
  /// \p N's entry in Names, or -1.
  int entryOf(const VName &N) const;
  int addEntry(const VName &N);
  void insertCell(uint32_t Entry);
  ConsumeKind consumeOf(int Slot) const;
  RStm stm(const Stm &S);
  void finishResult(RBody &Out);
};

} // namespace fut

#endif // FUTHARKCC_IR_RESOLVE_H
