//===- Scope.h - Scope table and lazy diagnostics ---------------*- C++ -*-===//
//
// Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// State shared by the two pass-boundary checkers, the structural checker
/// (Check.h) and the verifier (Verify.h).  Both run at every pass boundary,
/// so checking a well-formed program must not copy scopes or build
/// diagnostic text that is never read:
///
///   * ScopeTable maps every name bound so far in the function being
///     checked to its type, held as a pointer into the IR (or to a static
///     type for the synthesised i32 index and size parameters).  A null
///     type marks a name whose scope has closed, so the same table answers
///     "is it in scope" and "was it ever bound".  Leaving a construct pops
///     an undo trail back to the mark taken on entry.
///   * DiagContext says where a diagnostic points.  It is a chain of
///     pieces owned by the caller's frames or by the IR, and is rendered to
///     text only when an error is returned.
///
//===----------------------------------------------------------------------===//

#ifndef FUTHARKCC_CHECK_SCOPE_H
#define FUTHARKCC_CHECK_SCOPE_H

#include "ir/Type.h"

#include <cstdint>
#include <string>
#include <vector>

namespace fut {

/// A scalar type of kind \p K with static storage, for types the checkers
/// derive rather than read from the IR.
const Type &staticScalarType(ScalarKind K);

class ScopeTable {
public:
  /// The type of loop indices, thread and segment indices and existential
  /// sizes, none of which carry a type in the IR.
  static const Type &i32() { return staticScalarType(ScalarKind::I32); }

  /// Forgets every name (the start of a function).
  void clear();

  /// The type of \p N, or null when \p N is not in scope.
  const Type *lookup(const VName &N) const {
    int I = find(N);
    return I < 0 ? nullptr : Entries[I].Ty;
  }

  /// True if \p N was bound earlier in the function, in scope or not.
  bool everBound(const VName &N) const { return find(N) >= 0; }

  /// Brings \p N into scope with type \p T.  The table keeps pointers to
  /// both, so they must outlive the check (they live in the IR).
  void bind(const VName &N, const Type &T);

  /// The current position of the undo trail; popTo(mark()) later takes
  /// every name bound in between out of scope again.
  size_t mark() const { return Trail.size(); }
  void popTo(size_t Mark);

private:
  struct Entry {
    const VName *Name;
    const Type *Ty;
  };
  /// One entry per name ever bound, in order of first binding.
  std::vector<Entry> Entries;
  /// Open-addressing index into Entries, a power of two at most half
  /// full.  A slot keeps its name's tag, so a probe past another name
  /// needs no dereference.
  struct Slot {
    int Tag;
    uint32_t Index; ///< Entry index + 1; 0 is empty.
  };
  std::vector<Slot> Slots;
  /// Entries brought into scope, innermost last.
  std::vector<uint32_t> Trail;

  int find(const VName &N) const;
  void insertSlot(uint32_t Index);
};

/// Where a diagnostic points: a literal, then a string or a name, then a
/// closing literal, appended to an optional parent context.  Every piece is
/// borrowed, so a context must not outlive the frame or IR it points into;
/// str() renders it when an error is returned.
class DiagContext {
  const DiagContext *Parent = nullptr;
  const char *Lit = "";
  const std::string *Str = nullptr;
  const VName *Name = nullptr;
  const char *Close = "";

public:
  explicit DiagContext(const char *Lit) : Lit(Lit) {}
  DiagContext(const char *Lit, const std::string &S) : Lit(Lit), Str(&S) {}
  DiagContext(const char *Lit, std::string &&) = delete;
  DiagContext(const char *Lit, const VName &N, const char *Close = "")
      : Lit(Lit), Name(&N), Close(Close) {}
  DiagContext(const char *Lit, VName &&, const char * = "") = delete;
  /// \p Parent followed by \p Suffix.
  DiagContext(const DiagContext &Parent, const char *Suffix)
      : Parent(&Parent), Lit(Suffix) {}

  std::string str() const;
};

} // namespace fut

#endif // FUTHARKCC_CHECK_SCOPE_H
