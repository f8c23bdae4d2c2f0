//===- Scope.cpp - Scope table and lazy diagnostics of the checkers -------===//
//
// Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
//
//===----------------------------------------------------------------------===//

#include "check/Scope.h"

#include <algorithm>

using namespace fut;

const Type &fut::staticScalarType(ScalarKind K) {
  static const Type Types[] = {
      Type::scalar(ScalarKind::Bool), Type::scalar(ScalarKind::I32),
      Type::scalar(ScalarKind::I64), Type::scalar(ScalarKind::F32),
      Type::scalar(ScalarKind::F64)};
  return Types[static_cast<int>(K)];
}

namespace {

/// Tags are unique after the frontend; untagged source names fall back to
/// their base name.  Fibonacci hashing spreads consecutive tags.
size_t slotHash(const VName &N) {
  size_t H = N.Tag >= 0 ? static_cast<size_t>(N.Tag)
                        : std::hash<std::string>()(N.Base);
  return H * 0x9E3779B97F4A7C15ULL;
}

} // namespace

void ScopeTable::clear() {
  Entries.clear();
  Trail.clear();
  std::fill(Slots.begin(), Slots.end(), Slot{0, 0});
}

int ScopeTable::find(const VName &N) const {
  if (Slots.empty())
    return -1;
  size_t Mask = Slots.size() - 1;
  for (size_t I = slotHash(N) & Mask;; I = (I + 1) & Mask) {
    const Slot &S = Slots[I];
    if (S.Index == 0)
      return -1;
    if (S.Tag == N.Tag && Entries[S.Index - 1].Name->Base == N.Base)
      return static_cast<int>(S.Index - 1);
  }
}

void ScopeTable::insertSlot(uint32_t Index) {
  size_t Mask = Slots.size() - 1;
  const VName &N = *Entries[Index].Name;
  size_t I = slotHash(N) & Mask;
  while (Slots[I].Index != 0)
    I = (I + 1) & Mask;
  Slots[I] = {N.Tag, Index + 1};
}

void ScopeTable::bind(const VName &N, const Type &T) {
  int I = find(N);
  if (I >= 0) {
    Entries[I].Ty = &T;
  } else {
    I = static_cast<int>(Entries.size());
    Entries.push_back({&N, &T});
    if (2 * Entries.size() > Slots.size()) {
      Slots.assign(std::max<size_t>(64, 2 * Slots.size()), Slot{0, 0});
      for (uint32_t E = 0; E < Entries.size(); ++E)
        insertSlot(E);
    } else {
      insertSlot(static_cast<uint32_t>(I));
    }
  }
  Trail.push_back(static_cast<uint32_t>(I));
}

void ScopeTable::popTo(size_t Mark) {
  while (Trail.size() > Mark) {
    Entries[Trail.back()].Ty = nullptr;
    Trail.pop_back();
  }
}

std::string DiagContext::str() const {
  std::string S = Parent ? Parent->str() : std::string();
  S += Lit;
  if (Str)
    S += *Str;
  if (Name)
    S += Name->str();
  S += Close;
  return S;
}
