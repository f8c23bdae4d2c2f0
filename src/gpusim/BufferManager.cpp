//===- BufferManager.cpp - Device allocations and liveness --------------------===//
//
// Part of futharkcc, a C++ reproduction of the PLDI'17 Futhark compiler.
//
//===----------------------------------------------------------------------===//

#include "gpusim/BufferManager.h"

#include "ir/Traversal.h"

#include <algorithm>

using namespace fut;
using namespace fut::gpusim;

//===----------------------------------------------------------------------===//
// LivenessInfo
//===----------------------------------------------------------------------===//

namespace {

bool containsKernel(const Body &B) {
  for (const Stm &S : B.Stms) {
    if (S.E->kind() == ExpKind::Kernel)
      return true;
    bool Found = false;
    forEachChildBody(*S.E, [&](const Body &Inner) {
      Found = Found || containsKernel(Inner);
    });
    if (Found)
      return true;
  }
  return false;
}

} // namespace

LivenessInfo::LivenessInfo(const Program &P) {
  for (const FunDef &F : P.Funs) {
    if (!containsKernel(F.FBody))
      continue;
    NameSet Live;
    for (const SubExp &R : F.FBody.Result)
      if (R.isVar())
        Live.insert(R.getVar());
    computeBody(F.FBody, std::move(Live));
  }
}

NameSet LivenessInfo::computeBody(const Body &B, NameSet Live) {
  for (auto It = B.Stms.rbegin(); It != B.Stms.rend(); ++It) {
    const Stm &S = *It;
    if (S.E->kind() == ExpKind::Kernel)
      LiveAfter[S.E.get()] = Live;

    // Nested bodies may re-execute (loop iterations, one lambda call per
    // element), and their results feed back through merge parameters the
    // analysis cannot name — so inside them, keep everything the body
    // reads or returns live, in addition to the statement's continuation.
    // Only bodies holding a kernel have a set to record.
    forEachChildBody(*S.E, [&](const Body &Inner) {
      if (!containsKernel(Inner))
        return;
      NameSet InnerLive = Live;
      NameSet Free = freeVarsInBody(Inner);
      InnerLive.insert(Free.begin(), Free.end());
      for (const SubExp &R : Inner.Result)
        if (R.isVar())
          InnerLive.insert(R.getVar());
      computeBody(Inner, std::move(InnerLive));
    });

    for (const Param &Prm : S.Pat)
      Live.erase(Prm.Name);
    NameSet Free = freeVarsInExp(*S.E);
    Live.insert(Free.begin(), Free.end());
  }
  return Live;
}

//===----------------------------------------------------------------------===//
// DeviceBufferManager
//===----------------------------------------------------------------------===//

/// Composite occupancy key: slab \p Slab, double-buffer half \p Half.
/// Plan slab ids are non-negative, so keys never collide with the
/// negative implicit-slot ids.
static int slotKey(int Slab, int Half) { return Slab * 2 + Half; }

int DeviceBufferManager::planSlot(const VName &N, bool &Hoisted) {
  Hoisted = false;
  const mem::PlanEntry *E = Plan ? Plan->lookup(N) : nullptr;
  if (!E) {
    auto It = ImplicitSlot.find(N);
    if (It != ImplicitSlot.end())
      return It->second;
    int S = NextImplicitSlot--;
    ImplicitSlot[N] = S;
    return S;
  }
  Hoisted = E->Hoisted;
  if (!E->Hoisted)
    return slotKey(E->Slab, 0);

  // A hoisted slab holds two concurrently charged tenants, one per half.
  // The static plan fixes the merge parameter in half 1, but at runtime
  // the carried value is simply the previous generation of a half-0 name,
  // so the half a bind lands in is resolved dynamically:
  int K0 = slotKey(E->Slab, 0), K1 = slotKey(E->Slab, 1);
  auto Occupant = [&](int K) {
    auto It = Slots.find(K);
    return It == Slots.end() ? -1 : It->second.OccId;
  };
  // A consumer takes over the half holding the block it updates in place.
  if (E->HasAlias) {
    auto SIt = NameToAlloc.find(E->AliasOf);
    if (SIt != NameToAlloc.end()) {
      if (Occupant(K0) == SIt->second)
        return K0;
      if (Occupant(K1) == SIt->second)
        return K1;
    }
  }
  // Rebinding a name that still holds a half releases in place — the
  // same release-then-alloc a rebind performs in runtime mode.
  auto NIt = NameToAlloc.find(N);
  if (NIt != NameToAlloc.end()) {
    if (Occupant(K0) == NIt->second)
      return K0;
    if (Occupant(K1) == NIt->second)
      return K1;
  }
  // A fresh generation is written opposite the occupied half, keeping the
  // carried value charged while the kernel reads it — the double-buffer
  // flip the slab was sized 2x for.
  bool Occ0 = Occupant(K0) >= 0, Occ1 = Occupant(K1) >= 0;
  if (Occ0 != Occ1)
    return Occ0 ? K1 : K0;
  return slotKey(E->Slab, E->BufferIndex ? 1 : 0);
}

void DeviceBufferManager::vacate(int Slot) {
  auto It = Slots.find(Slot);
  if (It == Slots.end() || It->second.OccId < 0)
    return;
  int64_t B = Allocs[It->second.OccId].Bytes;
  LiveBytesNow = std::max<int64_t>(0, LiveBytesNow - B);
  if (Slot < 0)
    ImplicitLiveBytes = std::max<int64_t>(0, ImplicitLiveBytes - B);
  FreedBytesTotal += B;
  It->second.OccId = -1;
}

void DeviceBufferManager::freeRange(int64_t Offset, int64_t Bytes) {
  if (Bytes <= 0)
    return;
  auto Next = FreeRanges.lower_bound(Offset);
  if (Next != FreeRanges.begin()) {
    auto Prev = std::prev(Next);
    if (Prev->first + Prev->second == Offset) {
      // Coalesce with the range ending where this one starts — and, when
      // the release plugs a hole exactly, with the following range too.
      Prev->second += Bytes;
      if (Next != FreeRanges.end() &&
          Prev->first + Prev->second == Next->first) {
        Prev->second += Next->second;
        FreeRanges.erase(Next);
      }
      return;
    }
  }
  if (Next != FreeRanges.end() && Offset + Bytes == Next->first) {
    int64_t Merged = Bytes + Next->second;
    FreeRanges.erase(Next);
    FreeRanges[Offset] = Merged;
    return;
  }
  FreeRanges[Offset] = Bytes;
}

void DeviceBufferManager::dropRef(int Id) {
  Alloc &A = Allocs[Id];
  if (--A.Refs > 0)
    return;
  if (A.DeviceValid) {
    if (planMode()) {
      auto It = Slots.find(A.Slot);
      if (It != Slots.end() && It->second.OccId == Id)
        vacate(A.Slot);
    } else {
      LiveBytesNow = std::max<int64_t>(0, LiveBytesNow - A.Bytes);
      FreedBytesTotal += A.Bytes;
      freeRange(A.Offset, A.Bytes);
    }
  }
  A.DeviceValid = false;
}

bool DeviceBufferManager::bind(const VName &N, int64_t Bytes,
                               double ReadyAt) {
  if (planMode()) {
    bool Hoisted = false;
    int Slot = planSlot(N, Hoisted);
    SlotState &SS = Slots[Slot];

    // Capacity pre-check, simulating (without committing) the release of
    // N's previous binding and the eviction of this half's stale
    // occupant: the plan's whole point is that reused storage is not
    // double-charged — while a hoisted slab's other half stays charged.
    auto Old = NameToAlloc.find(N);
    int OldId = Old != NameToAlloc.end() ? Old->second : -1;
    int64_t Projected = LiveBytesNow + Bytes;
    bool OldVacates = false;
    if (OldId >= 0) {
      const Alloc &OA = Allocs[OldId];
      auto OIt = Slots.find(OA.Slot);
      OldVacates = OA.Refs == 1 && OA.DeviceValid &&
                   OIt != Slots.end() && OIt->second.OccId == OldId;
      if (OldVacates)
        Projected -= OA.Bytes;
    }
    if (SS.OccId >= 0 && !(OldVacates && Allocs[OldId].Slot == Slot))
      Projected -= Allocs[SS.OccId].Bytes;
    if (Capacity > 0 && Projected > Capacity)
      return false;

    if (OldId >= 0) {
      NameToAlloc.erase(Old);
      dropRef(OldId);
    }
    if (SS.OccId >= 0)
      vacate(Slot);
    if (SS.EverUsed) {
      if (Hoisted)
        ++HoistedAllocCount;
      else if (!(SS.LastName == N))
        ++ReusedBlockCount;
    }

    Alloc A;
    A.Bytes = Bytes;
    A.Refs = 1;
    A.DeviceValid = true;
    A.ReadyAt = ReadyAt;
    A.Slot = Slot;
    Allocs.push_back(A);
    int Id = static_cast<int>(Allocs.size()) - 1;
    NameToAlloc[N] = Id;
    SS.OccId = Id;
    SS.EverUsed = true;
    SS.Hoisted = Hoisted;
    SS.LastName = N;
    SS.MaxBytes = std::max(SS.MaxBytes, Bytes);
    LiveBytesNow += Bytes;
    if (Slot < 0) {
      ImplicitLiveBytes += Bytes;
      ImplicitPeakBytes = std::max(ImplicitPeakBytes, ImplicitLiveBytes);
    }
    PeakBytesSeen = std::max(PeakBytesSeen, LiveBytesNow);
    return true;
  }

  if (Capacity > 0 && LiveBytesNow + Bytes > Capacity)
    return false;
  auto Old = NameToAlloc.find(N);
  if (Old != NameToAlloc.end()) {
    int OldId = Old->second;
    NameToAlloc.erase(Old);
    dropRef(OldId);
  }
  // Serve the allocation from the best-fitting coalesced free range;
  // otherwise bump the arena top.  The simulator's byte accounting is
  // identical either way — the ranges exist so reuse statistics reflect
  // a real allocator's behaviour under fragmentation.
  auto Best = FreeRanges.end();
  for (auto It = FreeRanges.begin(); It != FreeRanges.end(); ++It)
    if (It->second >= Bytes &&
        (Best == FreeRanges.end() || It->second < Best->second))
      Best = It;
  int64_t Off;
  if (Best != FreeRanges.end()) {
    ++FreeListHitCount;
    FreeListReusedBytesTotal += Bytes;
    Off = Best->first;
    int64_t Sz = Best->second;
    FreeRanges.erase(Best);
    if (Sz > Bytes)
      FreeRanges[Off + Bytes] = Sz - Bytes;
  } else {
    Off = ArenaTop;
    ArenaTop += Bytes;
  }
  Alloc A;
  A.Bytes = Bytes;
  A.Refs = 1;
  A.DeviceValid = true;
  A.ReadyAt = ReadyAt;
  A.Offset = Off;
  Allocs.push_back(A);
  NameToAlloc[N] = static_cast<int>(Allocs.size()) - 1;
  LiveBytesNow += Bytes;
  PeakBytesSeen = std::max(PeakBytesSeen, LiveBytesNow);
  return true;
}

int64_t DeviceBufferManager::plannedPeakBytes() const {
  if (!Plan)
    return 0;
  // Every slab half the run materialised is charged at its planned
  // extent: the slab's static per-half size when the plan knows it, the
  // widest observed tenant when the size is symbolic.  Allocations the
  // plan does not cover contribute their own high-water mark.
  int64_t Total = ImplicitPeakBytes;
  for (const mem::SlabInfo &SI : Plan->Slabs) {
    int Halves = SI.Hoisted ? 2 : 1;
    int64_t PerHalf = SI.Bytes < 0 ? -1 : SI.Bytes / Halves;
    for (int H = 0; H < Halves; ++H) {
      auto It = Slots.find(slotKey(SI.Id, H));
      if (It == Slots.end() || !It->second.EverUsed)
        continue;
      // max() keeps the bound sound even if a tenant outgrew the planned
      // extent (a symbolic member the planner sized statically).
      Total += std::max(PerHalf, It->second.MaxBytes);
    }
  }
  return Total;
}

void DeviceBufferManager::alias(const VName &Dst, const VName &Src) {
  auto It = NameToAlloc.find(Src);
  if (It == NameToAlloc.end())
    return;
  int Id = It->second;
  auto Old = NameToAlloc.find(Dst);
  if (Old != NameToAlloc.end()) {
    if (Old->second == Id)
      return;
    int OldId = Old->second;
    NameToAlloc.erase(Old);
    dropRef(OldId);
  }
  ++Allocs[Id].Refs;
  NameToAlloc[Dst] = Id;
}

bool DeviceBufferManager::deviceValid(const VName &N) const {
  auto It = NameToAlloc.find(N);
  return It != NameToAlloc.end() && Allocs[It->second].DeviceValid;
}

double DeviceBufferManager::readyAt(const VName &N) const {
  auto It = NameToAlloc.find(N);
  return It == NameToAlloc.end() ? 0 : Allocs[It->second].ReadyAt;
}

void DeviceBufferManager::setReady(const VName &N, double T) {
  auto It = NameToAlloc.find(N);
  if (It != NameToAlloc.end())
    Allocs[It->second].ReadyAt = T;
}

void DeviceBufferManager::invalidateDevice(const VName &N) {
  auto It = NameToAlloc.find(N);
  if (It == NameToAlloc.end())
    return;
  Alloc &A = Allocs[It->second];
  if (!A.DeviceValid)
    return;
  if (planMode()) {
    auto SIt = Slots.find(A.Slot);
    if (SIt != Slots.end() && SIt->second.OccId == It->second)
      vacate(A.Slot);
  } else {
    LiveBytesNow = std::max<int64_t>(0, LiveBytesNow - A.Bytes);
    FreedBytesTotal += A.Bytes;
    freeRange(A.Offset, A.Bytes);
  }
  A.DeviceValid = false;
}

void DeviceBufferManager::release(const VName &N) {
  auto It = NameToAlloc.find(N);
  if (It == NameToAlloc.end())
    return;
  int Id = It->second;
  NameToAlloc.erase(It);
  dropRef(Id);
}

void DeviceBufferManager::freeDead(const NameSet &Keep) {
  std::vector<VName> Dead;
  for (const auto &[Name, Id] : NameToAlloc)
    if (!Keep.count(Name))
      Dead.push_back(Name);
  for (const VName &N : Dead)
    release(N);
}
