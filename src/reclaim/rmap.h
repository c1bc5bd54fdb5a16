// The reverse map IS the page tables (docs/reclaim.md "The reclaim sweep").
//
// Reclaim, memory failure and the verifier need every leaf slot that maps a frame. Rather
// than keep a second, per-PTE copy of the page tables current on every install and clear,
// they read the page tables themselves: one sweep over every live address space visits
// each distinct PTE table and each huge PMD leaf once. That is the granularity of the
// paper's §3.6 accounting, where a shared PTE table holds ONE reference per page on behalf
// of all its sharers — so a slot in a table shared by N on-demand-forked processes is
// found once, and an anonymous order-0 frame is evictable exactly when its refcount equals
// the number of slots found.
//
// The sweep goes 2 MiB chunk by chunk (one PTE table's span) in address order, and at
// each chunk visits every space's table for it. Fork mirrors the parent's layout, so all
// sharers of a frame show up in the same step — the step the CLOCK shrinker (shrink.h)
// evicts from. A frame whose mappings sit at different addresses (after mremap in one
// sharer) is found in pieces, fails the refcount test at every step, and stays resident.
//
// The sweep reads page tables non-atomically as a whole: callers hold the MmGate
// exclusively, so no mutator is mid-operation.
#ifndef ODF_SRC_RECLAIM_RMAP_H_
#define ODF_SRC_RECLAIM_RMAP_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "src/mm/address_space.h"
#include "src/phys/frame_allocator.h"
#include "src/pt/mm_gate.h"
#include "src/pt/pte.h"
#include "src/util/thread_annotations.h"

namespace odf {
namespace reclaim {

// One present leaf entry: a PTE, or a huge PMD entry.
struct Mapping {
  FrameId frame = kInvalidFrame;  // Exactly as stored (a split-huge tail is head+i).
  uint64_t* slot = nullptr;
  bool huge = false;
};

// The address spaces a sweep covers. Shared pointers keep each space alive for the sweep
// even if its process is reaped meanwhile.
using SpaceList = std::vector<std::shared_ptr<AddressSpace>>;

// A snapshot of the PMD level of `spaces`: the chunks where at least one space has a PTE
// table or a huge leaf, in address order. Holders of the exclusive MmGate rewrite leaf
// entries (eviction, offline) but never link or free tables, so the snapshot stays valid
// for the rest of the hold.
class ChunkSweep {
 public:
  ChunkSweep(FrameAllocator& allocator, const SpaceList& spaces)
      ODF_REQUIRES(MmGate::Global());

  // Number of chunk steps in one revolution.
  size_t size() const { return starts_.size() - 1; }
  Vaddr chunk(size_t step) const { return refs_[starts_[step]].chunk; }
  // The first step at or after `va`, wrapping to step 0 past the last chunk.
  size_t StepAtOrAfter(Vaddr va) const;

  // Calls fn(const Mapping&) for every present leaf of every space at `step`, each
  // distinct slot once.
  template <typename Fn>
  void ForEachLeaf(size_t step, Fn&& fn) const {
    // A PTE table shared by on-demand-fork hangs under every sharer's PMD entry: scan once.
    std::vector<FrameId> tables;
    for (size_t i = starts_[step]; i < starts_[step + 1]; ++i) {
      Pte pmd = LoadEntry(refs_[i].pmd_slot);
      if (!pmd.IsPresent()) {
        continue;
      }
      if (pmd.IsHuge()) {
        fn(Mapping{pmd.frame(), refs_[i].pmd_slot, /*huge=*/true});
        continue;
      }
      if (std::find(tables.begin(), tables.end(), pmd.frame()) != tables.end()) {
        continue;
      }
      tables.push_back(pmd.frame());
      uint64_t* entries = allocator_.TableEntries(pmd.frame());
      for (uint64_t k = 0; k < kEntriesPerTable; ++k) {
        Pte entry = LoadEntry(&entries[k]);
        if (entry.IsPresent()) {
          fn(Mapping{entry.frame(), &entries[k], /*huge=*/false});
        }
      }
    }
  }

  // The leaves of `step` (ForEachLeaf), sorted by frame so that one frame's mappings are
  // adjacent.
  void Gather(size_t step, std::vector<Mapping>* out) const;

 private:
  struct PmdRef {
    Vaddr chunk;
    uint64_t* pmd_slot;
  };

  FrameAllocator& allocator_;
  std::vector<PmdRef> refs_;    // Sorted by chunk.
  std::vector<size_t> starts_;  // Index into refs_ where each step begins, then refs_.size().
};

// Mapping statistics of one full sweep (the reclaim gauges in procfs).
struct RmapCensus {
  uint64_t locations = 0;      // Present leaf slots.
  uint64_t frames = 0;         // Distinct frames they map.
  uint64_t active_anon = 0;    // Order-0 anonymous frames in the CLOCK's active state.
  uint64_t inactive_anon = 0;  // ... and the rest of them, the eviction candidates.
};

// The kernel's handle on the sweep: which address spaces are live, the CLOCK hand, and
// whole-system queries.
class Rmap {
 public:
  Rmap(FrameAllocator* allocator, std::function<SpaceList()> spaces);

  Rmap(const Rmap&) = delete;
  Rmap& operator=(const Rmap&) = delete;

  // Every live address space: running processes plus forks still being copied.
  SpaceList Spaces() const { return spaces_(); }

  // Calls fn(const Mapping&) for every distinct present leaf of every live space.
  template <typename Fn>
  void ForEachMapping(Fn&& fn) ODF_REQUIRES(MmGate::Global()) {
    SpaceList spaces = Spaces();
    ChunkSweep sweep(*allocator_, spaces);
    for (size_t step = 0; step < sweep.size(); ++step) {
      sweep.ForEachLeaf(step, fn);
    }
  }

  // The 4 KiB slots that map `frame` (appended to `out`).
  void CollectSlots(FrameId frame, std::vector<uint64_t*>* out)
      ODF_REQUIRES(MmGate::Global());

  // Queries for tests, procfs and benches. Each takes the MmGate exclusively for one sweep.
  uint64_t TotalLocations();
  size_t LocationCount(FrameId frame);
  RmapCensus Census();

  // The 2 MiB chunk the next CLOCK round starts at (shrink.cc).
  Vaddr hand ODF_GUARDED_BY(MmGate::Global()) = 0;

 private:
  FrameAllocator* allocator_;
  std::function<SpaceList()> spaces_;
};

}  // namespace reclaim
}  // namespace odf

#endif  // ODF_SRC_RECLAIM_RMAP_H_
