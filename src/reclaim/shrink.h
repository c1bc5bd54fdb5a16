// The shrinker: a CLOCK over the reclaim sweep (rmap.h), shared by kswapd and direct
// reclaim (Kernel::ReclaimMemory).
//
// A persistent hand (Rmap::hand, a 2 MiB chunk address) walks the chunks that any live
// address space maps, resuming where the last round stopped. At each chunk the sweep
// yields every mapping of every frame found there; for each order-0 anonymous frame the
// shrinker test-and-clears the accessed bits of all its slots at once and moves it one
// step through the two-bit CLOCK (the PTE accessed bit plus the kPteActive software bit,
// the PG_referenced / PG_active pair):
//
//   inactive, referenced      -> active                 (pgactivate)
//   active, not referenced    -> inactive               (pgdeactivate)
//   inactive, not referenced  -> evicted when its refcount equals the slots found (pgsteal)
//
// A workingset refault (a swap-in soon after its eviction, detected through the swap
// slot's shadow; pgrefault) starts active with kPteWorkingset set: its first unreferenced
// visit only clears that bit, so it outlasts a page that refaulted cold by one sweep.
// pgscan counts the inactive frames examined. Eviction rewrites every slot with one swap
// entry (a shared-table slot once for all its sharers, §3.6) or, for a frame whose content
// was never materialised, with an empty entry.
//
// CALLERS MUST HOLD THE MmGate EXCLUSIVELY (mm_gate.h): the shrinker rewrites leaf entries
// in tables shared across address spaces and frees the frames they referenced; the gate
// guarantees no mutator is mid-operation and that TLBs are flushed before any mutator
// resumes.
#ifndef ODF_SRC_RECLAIM_SHRINK_H_
#define ODF_SRC_RECLAIM_SHRINK_H_

#include <cstdint>
#include <functional>

#include "src/mm/swap.h"
#include "src/phys/frame_allocator.h"
#include "src/reclaim/rmap.h"

namespace odf {
namespace reclaim {

// Everything a reclaim pass needs, bundled so shrink/kswapd stay below the process layer.
// flush_tlbs must invalidate every process's TLB (coarse, generation-bump flush); the
// kernel supplies it because only the process table knows who has a TLB.
struct ShrinkContext {
  FrameAllocator* allocator = nullptr;
  SwapSpace* swap = nullptr;
  Rmap* rmap = nullptr;
  std::function<void()> flush_tlbs;
};

// One reclaim round: runs the CLOCK from the hand until `want` frames are freed or four
// revolutions are done — enough to take any frame from just-referenced to evicted, since
// the gate holds off every access (every memory access holds it shared, so nothing can set
// an accessed bit mid-round). Then flushes TLBs once if any entry changed. Returns frames
// freed.
uint64_t ReclaimPages(ShrinkContext& ctx, uint64_t want) ODF_REQUIRES(MmGate::Global());

}  // namespace reclaim
}  // namespace odf

#endif  // ODF_SRC_RECLAIM_SHRINK_H_
