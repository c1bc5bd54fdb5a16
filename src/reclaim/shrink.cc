#include "src/reclaim/shrink.h"

#include <span>
#include <vector>

#include "src/debug/debug.h"
#include "src/fi/fault_inject.h"
#include "src/pt/pte.h"
#include "src/trace/metrics.h"
#include "src/trace/trace.h"

namespace odf {
namespace reclaim {

namespace {

// Three visits take a frame from referenced through active and inactive to evicted; a
// workingset refault needs a fourth.
constexpr size_t kRevolutions = 4;

// The CLOCK step for one frame, given all its mappings found at the current chunk.
// Returns true when the frame was evicted (and freed).
bool ShrinkFrame(ShrinkContext& ctx, FrameId frame, std::span<const Mapping> mappings,
                 bool* tlb_dirty) {
  FrameAllocator& allocator = *ctx.allocator;
  PageMeta& meta = allocator.GetMeta(frame);
  // Only order-0 private anonymous frames age: file pages belong to the page cache (their
  // refcount includes the cache's reference, so they could never pass the test below),
  // compound frames cannot be freed one PTE at a time, and a poisoned frame belongs to
  // the offline path.
  if ((meta.flags & kPageFlagAnon) == 0 || meta.IsCompound() || meta.IsHwPoisoned()) {
    return false;
  }
  bool active = false;
  bool referenced = false;
  for (const Mapping& mapping : mappings) {
    active = active || LoadEntry(mapping.slot).IsActive();
    referenced = TestAndClearFlags(mapping.slot, kPteAccessed) || referenced;
  }
  if (referenced) {
    *tlb_dirty = true;  // Cached translations must re-walk to set the bit again.
  }
  if (!active) {
    CountVm(VmCounter::k_pgscan);
  }
  if (referenced) {
    if (!active) {
      for (const Mapping& mapping : mappings) {
        SetEntryFlags(mapping.slot, kPteActive);
      }
      CountVm(VmCounter::k_pgactivate);
    }
    return false;
  }
  if (active) {
    // A workingset refault keeps its active state for one extra sweep.
    bool workingset = false;
    for (const Mapping& mapping : mappings) {
      workingset = TestAndClearFlags(mapping.slot, kPteWorkingset) || workingset;
    }
    if (!workingset) {
      for (const Mapping& mapping : mappings) {
        TestAndClearFlags(mapping.slot, kPteActive);
      }
      CountVm(VmCounter::k_pgdeactivate);
    }
    return false;
  }
  // Evictable only when every reference is a mapping we are about to clear. A shared PTE
  // table holds ONE reference on behalf of all sharers (§3.6), so this holds for frames
  // reached through shared tables too. Extra references mean someone else pins the frame
  // (a mid-rollback fork, a test) or maps it at another address (mremap in one sharer).
  if (meta.refcount.load(std::memory_order_relaxed) != mappings.size()) {
    return false;
  }
  // Writeback failure injection (reclaim_writeback): the page stays resident.
  if (fi::ShouldInject(FiSite::k_reclaim_writeback)) {
    return false;
  }
  std::byte* data = allocator.PeekData(frame);
  if (data != nullptr) {
    SwapSlot slot = ctx.swap->TryWriteOut(data);
    if (slot == kInvalidSwapSlot) {
      return false;  // Swap full or IO error: keep the page resident.
    }
    // Broadcast the swap entry into every mapping. The slot carries one reference per
    // mapping (TryWriteOut returned it with one), exactly mirroring the frame references
    // being dropped below — sharers that later diverge (DedicatePteTable) IncRef the slot
    // per copied swap PTE, and each swap-in fault DecRefs it.
    for (size_t i = 1; i < mappings.size(); ++i) {
      ctx.swap->IncRef(slot);
    }
    for (const Mapping& mapping : mappings) {
      StoreEntry(mapping.slot, Pte::MakeSwap(slot));
    }
    CountVm(VmCounter::k_pgswapout);
    ODF_TRACE(page_swap_out, 0, frame);
  } else {
    // Never materialised: the content is logical zero, so dropping the mappings loses
    // nothing — the next fault demand-zeroes the page again. No swap slot.
    for (const Mapping& mapping : mappings) {
      StoreEntry(mapping.slot, Pte());
    }
  }
  ODF_TRACE(rmap_unmap, 0, frame, mappings.size());
  // One reference per cleared mapping; the last one frees the frame (the refcount test
  // above guarantees it).
  for (size_t i = 0; i < mappings.size(); ++i) {
    // The evictor holds the MmGate exclusively, so every allocating path (fault, fork:
    // gate-shared) is blocked and the freed frame cannot be recycled before ReclaimPages'
    // deferred FlushAll bumps the generations — before the gate drops.
    // odf-lint: allow(gen-before-free)
    allocator.DecRef(frame);
  }
  *tlb_dirty = true;
  CountVm(VmCounter::k_pgsteal);
  return true;
}

}  // namespace

uint64_t ReclaimPages(ShrinkContext& ctx, uint64_t want) {
  ODF_DCHECK(MmGate::ThreadHoldsExclusive()) << "reclaim without the MmGate held exclusive";
  Rmap& rmap = *ctx.rmap;
  SpaceList spaces = rmap.Spaces();
  ChunkSweep sweep(*ctx.allocator, spaces);
  if (sweep.size() == 0) {
    return 0;
  }
  std::vector<Mapping> leaves;
  bool tlb_dirty = false;
  uint64_t freed = 0;
  size_t step = sweep.StepAtOrAfter(rmap.hand);
  for (size_t visits = 0; visits < kRevolutions * sweep.size() && freed < want; ++visits) {
    sweep.Gather(step, &leaves);
    size_t begin = 0;
    while (begin < leaves.size() && freed < want) {
      size_t end = begin + 1;
      while (end < leaves.size() && leaves[end].frame == leaves[begin].frame) {
        ++end;
      }
      std::span<const Mapping> mappings(leaves.data() + begin, end - begin);
      if (ShrinkFrame(ctx, leaves[begin].frame, mappings, &tlb_dirty)) {
        ++freed;
      }
      begin = end;
    }
    // A chunk left part-way is where the next round resumes; otherwise the hand moves on.
    rmap.hand = sweep.chunk(step) + (begin < leaves.size() ? 0 : kPteTableSpan);
    step = (step + 1) % sweep.size();
  }
  if (tlb_dirty && ctx.flush_tlbs) {
    // One coarse flush per reclaim round, BEFORE any mutator can run again (the caller
    // still holds the gate): stale translations to freed frames or cleared accessed bits
    // must not survive into the next memory operation.
    ctx.flush_tlbs();
  }
  return freed;
}

}  // namespace reclaim
}  // namespace odf
