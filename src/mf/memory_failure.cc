#include "src/mf/memory_failure.h"

#include <cstring>

#include "src/debug/debug.h"
#include "src/mm/fault.h"
#include "src/mm/range_ops.h"
#include "src/pt/mm_gate.h"
#include "src/trace/metrics.h"
#include "src/trace/trace.h"
#include "src/util/log.h"

namespace odf {
namespace mf {

const char* MfResultName(MfResult result) {
  switch (result) {
    case MfResult::kRecovered:
      return "recovered";
    case MfResult::kDelayed:
      return "delayed";
    case MfResult::kAlreadyPoisoned:
      return "already-poisoned";
    case MfResult::kMigrated:
      return "migrated";
    case MfResult::kFailedBusy:
      return "failed-busy";
    case MfResult::kFailedKernelPage:
      return "failed-kernel-page";
    case MfResult::kNotSupported:
      return "not-supported";
  }
  return "?";
}

#if ODF_MEMORY_FAILURE_COMPILED

namespace {

// Splits every huge (PMD-leaf) mapping of compound `head`, in every address space, so the
// dead 4 KiB subpage can be offlined alone — the rest of the 2 MiB page survives. The
// split needs each owning space's walker and TLB, hence a per-space PMD scan over the
// VMAs; offline events are rare enough that the walk cost is irrelevant.
// Returns false when a split's table allocation fails; splits already performed are
// benign (a split mapping is valid state, faulting continues page by page).
bool SplitAllHugeMappings(MfContext& ctx, FrameId head) {
  for (const std::shared_ptr<AddressSpace>& as : ctx.rmap->Spaces()) {
    for (const auto& [start, vma] : as->vmas()) {
      for (Vaddr chunk = EntryBase(vma.start, PtLevel::kPmd); chunk < vma.end;
           chunk += kPteTableSpan) {
        uint64_t* pmd_slot = as->walker().FindEntry(as->pgd(), chunk, PtLevel::kPmd);
        if (pmd_slot == nullptr) {
          continue;
        }
        Pte entry = LoadEntry(pmd_slot);
        if (!entry.IsPresent() || !entry.IsHuge() || entry.frame() != head) {
          continue;
        }
        // The PMD table holding this entry may be shared (kOnDemandHuge, §4): dedicate it
        // first so the split mutates only this space's view.
        if (!EnsureExclusivePmdPath(*as, chunk, AllocPolicy::kTry)) {
          return false;
        }
        pmd_slot = as->walker().FindEntry(as->pgd(), chunk, PtLevel::kPmd);
        if (pmd_slot == nullptr) {
          continue;
        }
        entry = LoadEntry(pmd_slot);
        if (!entry.IsPresent() || !entry.IsHuge() || entry.frame() != head) {
          continue;  // Dedication already rewrote it (cannot happen today; defensive).
        }
        if (!SplitHugeMapping(*as, chunk, pmd_slot)) {
          return false;
        }
        CountVm(VmCounter::k_mf_huge_splits);
      }
    }
  }
  return true;
}

// Moves the page-cache reference(s) for `frame` over to `replacement` across every file.
// Returns the number of cache slots repointed; reference ownership per ReplaceFrame's
// contract (the caller ends up owning old's cache refs, the cache owns new's).
size_t RelocateFileCache(MfContext& ctx, FrameId frame, FrameId replacement) {
  size_t relocated = 0;
  if (ctx.fs != nullptr) {
    ctx.fs->ForEachFile([&](const std::shared_ptr<MemFile>& file) {
      relocated += file->ReplaceFrame(frame, replacement);
    });
  }
  return relocated;
}

size_t CountFileCacheRefs(MfContext& ctx, FrameId frame) {
  size_t refs = 0;
  if (ctx.fs != nullptr) {
    ctx.fs->ForEachFile([&](const std::shared_ptr<MemFile>& file) {
      file->ForEachCachedPage([&](uint64_t, FrameId cached) {
        if (cached == frame) {
          ++refs;
        }
      });
    });
  }
  return refs;
}

}  // namespace

MfResult HardOffline(MfContext& ctx, FrameId frame) {
  ODF_DCHECK(MmGate::ThreadHoldsExclusive())
      << "memory failure without the MmGate held exclusive";
  FrameAllocator& allocator = *ctx.allocator;
  if (frame >= allocator.Stats().total_frames) {
    CountVm(VmCounter::k_mf_offline_failed);
    return MfResult::kFailedBusy;  // No such frame (the -ENXIO analog).
  }
  PageMeta& meta = allocator.GetMeta(frame);
  if (meta.IsHwPoisoned()) {
    return MfResult::kAlreadyPoisoned;
  }
  if (meta.IsPageTable()) {
    // A dead page-table frame takes all translations below it with it; page-granularity
    // offline cannot contain that (the kernel panics on Reserved/slab pages for the same
    // reason). Refuse and leave containment to the operator.
    CountVm(VmCounter::k_mf_offline_failed);
    return MfResult::kFailedKernelPage;
  }
  if ((meta.flags & kPageFlagAllocated) == 0) {
    // Free frame: retire it before anyone can allocate it (the take_page_off_buddy path).
    allocator.MarkHwPoison(frame);
    CountVm(VmCounter::k_mf_hard_offline);
    ODF_TRACE(mf_hard_offline, 0, frame, 0);
    return MfResult::kDelayed;
  }
  // Refs on a compound subpage live on the head; the marker and quarantine target the
  // subpage itself.
  FrameId holder = meta.compound_head;
  if (meta.IsCompound() && !SplitAllHugeMappings(ctx, holder)) {
    CountVm(VmCounter::k_mf_offline_failed);
    return MfResult::kFailedBusy;
  }
  // After the split pass every mapping of the frame is a 4 KiB slot.
  std::vector<uint64_t*> slots;
  ctx.rmap->CollectSlots(frame, &slots);
  bool is_file = (meta.flags & kPageFlagFile) != 0;
  // For a page-cache frame the contents are clean (the cache IS the backing store here, so
  // the relocation below plays the part of re-reading from disk): allocate the target
  // BEFORE mutating anything, so an allocation failure aborts with no trace.
  FrameId replacement = kInvalidFrame;
  if (is_file) {
    replacement = allocator.TryAllocate(kPageFlagFile | kPageFlagZeroFill);
    if (replacement == kInvalidFrame) {
      CountVm(VmCounter::k_mf_offline_failed);
      return MfResult::kFailedBusy;
    }
  }
  // Pin the holder so the per-location DecRefs below can never free it mid-operation, then
  // set the sticky poison flag — from here on the allocator will quarantine, not recycle.
  allocator.IncRef(holder);
  allocator.MarkHwPoison(frame);
  size_t relocated = 0;
  if (is_file) {
    const std::byte* src = allocator.PeekData(frame);
    if (src != nullptr) {
      std::memcpy(allocator.MaterializeData(replacement, /*zero=*/false), src, kPageSize);
    }
    relocated = RelocateFileCache(ctx, frame, replacement);
    if (relocated == 0) {
      // File-flagged but not cached anywhere (e.g. truncated while still mapped): there is
      // no backing copy to refault from, so the mappings get poison markers like anon.
      allocator.DecRef(replacement);
    } else {
      // The cache's reference moved: replacement's allocation ref became the cache's;
      // the old frame's cache ref is now ours to drop (the pin keeps it alive).
      for (size_t i = 0; i < relocated; ++i) {
        allocator.DecRef(frame);
      }
    }
  }
  // Broadcast the verdict into every mapping — ONE store per slot, which for a slot inside
  // a shared on-demand-fork PTE table retires the mapping for every sharer at once (§3.6).
  // Anon (and uncached-file) mappings get the sticky poison marker: the data is gone, and
  // only a process that touches the VA sees kHwPoison. Relocated file mappings are simply
  // cleared: the next touch refaults from the moved page cache, losing nothing.
  bool anon_style = !is_file || relocated == 0;
  for (uint64_t* slot : slots) {
    StoreEntry(slot, anon_style ? Pte::MakeHwPoison(frame) : Pte());
  }
  for (size_t i = 0; i < slots.size(); ++i) {
    allocator.DecRef(holder);  // One reference per cleared mapping.
  }
  if (ctx.flush_tlbs) {
    ctx.flush_tlbs();  // One coarse shootdown, while we still hold the gate.
  }
  allocator.DecRef(holder);  // Drop the pin; the last owner's free quarantines the frame.
  CountVm(VmCounter::k_mf_hard_offline);
  ODF_TRACE(mf_hard_offline, 0, frame, slots.size());
  return (slots.empty() && relocated == 0) ? MfResult::kDelayed : MfResult::kRecovered;
}

MfResult SoftOffline(MfContext& ctx, FrameId frame) {
  ODF_DCHECK(MmGate::ThreadHoldsExclusive())
      << "soft offline without the MmGate held exclusive";
  FrameAllocator& allocator = *ctx.allocator;
  if (frame >= allocator.Stats().total_frames) {
    CountVm(VmCounter::k_mf_offline_failed);
    return MfResult::kFailedBusy;
  }
  PageMeta& meta = allocator.GetMeta(frame);
  if (meta.IsHwPoisoned()) {
    return MfResult::kAlreadyPoisoned;
  }
  if (meta.IsPageTable()) {
    CountVm(VmCounter::k_mf_offline_failed);
    return MfResult::kFailedKernelPage;
  }
  if ((meta.flags & kPageFlagAllocated) == 0) {
    allocator.MarkHwPoison(frame);
    CountVm(VmCounter::k_mf_soft_offline);
    ODF_TRACE(mf_soft_offline, 0, frame, 0);
    return MfResult::kDelayed;
  }
  FrameId holder = meta.compound_head;
  if (meta.IsCompound() && !SplitAllHugeMappings(ctx, holder)) {
    CountVm(VmCounter::k_mf_offline_failed);
    return MfResult::kFailedBusy;
  }
  std::vector<uint64_t*> slots;
  ctx.rmap->CollectSlots(frame, &slots);
  size_t cache_refs = CountFileCacheRefs(ctx, frame);
  if (slots.empty() && cache_refs == 0) {
    // Nothing maps or caches it; whoever holds it frees it into quarantine eventually.
    allocator.MarkHwPoison(frame);
    CountVm(VmCounter::k_mf_soft_offline);
    ODF_TRACE(mf_soft_offline, 0, frame, 0);
    return MfResult::kDelayed;
  }
  // Migration eligibility: every reference must be a mapping or cache slot we are about to
  // repoint — extra references mean someone (a mid-rollback fork, a pinning test) holds
  // the frame and migration would yank it out from under them. A split-huge tail's
  // references aggregate on the compound head where per-subpage attribution is impossible;
  // the head pin below keeps those safe instead.
  if (holder == frame &&
      meta.refcount.load(std::memory_order_relaxed) != slots.size() + cache_refs) {
    CountVm(VmCounter::k_mf_offline_failed);
    return MfResult::kFailedBusy;
  }
  // The ONLY allocation of the migration, taken before any mutation: a failure — genuine
  // ENOMEM or an injected frame_alloc verdict (src/fi) — aborts the whole operation with
  // nothing to roll back, the same all-or-nothing discipline as TryFork.
  uint8_t kind = static_cast<uint8_t>(meta.flags &
                                      (kPageFlagAnon | kPageFlagFile | kPageFlagZeroFill));
  FrameId replacement = allocator.TryAllocate(kind);
  if (replacement == kInvalidFrame) {
    CountVm(VmCounter::k_mf_offline_failed);
    return MfResult::kFailedBusy;
  }
  allocator.IncRef(holder);  // Pin across the per-location DecRefs.
  const std::byte* src = allocator.PeekData(frame);
  if (src != nullptr) {
    std::memcpy(allocator.MaterializeData(replacement, /*zero=*/false), src, kPageSize);
  }
  // Atomically repoint every mapping: ONE update per slot, so a slot inside a shared
  // on-demand-fork PTE table migrates the page for every sharer at once (§3.6). Flags
  // (writable / accessed / dirty) ride along unchanged.
  for (uint64_t* slot : slots) {
    Pte entry = LoadEntry(slot);
    ODF_DCHECK(entry.IsPresent() && entry.frame() == frame);
    allocator.IncRef(replacement);
    StoreEntry(slot, entry.WithFrame(replacement));
    allocator.DecRef(holder);
  }
  if (cache_refs > 0) {
    size_t relocated = RelocateFileCache(ctx, frame, replacement);
    ODF_DCHECK(relocated == cache_refs);
    // ReplaceFrame swapped reference ownership: give the cache refs on the replacement
    // (beyond the allocation ref it already absorbed conceptually) and drop the old ones.
    for (size_t i = 0; i < relocated; ++i) {
      allocator.IncRef(replacement);
      allocator.DecRef(frame);
    }
  }
  if (ctx.flush_tlbs) {
    ctx.flush_tlbs();
  }
  allocator.MarkHwPoison(frame);   // Sticky; the frees below divert to quarantine.
  allocator.DecRef(replacement);   // Drop the allocation ref; mappings + cache own it now.
  allocator.DecRef(holder);        // Drop the pin; the source retires.
  CountVm(VmCounter::k_mf_soft_offline);
  CountVm(VmCounter::k_mf_migrated_pages);
  ODF_TRACE(mf_soft_offline, 0, frame, slots.size());
  return MfResult::kMigrated;
}

#else  // !ODF_MEMORY_FAILURE_COMPILED

MfResult HardOffline(MfContext&, FrameId) { return MfResult::kNotSupported; }
MfResult SoftOffline(MfContext&, FrameId) { return MfResult::kNotSupported; }

#endif  // ODF_MEMORY_FAILURE_COMPILED

}  // namespace mf
}  // namespace odf
