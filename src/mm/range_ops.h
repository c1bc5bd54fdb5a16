// Page-table range operations shared by fork, munmap, mremap, mprotect and exit teardown.
//
// This is where the paper's last-level page-table lifecycle (§3.5), unmap/remap COW (§3.3)
// and table-refcount-based page accounting (§3.6) are implemented.
#ifndef ODF_SRC_MM_RANGE_OPS_H_
#define ODF_SRC_MM_RANGE_OPS_H_

#include <array>

#include "src/mm/address_space.h"
#include "src/util/mutex.h"
#include "src/util/stopwatch.h"

namespace odf {

// Split page-table locks (the kernel's per-table spinlock analog): serialize structural
// mutation of a PTE table that may be shared across address spaces. An annotated
// capability: lock sites use debug::MutexGuard, so the analysis sees the RAII extent.
util::Mutex& PtSplitLock(FrameId table);

// How a range operation allocates the page-table frames it needs.
//   kNoFail — abort on hard OOM, never consult fault injection (teardown/rollback paths
//             MUST use this: rollback cannot itself fail).
//   kTry    — use fallible allocation; the operation reports failure (kInvalidFrame /
//             false) and leaves all page tables in a consistent, unmodified state.
enum class AllocPolicy { kNoFail, kTry };

// Drops one address-space reference to a PTE table (§3.5). The last dropper releases the
// page references held on behalf of all sharers (§3.6) and frees the table frame at once.
// The caller holds a lock that excludes every walker still able to reach the table
// (docs/performance.md "Freeing a page table"). Returns true when that happened.
bool DropPteTableReference(FrameAllocator& allocator, SwapSpace* swap, FrameId table);

// Drops one reference to a PMD table (the §4 huge-page extension: kOnDemandHuge shares PMD
// tables). The last dropper releases everything the table references — huge compound pages
// and PTE-table references — and frees the table frame. Returns true when that happened.
bool DropPmdTableReference(FrameAllocator& allocator, SwapSpace* swap, FrameId table);

// --- Table copiers: one per level, shared by fork and table COW ---

// The three passes of a PTE-table copy, which a profiled copy times separately (the Fig. 3
// breakdown).
enum class CopyPass { kMetaResolve, kRefcount, kEntryCopy };

// Profiling policies for CopyPteEntries, chosen at compile time so an unprofiled copy pays
// nothing for the Fig. 3 breakdown. Lap() charges the time since the previous lap to one
// pass.
struct NoCopyProfile {
  void Lap(CopyPass) {}
};

class TimedCopyProfile {
 public:
  // Each lap adds to the counter given for its pass.
  TimedCopyProfile(uint64_t* meta_resolve_ns, uint64_t* refcount_ns, uint64_t* entry_copy_ns)
      : pass_ns_{meta_resolve_ns, refcount_ns, entry_copy_ns} {}
  void Lap(CopyPass pass) {
    *pass_ns_[static_cast<size_t>(pass)] += sw_.ElapsedNanos();
    sw_.Restart();
  }

 private:
  std::array<uint64_t*, 3> pass_ns_;
  Stopwatch sw_;
};

// Copies the PTE entries src[0, count) into dst: classic fork's copy_pte_range, and the
// PTE-table COW of §3.4, which does the same work deferred to a fault. Three passes:
// resolve each present page's compound head (the compound_head() hotspot), take every
// reference in one IncRefBatch (page_ref_inc), then publish, so no copied entry points at
// an under-referenced frame. With `wrprotect`, writable entries lose their write bit in
// BOTH copies so each data page still COWs on its first write (shared-file mappings pass
// false). Swapped pages take a slot reference (swap_map semantics) and poison markers copy
// verbatim. Returns the number of entries copied: present pages plus swap entries.
template <typename Profile>
uint64_t CopyPteEntries(FrameAllocator& allocator, SwapSpace* swap, uint64_t* src,
                        uint64_t* dst, size_t count, bool wrprotect, Profile profile);

// What CopyPmdEntries copied.
struct PmdCopyCounts {
  uint64_t huge_entries = 0;  // 2 MiB mappings: one compound-page reference each.
  uint64_t pte_tables = 0;    // PTE tables: one more share each.
};

// Copies the PMD entries src[0, count) into dst: on-demand fork of a PMD table (§3.1), and
// the PMD-table COW of the §4 extension. A huge entry takes a reference on its compound page
// and a PTE-table entry one more share on its table (one IncRefBatch and one
// IncPtShareBatch, both before any entry is published). Every entry is write-protected in
// BOTH copies, so the next write below COWs the huge page or the PTE table lazily (§3.2).
PmdCopyCounts CopyPmdEntries(FrameAllocator& allocator, uint64_t* src, uint64_t* dst,
                             size_t count);

// Shares the page table `src_slot` points at with `dst_slot` (fork's table sharing at one
// upper-level entry): one more share on the table, and both entries write-protected so that
// every write below either of them faults (§3.2).
void ShareTableEntry(FrameAllocator& allocator, uint64_t* src_slot, uint64_t* dst_slot);

// Copy-on-write of the shared page table that `slot` points at, for `as`. `level` is the
// level of `slot`: kPmd dedicates a PTE table (§3.4), kPud a PMD table (§4 extension); `va`
// is any address the slot covers. Allocates a private table, fills it with the level's
// copier (entries write-protected in both copies, so the level below still COWs lazily),
// repoints `slot`, invalidates its span from this address space's TLB and drops one share
// from the old table.
//
// If the share count has already dropped to 1 (the other sharers dedicated or exited), no
// copy is needed: the entry is simply write-enabled again ("fixup"). Returns the table the
// entry points at afterwards. Under AllocPolicy::kTry, returns kInvalidFrame when the
// private table cannot be allocated; the shared table and the entry are left untouched
// (the fixup path needs no allocation and always succeeds).
FrameId DedicateTable(AddressSpace& as, PtLevel level, Vaddr va, uint64_t* slot,
                      AllocPolicy policy = AllocPolicy::kNoFail);

// Makes the page tables on the path to `va` exclusive to `as`: a shared PMD table covering
// `va` is dedicated, then a shared PTE table below it. Required before any structural
// mutation of those tables (fault install, populate, remap, classic fork, huge split).
// Returns false only under AllocPolicy::kTry when a dedication allocation failed.
bool EnsureExclusivePath(AddressSpace& as, Vaddr va,
                         AllocPolicy policy = AllocPolicy::kNoFail);

// Drops one reference to the data frame mapped by a leaf entry (4 KiB page or, for
// `huge`, a 2 MiB compound head).
void PutMappedPage(FrameAllocator& allocator, Pte entry, bool huge);

// Removes all translations in [start, end). Must run after the VMAs covering the range have
// been removed from the address-space map (the live-VMA check for §3.3 relies on it).
// Shared PTE tables whose 2 MiB span no longer backs any live VMA are dropped whole; shared
// tables still needed by a neighbouring VMA are dedicated first and zapped partially.
void ZapRange(AddressSpace& as, Vaddr start, Vaddr end);

// Moves translations of [old_start, old_start+length) to new_start (mremap). Shared PTE
// tables touched on either side are dedicated first (§3.3). Data pages are not copied.
void MovePageRange(AddressSpace& as, Vaddr old_start, Vaddr new_start, uint64_t length);

// Applies a protection downgrade to present translations in [start, end) (mprotect).
// Write-permission removal clears writable bits in dedicated tables; shared tables are
// already write-protected at the PMD and need no structural change.
void ProtectRange(AddressSpace& as, Vaddr start, Vaddr end, uint32_t prot);

// Frees the upper-level paging skeleton (PGD/PUD/PMD tables) after all VMAs were zapped.
// Defensively releases any leftover leaf state.
void FreePageTables(AddressSpace& as);

// True if any live VMA overlaps [lo, hi).
bool RangeHasLiveVma(const AddressSpace& as, Vaddr lo, Vaddr hi);

}  // namespace odf

#endif  // ODF_SRC_MM_RANGE_OPS_H_
