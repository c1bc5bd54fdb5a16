// Classic fork: the Linux copy_page_range analog. For every present last-level entry the
// kernel resolves the page's metadata (the compound_head() hotspot of Fig. 3), atomically
// increments the page reference count (the page_ref_inc() hotspot), write-protects private
// mappings in both parent and child, and writes the child entry. The per-entry work is the
// table copiers' (src/mm/range_ops.h), which the table COW of on-demand fork shares.
#include <set>

#include "src/core/fork_internal.h"
#include "src/mm/fault.h"
#include "src/mm/range_ops.h"
#include "src/trace/metrics.h"
#include "src/trace/trace.h"
#include "src/util/log.h"
#include "src/util/stopwatch.h"

namespace odf {

namespace {

// Fallback when the child's PTE table for `chunk` cannot be allocated: share the parent's
// table on-demand-fork style (zero allocation below the PMD) instead of failing the fork.
// The chunk then COWs lazily exactly like an ODF chunk would. Returns false when even the
// child's upper-level path to the PMD entry cannot be built.
bool ShareChunkFallback(AddressSpace& parent, AddressSpace& child, Vaddr chunk,
                        uint64_t* parent_pmd, ForkCounters* counters) {
  uint64_t* child_pmd = child.walker().TryEnsureEntry(child.pgd(), chunk, PtLevel::kPmd);
  if (child_pmd == nullptr) {
    return false;
  }
  ODF_DCHECK(!LoadEntry(child_pmd).IsPresent());
  ShareTableEntry(parent.allocator(), parent_pmd, child_pmd);
  if (counters != nullptr) {
    ++counters->pte_tables_shared;
  }
  CountVm(VmCounter::k_pte_tables_shared);
  CountVm(VmCounter::k_fork_degrade_classic);
  ODF_TRACE(pte_table_shared, parent.owner_pid(), LoadEntry(parent_pmd).frame());
  ODF_TRACE(fork_degrade_classic, parent.owner_pid(), chunk,
            static_cast<uint64_t>(DegradeFlavor::kClassicShareTable));
  return true;
}

}  // namespace

bool ClassicCopyPageTables(AddressSpace& parent, AddressSpace& child, ForkProfile* profile,
                           ForkCounters* counters) {
  FrameAllocator& allocator = parent.allocator();
  Walker& parent_walker = parent.walker();
  Walker& child_walker = child.walker();
  // Chunks that degraded to table sharing: later VMAs overlapping the same 2 MiB chunk are
  // already fully covered by the shared table and must not copy into it.
  std::set<Vaddr> shared_chunks;

  for (const auto& [start, vma] : parent.vmas()) {
    bool wrprotect = vma.kind != VmaKind::kFileShared;
    for (Vaddr chunk = EntryBase(vma.start, PtLevel::kPmd); chunk < vma.end;
         chunk += kPteTableSpan) {
      if (shared_chunks.count(chunk) != 0) {
        continue;
      }
      // If an earlier on-demand fork left this chunk's PMD or PTE table shared, classic fork
      // must not mutate the shared copy on other processes' behalf: dedicate it first.
      if (!EnsureExclusivePath(parent, chunk, AllocPolicy::kTry)) {
        return false;
      }
      uint64_t* parent_pmd = parent_walker.FindEntry(parent.pgd(), chunk, PtLevel::kPmd);
      if (parent_pmd == nullptr) {
        continue;
      }
      Pte pmd = LoadEntry(parent_pmd);
      if (!pmd.IsPresent()) {
        continue;
      }

      if (pmd.IsHuge()) {
        uint64_t* child_pmd =
            child_walker.TryEnsureEntry(child.pgd(), chunk, PtLevel::kPmd);
        if (child_pmd == nullptr) {
          return false;
        }
        if (!LoadEntry(child_pmd).IsPresent()) {
          uint64_t copied = CopyPmdEntries(allocator, parent_pmd, child_pmd, 1).huge_entries;
          if (counters != nullptr) {
            counters->huge_entries_copied += copied;
          }
          CountVm(VmCounter::k_fork_huge_entries_copied, copied);
        }
        continue;
      }

      Vaddr lo = std::max(chunk, vma.start);
      Vaddr hi = std::min(chunk + kPteTableSpan, vma.end);

      Stopwatch alloc_sw;
      uint64_t* dst = child_walker.TryEnsureEntry(child.pgd(), lo, PtLevel::kPte);
      if (dst == nullptr) {
        // Could not build the child's copy of this chunk — degrade to sharing the parent's
        // table (the on-demand-fork mechanism as a zero-allocation fallback).
        if (!ShareChunkFallback(parent, child, chunk, parent_pmd, counters)) {
          return false;
        }
        shared_chunks.insert(chunk);
        continue;
      }
      uint64_t* src = allocator.TableEntries(pmd.frame()) + TableIndex(lo, PtLevel::kPte);
      size_t count = (hi - lo) / kPageSize;
      uint64_t copied = 0;
      if (profile != nullptr) {
        profile->table_alloc_ns += alloc_sw.ElapsedNanos();
        ++profile->pte_tables_visited;
        copied = CopyPteEntries(allocator, parent.swap_space(), src, dst, count, wrprotect,
                                TimedCopyProfile(&profile->meta_resolve_ns,
                                                 &profile->refcount_ns,
                                                 &profile->entry_copy_ns));
        profile->pte_entries_copied += copied;
      } else {
        copied = CopyPteEntries(allocator, parent.swap_space(), src, dst, count, wrprotect,
                                NoCopyProfile());
      }
      if (counters != nullptr) {
        counters->pte_entries_copied += copied;
      }
      CountVm(VmCounter::k_fork_pte_entries_copied, copied);  // Batched: one add per table.
    }
  }
  return true;
}

}  // namespace odf
