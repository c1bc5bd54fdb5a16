// On-demand-fork (§3.1): copy the top three page-table levels and *share* every last-level
// (PTE) table between parent and child. Sharing is one reference-count increment and one
// write-protected PMD entry per 2 MiB of mapped memory — three orders of magnitude less work
// than classic fork's per-4 KiB-page refcounting.
//
// Two submodes:
//  - kOnDemand:     huge (PMD-level) mappings are copied eagerly exactly like classic fork,
//                   matching the paper's 4 KiB-only implementation (§4).
//  - kOnDemandHuge: the generalization the paper sketches in §4 "Huge Page Support" — PMD
//                   tables (which describe 2 MiB pages directly in their entries) are shared
//                   too, write-protected at the PUD level. Tables then copy-on-write lazily
//                   at two levels: first the PMD table on the first write below a PUD entry,
//                   then the PTE table (or the 2 MiB page) on the first write below it.
#include "src/core/fork_internal.h"
#include "src/mm/fault.h"
#include "src/mm/range_ops.h"
#include "src/trace/metrics.h"
#include "src/trace/trace.h"
#include "src/util/log.h"
#include "src/util/stopwatch.h"

namespace odf {

namespace {

struct ShareState {
  FrameAllocator* allocator;
  int32_t pid = 0;
  bool share_pmd_tables = false;
  uint64_t pte_tables_shared = 0;
  uint64_t pmd_tables_shared = 0;
  uint64_t huge_entries_copied = 0;
};

bool ShareLevel(ShareState& state, FrameId parent_table, FrameId child_table, PtLevel level) {
  FrameAllocator& allocator = *state.allocator;
  uint64_t* src = allocator.TableEntries(parent_table);
  uint64_t* dst = allocator.TableEntries(child_table);

  if (level == PtLevel::kPmd) {
    // Shares every PTE table the PMD table references (§3.5) with one IncPtShareBatch for
    // the whole 1 GiB span, and copies huge entries eagerly like classic fork. The
    // hierarchical write permission is revoked in BOTH PMD entries so every write into a
    // shared 2 MiB region faults (§3.2).
    PmdCopyCounts copied = CopyPmdEntries(allocator, src, dst, kEntriesPerTable);
    state.pte_tables_shared += copied.pte_tables;
    state.huge_entries_copied += copied.huge_entries;
    if (trace::Enabled()) {
      for (uint64_t i = 0; i < kEntriesPerTable; ++i) {
        Pte entry = LoadEntry(&dst[i]);
        if (entry.IsPresent() && !entry.IsHuge()) {
          ODF_TRACE(pte_table_shared, state.pid, entry.frame());
        }
      }
    }
    return true;
  }

  for (uint64_t i = 0; i < kEntriesPerTable; ++i) {
    Pte entry = LoadEntry(&src[i]);
    if (!entry.IsPresent()) {
      continue;
    }

    // Upper levels: the child gets its own table, recursively filled — except that the §4
    // extension shares PMD tables outright.
    bool share_pmd = level == PtLevel::kPud && state.share_pmd_tables;
    FrameId child_sub = share_pmd ? kInvalidFrame : TryAllocPageTable(allocator);
    if (child_sub == kInvalidFrame) {
      if (level != PtLevel::kPud) {
        // A PUD table cannot be shared (no refcounted drop path above the PMD level): the
        // fork fails and the caller rolls back the partially built child.
        return false;
      }
      // Share the whole PMD table (1 GiB span): both PUD entries lose write permission, and
      // the hierarchical attribute blocks writes to everything below. Without the §4
      // extension this is the degrade for a failed child PMD-table allocation — the
      // kOnDemandHuge mechanism reused as a zero-allocation fallback; the chunk still COWs
      // lazily, just one level higher.
      ShareTableEntry(allocator, &src[i], &dst[i]);
      ++state.pmd_tables_shared;
      ODF_TRACE(pmd_table_shared, state.pid, entry.frame());
      if (!share_pmd) {
        CountVm(VmCounter::k_fork_degrade_classic);
        ODF_TRACE(fork_degrade_classic, state.pid, i * EntrySpan(PtLevel::kPud),
                  static_cast<uint64_t>(DegradeFlavor::kOdfSharePmd));
      }
      continue;
    }
    StoreEntry(&dst[i], Pte::Make(child_sub, kPtePresent | kPteWritable | kPteUser |
                                                 (entry.flags() & kPteAccessed)));
    if (!ShareLevel(state, entry.frame(), child_sub, NextLevel(level))) {
      return false;
    }
  }
  return true;
}

}  // namespace

bool OnDemandSharePageTables(AddressSpace& parent, AddressSpace& child, ForkProfile* profile,
                             ForkCounters* counters, bool share_pmd_tables) {
  Stopwatch sw;
  ShareState state{&parent.allocator()};
  state.pid = parent.owner_pid();
  state.share_pmd_tables = share_pmd_tables;
  bool ok = ShareLevel(state, parent.pgd(), child.pgd(), PtLevel::kPgd);
  if (counters != nullptr) {
    counters->pte_tables_shared += state.pte_tables_shared;
    counters->pmd_tables_shared += state.pmd_tables_shared;
    counters->huge_entries_copied += state.huge_entries_copied;
  }
  CountVm(VmCounter::k_pte_tables_shared, state.pte_tables_shared);
  CountVm(VmCounter::k_pmd_tables_shared, state.pmd_tables_shared);
  CountVm(VmCounter::k_fork_huge_entries_copied, state.huge_entries_copied);
  if (profile != nullptr) {
    profile->upper_level_ns += sw.ElapsedNanos();
    profile->pte_tables_visited += state.pte_tables_shared;
  }
  return ok;
}

}  // namespace odf
