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
#include <array>
#include <span>

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
  ForkCounters* counters;
  int32_t pid = 0;
  bool share_pmd_tables = false;
  uint64_t pte_tables_shared = 0;
  uint64_t pmd_tables_shared = 0;
};

// Shares one PMD table between the parent's and child's PUD entries (write-protecting
// both). This is the §4 huge-page extension's normal path, and doubles as the
// zero-allocation degrade when a child PMD table cannot be allocated under kOnDemand.
void SharePmdEntry(ShareState& state, uint64_t* src_slot, uint64_t* dst_slot, Pte entry) {
  FrameAllocator& allocator = *state.allocator;
  FrameId table = entry.frame();
  allocator.IncPtShare(table);
  Pte shared_entry = entry.WithoutFlag(kPteWritable);
  StoreEntry(src_slot, shared_entry);
  StoreEntry(dst_slot, shared_entry);
  ++state.pmd_tables_shared;
  ODF_TRACE(pmd_table_shared, state.pid, table);
}

// Shares every PTE table referenced by one PMD table (§3.5): one address-space reference and
// one write-protected entry pair per present table, with all pt_share_count increments taken
// in a single IncPtShareBatch call. Two passes — collect, batch-increment, then publish — so
// every reference exists before the corresponding child entry becomes visible, and the whole
// 1 GiB span costs one refcount call site instead of 512 (docs/performance.md).
void ShareAllPteTables(ShareState& state, uint64_t* src, uint64_t* dst) {
  FrameAllocator& allocator = *state.allocator;
  std::array<uint64_t, kEntriesPerTable> indices;
  std::array<FrameId, kEntriesPerTable> tables;
  size_t shared = 0;
  for (uint64_t i = 0; i < kEntriesPerTable; ++i) {
    Pte entry = LoadEntry(&src[i]);
    if (!entry.IsPresent()) {
      continue;
    }
    if (entry.IsHuge()) {
      CopyHugeEntry(allocator, &src[i], &dst[i], state.counters);
      continue;
    }
    indices[shared] = i;
    tables[shared] = entry.frame();
    ++shared;
  }
  allocator.IncPtShareBatch(std::span<const FrameId>(tables.data(), shared));
  for (size_t k = 0; k < shared; ++k) {
    uint64_t i = indices[k];
    // The hierarchical write permission is revoked in BOTH the parent's and the child's PMD
    // entry so every write into this 2 MiB region faults (§3.2).
    Pte shared_entry = LoadEntry(&src[i]).WithoutFlag(kPteWritable);
    StoreEntry(&src[i], shared_entry);
    StoreEntry(&dst[i], shared_entry);
    ODF_TRACE(pte_table_shared, state.pid, tables[k]);
  }
  state.pte_tables_shared += shared;
}

bool ShareLevel(ShareState& state, FrameId parent_table, FrameId child_table, PtLevel level) {
  FrameAllocator& allocator = *state.allocator;
  uint64_t* src = allocator.TableEntries(parent_table);
  uint64_t* dst = allocator.TableEntries(child_table);

  if (level == PtLevel::kPmd) {
    ShareAllPteTables(state, src, dst);
    return true;
  }

  for (uint64_t i = 0; i < kEntriesPerTable; ++i) {
    Pte entry = LoadEntry(&src[i]);
    if (!entry.IsPresent()) {
      continue;
    }

    if (level == PtLevel::kPud && state.share_pmd_tables) {
      // §4 extension: share the whole PMD table (1 GiB span). Both PUD entries lose write
      // permission; the hierarchical attribute blocks writes to everything below.
      SharePmdEntry(state, &src[i], &dst[i], entry);
      continue;
    }

    // Upper levels: the child gets its own table, recursively filled.
    FrameId child_sub = TryAllocPageTable(allocator);
    if (child_sub == kInvalidFrame) {
      if (level == PtLevel::kPud) {
        // Degrade: share the parent's whole PMD table write-protected at the PUD instead
        // of building a private child copy — the kOnDemandHuge mechanism reused as a
        // zero-allocation fallback. The chunk still COWs lazily, just one level higher.
        SharePmdEntry(state, &src[i], &dst[i], entry);
        CountVm(VmCounter::k_fork_degrade_classic);
        ODF_TRACE(fork_degrade_classic, state.pid, i * EntrySpan(PtLevel::kPud),
                  static_cast<uint64_t>(DegradeFlavor::kOdfSharePmd));
        continue;
      }
      // A PUD table cannot be shared (no refcounted drop path above the PMD level): the
      // fork fails and the caller rolls back the partially built child.
      return false;
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
  ShareState state{&parent.allocator(), counters};
  state.pid = parent.owner_pid();
  state.share_pmd_tables = share_pmd_tables;
  bool ok = ShareLevel(state, parent.pgd(), child.pgd(), PtLevel::kPgd);
  if (counters != nullptr) {
    counters->pte_tables_shared += state.pte_tables_shared;
    counters->pmd_tables_shared += state.pmd_tables_shared;
  }
  CountVm(VmCounter::k_pte_tables_shared, state.pte_tables_shared);
  CountVm(VmCounter::k_pmd_tables_shared, state.pmd_tables_shared);
  if (profile != nullptr) {
    profile->upper_level_ns += sw.ElapsedNanos();
    profile->pte_tables_visited += state.pte_tables_shared;
  }
  return ok;
}

}  // namespace odf
