#include "src/mm/range_ops.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <span>

#include "src/debug/lockdep.h"
#include "src/pt/mm_locks.h"
#include "src/trace/metrics.h"
#include "src/trace/trace.h"
#include "src/util/log.h"

namespace odf {

namespace {

// Deferred-cost histograms for the on-demand table COW path (paper Table 1).
LatencyHistogram& PteTableCowHistogram() {
  static LatencyHistogram& h =
      MetricsRegistry::Global().RegisterHistogram("fault_cow_pte_table_ns");
  return h;
}
LatencyHistogram& PmdTableCowHistogram() {
  static LatencyHistogram& h =
      MetricsRegistry::Global().RegisterHistogram("fault_cow_pmd_table_ns");
  return h;
}

// Number of split locks; hashing table frames across a small array mirrors the kernel's
// per-table page locks without per-frame storage.
constexpr size_t kSplitLockCount = 64;

// All 64 split locks are one lockdep class; no code path nests two of them (dedicate
// releases the lock before any further acquisition), which the validator enforces.
debug::LockClass g_pt_split_lock_class("mm::PtSplitLock");

bool TableIsEmpty(FrameAllocator& allocator, FrameId table) {
  const uint64_t* entries = allocator.TableEntries(table);
  for (uint64_t i = 0; i < kEntriesPerTable; ++i) {
    if (!LoadEntry(&entries[i]).IsNone()) {
      return false;
    }
  }
  return true;
}

bool TableIsShared(FrameAllocator& allocator, FrameId table) {
  return allocator.GetMeta(table).pt_share_count.load(std::memory_order_acquire) > 1;
}

// Clears the PTE entries [0, count) of `entries`. Swap entries release their slot; poison
// markers carry no references (the quarantine pin is the allocator's) and simply go. The
// compound heads of the present pages are written to `heads` and their number returned: the
// caller drops them with one DecRefBatch (one shared-pool lock round-trip for the whole
// range, docs/performance.md) once no reader can reach them any more.
size_t ClearPteEntries(FrameAllocator& allocator, SwapSpace* swap, uint64_t* entries,
                       size_t count, FrameId* heads) {
  size_t mapped = 0;
  for (size_t i = 0; i < count; ++i) {
    Pte entry = LoadEntry(&entries[i]);
    if (entry.IsPresent()) {
      FrameId frame = entry.frame();
      heads[mapped++] = ResolveCompoundHead(allocator.GetMeta(frame), frame);
    } else if (entry.IsSwap()) {
      ODF_CHECK(swap != nullptr) << "swap entry without a swap device";
      swap->DecRef(entry.swap_slot());
    } else if (!entry.IsHwPoison()) {
      continue;  // Nothing mapped here.
    }
    StoreEntry(&entries[i], Pte());
  }
  return mapped;
}

// What DedicateTable counts and drops, per level of the entry that points at the shared
// table: row 0 for kPmd, row 1 for kPud.
struct DedicateRow {
  util::RelaxedCounter MmStats::*cow_faults;
  util::RelaxedCounter MmStats::*fixups;
  VmCounter cow_counter;
  VmCounter fixup_counter;
  TraceEventId cow_event;
  TraceEventId fixup_event;
  LatencyHistogram& (*histogram)();
  bool (*drop)(FrameAllocator&, SwapSpace*, FrameId);
};

constexpr DedicateRow kDedicateRows[] = {
    // kPmd: a PTE table (§3.4).
    {&MmStats::pte_table_cow_faults, &MmStats::pte_table_fixups, VmCounter::k_pte_table_cow,
     VmCounter::k_pte_table_fixup, TraceEventId::k_fault_cow_pte_table,
     TraceEventId::k_fault_pte_table_fixup, PteTableCowHistogram, DropPteTableReference},
    // kPud: a PMD table (§4 extension).
    {&MmStats::pmd_table_cow_faults, &MmStats::pmd_table_fixups, VmCounter::k_pmd_table_cow,
     VmCounter::k_pmd_table_fixup, TraceEventId::k_fault_cow_pmd_table,
     TraceEventId::k_fault_pmd_table_fixup, PmdTableCowHistogram, DropPmdTableReference},
};

}  // namespace

util::Mutex& PtSplitLock(FrameId table) {
  static std::array<util::Mutex, kSplitLockCount> locks;
  return locks[table % kSplitLockCount];
}

void PutMappedPage(FrameAllocator& allocator, Pte entry, bool huge) {
  FrameId frame = entry.frame();
  if (huge) {
    ODF_DCHECK(allocator.GetMeta(frame).IsCompoundHead());
    allocator.DecRef(frame);
    return;
  }
  PageMeta& meta = allocator.GetMeta(frame);
  allocator.DecRef(ResolveCompoundHead(meta, frame));
}

template <typename Profile>
uint64_t CopyPteEntries(FrameAllocator& allocator, SwapSpace* swap, uint64_t* src,
                        uint64_t* dst, size_t count, bool wrprotect, Profile profile) {
  std::array<size_t, kEntriesPerTable> indices;
  std::array<FrameId, kEntriesPerTable> heads;
  size_t present = 0;
  uint64_t swapped = 0;
  for (size_t i = 0; i < count; ++i) {
    Pte entry = LoadEntry(&src[i]);
    if (entry.IsSwap()) {
      // Both copies reference the immutable slot; each side swaps in its own page on fault.
      ODF_CHECK(swap != nullptr) << "swap entry without a swap device";
      swap->IncRef(entry.swap_slot());
      StoreEntry(&dst[i], entry);
      ++swapped;
      continue;
    }
    if (entry.IsHwPoison()) {
      // The copy's VA is as lost as the original's; markers are refcount-free.
      StoreEntry(&dst[i], entry);
      continue;
    }
    if (!entry.IsPresent()) {
      continue;
    }
    FrameId frame = entry.frame();
    PageMeta& meta = allocator.GetMeta(frame);          // struct page lookup.
    heads[present] = ResolveCompoundHead(meta, frame);  // compound_head().
    indices[present] = i;
    ++present;
  }
  profile.Lap(CopyPass::kMetaResolve);

  allocator.IncRefBatch(std::span<const FrameId>(heads.data(), present));
  profile.Lap(CopyPass::kRefcount);

  for (size_t k = 0; k < present; ++k) {
    size_t i = indices[k];
    Pte entry = LoadEntry(&src[i]);
    // The accessed bit is duplicated as-is (§3.2).
    if (wrprotect && entry.IsWritable()) {
      entry = entry.WithoutFlag(kPteWritable);
      StoreEntry(&src[i], entry);
    }
    StoreEntry(&dst[i], entry);
  }
  profile.Lap(CopyPass::kEntryCopy);
  return present + swapped;
}

template uint64_t CopyPteEntries<NoCopyProfile>(FrameAllocator&, SwapSpace*, uint64_t*,
                                                uint64_t*, size_t, bool, NoCopyProfile);
template uint64_t CopyPteEntries<TimedCopyProfile>(FrameAllocator&, SwapSpace*, uint64_t*,
                                                   uint64_t*, size_t, bool,
                                                   TimedCopyProfile);

PmdCopyCounts CopyPmdEntries(FrameAllocator& allocator, uint64_t* src, uint64_t* dst,
                             size_t count) {
  std::array<size_t, kEntriesPerTable> indices;
  std::array<FrameId, kEntriesPerTable> huge_heads;
  std::array<FrameId, kEntriesPerTable> pte_tables;
  size_t present = 0;
  size_t huge_count = 0;
  size_t table_count = 0;
  for (size_t i = 0; i < count; ++i) {
    Pte entry = LoadEntry(&src[i]);
    if (!entry.IsPresent()) {
      continue;
    }
    if (entry.IsHuge()) {
      huge_heads[huge_count++] = entry.frame();
    } else {
      pte_tables[table_count++] = entry.frame();
    }
    indices[present++] = i;
  }
  allocator.IncRefBatch(std::span<const FrameId>(huge_heads.data(), huge_count));
  allocator.IncPtShareBatch(std::span<const FrameId>(pte_tables.data(), table_count));
  for (size_t k = 0; k < present; ++k) {
    size_t i = indices[k];
    Pte entry = LoadEntry(&src[i]);
    if (entry.IsWritable()) {
      entry = entry.WithoutFlag(kPteWritable);
      StoreEntry(&src[i], entry);
    }
    StoreEntry(&dst[i], entry);
  }
  return PmdCopyCounts{huge_count, table_count};
}

void ShareTableEntry(FrameAllocator& allocator, uint64_t* src_slot, uint64_t* dst_slot) {
  Pte entry = LoadEntry(src_slot);
  ODF_DCHECK(entry.IsPresent() && !entry.IsHuge());
  allocator.IncPtShare(entry.frame());
  Pte shared_entry = entry.WithoutFlag(kPteWritable);
  StoreEntry(src_slot, shared_entry);
  StoreEntry(dst_slot, shared_entry);
}

bool DropPteTableReference(FrameAllocator& allocator, SwapSpace* swap, FrameId table) {
  if (allocator.DecPtShare(table) != 1) {
    return false;
  }
  // Last reference: release the per-page references and swap slots this table holds on
  // behalf of all its (former) sharers, then free the table frame itself.
  std::array<FrameId, kEntriesPerTable> heads;
  size_t mapped =
      ClearPteEntries(allocator, swap, allocator.TableEntries(table), kEntriesPerTable,
                      heads.data());
  // The caller bumped every covered shard generation before dropping its last table
  // share (ZapRange's "unlink, bump, THEN drop" ordering); by the time this runs no
  // lock-free reader can pass its generation recheck.
  // odf-lint: allow(gen-before-free)
  allocator.DecRefBatch(std::span<const FrameId>(heads.data(), mapped));
  // Freed at once: the caller holds a lock that excludes every walker that can still
  // reach this table (docs/performance.md "Freeing a page table"). No translation caches
  // a table frame, so the free owes no generation bump of its own.
  // odf-lint: allow(gen-before-free)
  allocator.DecRef(table);
  return true;
}

bool DropPmdTableReference(FrameAllocator& allocator, SwapSpace* swap, FrameId table) {
  if (allocator.DecPtShare(table) != 1) {
    return false;
  }
  // Last reference: release whatever the PMD table maps — huge pages directly (batched),
  // PTE tables transitively (each of which batch-puts its own pages at zero).
  uint64_t* entries = allocator.TableEntries(table);
  std::array<FrameId, kEntriesPerTable> huge_heads;
  size_t huge_count = 0;
  for (uint64_t i = 0; i < kEntriesPerTable; ++i) {
    Pte entry = LoadEntry(&entries[i]);
    if (!entry.IsPresent()) {
      continue;
    }
    if (entry.IsHuge()) {
      ODF_DCHECK(allocator.GetMeta(entry.frame()).IsCompoundHead());
      huge_heads[huge_count++] = entry.frame();
    } else {
      DropPteTableReference(allocator, swap, entry.frame());
    }
    StoreEntry(&entries[i], Pte());
  }
  // Same contract as DropPteTableReference: the caller's range invalidation already
  // bumped the covered generations.
  // odf-lint: allow(gen-before-free)
  allocator.DecRefBatch(std::span<const FrameId>(huge_heads.data(), huge_count));
  // Freed at once, by the same rule as in DropPteTableReference.
  // odf-lint: allow(gen-before-free)
  allocator.DecRef(table);
  return true;
}

FrameId DedicateTable(AddressSpace& as, PtLevel level, Vaddr va, uint64_t* slot,
                      AllocPolicy policy) {
  ODF_DCHECK(level == PtLevel::kPmd || level == PtLevel::kPud);
  FrameAllocator& allocator = as.allocator();
  const DedicateRow& row = kDedicateRows[level == PtLevel::kPmd ? 0 : 1];
  const bool tracing = trace::Enabled();
  const uint64_t t0 = tracing ? trace::NowNanos() : 0;
  const Vaddr base = EntryBase(va, level);
  const Vaddr end = base + EntrySpan(level);
  Pte entry = LoadEntry(slot);
  ODF_DCHECK(entry.IsPresent() && !entry.IsHuge());
  FrameId shared = entry.frame();

  // Allocate the private table BEFORE taking the split lock: a NOFAIL allocation may block
  // in direct reclaim (which takes the MmGate exclusively), and no lock may be held at a
  // quota-wait point (src/pt/mm_gate.h). The fixup path below frees the spare.
  FrameId dedicated = policy == AllocPolicy::kTry ? TryAllocPageTable(allocator)
                                                  : AllocPageTable(allocator);
  if (dedicated == kInvalidFrame) {
    // kTry only: nothing has been mutated; the caller unwinds or degrades.
    return kInvalidFrame;
  }

  debug::MutexGuard guard(PtSplitLock(shared), g_pt_split_lock_class);
  // Concurrent-faulter recheck: another thread may have dedicated this slot between our
  // pre-lock snapshot and the split-lock acquisition. Publishing the stale snapshot's
  // spare would clobber its repoint, so bail out and use what is there now. Identity is
  // the referenced frame — flag-only changes (a walker's accessed-bit fetch_or, a racing
  // fixup's writable re-enable) keep the same table and fall through to the share count.
  {
    Pte current = LoadEntry(slot);
    if (!current.IsPresent() || current.IsHuge() || current.frame() != shared) {
      allocator.DecRef(dedicated);
      return current.IsPresent() && !current.IsHuge() ? current.frame() : kInvalidFrame;
    }
  }
  uint32_t share = allocator.GetMeta(shared).pt_share_count.load(std::memory_order_acquire);
  ODF_DCHECK(share >= 1);
  if (share == 1) {
    // The other sharers went away while we were faulting: the table is already ours.
    // Re-enable the hierarchical write permission and keep it (paper §3.4: "both the
    // previously shared table and the new table become dedicated").
    allocator.DecRef(dedicated);
    StoreEntry(slot, entry.WithFlag(kPteWritable));
    as.locks().InvalidateRange(base, end);
    ++(as.stats().*row.fixups);
    CountVm(row.fixup_counter);
    ODF_TRACE_ID(row.fixup_event, as.owner_pid(), base, shared);
    return shared;
  }

  // This is the deferred cost the paper measures in Table 1: the level's copier, with one
  // batched reference call per kind of reference for the whole table.
  uint64_t* src = allocator.TableEntries(shared);
  uint64_t* dst = allocator.TableEntries(dedicated);
  if (level == PtLevel::kPmd) {
    CopyPteEntries(allocator, as.swap_space(), src, dst, kEntriesPerTable,
                   /*wrprotect=*/true, NoCopyProfile());
  } else {
    CopyPmdEntries(allocator, src, dst, kEntriesPerTable);
  }
  // Repoint this address space's entry at the private copy, restoring write permission at
  // this level, and drop our reference to the shared table.
  StoreEntry(slot, Pte::Make(dedicated, kPtePresent | kPteWritable | kPteUser |
                                            (entry.flags() & kPteAccessed)));
  as.locks().InvalidateRange(base, end);
  // The share count was >= 2 under the split lock, but an exiting sharer drops its share
  // without that lock (ZapRange), so ours may be the last one by now: drop it the full
  // way, or the shared table and the references it holds would leak.
  row.drop(allocator, as.swap_space(), shared);
  ++(as.stats().*row.cow_faults);
  CountVm(row.cow_counter);
  if (tracing) {
    uint64_t ns = trace::NowNanos() - t0;
    ODF_TRACE_ID(row.cow_event, as.owner_pid(), base, ns);
    row.histogram().RecordNanos(ns);
  }
  return dedicated;
}

bool EnsureExclusivePath(AddressSpace& as, Vaddr va, AllocPolicy policy) {
  // Top down, so the PTE-level lookup reads this space's own (dedicated) PMD table.
  for (PtLevel level : {PtLevel::kPud, PtLevel::kPmd}) {
    uint64_t* slot = as.walker().FindEntry(as.pgd(), va, level);
    if (slot == nullptr) {
      return true;
    }
    Pte entry = LoadEntry(slot);
    if (entry.IsPresent() && !entry.IsHuge() && TableIsShared(as.allocator(), entry.frame()) &&
        DedicateTable(as, level, va, slot, policy) == kInvalidFrame) {
      return false;
    }
  }
  return true;
}

bool RangeHasLiveVma(const AddressSpace& as, Vaddr lo, Vaddr hi) {
  if (lo >= hi) {
    return false;
  }
  const auto& vmas = as.vmas();
  auto it = vmas.upper_bound(lo);
  if (it != vmas.begin()) {
    auto prev = std::prev(it);
    if (prev->second.Overlaps(lo, hi)) {
      return true;
    }
  }
  return it != vmas.end() && it->second.Overlaps(lo, hi);
}

void ZapRange(AddressSpace& as, Vaddr start, Vaddr end) {
  FrameAllocator& allocator = as.allocator();
  Walker& walker = as.walker();
  start = PageAlignDown(start);
  end = PageAlignUp(end);

  Vaddr chunk_base = start & ~(kPteTableSpan - 1);
  for (; chunk_base < end; chunk_base += kPteTableSpan) {
    Vaddr chunk_end = chunk_base + kPteTableSpan;
    Vaddr lo = std::max(chunk_base, start);
    Vaddr hi = std::min(chunk_end, end);

    // §4 extension: a shared PMD table (kOnDemandHuge) covers this chunk's whole 1 GiB PUD
    // span. Either drop the span's reference wholesale (nothing else lives there) or
    // dedicate it before mutating anything below.
    uint64_t* pud_slot = walker.FindEntry(as.pgd(), chunk_base, PtLevel::kPud);
    if (pud_slot != nullptr) {
      Pte pud = LoadEntry(pud_slot);
      if (pud.IsPresent() && TableIsShared(allocator, pud.frame())) {
        Vaddr pud_base = EntryBase(chunk_base, PtLevel::kPud);
        Vaddr pud_end = pud_base + EntrySpan(PtLevel::kPud);
        Vaddr covered_lo = std::max(pud_base, start);
        Vaddr covered_hi = std::min(pud_end, end);
        bool remainder_live = RangeHasLiveVma(as, pud_base, covered_lo) ||
                              RangeHasLiveVma(as, covered_hi, pud_end);
        if (!remainder_live) {
          // Gen-before-free: unlink, bump the shard generations, THEN drop the references
          // (so a lock-free reader's pin-then-generation-recheck can never keep a frame
          // that this drop frees).
          StoreEntry(pud_slot, Pte());
          as.locks().InvalidateRange(pud_base, pud_end);
          DropPmdTableReference(allocator, as.swap_space(), pud.frame());
          // Skip the rest of this PUD span (the loop increment adds one chunk).
          chunk_base = std::min(pud_end, end) - kPteTableSpan;
          continue;
        }
        DedicateTable(as, PtLevel::kPud, pud_base, pud_slot);
      }
    }

    uint64_t* pmd_slot = walker.FindEntry(as.pgd(), chunk_base, PtLevel::kPmd);
    if (pmd_slot == nullptr) {
      continue;
    }
    Pte pmd = LoadEntry(pmd_slot);
    if (!pmd.IsPresent()) {
      continue;
    }

    if (pmd.IsHuge()) {
      // Huge mappings are unmapped at 2 MiB granularity (enforced by AddressSpace::Unmap).
      ODF_CHECK(lo == chunk_base && hi == chunk_end)
          << "partial unmap of a huge mapping is not supported";
      StoreEntry(pmd_slot, Pte());
      as.locks().InvalidateRange(lo, hi);  // Gen-before-free.
      PutMappedPage(allocator, pmd, /*huge=*/true);
      continue;
    }

    FrameId table = pmd.frame();
    bool full_chunk = (lo == chunk_base && hi == chunk_end);

    if (TableIsShared(allocator, table)) {
      // §3.3: if no live VMA still needs entries in this 2 MiB span, just drop our
      // reference; otherwise COW the table and zap only our part of the private copy.
      bool remainder_live = !full_chunk && (RangeHasLiveVma(as, chunk_base, lo) ||
                                            RangeHasLiveVma(as, hi, chunk_end));
      if (!remainder_live) {
        StoreEntry(pmd_slot, Pte());
        as.locks().InvalidateRange(chunk_base, chunk_end);  // Gen-before-free.
        DropPteTableReference(allocator, as.swap_space(), table);
        continue;
      }
      table = DedicateTable(as, PtLevel::kPmd, chunk_base, pmd_slot);
    }

    if (full_chunk) {
      StoreEntry(pmd_slot, Pte());
      as.locks().InvalidateRange(chunk_base, chunk_end);  // Gen-before-free.
      // Last ref: puts every mapped page and swap slot.
      DropPteTableReference(allocator, as.swap_space(), table);
      continue;
    }

    std::array<FrameId, kEntriesPerTable> heads;
    size_t mapped = ClearPteEntries(
        allocator, as.swap_space(),
        allocator.TableEntries(table) + TableIndex(lo, PtLevel::kPte),
        (hi - lo) / kPageSize, heads.data());
    as.locks().InvalidateRange(lo, hi);  // Gen-before-free: entries above are already clear.
    allocator.DecRefBatch(std::span<const FrameId>(heads.data(), mapped));
    if (TableIsEmpty(allocator, table)) {
      StoreEntry(pmd_slot, Pte());
      DropPteTableReference(allocator, as.swap_space(), table);
    }
  }
}

void MovePageRange(AddressSpace& as, Vaddr old_start, Vaddr new_start, uint64_t length) {
  Walker& walker = as.walker();
  ODF_CHECK(IsPageAligned(old_start) && IsPageAligned(new_start) && IsPageAligned(length));

  // Dedicate any shared table touched by the source range first (§3.3: remap performs COW on
  // shared page tables), so moving entries out cannot corrupt other sharers.
  for (Vaddr chunk = old_start & ~(kPteTableSpan - 1); chunk < old_start + length;
       chunk += kPteTableSpan) {
    EnsureExclusivePath(as, chunk);
  }

  for (uint64_t offset = 0; offset < length; offset += kPageSize) {
    uint64_t* src_slot = walker.FindEntry(as.pgd(), old_start + offset, PtLevel::kPte);
    if (src_slot == nullptr) {
      continue;
    }
    Pte entry = LoadEntry(src_slot);
    if (entry.IsNone()) {
      continue;  // Neither present nor swapped: nothing to move.
    }
    Vaddr dest_va = new_start + offset;
    // The destination chunk's table could itself be shared (a neighbouring VMA forked
    // earlier maps the same 2 MiB span): dedicate before inserting.
    EnsureExclusivePath(as, dest_va);
    uint64_t* dst_slot = walker.EnsureEntry(as.pgd(), dest_va, PtLevel::kPte);
    ODF_DCHECK(!LoadEntry(dst_slot).IsPresent()) << "mremap destination already mapped";
    StoreEntry(dst_slot, entry);
    StoreEntry(src_slot, Pte());
  }
  as.locks().InvalidateRange(old_start, old_start + length);
  as.locks().InvalidateRange(new_start, new_start + length);
}

void ProtectRange(AddressSpace& as, Vaddr start, Vaddr end, uint32_t prot) {
  if ((prot & kProtWrite) != 0) {
    // Permission widening takes effect lazily through the fault handler.
    return;
  }
  FrameAllocator& allocator = as.allocator();
  Walker& walker = as.walker();
  for (Vaddr chunk = start & ~(kPteTableSpan - 1); chunk < end; chunk += kPteTableSpan) {
    uint64_t* pud_slot = walker.FindEntry(as.pgd(), chunk, PtLevel::kPud);
    if (pud_slot != nullptr) {
      Pte pud = LoadEntry(pud_slot);
      if (pud.IsPresent() && TableIsShared(allocator, pud.frame())) {
        // A shared PMD table is already write-protected at the PUD level; the fault handler
        // consults the VMA before any COW, so the downgrade needs no structural change.
        continue;
      }
    }
    uint64_t* pmd_slot = walker.FindEntry(as.pgd(), chunk, PtLevel::kPmd);
    if (pmd_slot == nullptr) {
      continue;
    }
    Pte pmd = LoadEntry(pmd_slot);
    if (!pmd.IsPresent()) {
      continue;
    }
    if (pmd.IsHuge()) {
      StoreEntry(pmd_slot, pmd.WithoutFlag(kPteWritable));
      continue;
    }
    FrameId table = pmd.frame();
    if (TableIsShared(allocator, table)) {
      // Already write-protected at the PMD level; the fault handler consults the VMA before
      // any COW, so a write into the downgraded range SEGVs without table changes.
      continue;
    }
    uint64_t* entries = allocator.TableEntries(table);
    Vaddr lo = std::max(chunk, start);
    Vaddr hi = std::min(chunk + kPteTableSpan, end);
    for (Vaddr va = lo; va < hi; va += kPageSize) {
      uint64_t* slot = &entries[TableIndex(va, PtLevel::kPte)];
      Pte entry = LoadEntry(slot);
      if (entry.IsPresent() && entry.IsWritable()) {
        StoreEntry(slot, entry.WithoutFlag(kPteWritable));
      }
    }
  }
  as.locks().InvalidateRange(start, end);
}

namespace {

void FreeTableRecursive(FrameAllocator& allocator, SwapSpace* swap, FrameId table,
                        PtLevel level) {
  uint64_t* entries = allocator.TableEntries(table);
  for (uint64_t i = 0; i < kEntriesPerTable; ++i) {
    Pte entry = LoadEntry(&entries[i]);
    if (!entry.IsPresent()) {
      continue;
    }
    if (level == PtLevel::kPud) {
      // PMD tables may be shared (§4 extension) or hold leftover leaf state; dropping the
      // reference handles both (the last dropper releases huge pages and PTE tables).
      DropPmdTableReference(allocator, swap, entry.frame());
      StoreEntry(&entries[i], Pte());
      continue;
    }
    FreeTableRecursive(allocator, swap, entry.frame(), NextLevel(level));
    StoreEntry(&entries[i], Pte());
  }
  // Teardown: no walker of this address space runs (see AddressSpace::TearDown), and no
  // translation caches a table frame.
  // odf-lint: allow(gen-before-free)
  allocator.DecRef(table);
}

}  // namespace

void FreePageTables(AddressSpace& as) {
  FreeTableRecursive(as.allocator(), as.swap_space(), as.pgd(), PtLevel::kPgd);
}

}  // namespace odf
