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

bool DropPteTableReference(FrameAllocator& allocator, SwapSpace* swap, FrameId table) {
  if (allocator.DecPtShare(table) != 1) {
    return false;
  }
  // Last reference: release the per-page references this table holds on behalf of all its
  // (former) sharers, then free the table frame itself. Swap entries release their slot.
  // The per-page drops go through DecRefBatch so the whole table costs one shared-pool lock
  // round-trip, not one per entry that hits refcount zero (docs/performance.md).
  uint64_t* entries = allocator.TableEntries(table);
  std::array<FrameId, kEntriesPerTable> heads;
  size_t mapped = 0;
  for (uint64_t i = 0; i < kEntriesPerTable; ++i) {
    Pte entry = LoadEntry(&entries[i]);
    if (entry.IsPresent()) {
      FrameId frame = entry.frame();
      heads[mapped++] = ResolveCompoundHead(allocator.GetMeta(frame), frame);
      StoreEntry(&entries[i], Pte());
    } else if (entry.IsSwap()) {
      ODF_CHECK(swap != nullptr) << "swap entry without a swap device";
      swap->DecRef(entry.swap_slot());
      StoreEntry(&entries[i], Pte());
    } else if (entry.IsHwPoison()) {
      // Poison markers carry no references (the quarantine pin is the allocator's); the
      // tombstone simply dies with the table.
      StoreEntry(&entries[i], Pte());
    }
  }
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

FrameId DedicatePmdTable(AddressSpace& as, Vaddr pud_span_base, uint64_t* pud_slot,
                         AllocPolicy policy) {
  FrameAllocator& allocator = as.allocator();
  const bool tracing = trace::Enabled();
  const uint64_t t0 = tracing ? trace::NowNanos() : 0;
  Pte pud = LoadEntry(pud_slot);
  ODF_DCHECK(pud.IsPresent() && !pud.IsHuge());
  FrameId shared = pud.frame();

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
    Pte current = LoadEntry(pud_slot);
    if (!current.IsPresent() || current.IsHuge() || current.frame() != shared) {
      allocator.DecRef(dedicated);
      return current.IsPresent() && !current.IsHuge() ? current.frame() : kInvalidFrame;
    }
  }
  PageMeta& shared_meta = allocator.GetMeta(shared);
  uint32_t share = shared_meta.pt_share_count.load(std::memory_order_acquire);
  ODF_DCHECK(share >= 1);
  Vaddr span_end = pud_span_base + EntrySpan(PtLevel::kPud);
  if (share == 1) {
    allocator.DecRef(dedicated);  // The other sharers went away: the spare is unused.
    StoreEntry(pud_slot, pud.WithFlag(kPteWritable));
    as.locks().InvalidateRange(pud_span_base, span_end);
    ++as.stats().pmd_table_fixups;
    CountVm(VmCounter::k_pmd_table_fixup);
    ODF_TRACE(fault_pmd_table_fixup, as.owner_pid(), pud_span_base, shared);
    return shared;
  }

  uint64_t* src = allocator.TableEntries(shared);
  uint64_t* dst = allocator.TableEntries(dedicated);
  // Collect first, then take every reference in two batch calls (huge-page refcounts and
  // PTE-table share counts), then publish the entries — all references exist before any
  // entry of the new table is visible.
  std::array<uint64_t, kEntriesPerTable> indices;
  std::array<FrameId, kEntriesPerTable> huge_heads;
  std::array<FrameId, kEntriesPerTable> pte_tables;
  size_t present = 0;
  size_t huge_count = 0;
  size_t table_count = 0;
  for (uint64_t i = 0; i < kEntriesPerTable; ++i) {
    Pte entry = LoadEntry(&src[i]);
    if (!entry.IsPresent()) {
      continue;
    }
    if (entry.IsHuge()) {
      // A reference on the 2 MiB compound page; both entries stay COW-protected.
      huge_heads[huge_count++] = entry.frame();
    } else {
      // The copy becomes one more sharer of the PTE table below.
      pte_tables[table_count++] = entry.frame();
    }
    indices[present++] = i;
  }
  allocator.IncRefBatch(std::span<const FrameId>(huge_heads.data(), huge_count));
  allocator.IncPtShareBatch(std::span<const FrameId>(pte_tables.data(), table_count));
  for (size_t k = 0; k < present; ++k) {
    uint64_t i = indices[k];
    Pte entry = LoadEntry(&src[i]);
    if (entry.IsWritable()) {
      Pte protected_entry = entry.WithoutFlag(kPteWritable);
      StoreEntry(&src[i], protected_entry);
      entry = protected_entry;
    }
    StoreEntry(&dst[i], entry);
  }
  StoreEntry(pud_slot, Pte::Make(dedicated, kPtePresent | kPteWritable | kPteUser |
                                                (pud.flags() & kPteAccessed)));
  as.locks().InvalidateRange(pud_span_base, span_end);
  // As in DedicatePteTable: a sharer exiting meanwhile may have left ours the last share.
  DropPmdTableReference(allocator, as.swap_space(), shared);
  ++as.stats().pmd_table_cow_faults;
  CountVm(VmCounter::k_pmd_table_cow);
  if (tracing) {
    uint64_t ns = trace::NowNanos() - t0;
    ODF_TRACE(fault_cow_pmd_table, as.owner_pid(), pud_span_base, ns);
    PmdTableCowHistogram().RecordNanos(ns);
  }
  return dedicated;
}

bool EnsureExclusivePmdPath(AddressSpace& as, Vaddr va, AllocPolicy policy) {
  uint64_t* pud_slot = as.walker().FindEntry(as.pgd(), va, PtLevel::kPud);
  if (pud_slot == nullptr) {
    return true;
  }
  Pte pud = LoadEntry(pud_slot);
  if (!pud.IsPresent() || pud.IsHuge()) {
    return true;
  }
  if (as.allocator().GetMeta(pud.frame()).pt_share_count.load(std::memory_order_acquire) >
      1) {
    return DedicatePmdTable(as, EntryBase(va, PtLevel::kPud), pud_slot, policy) !=
           kInvalidFrame;
  }
  return true;
}

FrameId DedicatePteTable(AddressSpace& as, Vaddr chunk_base, uint64_t* pmd_slot,
                         AllocPolicy policy) {
  FrameAllocator& allocator = as.allocator();
  const bool tracing = trace::Enabled();
  const uint64_t t0 = tracing ? trace::NowNanos() : 0;
  Pte pmd = LoadEntry(pmd_slot);
  ODF_DCHECK(pmd.IsPresent() && !pmd.IsHuge());
  FrameId shared = pmd.frame();

  // Allocate the private table BEFORE taking the split lock (see DedicatePmdTable: no lock
  // may be held at a quota-wait point). The fixup path below frees the spare.
  FrameId dedicated = policy == AllocPolicy::kTry ? TryAllocPageTable(allocator)
                                                  : AllocPageTable(allocator);
  if (dedicated == kInvalidFrame) {
    // kTry only: nothing has been mutated; the caller unwinds or degrades.
    return kInvalidFrame;
  }

  debug::MutexGuard guard(PtSplitLock(shared), g_pt_split_lock_class);
  // Concurrent-faulter recheck (see DedicatePmdTable): a racing thread that won the split
  // lock first may already have repointed this PMD slot at its own dedicated table.
  {
    Pte current = LoadEntry(pmd_slot);
    if (!current.IsPresent() || current.IsHuge() || current.frame() != shared) {
      allocator.DecRef(dedicated);
      return current.IsPresent() && !current.IsHuge() ? current.frame() : kInvalidFrame;
    }
  }
  PageMeta& shared_meta = allocator.GetMeta(shared);
  uint32_t share = shared_meta.pt_share_count.load(std::memory_order_acquire);
  ODF_DCHECK(share >= 1);
  if (share == 1) {
    // The other sharers went away while we were faulting: the table is already ours.
    // Re-enable the hierarchical write permission and keep it (paper §3.4: "both the
    // previously shared table and the new table become dedicated").
    allocator.DecRef(dedicated);
    StoreEntry(pmd_slot, pmd.WithFlag(kPteWritable));
    as.locks().InvalidateRange(chunk_base, chunk_base + kPteTableSpan);
    ++as.stats().pte_table_fixups;
    CountVm(VmCounter::k_pte_table_fixup);
    ODF_TRACE(fault_pte_table_fixup, as.owner_pid(), chunk_base, shared);
    return shared;
  }

  uint64_t* src = allocator.TableEntries(shared);
  uint64_t* dst = allocator.TableEntries(dedicated);
  // This is the deferred cost the paper measures in Table 1: one metadata lookup per entry,
  // and (now) ONE batched refcount call for the whole table. References are taken before any
  // entry of the new table is published.
  std::array<uint64_t, kEntriesPerTable> indices;
  std::array<FrameId, kEntriesPerTable> heads;
  size_t present = 0;
  for (uint64_t i = 0; i < kEntriesPerTable; ++i) {
    Pte entry = LoadEntry(&src[i]);
    if (entry.IsSwap()) {
      // Swapped page: the private copy references the immutable slot too; each side will
      // swap in its own copy on fault (trivially correct COW for swapped pages).
      ODF_CHECK(as.swap_space() != nullptr);
      as.swap_space()->IncRef(entry.swap_slot());
      StoreEntry(&dst[i], entry);
      continue;
    }
    if (entry.IsHwPoison()) {
      // Poison markers copy verbatim: the dedicated table remembers the dead VA too, and
      // markers are refcount-free so there is nothing to IncRef.
      StoreEntry(&dst[i], entry);
      continue;
    }
    if (!entry.IsPresent()) {
      continue;
    }
    FrameId frame = entry.frame();
    PageMeta& meta = allocator.GetMeta(frame);
    heads[present] = ResolveCompoundHead(meta, frame);
    indices[present] = i;
    ++present;
  }
  allocator.IncRefBatch(std::span<const FrameId>(heads.data(), present));
  for (size_t k = 0; k < present; ++k) {
    uint64_t i = indices[k];
    Pte entry = LoadEntry(&src[i]);
    // Write-protect the entry in both copies so the first write to each data page still
    // triggers a per-page COW; the accessed bit is duplicated as-is (§3.2).
    if (entry.IsWritable()) {
      Pte protected_entry = entry.WithoutFlag(kPteWritable);
      StoreEntry(&src[i], protected_entry);
      entry = protected_entry;
    }
    StoreEntry(&dst[i], entry);
  }
  // Repoint this address space's PMD entry at the private copy, restoring write permission
  // at the PMD level, and drop our reference to the shared table.
  StoreEntry(pmd_slot, Pte::Make(dedicated, kPtePresent | kPteWritable | kPteUser |
                                                (pmd.flags() & kPteAccessed)));
  as.locks().InvalidateRange(chunk_base, chunk_base + kPteTableSpan);
  // The share count was >= 2 under the split lock, but an exiting sharer drops its share
  // without that lock (ZapRange), so ours may be the last one by now: drop it the full
  // way, or the shared table and the page references it holds would leak.
  DropPteTableReference(allocator, as.swap_space(), shared);
  ++as.stats().pte_table_cow_faults;
  CountVm(VmCounter::k_pte_table_cow);
  if (tracing) {
    uint64_t ns = trace::NowNanos() - t0;
    ODF_TRACE(fault_cow_pte_table, as.owner_pid(), chunk_base, ns);
    PteTableCowHistogram().RecordNanos(ns);
  }
  return dedicated;
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
      if (pud.IsPresent() &&
          allocator.GetMeta(pud.frame()).pt_share_count.load(std::memory_order_acquire) >
              1) {
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
        DedicatePmdTable(as, pud_base, pud_slot);
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
    uint32_t share =
        allocator.GetMeta(table).pt_share_count.load(std::memory_order_acquire);

    if (share > 1) {
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
      table = DedicatePteTable(as, chunk_base, pmd_slot);
    }

    if (full_chunk) {
      StoreEntry(pmd_slot, Pte());
      as.locks().InvalidateRange(chunk_base, chunk_end);  // Gen-before-free.
      // Last ref: puts every mapped page and swap slot.
      DropPteTableReference(allocator, as.swap_space(), table);
      continue;
    }

    uint64_t* entries = allocator.TableEntries(table);
    std::array<FrameId, kEntriesPerTable> heads;
    size_t mapped = 0;
    for (Vaddr va = lo; va < hi; va += kPageSize) {
      uint64_t* slot = &entries[TableIndex(va, PtLevel::kPte)];
      Pte entry = LoadEntry(slot);
      if (entry.IsPresent()) {
        FrameId frame = entry.frame();
        heads[mapped++] = ResolveCompoundHead(allocator.GetMeta(frame), frame);
        StoreEntry(slot, Pte());
      } else if (entry.IsSwap()) {
        ODF_CHECK(as.swap_space() != nullptr);
        as.swap_space()->DecRef(entry.swap_slot());
        StoreEntry(slot, Pte());
      } else if (entry.IsHwPoison()) {
        // Unmapping a poisoned VA clears the tombstone; the frame itself stays quarantined
        // (the allocator holds the poison state, not the entry).
        StoreEntry(slot, Pte());
      }
    }
    as.locks().InvalidateRange(lo, hi);  // Gen-before-free: entries above are already clear.
    allocator.DecRefBatch(std::span<const FrameId>(heads.data(), mapped));
    if (TableIsEmpty(allocator, table)) {
      StoreEntry(pmd_slot, Pte());
      DropPteTableReference(allocator, as.swap_space(), table);
    }
  }
}

void MovePageRange(AddressSpace& as, Vaddr old_start, Vaddr new_start, uint64_t length) {
  FrameAllocator& allocator = as.allocator();
  Walker& walker = as.walker();
  ODF_CHECK(IsPageAligned(old_start) && IsPageAligned(new_start) && IsPageAligned(length));

  // Dedicate any shared table touched by the source range first (§3.3: remap performs COW on
  // shared page tables), so moving entries out cannot corrupt other sharers. Shared PMD
  // tables (§4 extension) must become exclusive before the PTE tables below them.
  for (Vaddr chunk = old_start & ~(kPteTableSpan - 1); chunk < old_start + length;
       chunk += kPteTableSpan) {
    EnsureExclusivePmdPath(as, chunk);
    uint64_t* pmd_slot = walker.FindEntry(as.pgd(), chunk, PtLevel::kPmd);
    if (pmd_slot == nullptr) {
      continue;
    }
    Pte pmd = LoadEntry(pmd_slot);
    if (!pmd.IsPresent() || pmd.IsHuge()) {
      continue;
    }
    if (allocator.GetMeta(pmd.frame()).pt_share_count.load(std::memory_order_acquire) > 1) {
      DedicatePteTable(as, chunk, pmd_slot);
    }
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
    EnsureExclusivePmdPath(as, dest_va);
    uint64_t* dest_pmd = walker.EnsureEntry(as.pgd(), dest_va, PtLevel::kPmd);
    Pte dest_pmd_entry = LoadEntry(dest_pmd);
    if (dest_pmd_entry.IsPresent() && !dest_pmd_entry.IsHuge() &&
        allocator.GetMeta(dest_pmd_entry.frame())
                .pt_share_count.load(std::memory_order_acquire) > 1) {
      DedicatePteTable(as, dest_va & ~(kPteTableSpan - 1), dest_pmd);
    }
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
      if (pud.IsPresent() && allocator.GetMeta(pud.frame())
                                     .pt_share_count.load(std::memory_order_acquire) > 1) {
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
    if (allocator.GetMeta(table).pt_share_count.load(std::memory_order_acquire) > 1) {
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
