#include "src/proc/procfs.h"

#include <algorithm>
#include <cinttypes>
#include <sstream>

#include "src/debug/debug.h"
#include "src/debug/lockdep.h"
#include "src/debug/verify.h"
#include "src/fi/fault_inject.h"
#include "src/mm/range_ops.h"
#include "src/proc/kernel.h"
#include "src/replay/recorder.h"
#include "src/trace/metrics.h"
#include "src/util/log.h"

namespace odf {

namespace {

const char* KindName(VmaKind kind) {
  switch (kind) {
    case VmaKind::kAnonPrivate:
      return "anon";
    case VmaKind::kFilePrivate:
      return "file-private";
    case VmaKind::kFileShared:
      return "file-shared";
  }
  return "?";
}

}  // namespace

ProcessMemoryReport BuildMemoryReport(Process& process) {
  AddressSpace& as = process.address_space();
  FrameAllocator& allocator = as.allocator();
  Walker& walker = as.walker();

  ProcessMemoryReport report;
  report.pid = process.pid();
  report.vss_bytes = as.MappedBytes();

  // Count page tables by walking the skeleton once (each table counted exactly once, even
  // when several VMAs map through it). Shared tables contribute a proportional share of
  // their 4 KiB to this process's footprint.
  uint64_t* pgd_entries = allocator.TableEntries(as.pgd());
  report.upper_tables = 1;  // The PGD itself.
  report.page_table_bytes = kPageSize;
  for (uint64_t g = 0; g < kEntriesPerTable; ++g) {
    Pte pud_link = LoadEntry(&pgd_entries[g]);
    if (!pud_link.IsPresent()) {
      continue;
    }
    ++report.upper_tables;  // PUD table.
    report.page_table_bytes += kPageSize;
    uint64_t* pud_entries = allocator.TableEntries(pud_link.frame());
    for (uint64_t u = 0; u < kEntriesPerTable; ++u) {
      Pte pmd_link = LoadEntry(&pud_entries[u]);
      if (!pmd_link.IsPresent()) {
        continue;
      }
      uint32_t pmd_share =
          allocator.GetMeta(pmd_link.frame()).pt_share_count.load(std::memory_order_acquire);
      if (pmd_share > 1) {
        ++report.shared_pmd_tables;
        report.page_table_bytes += kPageSize / pmd_share;
      } else {
        ++report.upper_tables;  // Dedicated PMD table.
        report.page_table_bytes += kPageSize;
      }
      uint64_t* pmd_entries = allocator.TableEntries(pmd_link.frame());
      for (uint64_t m = 0; m < kEntriesPerTable; ++m) {
        Pte pte_link = LoadEntry(&pmd_entries[m]);
        if (!pte_link.IsPresent() || pte_link.IsHuge()) {
          continue;
        }
        uint32_t pte_share = allocator.GetMeta(pte_link.frame())
                                 .pt_share_count.load(std::memory_order_acquire);
        uint64_t sharers = static_cast<uint64_t>(pte_share) * pmd_share;
        if (sharers > 1) {
          ++report.shared_pte_tables;
          report.page_table_bytes += kPageSize / sharers;
        } else {
          ++report.dedicated_pte_tables;
          report.page_table_bytes += kPageSize;
        }
      }
    }
  }

  for (const auto& [start, vma] : as.vmas()) {
    VmaReport entry;
    entry.start = vma.start;
    entry.end = vma.end;
    entry.prot = vma.prot;
    entry.kind = vma.kind;
    entry.huge = vma.huge;

    for (Vaddr chunk = EntryBase(vma.start, PtLevel::kPmd); chunk < vma.end;
         chunk += kPteTableSpan) {
      // Determine the effective table-sharing factor on the path (PMD table share for the
      // §4 extension times PTE table share for base ODF).
      uint64_t* pud_slot = walker.FindEntry(as.pgd(), chunk, PtLevel::kPud);
      if (pud_slot == nullptr) {
        continue;
      }
      Pte pud = LoadEntry(pud_slot);
      if (!pud.IsPresent()) {
        continue;
      }
      uint64_t path_share =
          allocator.GetMeta(pud.frame()).pt_share_count.load(std::memory_order_acquire);
      uint64_t* pmd_slot = walker.FindEntry(as.pgd(), chunk, PtLevel::kPmd);
      if (pmd_slot == nullptr) {
        continue;
      }
      Pte pmd = LoadEntry(pmd_slot);
      if (!pmd.IsPresent()) {
        continue;
      }

      if (pmd.IsHuge()) {
        uint32_t refs = allocator.GetMeta(pmd.frame()).refcount.load();
        uint64_t pages = 1ULL << kHugePageOrder;
        entry.present_pages += pages;
        uint64_t sharers = refs * path_share;
        if (sharers > 1) {
          entry.shared_pages += pages;
        } else {
          entry.private_pages += pages;
        }
        entry.pss_pages += static_cast<double>(pages) / static_cast<double>(sharers);
        continue;
      }

      FrameId table = pmd.frame();
      uint32_t table_share =
          allocator.GetMeta(table).pt_share_count.load(std::memory_order_acquire);
      uint64_t* entries = allocator.TableEntries(table);
      Vaddr lo = std::max(chunk, vma.start);
      Vaddr hi = std::min(chunk + kPteTableSpan, vma.end);
      for (Vaddr va = lo; va < hi; va += kPageSize) {
        Pte pte = LoadEntry(&entries[TableIndex(va, PtLevel::kPte)]);
        if (pte.IsSwap()) {
          ++entry.swapped_pages;
          continue;
        }
        if (!pte.IsPresent()) {
          continue;
        }
        ++entry.present_pages;
        FrameId frame = pte.frame();
        PageMeta& meta = allocator.GetMeta(frame);
        uint32_t refs =
            allocator.GetMeta(ResolveCompoundHead(meta, frame)).refcount.load();
        uint64_t sharers = static_cast<uint64_t>(refs) * table_share * path_share;
        if (vma.kind == VmaKind::kFileShared || sharers > 1) {
          ++entry.shared_pages;
        } else {
          ++entry.private_pages;
        }
        entry.pss_pages += 1.0 / static_cast<double>(sharers);
      }
    }

    report.rss_bytes += entry.present_pages * kPageSize;
    report.swap_bytes += entry.swapped_pages * kPageSize;
    report.pss_bytes += static_cast<uint64_t>(entry.pss_pages * static_cast<double>(kPageSize));
    report.vmas.push_back(std::move(entry));
  }
  return report;
}

std::string FormatSmaps(const ProcessMemoryReport& report) {
  std::ostringstream out;
  for (const VmaReport& vma : report.vmas) {
    char prot[4] = {'-', '-', '-', '\0'};
    if ((vma.prot & kProtRead) != 0) {
      prot[0] = 'r';
    }
    if ((vma.prot & kProtWrite) != 0) {
      prot[1] = 'w';
    }
    out << std::hex << vma.start << "-" << vma.end << std::dec << " " << prot << " "
        << KindName(vma.kind) << (vma.huge ? " (huge)" : "") << "\n";
    out << "  Size:     " << (vma.end - vma.start) / 1024 << " kB\n";
    out << "  Rss:      " << vma.present_pages * kPageSize / 1024 << " kB\n";
    out << "  Pss:      " << static_cast<uint64_t>(vma.pss_pages * 4.0) << " kB\n";
    out << "  Shared:   " << vma.shared_pages * kPageSize / 1024 << " kB\n";
    out << "  Private:  " << vma.private_pages * kPageSize / 1024 << " kB\n";
    out << "  Swap:     " << vma.swapped_pages * kPageSize / 1024 << " kB\n";
  }
  return out.str();
}

std::string FormatStatusLine(const ProcessMemoryReport& report) {
  std::ostringstream out;
  out << "pid " << report.pid << ": VmSize " << report.vss_bytes / 1024 << " kB, VmRSS "
      << report.rss_bytes / 1024 << " kB, Pss " << report.pss_bytes / 1024 << " kB, VmSwap "
      << report.swap_bytes / 1024 << " kB, PT " << report.page_table_bytes / 1024
      << " kB (ded " << report.dedicated_pte_tables << " / shr " << report.shared_pte_tables
      << " PTE tables, " << report.shared_pmd_tables << " shr PMD)";
  return out.str();
}

std::string FormatVmstat(Kernel& kernel) {
  std::ostringstream out;
  // Event counters first (monotonic, vmstat proper), ...
  out << MetricsRegistry::Global().FormatVmstat();
  // ... then the live gauges a real vmstat derives from zone/swap state.
  FrameAllocatorStats frames = kernel.allocator().Stats();
  out << "nr_total_frames " << frames.total_frames << "\n";
  out << "nr_allocated_frames " << frames.allocated_frames << "\n";
  out << "nr_page_table_frames " << frames.page_table_frames << "\n";
  out << "nr_materialized_bytes " << frames.materialized_bytes << "\n";
  out << "nr_pcp_cached_frames " << kernel.allocator().CachedFrames() << "\n";
  SwapStats swap = kernel.swap_space().Stats();
  out << "nr_swap_slots_total " << swap.total_slots << "\n";
  out << "nr_swap_slots_in_use " << swap.slots_in_use << "\n";
  out << "nr_processes " << kernel.ProcessCount() << "\n";
  out << "nr_processes_running " << kernel.RunningProcessCount() << "\n";
  out << "nr_oom_kills " << kernel.oom_kills() << "\n";
  // Reclaim gauges (docs/reclaim.md): one sweep's CLOCK state and mapping totals, kswapd.
  reclaim::RmapCensus census = kernel.rmap().Census();
  out << "nr_free_frames " << kernel.allocator().FreeFrames() << "\n";
  out << "nr_active_anon " << census.active_anon << "\n";
  out << "nr_inactive_anon " << census.inactive_anon << "\n";
  out << "nr_workingset_shadows " << kernel.swap_space().ShadowCount() << "\n";
  out << "nr_rmap_frames " << census.frames << "\n";
  out << "nr_rmap_locations " << census.locations << "\n";
  out << "kswapd_running " << (kernel.kswapd() != nullptr && kernel.kswapd()->Running() ? 1 : 0)
      << "\n";
  return out.str();
}

std::string FormatMeminfo(Kernel& kernel) {
  FrameAllocator& allocator = kernel.allocator();
  FrameAllocatorStats frames = allocator.Stats();
  FrameAllocator::Watermarks wm = allocator.watermarks();
  uint64_t limit = allocator.frame_limit();
  uint64_t free = allocator.FreeFrames();
  SwapStats swap = kernel.swap_space().Stats();
  auto kib = [](uint64_t pages) { return pages * (kPageSize / 1024); };

  std::ostringstream out;
  // An unlimited pool reports the backing total (like a machine with all RAM free).
  uint64_t total = limit == 0 ? frames.total_frames : limit;
  out << "MemTotal:       " << kib(total) << " kB\n";
  out << "MemFree:        " << kib(free == UINT64_MAX ? total - frames.allocated_frames : free)
      << " kB\n";
  reclaim::RmapCensus census = kernel.rmap().Census();
  out << "Active(anon):   " << kib(census.active_anon) << " kB\n";
  out << "Inactive(anon): " << kib(census.inactive_anon) << " kB\n";
  out << "PageTables:     " << kib(frames.page_table_frames) << " kB\n";
  out << "HardwareCorrupted: " << kib(frames.hwpoisoned_frames) << " kB\n";
  out << "SwapTotal:      " << kib(swap.total_slots) << " kB\n";
  out << "SwapFree:       " << kib(swap.total_slots - swap.slots_in_use) << " kB\n";
  out << "WatermarkMin:   " << kib(wm.min) << " kB\n";
  out << "WatermarkLow:   " << kib(wm.low) << " kB\n";
  out << "WatermarkHigh:  " << kib(wm.high) << " kB\n";
  return out.str();
}

std::string FormatFaultInject() { return fi::FaultInjector::Global().FormatStatus(); }

bool ConfigureFaultInject(const std::string& spec, std::string* error) {
  return fi::FaultInjector::Global().Configure(spec, error);
}

std::string FormatReplay() { return replay::Recorder::Global().FormatStatus(); }

bool ConfigureReplay(const std::string& spec, std::string* error) {
  return replay::Recorder::Global().Configure(spec, error);
}

std::string FormatMemoryFailure(Kernel& kernel) {
  std::ostringstream out;
  out << "memory_failure_compiled " << (ODF_MEMORY_FAILURE_COMPILED ? 1 : 0) << "\n";
  out << "mf_hard_offline " << ReadVm(VmCounter::k_mf_hard_offline) << "\n";
  out << "mf_soft_offline " << ReadVm(VmCounter::k_mf_soft_offline) << "\n";
  out << "mf_offline_failed " << ReadVm(VmCounter::k_mf_offline_failed) << "\n";
  out << "mf_migrated_pages " << ReadVm(VmCounter::k_mf_migrated_pages) << "\n";
  out << "mf_sigbus " << ReadVm(VmCounter::k_mf_sigbus) << "\n";
  out << "mf_huge_splits " << ReadVm(VmCounter::k_mf_huge_splits) << "\n";
  FrameAllocatorStats frames = kernel.allocator().Stats();
  out << "nr_hwpoisoned_frames " << frames.hwpoisoned_frames << "\n";
  out << "nr_quarantined_frames " << frames.quarantined_frames << "\n";
  return out.str();
}

std::string FormatDebugVm() {
  std::ostringstream out;
  out << "debug_vm_compiled " << (debug::Compiled() ? 1 : 0) << "\n";
  debug::CheckStats checks = debug::GetCheckStats();
  out << "vm_checks " << checks.vm_checks << "\n";
  out << "poison_checks " << checks.poison_checks << "\n";
  out << "poison_writes " << checks.poison_writes << "\n";
  debug::LockdepStats lockdep = debug::GetLockdepStats();
  out << "lockdep_classes " << lockdep.classes << "\n";
  out << "lockdep_edges " << lockdep.edges << "\n";
  out << "lockdep_acquisitions " << lockdep.acquisitions << "\n";
  debug::VerifyStats verify = debug::GetVerifyStats();
  out << "verify_runs " << verify.runs << "\n";
  out << "verify_skipped_reentrant " << verify.skipped_reentrant << "\n";
  out << "verify_skipped_concurrent " << verify.skipped_concurrent << "\n";
  out << "verify_skipped_disabled " << verify.skipped_disabled << "\n";
  return out.str();
}

}  // namespace odf
