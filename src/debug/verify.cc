#include "src/debug/verify.h"

#include <atomic>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "src/proc/auditor.h"
#include "src/proc/kernel.h"
#include "src/pt/mm_gate.h"
#include "src/util/log.h"

namespace odf {
namespace debug {

namespace {

// Auto-verify knobs and statistics. Defined in all builds so SetAutoVerify and friends
// keep working (as no-ops) in release binaries; only the hook itself compiles out.
std::atomic<bool> g_auto_verify{true};
std::atomic<uint64_t> g_interval{1};
std::atomic<uint64_t> g_eligible{0};
std::atomic<uint64_t> g_runs{0};
std::atomic<uint64_t> g_skipped_reentrant{0};
std::atomic<uint64_t> g_skipped_concurrent{0};
std::atomic<uint64_t> g_skipped_disabled{0};

void SweepFrameArray(Kernel& kernel, const AuditResult& audit,
                     const std::unordered_set<FrameId>& mapped, VerifyResult& result) {
  FrameAllocator& allocator = kernel.allocator();
  uint64_t total = allocator.Stats().total_frames;
  auto violation = [&result](FrameId frame, const PageMeta& meta, const std::string& what) {
    result.violations.push_back(what + ": " + internal::DescribePage(meta, frame));
  };
  uint64_t poisoned_seen = 0;
  for (uint64_t i = 0; i < total; ++i) {
    FrameId frame = static_cast<FrameId>(i);
    const PageMeta& meta = allocator.GetMeta(frame);
    uint32_t refcount = meta.refcount.load(std::memory_order_relaxed);
    uint32_t pt_share = meta.pt_share_count.load(std::memory_order_relaxed);
    ++result.frames_swept;
    if (meta.IsHwPoisoned()) {
      // Quarantine bijection (docs/memory-failure.md): a poisoned frame is unmapped (the
      // offline rewrote every mapping, so neither the reclaim sweep nor the auditor may
      // find a present leaf for it — reclaim never swaps out dead bytes) and — once its
      // last owner dropped it — parked in quarantine, never re-allocatable.
      // Allocated+poisoned is legal only as the tail of a still-live split compound or a
      // frame awaiting its final DecRef; those still must have no mappings.
      ++poisoned_seen;
      if (mapped.count(frame) != 0) {
        violation(frame, meta, "hwpoisoned frame still mapped");
      }
      if (meta.IsPageTable()) {
        violation(frame, meta, "hwpoisoned page-table frame (offline must refuse these)");
      }
    }
    if ((meta.flags & kPageFlagAllocated) == 0) {
      // Free (or per-thread-cached) frame: must be completely inert. Stale IncRef/DecRef
      // or flag writes against a freed frame show up right here. The ONE flag allowed to
      // survive a free is the sticky hwpoison bit (the frame is in — or headed for — the
      // quarantine parking lot).
      if (refcount != 0) {
        violation(frame, meta, "free frame has nonzero refcount");
      }
      if (pt_share != 0) {
        violation(frame, meta, "free frame has nonzero pt_share_count");
      }
      if ((meta.flags & ~kPageFlagHwPoison) != 0) {
        violation(frame, meta, "free frame has stale flags");
      }
      if (Compiled() && meta.reserved != 0 && meta.reserved != kPoisonFreed) {
        violation(frame, meta, "free frame canary clobbered");
      }
      continue;
    }
    if (meta.IsCompoundTail()) {
      FrameId head = meta.compound_head;
      if (head == kInvalidFrame || head >= total || head == frame) {
        violation(frame, meta, "compound tail with invalid head");
        continue;
      }
      const PageMeta& head_meta = allocator.GetMeta(head);
      if ((head_meta.flags & kPageFlagAllocated) == 0 || !head_meta.IsCompoundHead()) {
        violation(frame, meta, "compound tail points at a non-head frame");
      }
      if (refcount != 0) {
        violation(frame, meta, "compound tail carries its own refcount");
      }
      if (pt_share != 0) {
        violation(frame, meta, "compound tail carries a pt_share_count");
      }
      continue;  // Reachability is the head's property; tails ride along.
    }
    if (audit.reachable_frames.count(frame) == 0) {
      violation(frame, meta, "leaked frame (allocated but unreachable from any process "
                             "or the page cache)");
    }
    if (meta.IsCompoundHead() && meta.compound_head != frame) {
      violation(frame, meta, "compound head not its own head");
    }
    if (meta.IsPageTable()) {
      if (meta.IsCompound()) {
        violation(frame, meta, "page-table frame marked compound");
      }
      if (pt_share == 0) {
        violation(frame, meta, "allocated page table with zero pt_share_count");
      }
      if (refcount != 1) {
        violation(frame, meta, "page-table frame refcount is not 1");
      }
      if (meta.written.load(std::memory_order_relaxed) == 0) {
        violation(frame, meta, "page-table frame not marked written");
      }
    } else {
      if (refcount == 0) {
        violation(frame, meta, "allocated data frame with zero refcount");
      }
      if (pt_share != 0) {
        violation(frame, meta, "data frame carries a pt_share_count");
      }
    }
  }
  // Flag population must match the counters the offline paths maintain (and quarantine can
  // hold at most the frames that were poisoned).
  FrameAllocatorStats stats = allocator.Stats();
  if (stats.hwpoisoned_frames != poisoned_seen) {
    result.violations.push_back(
        "hwpoisoned_frames counter " + std::to_string(stats.hwpoisoned_frames) +
        " != " + std::to_string(poisoned_seen) + " frames carrying the flag");
  }
  if (stats.quarantined_frames > stats.hwpoisoned_frames) {
    result.violations.push_back(
        "quarantine holds " + std::to_string(stats.quarantined_frames) +
        " frames but only " + std::to_string(stats.hwpoisoned_frames) + " are poisoned");
  }
}

// Cross-checks the reclaim sweep (src/reclaim/rmap.h) against the auditor's independent
// page-table walk: every present leaf slot the walk found must be found by the sweep with
// exactly the frame id and granularity stored in it, and the sweep must find nothing else
// and nothing twice (an exact bijection — docs/reclaim.md "Sweep invariants"). A missing
// slot means reclaim or offline cannot find a mapping (data corruption on eviction, a
// live translation to a dead frame); a duplicate means a shared-table slot would be
// counted per sharer, and eviction's refcount test would no longer hold. Returns the
// frames the sweep found mapped.
std::unordered_set<FrameId> CheckSweep(Kernel& kernel, const AuditResult& audit,
                                       VerifyResult& result) {
  std::unordered_map<const uint64_t*, std::pair<FrameId, bool>> swept;
  std::unordered_set<FrameId> mapped;
  kernel.rmap().ForEachMapping([&](const reclaim::Mapping& mapping) {
    if (!swept.emplace(mapping.slot, std::make_pair(mapping.frame, mapping.huge)).second) {
      result.violations.push_back("reclaim sweep found the leaf for frame " +
                                  std::to_string(mapping.frame) + " twice");
    }
    mapped.insert(mapping.frame);
  });
  for (const auto& [slot, leaf] : audit.leaf_slots) {
    auto it = swept.find(slot);
    if (it == swept.end() || it->second != leaf) {
      result.violations.push_back(
          "present leaf entry for frame " + std::to_string(leaf.first) +
          (leaf.second ? " (huge)" : "") + " not found by the reclaim sweep");
    }
  }
  if (swept.size() != audit.leaf_slots.size()) {
    result.violations.push_back(
        "reclaim sweep found " + std::to_string(swept.size()) +
        " leaf slots but the audit walk found " + std::to_string(audit.leaf_slots.size()));
  }
  return mapped;
}

}  // namespace

std::string VerifyResult::Describe() const {
  std::ostringstream out;
  out << "verified " << processes_audited << " processes, " << tables_checked << " tables, "
      << leaf_entries_checked << " leaf entries, " << frames_swept << " frames: ";
  if (violations.empty()) {
    out << "OK";
  } else {
    out << violations.size() << " violations\n";
    for (const std::string& violation : violations) {
      out << "  - " << violation << "\n";
    }
  }
  return out.str();
}

VerifyResult VerifyKernel(Kernel& kernel) {
  // Freeze the VM: the walk reads paging structures non-atomically and the sweep
  // comparison needs slots that are not being rewritten. The exclusive gate holds off
  // every mutator AND the shrinker (reentrant if this thread already holds it).
  MmGate::ExclusiveScope gate;
  AuditResult audit = AuditKernel(kernel);
  VerifyResult result;
  result.violations = audit.violations;
  result.processes_audited = audit.processes_audited;
  result.tables_checked = audit.tables_checked;
  result.leaf_entries_checked = audit.leaf_entries_checked;
  std::unordered_set<FrameId> mapped = CheckSweep(kernel, audit, result);
  SweepFrameArray(kernel, audit, mapped, result);
  return result;
}

VerifyStats GetVerifyStats() {
  VerifyStats stats;
  stats.runs = g_runs.load(std::memory_order_relaxed);
  stats.skipped_reentrant = g_skipped_reentrant.load(std::memory_order_relaxed);
  stats.skipped_concurrent = g_skipped_concurrent.load(std::memory_order_relaxed);
  stats.skipped_disabled = g_skipped_disabled.load(std::memory_order_relaxed);
  return stats;
}

void SetAutoVerify(bool enabled) { g_auto_verify.store(enabled, std::memory_order_relaxed); }

void SetAutoVerifyInterval(uint64_t interval) {
  g_interval.store(interval == 0 ? 1 : interval, std::memory_order_relaxed);
}

#if ODF_DEBUG_VM_COMPILED

void AutoVerifyKernel(Kernel& kernel, const char* what) {
  if (MutationScope::Depth() > 0) {
    // Hook fired from inside another mutation on this thread (an OOM kill's Exit during a
    // fork's allocation): the outer operation is mid-flight, so the structures are torn.
    g_skipped_reentrant.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (!g_auto_verify.load(std::memory_order_relaxed)) {
    g_skipped_disabled.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  uint64_t sequence = g_eligible.fetch_add(1, std::memory_order_relaxed);
  uint64_t interval = g_interval.load(std::memory_order_relaxed);
  if (interval > 1 && sequence % interval != 0) {
    g_skipped_disabled.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (!internal::TryLockQuiescent()) {
    // Another thread is mid-mutation; the walk would read torn state. Skip — a later
    // quiescent hook (or the test's own VerifyKernel call) covers it.
    g_skipped_concurrent.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  VerifyResult result = VerifyKernel(kernel);
  internal::UnlockQuiescent();
  g_runs.fetch_add(1, std::memory_order_relaxed);
  ODF_CHECK(result.ok()) << "post-" << what
                         << " kernel verification failed: " << result.Describe();
}

#endif  // ODF_DEBUG_VM_COMPILED

}  // namespace debug
}  // namespace odf
