// The page-fault handler: demand paging, data-page COW, and — the paper's contribution —
// copy-on-write of shared last-level page tables (§3.4).
#ifndef ODF_SRC_MM_FAULT_H_
#define ODF_SRC_MM_FAULT_H_

#include "src/mm/address_space.h"
#include "src/pt/mm_gate.h"
#include "src/util/thread_annotations.h"

namespace odf {

enum class FaultResult {
  kHandled,          // Translation now succeeds; retry the access.
  kSegvUnmapped,     // No VMA covers the address.
  kSegvProt,         // The VMA forbids this access.
  kOom,              // A required allocation failed (ENOMEM after reclaim, or injected).
  kSwapIoError,      // Swap-in read failed; the swap slot keeps its reference, retry later.
  kRetryExhausted,   // The fault chain did not converge within the retry budget.
  kHwPoison,         // The page was lost to a memory error (SIGBUS/BUS_MCEERR_AR analog):
                     // the PTE is a poison marker and the frame is quarantined. Recoverable
                     // for the kernel; the data at this VA is gone (docs/memory-failure.md).
};

// True for the verdicts where the access did not complete but the address space is
// consistent and the process may continue (the "raises a signal, does not panic" class):
// kOom / kSwapIoError / kRetryExhausted may succeed on retry once memory is freed or
// injection is disarmed; kHwPoison is sticky for the VA but leaves the kernel and every
// other mapping intact. See docs/robustness.md.
//
// Deliberately an exhaustive switch with no default: adding a FaultResult without deciding
// its recoverability is a compile error (-Werror=switch), not a silent misclassification.
inline bool IsRecoverableFault(FaultResult result) {
  switch (result) {
    case FaultResult::kHandled:
    case FaultResult::kSegvUnmapped:
    case FaultResult::kSegvProt:
      return false;
    case FaultResult::kOom:
    case FaultResult::kSwapIoError:
    case FaultResult::kRetryExhausted:
    case FaultResult::kHwPoison:
      return true;
  }
  return false;  // Unreachable for in-range enumerators.
}

// Arg a1 of the fork_degrade_classic tracepoint: which graceful-degradation path fired
// when a compound or page-table allocation failed (docs/robustness.md).
enum class DegradeFlavor : uint64_t {
  kHugeDemand4k = 0,       // Huge demand-install fell back to 4 KiB demand paging.
  kHugeCowSplit = 1,       // Huge COW split the 2 MiB mapping into a PTE table of tails.
  kOdfSharePmd = 2,        // ODF fork shared the whole PMD table instead of a fresh copy.
  kClassicShareTable = 3,  // Classic fork shared a PTE table ODF-style instead of copying.
};

// Resolves all fault causes for an access to `va` until the translation succeeds or the
// access is found to be illegal. On success the final translation is inserted into the TLB
// and `frame_out` (if non-null) receives the 4 KiB frame.
//
// All allocations on this path are fallible (FrameAllocator::TryAllocate and friends): a
// denied allocation yields kOom and a failed swap-device read yields kSwapIoError, with the
// page tables left consistent — nothing is ever half-installed. The retry loop is bounded;
// a chain that does not converge yields kRetryExhausted instead of aborting.
// Lock contract (the locked walk in Process::AccessMemory): the per-AS gate shared
// (layout is stable), the covering 2 MiB shard (this range's faults are serialized), and
// the MmGate shared (the evictor is excluded). See docs/debugging.md for the order.
FaultResult HandleFault(AddressSpace& as, Vaddr va, AccessType access,
                        FrameId* frame_out = nullptr)
    ODF_REQUIRES_SHARED(as.locks()) ODF_REQUIRES(as.locks().shard_cap)
        ODF_REQUIRES_SHARED(MmGate::Global());

// Splits a present huge PMD mapping into a PTE table of per-4KiB entries onto the same
// compound's tail frames (write-protected; each page then COWs individually). Used by the
// huge-COW degrade path and by memory failure (src/mf), which must take a 2 MiB mapping
// apart to offline a single dead subpage. Returns false when the one table allocation
// fails; a concurrent change of *pmd_slot returns true with nothing mutated (the caller's
// retry loop re-translates). Caller must hold the mutation-side locks of this space.
// Two callers, two regimes the analysis cannot express as one contract: the fault path
// holds {AS gate shared, shard, MmGate shared}; memory-failure holds {MmGate exclusive},
// which by itself excludes every faulting thread. Their intersection — some hold on the
// MmGate — is what the annotation states; the disjunction is enforced at runtime by
// lockdep and MmGate::ThreadHoldsExclusive() checks.
bool SplitHugeMapping(AddressSpace& as, Vaddr chunk_base, uint64_t* pmd_slot)
    ODF_REQUIRES_SHARED(MmGate::Global());

}  // namespace odf

#endif  // ODF_SRC_MM_FAULT_H_
