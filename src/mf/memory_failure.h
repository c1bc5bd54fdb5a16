// Memory-failure handling (the mm/memory-failure.c analog): what the kernel does when the
// hardware reports an uncorrectable ECC error in a physical frame (docs/memory-failure.md).
//
// Two entry points, both driven through the Kernel facade under the exclusive MmGate:
//
//   HardOffline — the machine-check path (MCE/BUS_MCEERR_AR). The frame's bytes are gone.
//     Every mapping the page-table sweep finds (src/reclaim/rmap.h) is replaced with a
//     non-present poison marker (Pte::MakeHwPoison), so only processes that later TOUCH
//     the dead address see FaultResult::kHwPoison — everyone else keeps running. A slot
//     inside a shared on-demand-fork PTE table is rewritten ONCE for all sharers (§3.6
//     granularity); a huge mapping is split first so exactly one 4 KiB subpage is lost.
//     Clean page-cache frames lose nothing: the contents are relocated to a fresh frame
//     (the "re-read from disk" analog) and mappers refault.
//
//   SoftOffline — predictive offline (corrected-error storms). The frame still holds good
//     data, so it is MIGRATED: a target frame is allocated, the bytes copied, and every
//     mapping atomically repointed — zero data loss, transactional (an allocation
//     failure or injected fi verdict leaves nothing mutated, mirroring TryFork).
//
// Either way the frame ends kPageFlagHwPoison'd and, once its last reference drops, parked
// on the allocator's quarantine list forever: never re-allocated, never cached, never
// mapped (VerifyKernel cross-checks the bijection).
#ifndef ODF_SRC_MF_MEMORY_FAILURE_H_
#define ODF_SRC_MF_MEMORY_FAILURE_H_

#include <functional>
#include <vector>

#include "src/fs/mem_fs.h"
#include "src/mm/address_space.h"
#include "src/reclaim/rmap.h"

// Set by the build (src/mf/CMakeLists.txt); default to compiled-in for out-of-build users.
#ifndef ODF_MEMORY_FAILURE_COMPILED
#define ODF_MEMORY_FAILURE_COMPILED 1
#endif

namespace odf {
namespace mf {

enum class MfResult : uint32_t {
  kRecovered = 0,        // Hard offline: every mapping rewritten, containment complete.
  kDelayed = 1,          // Poisoned while unmapped/free: quarantined at (or before) its
                         // final free; nothing referenced the bytes.
  kAlreadyPoisoned = 2,  // Duplicate report for a frame already marked.
  kMigrated = 3,         // Soft offline: contents moved intact, source quarantined.
  kFailedBusy = 4,       // Allocation failed or the frame is pinned/unstable; NOTHING was
                         // mutated — the caller may retry.
  kFailedKernelPage = 5,  // Page-table frame: page-granularity offline cannot contain it.
  kNotSupported = 6,      // Built with -DODF_MEMORY_FAILURE=OFF.
};

const char* MfResultName(MfResult result);

// Everything offline needs from the kernel, mirroring reclaim::ShrinkContext.
struct MfContext {
  FrameAllocator* allocator = nullptr;
  SwapSpace* swap = nullptr;
  MemFilesystem* fs = nullptr;
  // The page-table sweep: finds every mapping of the frame, and the live address spaces
  // the huge-split pass walks.
  reclaim::Rmap* rmap = nullptr;
  // Coarse shootdown after mappings were rewritten (possibly in shared tables).
  std::function<void()> flush_tlbs;
};

// Both require the caller to hold the MmGate EXCLUSIVELY (no mutator may observe a
// half-offlined frame) and record/count their own events. See the header comment and
// docs/memory-failure.md for the exact protocols.
MfResult HardOffline(MfContext& ctx, FrameId frame);
MfResult SoftOffline(MfContext& ctx, FrameId frame);

}  // namespace mf
}  // namespace odf

#endif  // ODF_SRC_MF_MEMORY_FAILURE_H_
