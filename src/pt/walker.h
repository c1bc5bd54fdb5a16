// Software MMU: page-table walking for the simulated machine.
//
// The walker plays the role of the hardware page walk. It honours hierarchical attributes —
// a cleared writable bit at any upper level write-protects the whole subtree, which is the
// mechanism on-demand-fork uses to protect a shared PTE table's 2 MiB region by flipping a
// single PMD entry (paper §3.2). It also sets accessed/dirty bits the way a CPU would.
#ifndef ODF_SRC_PT_WALKER_H_
#define ODF_SRC_PT_WALKER_H_

#include "src/phys/frame_allocator.h"
#include "src/pt/geometry.h"
#include "src/pt/pte.h"

namespace odf {

enum class AccessType { kRead, kWrite };

enum class TranslateStatus {
  kOk,           // Translation complete; `frame` is valid.
  kNotPresent,   // Missing entry at `fault_level` (no table, or PTE not present).
  kNotWritable,  // Write access hit a non-writable entry at `fault_level`.
};

struct Translation {
  TranslateStatus status = TranslateStatus::kNotPresent;
  PtLevel fault_level = PtLevel::kPgd;  // Level at which the walk stopped (on failure).
  FrameId frame = kInvalidFrame;        // Final 4 KiB frame (tail-resolved for huge maps).
  FrameId pte_table = kInvalidFrame;    // Frame of the last-level table (invalid when huge).
  bool huge = false;                    // Mapped by a 2 MiB PMD entry.
  uint64_t* slot = nullptr;             // Leaf slot the walk resolved (PTE or huge PMD).
};

class Walker {
 public:
  explicit Walker(FrameAllocator* allocator) : allocator_(allocator) {}

  // Full translation with hardware side effects (accessed/dirty bits), as the CPU would do.
  // Does NOT handle faults; callers route failures to the mm fault handler.
  Translation Translate(FrameId pgd, Vaddr va, AccessType access);

  // Returns a pointer to the entry for `va` at `level`, or nullptr if an intermediate table
  // is missing. No side effects.
  uint64_t* FindEntry(FrameId pgd, Vaddr va, PtLevel level);

  // Like FindEntry but allocates missing intermediate tables (present+writable+user links).
  // Never allocates the final data mapping, only tables above `level` plus the table that
  // contains the returned entry. Table allocation is NOFAIL (aborts on hard OOM).
  uint64_t* EnsureEntry(FrameId pgd, Vaddr va, PtLevel level);

  // Fallible EnsureEntry (fault/fork paths): returns nullptr when a missing intermediate
  // table cannot be allocated (genuine ENOMEM after reclaim, or injected page_table_alloc
  // failure). Tables allocated before the failing one stay installed; they are empty and
  // harmless, and teardown reaps them.
  [[nodiscard]] uint64_t* TryEnsureEntry(FrameId pgd, Vaddr va, PtLevel level);

  // Returns the frame of the table containing `va`'s entry at `level` (e.g. the PTE-table
  // frame for level kPte), or kInvalidFrame if missing. When `out_pmd_entry` is non-null and
  // level == kPte, it receives a pointer to the PMD entry referencing that table.
  FrameId FindTable(FrameId pgd, Vaddr va, PtLevel level, uint64_t** out_pmd_entry = nullptr);

  FrameAllocator& allocator() { return *allocator_; }

 private:
  FrameAllocator* allocator_;
};

// Allocates an empty page-table frame (zeroed, refcount 1, pt_share_count 1). NOFAIL.
FrameId AllocPageTable(FrameAllocator& allocator);

// Fallible AllocPageTable: kInvalidFrame on ENOMEM or injected page_table_alloc failure.
[[nodiscard]] FrameId TryAllocPageTable(FrameAllocator& allocator);

}  // namespace odf

#endif  // ODF_SRC_PT_WALKER_H_
