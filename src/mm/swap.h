// SwapSpace: the simulated swap device.
//
// The paper's robustness story (§4) relies on the kernel's usual low-memory machinery: when
// PTE tables (or data pages) cannot be allocated, pages are swapped out or the OOM killer
// runs. This module provides the swap half: reference-counted 4 KiB slots on a "device"
// outside simulated RAM (host memory — the analog of a disk), written by the reclaimer and
// read back by the swap-in fault path.
//
// Slot reference counting mirrors Linux's swap_map: classic fork copies a swap PTE and takes
// a slot reference; every swap-in or unmap drops one; the slot is recycled at zero. A slot's
// content is immutable while referenced, which is what makes post-fork COW of swapped pages
// trivially correct — each process faults in its own private copy.
//
// Each slot also carries the workingset shadow of the page written to it (the kernel's
// shadow entry): the device's write count at eviction time. The swap-in fault consumes it
// to tell a page evicted out of its working set from a genuinely cold one
// (docs/reclaim.md "Workingset refaults").
#ifndef ODF_SRC_MM_SWAP_H_
#define ODF_SRC_MM_SWAP_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/phys/page_meta.h"
#include "src/util/mutex.h"
#include "src/util/thread_annotations.h"

namespace odf {

using SwapSlot = uint64_t;

// Returned by TryWriteOut when the device I/O "fails" (injected swap_out error).
inline constexpr SwapSlot kInvalidSwapSlot = ~SwapSlot{0};

struct SwapStats {
  uint64_t slots_in_use = 0;
  uint64_t total_slots = 0;      // High-water mark of device size.
  uint64_t writes = 0;           // Pages swapped out.
  uint64_t reads = 0;            // Pages swapped in.
  uint64_t io_errors = 0;        // Injected swap_out / swap_in failures.
};

class SwapSpace {
 public:
  SwapSpace() = default;
  SwapSpace(const SwapSpace&) = delete;
  SwapSpace& operator=(const SwapSpace&) = delete;

  // Allocates a slot with refcount 1 and stores the page content. `src` may be null for a
  // logically-zero page (the slot then reads back as zeros without storing a buffer).
  // Stamps the slot's workingset shadow. NOFAIL: never consults fault injection.
  SwapSlot WriteOut(const std::byte* src);

  // Fallible WriteOut: kInvalidSwapSlot when fault injection (site swap_out) fails the
  // device write. Callers keep the page resident and retry later (the reclaimer skips it).
  [[nodiscard]] SwapSlot TryWriteOut(const std::byte* src);

  // Copies the slot's content into `dst` (exactly kPageSize bytes). NOFAIL.
  void ReadIn(SwapSlot slot, std::byte* dst);

  // Fallible ReadIn: false when fault injection (site swap_in) fails the device read; `dst`
  // is untouched and the slot keeps its reference so a later retry can succeed.
  [[nodiscard]] bool TryReadIn(SwapSlot slot, std::byte* dst);

  // Slot reference management (fork copies a swap entry -> IncRef; unmap/swap-in -> DecRef).
  void IncRef(SwapSlot slot);
  void DecRef(SwapSlot slot);

  // Consumes `slot`'s workingset shadow: the number of pages written out since this one
  // was. UINT64_MAX when the slot carries no shadow (never stamped, or already consumed by
  // an earlier swap-in of the same slot).
  uint64_t TakeRefaultDistance(SwapSlot slot);

  // Slots still carrying a shadow (nr_workingset_shadows).
  uint64_t ShadowCount() const;

  uint32_t RefCount(SwapSlot slot) const;
  SwapStats Stats() const;
  bool AllFree() const;

  // Content view for the replay digest (src/replay): the slot's buffer (kPageSize bytes),
  // or nullptr when its logical content is all-zero. No device-read accounting. The pointer
  // stays valid while the slot keeps a reference; callers run quiescently.
  const std::byte* PeekSlot(SwapSlot slot) const;

 private:
  struct Slot {
    std::unique_ptr<std::byte[]> data;  // Null == all-zero content.
    uint32_t refs = 0;
    uint64_t written_at = 0;  // Workingset shadow: writes_ stamp; 0 == none.
  };

  void DropShadowLocked(Slot& entry) ODF_REQUIRES(mutex_);

  mutable util::Mutex mutex_;
  std::vector<Slot> slots_ ODF_GUARDED_BY(mutex_);
  std::vector<SwapSlot> free_slots_ ODF_GUARDED_BY(mutex_);
  SwapStats stats_ ODF_GUARDED_BY(mutex_);
  uint64_t shadows_ ODF_GUARDED_BY(mutex_) = 0;
};

}  // namespace odf

#endif  // ODF_SRC_MM_SWAP_H_
