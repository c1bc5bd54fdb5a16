#include "src/mm/swap.h"

#include <cstring>

#include "src/debug/lockdep.h"
#include "src/fi/fault_inject.h"
#include "src/trace/metrics.h"
#include "src/trace/trace.h"
#include "src/util/log.h"

namespace odf {

namespace {

// Swap-device lock class. Taken from the reclaimer and the swap-in fault path; never held
// while acquiring another mm lock (all callers copy in/out under it and return).
debug::LockClass g_swap_lock_class("SwapSpace::mutex_");

}  // namespace

SwapSlot SwapSpace::WriteOut(const std::byte* src) {
  debug::MutexGuard guard(mutex_, g_swap_lock_class);
  SwapSlot slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = slots_.size();
    slots_.emplace_back();
    ++stats_.total_slots;
  }
  Slot& entry = slots_[slot];
  ODF_DCHECK(entry.refs == 0);
  if (src != nullptr) {
    if (entry.data == nullptr) {
      entry.data = std::make_unique<std::byte[]>(kPageSize);
    }
    std::memcpy(entry.data.get(), src, kPageSize);
  } else {
    entry.data.reset();  // Logical zero; no device storage needed.
  }
  entry.refs = 1;
  ++stats_.slots_in_use;
  ++stats_.writes;
  entry.written_at = stats_.writes;
  ++shadows_;
  CountVm(VmCounter::k_swap_writes);
  return slot;
}

SwapSlot SwapSpace::TryWriteOut(const std::byte* src) {
  if (fi::ShouldInject(FiSite::k_swap_out)) {
    ODF_TRACE(swap_io_error, 0, /*is_write=*/1);
    CountVm(VmCounter::k_swap_io_errors);
    debug::MutexGuard guard(mutex_, g_swap_lock_class);
    ++stats_.io_errors;
    return kInvalidSwapSlot;
  }
  return WriteOut(src);
}

void SwapSpace::ReadIn(SwapSlot slot, std::byte* dst) {
  debug::MutexGuard guard(mutex_, g_swap_lock_class);
  ODF_CHECK(slot < slots_.size() && slots_[slot].refs > 0) << "read of free swap slot " << slot;
  const Slot& entry = slots_[slot];
  if (entry.data == nullptr) {
    std::memset(dst, 0, kPageSize);
  } else {
    std::memcpy(dst, entry.data.get(), kPageSize);
  }
  ++stats_.reads;
  CountVm(VmCounter::k_swap_reads);
}

bool SwapSpace::TryReadIn(SwapSlot slot, std::byte* dst) {
  if (fi::ShouldInject(FiSite::k_swap_in)) {
    ODF_TRACE(swap_io_error, 0, /*is_write=*/0, slot);
    CountVm(VmCounter::k_swap_io_errors);
    debug::MutexGuard guard(mutex_, g_swap_lock_class);
    ++stats_.io_errors;
    return false;
  }
  ReadIn(slot, dst);
  return true;
}

void SwapSpace::IncRef(SwapSlot slot) {
  debug::MutexGuard guard(mutex_, g_swap_lock_class);
  ODF_CHECK(slot < slots_.size() && slots_[slot].refs > 0) << "incref of free slot " << slot;
  ++slots_[slot].refs;
}

void SwapSpace::DecRef(SwapSlot slot) {
  debug::MutexGuard guard(mutex_, g_swap_lock_class);
  ODF_CHECK(slot < slots_.size() && slots_[slot].refs > 0) << "decref of free slot " << slot;
  if (--slots_[slot].refs == 0) {
    free_slots_.push_back(slot);
    --stats_.slots_in_use;
    DropShadowLocked(slots_[slot]);  // Unmapped without a refault: nothing to detect.
    // Keep the buffer for recycling; a zeroing WriteOut replaces content anyway.
  }
}

void SwapSpace::DropShadowLocked(Slot& entry) {
  if (entry.written_at != 0) {
    entry.written_at = 0;
    --shadows_;
  }
}

uint64_t SwapSpace::TakeRefaultDistance(SwapSlot slot) {
  debug::MutexGuard guard(mutex_, g_swap_lock_class);
  if (slot >= slots_.size() || slots_[slot].written_at == 0) {
    return UINT64_MAX;
  }
  uint64_t distance = stats_.writes - slots_[slot].written_at;
  DropShadowLocked(slots_[slot]);
  return distance;
}

uint64_t SwapSpace::ShadowCount() const {
  debug::MutexGuard guard(mutex_, g_swap_lock_class);
  return shadows_;
}

uint32_t SwapSpace::RefCount(SwapSlot slot) const {
  debug::MutexGuard guard(mutex_, g_swap_lock_class);
  return slot < slots_.size() ? slots_[slot].refs : 0;
}

SwapStats SwapSpace::Stats() const {
  debug::MutexGuard guard(mutex_, g_swap_lock_class);
  return stats_;
}

const std::byte* SwapSpace::PeekSlot(SwapSlot slot) const {
  debug::MutexGuard guard(mutex_, g_swap_lock_class);
  return slot < slots_.size() ? slots_[slot].data.get() : nullptr;
}

bool SwapSpace::AllFree() const {
  debug::MutexGuard guard(mutex_, g_swap_lock_class);
  return stats_.slots_in_use == 0;
}

}  // namespace odf
