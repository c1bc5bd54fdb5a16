#include "src/phys/frame_allocator.h"

#include <sanitizer/asan_interface.h>
#include <sys/mman.h>

#include <array>
#include <cstring>

#include "src/debug/debug.h"
#include "src/debug/lockdep.h"
#include "src/fi/fault_inject.h"
#include "src/phys/per_cpu_cache.h"
#include "src/trace/metrics.h"
#include "src/trace/trace.h"
#include "src/util/log.h"

namespace odf {

namespace {

using phys_internal::CacheForThread;
using phys_internal::PerCpuCache;

// Never-reused allocator identities for the per-thread cache table (per_cpu_cache.h).
std::atomic<uint64_t> g_next_allocator_id{1};

constexpr FrameId kCompoundFrames = 1u << kHugePageOrder;

// Lockdep class (debug-vm builds only; an empty tag otherwise).
debug::LockClass g_pool_lock_class("FrameAllocator::mutex_");

}  // namespace

FrameAllocator::FrameAllocator()
    : id_(g_next_allocator_id.fetch_add(1, std::memory_order_relaxed)) {}

FrameAllocator::~FrameAllocator() {
  // First orphan this allocator's per-thread caches so exiting threads do not drain into
  // freed memory; the frame ids parked in them die with the metadata below.
  phys_internal::RetireAllocatorCaches(this);
  for (size_t slot = 0; slot < chunks_.size(); ++slot) {
    std::byte* region = arena_[slot].load(std::memory_order_relaxed);
    // Clear freed frames' ASan poison so a later mapping at this address starts clean.
    ASAN_UNPOISON_MEMORY_REGION(region, kChunkSize * kPageSize);
    munmap(region, kChunkSize * kPageSize);
  }
}

PageMeta& FrameAllocator::MetaRef(FrameId frame) const {
  size_t chunk = frame >> kChunkShift;
  size_t index = frame & (kChunkSize - 1);
  ODF_DCHECK(chunk < kMaxChunks) << "frame " << frame << " out of range";
  // Acquire pairs with the release store in AddChunkLocked: a thread handed a frame id by
  // another thread sees fully-constructed metadata even though chunk growth is concurrent.
  PageMeta* base = chunk_table_[chunk].load(std::memory_order_acquire);
  ODF_DCHECK(base != nullptr) << "frame " << frame << " in ungrown chunk";
  return base[index];
}

PageMeta& FrameAllocator::GetMeta(FrameId frame) { return MetaRef(frame); }
const PageMeta& FrameAllocator::GetMeta(FrameId frame) const { return MetaRef(frame); }

std::byte* FrameAllocator::FrameBytes(FrameId frame) const {
  // Acquire pairs with the release store in GrowChunkLocked, like MetaRef.
  std::byte* region = arena_[frame >> kChunkShift].load(std::memory_order_acquire);
  return region + (static_cast<uint64_t>(frame & (kChunkSize - 1)) << kPageShift);
}

PageMeta& FrameAllocator::StateOwner(FrameId frame) const {
  PageMeta& meta = MetaRef(frame);
  return meta.IsCompoundTail() ? MetaRef(meta.compound_head) : meta;
}

FrameId FrameAllocator::GrowChunkLocked() {
  ODF_CHECK(chunks_.size() < kMaxChunks)
      << "simulated physical memory exhausted (" << kMaxChunks << " chunks)";
  size_t slot = chunks_.size();
  // Reserve-only: the host materialises a page of the region when a frame is first touched.
  void* region = mmap(nullptr, kChunkSize * kPageSize, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  ODF_CHECK(region != MAP_FAILED) << "cannot map the arena region of chunk " << slot;
  auto chunk = std::make_unique<PageMeta[]>(kChunkSize);
  arena_[slot].store(static_cast<std::byte*>(region), std::memory_order_release);
  chunk_table_[slot].store(chunk.get(), std::memory_order_release);
  chunks_.push_back(std::move(chunk));
  stats_.total_frames.fetch_add(kChunkSize, std::memory_order_relaxed);
  return static_cast<FrameId>(slot << kChunkShift);
}

void FrameAllocator::ClaimBytes(FrameId frame, uint64_t bytes, PageMeta& owner) {
  std::byte* start = FrameBytes(frame);
  ASAN_UNPOISON_MEMORY_REGION(start, bytes);
  if (owner.written.load(std::memory_order_relaxed) != 0) {
    std::memset(start, 0, bytes);
    owner.written.store(0, std::memory_order_relaxed);
  }
}

void FrameAllocator::ReleaseBytes(FrameId frame, uint64_t bytes, const PageMeta& owner) {
  std::byte* start = FrameBytes(frame);
  if (owner.written.load(std::memory_order_relaxed) != 0) {
#if ODF_DEBUG_VM_COMPILED
    // Poison-on-free: a stale reader racing the free observes 0xaa..aa instead of
    // plausible page contents. The frame stays written, so its next claim zeroes it.
    std::memset(start, static_cast<int>(debug::kPoisonByte), bytes);
    debug::internal::g_poison_writes.fetch_add(1, std::memory_order_relaxed);
#endif
  }
  // Any later touch before the next claim is a use-after-free (the asan-ubsan preset).
  ASAN_POISON_MEMORY_REGION(start, bytes);
}

FrameId FrameAllocator::PopFreeLocked() {
  for (;;) {
    if (free_list_.empty()) {
      FrameId base = GrowChunkLocked();
      // Push in reverse so low frame ids are handed out first (mildly better locality).
      for (size_t i = kChunkSize; i-- > 0;) {
        free_list_.push_back(base + static_cast<FrameId>(i));
      }
    }
    FrameId frame = free_list_.back();
    free_list_.pop_back();
    if (MetaRef(frame).IsHwPoisoned()) {
      // Lazy quarantine: a frame poisoned while it sat on the free list (or while parked
      // in a per-thread cache that later spilled here) is retired at its next pop instead
      // of being handed out. Poison-check-on-alloc, at the allocator's chokepoint.
      QuarantineLocked(frame);
      continue;
    }
    return frame;
  }
}

void FrameAllocator::QuarantineLocked(FrameId frame) {
  quarantine_.push_back(frame);
  stats_.quarantined_frames.fetch_add(1, std::memory_order_relaxed);
}

void FrameAllocator::SetFrameLimit(uint64_t frames) {
  debug::MutexGuard guard(mutex_, g_pool_lock_class);
  frame_limit_.store(frames, std::memory_order_relaxed);
  if (!watermarks_explicit_) {
    // min_free_kbytes-style scaling; +4 keeps tiny test pools from a zero floor.
    uint64_t min = frames == 0 ? 0 : frames / 64 + 4;
    wm_min_.store(min, std::memory_order_relaxed);
    wm_low_.store(min * 2, std::memory_order_relaxed);
    wm_high_.store(min * 3, std::memory_order_relaxed);
  }
}

uint64_t FrameAllocator::frame_limit() const {
  return frame_limit_.load(std::memory_order_relaxed);
}

void FrameAllocator::SetReclaimCallback(ReclaimCallback callback) {
  debug::MutexGuard guard(mutex_, g_pool_lock_class);
  reclaim_callback_ = std::move(callback);
}

void FrameAllocator::SetWatermarks(Watermarks wm) {
  debug::MutexGuard guard(mutex_, g_pool_lock_class);
  wm_min_.store(wm.min, std::memory_order_relaxed);
  wm_low_.store(wm.low, std::memory_order_relaxed);
  wm_high_.store(wm.high, std::memory_order_relaxed);
  watermarks_explicit_ = true;
}

FrameAllocator::Watermarks FrameAllocator::watermarks() const {
  return Watermarks{wm_min_.load(std::memory_order_relaxed),
                    wm_low_.load(std::memory_order_relaxed),
                    wm_high_.load(std::memory_order_relaxed)};
}

uint64_t FrameAllocator::FreeFrames() const {
  uint64_t limit = frame_limit_.load(std::memory_order_relaxed);
  if (limit == 0) {
    return UINT64_MAX;
  }
  uint64_t allocated = stats_.allocated_frames.load(std::memory_order_relaxed);
  return allocated >= limit ? 0 : limit - allocated;
}

void FrameAllocator::SetPressureCallback(PressureCallback callback) {
  bool armed = callback != nullptr;
  {
    debug::MutexGuard guard(mutex_, g_pool_lock_class);
    pressure_callback_ = std::move(callback);
  }
  pressure_armed_.store(armed, std::memory_order_release);
}

void FrameAllocator::MaybeWakeReclaim(uint64_t want) {
  // Fast path: one relaxed load when no daemon is listening (the common case in tests).
  if (!pressure_armed_.load(std::memory_order_acquire)) {
    return;
  }
  uint64_t free = FreeFrames();
  uint64_t low = wm_low_.load(std::memory_order_relaxed);
  if (free == UINT64_MAX || free >= low + want) {
    return;
  }
  PressureCallback callback;
  {
    debug::MutexGuard guard(mutex_, g_pool_lock_class);
    callback = pressure_callback_;
  }
  if (callback) {
    callback();
  }
}

bool FrameAllocator::TryWaitForQuota(uint64_t frames) {
  // Nudge kswapd first — even when this allocation fits, crossing LOW should start the
  // background daemon so later allocations find headroom (the wakeup_kswapd analog).
  MaybeWakeReclaim(frames);
  // Like the kernel putting the faulting process to sleep while it frees memory (§4): run
  // reclaim rounds until the allocation fits, or report OOM when no progress is possible.
  for (int attempt = 0; attempt < 16; ++attempt) {
    uint64_t limit = frame_limit_.load(std::memory_order_relaxed);
    if (limit == 0 ||
        stats_.allocated_frames.load(std::memory_order_relaxed) + frames <= limit) {
      return true;
    }
    ReclaimCallback callback;
    {
      debug::MutexGuard guard(mutex_, g_pool_lock_class);
      callback = reclaim_callback_;
    }
    if (!callback) {
      return false;
    }
    uint64_t freed = callback(frames + 64);  // Batch a little slack to avoid thrash.
    if (freed == 0) {
      break;
    }
  }
  uint64_t limit = frame_limit_.load(std::memory_order_relaxed);
  return limit == 0 ||
         stats_.allocated_frames.load(std::memory_order_relaxed) + frames <= limit;
}

void FrameAllocator::WaitForQuota(uint64_t frames) {
  ODF_CHECK(TryWaitForQuota(frames))
      << "out of simulated memory: limit " << frame_limit() << " frames, " << frames
      << " wanted, reclaim exhausted (NOFAIL allocation)";
}

void FrameAllocator::InitAllocatedFrame(FrameId frame, uint8_t flags) {
  PageMeta& meta = MetaRef(frame);
  ODF_VM_BUG_ON_PAGE((meta.flags & kPageFlagAllocated) != 0, meta, frame)
      << "double allocation";
  // Poison-check-on-alloc: a free frame must still be inert. Any stale IncRef/DecRef,
  // pt_share write, or canary clobber against this frame since it was freed aborts here,
  // at the next allocation — the earliest point the corruption is observable.
  ODF_VM_BUG_ON_PAGE(meta.refcount.load(std::memory_order_relaxed) != 0, meta, frame)
      << "frame gained references while on the free list";
  ODF_VM_BUG_ON_PAGE(meta.pt_share_count.load(std::memory_order_relaxed) != 0, meta, frame)
      << "frame gained table sharers while on the free list";
  // Backstop behind the pop-path diverts: a poisoned frame must never be handed out again.
  ODF_VM_BUG_ON_PAGE(meta.IsHwPoisoned(), meta, frame) << "allocating a hwpoisoned frame";
#if ODF_DEBUG_VM_COMPILED
  debug::internal::g_poison_checks.fetch_add(1, std::memory_order_relaxed);
  ODF_VM_BUG_ON_PAGE(meta.reserved != 0 && meta.reserved != debug::kPoisonFreed, meta, frame)
      << "free-frame canary clobbered";
  meta.reserved = debug::kPoisonAllocated;
#endif
  ODF_DCHECK((meta.flags & kPageFlagAllocated) == 0) << "double allocation of frame " << frame;
  meta.flags = static_cast<uint8_t>(flags | kPageFlagAllocated);
  meta.compound_head = frame;
  meta.refcount.store(1, std::memory_order_relaxed);
  meta.pt_share_count.store((flags & kPageFlagPageTable) != 0 ? 1 : 0,
                            std::memory_order_relaxed);
  ClaimBytes(frame, kPageSize, meta);
  stats_.allocated_frames.fetch_add(1, std::memory_order_relaxed);
  if ((flags & kPageFlagPageTable) != 0) {
    stats_.page_table_frames.fetch_add(1, std::memory_order_relaxed);
    meta.written.store(1, std::memory_order_relaxed);
    stats_.materialized_bytes.fetch_add(kPageSize, std::memory_order_relaxed);
  }
  CountVm(VmCounter::k_frames_allocated);
}

void FrameAllocator::ReleaseFrameState(FrameId frame, PageMeta& meta) {
  ODF_VM_BUG_ON((meta.flags & kPageFlagAllocated) == 0) << "double free";
  // At free time the counters must be spent: refcount 0 (DecRef path) or exactly 1
  // (FreeBatch's sole-owner contract); table shares 0 (dropped) or 1 (the allocation
  // reference, for tables torn down recursively).
  ODF_VM_BUG_ON(meta.refcount.load(std::memory_order_relaxed) > 1)
      << "freeing a frame that still has owners";
  ODF_VM_BUG_ON(meta.pt_share_count.load(std::memory_order_relaxed) > 1)
      << "freeing a page table that still has sharers";
  ODF_DCHECK((meta.flags & kPageFlagAllocated) != 0) << "double free";
  ODF_DCHECK(!meta.IsCompound()) << "compound frame on the order-0 free path";
  if (meta.written.load(std::memory_order_relaxed) != 0) {
    stats_.materialized_bytes.fetch_sub(kPageSize, std::memory_order_relaxed);
  }
  // A poisoned frame is headed for quarantine and keeps its bytes exactly as the error left
  // them: the poison-on-free memset would destroy the one artifact worth inspecting in an
  // ODF_VM_BUG_ON_PAGE dump or a black-box replay log (docs/memory-failure.md).
  if (!meta.IsHwPoisoned()) {
    ReleaseBytes(frame, kPageSize, meta);
  }
  if ((meta.flags & kPageFlagPageTable) != 0) {
    stats_.page_table_frames.fetch_sub(1, std::memory_order_relaxed);
  }
  meta.flags = static_cast<uint8_t>(meta.flags & kPageFlagHwPoison);
  meta.compound_head = kInvalidFrame;
  // Free frames are inert: zero both counters so poison-check-on-alloc (and the debug-vm
  // full sweep) can detect any mutation of a freed frame's metadata.
  meta.refcount.store(0, std::memory_order_relaxed);
  meta.pt_share_count.store(0, std::memory_order_relaxed);
#if ODF_DEBUG_VM_COMPILED
  meta.reserved = debug::kPoisonFreed;
#endif
  stats_.allocated_frames.fetch_sub(1, std::memory_order_relaxed);
  CountVm(VmCounter::k_frames_freed);
}

FrameId FrameAllocator::AllocateFromCache(uint8_t flags) {
  if (!CacheEligible()) {
    return kInvalidFrame;  // Frame limit armed: the exact, locked quota path takes over.
  }
  PerCpuCache& cache = CacheForThread(this, id_);
  for (;;) {
    if (cache.count == 0) {
      CountVm(VmCounter::k_pcp_miss);
      ODF_TRACE(pcp_miss, 0);
      {
        debug::MutexGuard guard(mutex_, g_pool_lock_class);
        for (size_t i = 0; i < PerCpuCache::kBatch; ++i) {
          cache.slots[cache.count++] = PopFreeLocked();
        }
      }
      CountVm(VmCounter::k_pcp_refill, PerCpuCache::kBatch);
      ODF_TRACE(pcp_refill, 0, static_cast<uint64_t>(PerCpuCache::kBatch));
    } else {
      CountVm(VmCounter::k_pcp_hit);
      ODF_TRACE(pcp_hit, 0);
    }
    FrameId frame = cache.slots[--cache.count];
    if (MetaRef(frame).IsHwPoisoned()) {
      // The frame was poisoned while parked in this thread's cache (the one place the
      // exclusive-MmGate offline cannot reach). Divert to quarantine and try the next.
      debug::MutexGuard guard(mutex_, g_pool_lock_class);
      QuarantineLocked(frame);
      continue;
    }
    InitAllocatedFrame(frame, flags);
    return frame;
  }
}

void FrameAllocator::FreeToCache(FrameId frame) {
  ReleaseFrameState(frame, MetaRef(frame));
  PerCpuCache& cache = CacheForThread(this, id_);
  if (cache.count == PerCpuCache::kCapacity) {
    // Spill half the cache back to the shared pool in one lock hold.
    CountVm(VmCounter::k_pcp_drain, PerCpuCache::kBatch);
    ODF_TRACE(pcp_drain, 0, static_cast<uint64_t>(PerCpuCache::kBatch));
    debug::MutexGuard guard(mutex_, g_pool_lock_class);
    for (size_t i = 0; i < PerCpuCache::kBatch; ++i) {
      free_list_.push_back(cache.slots[--cache.count]);
    }
  }
  cache.slots[cache.count++] = frame;
}

void FrameAllocator::MarkHwPoison(FrameId frame) {
  debug::MutexGuard guard(mutex_, g_pool_lock_class);
  PageMeta& meta = MetaRef(frame);
  if (meta.IsHwPoisoned()) {
    return;  // Already retired or retiring; poison is idempotent.
  }
  meta.flags = static_cast<uint8_t>(meta.flags | kPageFlagHwPoison);
  stats_.hwpoisoned_frames.fetch_add(1, std::memory_order_relaxed);
  if ((meta.flags & kPageFlagAllocated) != 0) {
    // Allocated frame: quarantine happens when the last reference drops (FreeOneLocked).
    return;
  }
  // The frame is free. If it sits inside a 512-aligned run on the compound free list,
  // break the run now — AllocateCompoundGranted recycles runs whole and must never build
  // a huge page around a dead subframe. Frames on the order-0 free list (or parked in a
  // per-thread cache) are diverted lazily at their next pop instead; both are cheap
  // because poison events are rare.
  FrameId run = frame & ~static_cast<FrameId>(kCompoundFrames - 1);
  for (size_t i = 0; i < compound_free_list_.size(); ++i) {
    if (compound_free_list_[i] != run) {
      continue;
    }
    compound_free_list_[i] = compound_free_list_.back();
    compound_free_list_.pop_back();
    // The run's written state covered all 2 MiB; each order-0 frame now carries its own.
    uint8_t written = MetaRef(run).written.load(std::memory_order_relaxed);
    for (FrameId j = 0; j < kCompoundFrames; ++j) {
      MetaRef(run + j).written.store(written, std::memory_order_relaxed);
      if (run + j == frame) {
        QuarantineLocked(frame);
      } else {
        free_list_.push_back(run + j);
      }
    }
    return;
  }
}

bool FrameAllocator::IsHwPoisoned(FrameId frame) const {
  return MetaRef(frame).IsHwPoisoned();
}

void FrameAllocator::DrainCacheToPool(phys_internal::PerCpuCache& cache) {
  if (cache.count == 0) {
    return;
  }
  CountVm(VmCounter::k_pcp_drain, cache.count);
  debug::MutexGuard guard(mutex_, g_pool_lock_class);
  while (cache.count > 0) {
    free_list_.push_back(cache.slots[--cache.count]);
  }
}

FrameId FrameAllocator::Allocate(uint8_t flags) {
  FrameId frame = AllocateFromCache(flags);
  if (frame != kInvalidFrame) {
    return frame;
  }
  WaitForQuota(1);
  return AllocateGranted(flags);
}

FrameId FrameAllocator::TryAllocate(uint8_t flags) {
  FiSite site =
      (flags & kPageFlagPageTable) != 0 ? FiSite::k_page_table_alloc : FiSite::k_frame_alloc;
  // Injection is consulted before the cache: a scheduled failure fails the logical
  // allocation even when a cached frame could have served it (seed-replayable schedules).
  if (fi::ShouldInject(site)) {
    return kInvalidFrame;
  }
  FrameId frame = AllocateFromCache(flags);
  if (frame != kInvalidFrame) {
    return frame;
  }
  if (!TryWaitForQuota(1)) {
    return kInvalidFrame;
  }
  return AllocateGranted(flags);
}

FrameId FrameAllocator::AllocateGranted(uint8_t flags) {
  FrameId frame;
  {
    debug::MutexGuard guard(mutex_, g_pool_lock_class);
    frame = PopFreeLocked();
  }
  InitAllocatedFrame(frame, flags);
  return frame;
}

void FrameAllocator::AllocateBatch(uint8_t flags, std::span<FrameId> out) {
  if (out.empty()) {
    return;
  }
  if (frame_limit_.load(std::memory_order_relaxed) != 0) {
    // Under a frame limit, allocate one by one so reclaim can free earlier frames of this
    // very batch (an all-at-once quota demand could spuriously OOM).
    for (FrameId& slot : out) {
      slot = Allocate(flags);
    }
    return;
  }
  {
    debug::MutexGuard guard(mutex_, g_pool_lock_class);
    for (FrameId& slot : out) {
      slot = PopFreeLocked();
    }
  }
  for (FrameId frame : out) {
    InitAllocatedFrame(frame, flags);
  }
}

FrameId FrameAllocator::AllocateCompound(uint8_t flags) {
  WaitForQuota(1u << kHugePageOrder);
  return AllocateCompoundGranted(flags);
}

FrameId FrameAllocator::TryAllocateCompound(uint8_t flags) {
  if (fi::ShouldInject(FiSite::k_compound_alloc)) {
    return kInvalidFrame;
  }
  if (!TryWaitForQuota(1u << kHugePageOrder)) {
    return kInvalidFrame;
  }
  return AllocateCompoundGranted(flags);
}

FrameId FrameAllocator::AllocateCompoundGranted(uint8_t flags) {
  debug::MutexGuard guard(mutex_, g_pool_lock_class);
  FrameId head;
  if (!compound_free_list_.empty()) {
    head = compound_free_list_.back();
    compound_free_list_.pop_back();
  } else {
    // Grow by one chunk dedicated to compounds (like a hugetlb pool): all of its 512-aligned
    // runs go onto the compound free list, amortising the chunk-add cost over 128 compound
    // allocations instead of paying it per fault.
    FrameId base = GrowChunkLocked();
    for (FrameId run = static_cast<FrameId>(kChunkSize); run > kCompoundFrames;
         run -= kCompoundFrames) {
      compound_free_list_.push_back(base + run - kCompoundFrames);
    }
    head = base;
    ODF_CHECK((head & (kCompoundFrames - 1)) == 0) << "compound carve misaligned";
  }
  PageMeta& head_meta = MetaRef(head);
  ODF_VM_BUG_ON_PAGE((head_meta.flags & kPageFlagAllocated) != 0, head_meta, head)
      << "double allocation of compound head";
  ODF_VM_BUG_ON_PAGE(head_meta.refcount.load(std::memory_order_relaxed) != 0, head_meta, head)
      << "compound head gained references while on the free list";
#if ODF_DEBUG_VM_COMPILED
  debug::internal::g_poison_checks.fetch_add(1, std::memory_order_relaxed);
  ODF_VM_BUG_ON_PAGE(
      head_meta.reserved != 0 && head_meta.reserved != debug::kPoisonFreed, head_meta, head)
      << "free-frame canary clobbered";
  head_meta.reserved = debug::kPoisonAllocated;
#endif
  ClaimBytes(head, kHugePageSize, head_meta);
  head_meta.flags = static_cast<uint8_t>(flags | kPageFlagAllocated | kPageFlagCompoundHead);
  head_meta.compound_head = head;
  head_meta.refcount.store(1, std::memory_order_relaxed);
  head_meta.pt_share_count.store(0, std::memory_order_relaxed);
  for (FrameId i = 1; i < kCompoundFrames; ++i) {
    PageMeta& tail = MetaRef(head + i);
    ODF_VM_BUG_ON_PAGE(tail.refcount.load(std::memory_order_relaxed) != 0, tail, head + i)
        << "compound tail gained references while on the free list";
    tail.flags = static_cast<uint8_t>(flags | kPageFlagAllocated | kPageFlagCompoundTail);
    tail.compound_head = head;
    tail.refcount.store(0, std::memory_order_relaxed);
#if ODF_DEBUG_VM_COMPILED
    tail.reserved = debug::kPoisonAllocated;
#endif
  }
  stats_.allocated_frames.fetch_add(kCompoundFrames, std::memory_order_relaxed);
  CountVm(VmCounter::k_frames_allocated, kCompoundFrames);
  return head;
}

void FrameAllocator::IncRef(FrameId frame) {
  PageMeta& meta = GetMeta(frame);
  ODF_VM_BUG_ON_PAGE((meta.flags & kPageFlagAllocated) == 0, meta, frame)
      << "IncRef on freed frame";
  ODF_VM_BUG_ON_PAGE(meta.IsCompoundTail(), meta, frame) << "IncRef on compound tail";
  uint32_t previous = meta.refcount.fetch_add(1, std::memory_order_relaxed);
  ODF_VM_BUG_ON_PAGE(previous >= debug::kRefcountSaturated, meta, frame)
      << "refcount saturation";
  (void)previous;
}

bool FrameAllocator::TryGetRef(FrameId frame) {
  PageMeta& meta = GetMeta(frame);
  // No freed-frame/tail BUG_ONs here: this is called speculatively on a translation-cache
  // hit, where racing a free (and even pinning a reused frame id) is expected and handled
  // by the caller's shard-generation recheck. A zero count — frame free, mid-free, or a
  // compound tail — simply fails the pin.
  uint32_t count = meta.refcount.load(std::memory_order_relaxed);
  for (;;) {
    if (count == 0) {
      return false;
    }
    if (meta.refcount.compare_exchange_weak(count, count + 1, std::memory_order_seq_cst,
                                            std::memory_order_relaxed)) {
      // Order the pin before the caller's generation recheck (see mm_locks.h).
      std::atomic_thread_fence(std::memory_order_seq_cst);
      return true;
    }
  }
}

void FrameAllocator::AddRefs(FrameId frame, uint32_t count) {
  PageMeta& meta = GetMeta(frame);
  ODF_VM_BUG_ON_PAGE((meta.flags & kPageFlagAllocated) == 0, meta, frame)
      << "AddRefs on freed frame";
  ODF_VM_BUG_ON_PAGE(meta.IsCompoundTail(), meta, frame) << "AddRefs on compound tail";
  uint32_t previous = meta.refcount.fetch_add(count, std::memory_order_relaxed);
  ODF_VM_BUG_ON_PAGE(previous + count >= debug::kRefcountSaturated, meta, frame)
      << "refcount saturation";
  (void)previous;
}

void FrameAllocator::IncPtShare(FrameId table) {
  PageMeta& meta = GetMeta(table);
  ODF_VM_BUG_ON_PAGE(!meta.IsPageTable(), meta, table)
      << "pt_share increment on non-table frame";
  ODF_VM_BUG_ON_PAGE((meta.flags & kPageFlagAllocated) == 0, meta, table)
      << "pt_share increment on freed table";
  meta.pt_share_count.fetch_add(1, std::memory_order_relaxed);
}

uint32_t FrameAllocator::DecPtShare(FrameId table) {
  PageMeta& meta = GetMeta(table);
  ODF_VM_BUG_ON_PAGE(!meta.IsPageTable(), meta, table)
      << "pt_share decrement on non-table frame";
  // acq_rel for the same reason as DecRef: the thread that drops the last share takes
  // exclusive ownership of the table and must observe every other sharer's writes.
  uint32_t previous = meta.pt_share_count.fetch_sub(1, std::memory_order_acq_rel);
  ODF_VM_BUG_ON_PAGE(previous == 0, meta, table) << "pt_share underflow";
  return previous;
}

void FrameAllocator::IncRefBatch(std::span<const FrameId> frames) {
  for (FrameId frame : frames) {
    PageMeta& meta = MetaRef(frame);
    ODF_VM_BUG_ON_PAGE((meta.flags & kPageFlagAllocated) == 0, meta, frame)
        << "IncRef on freed frame";
    ODF_DCHECK(!meta.IsCompoundTail()) << "IncRef on compound tail " << frame;
    uint32_t previous = meta.refcount.fetch_add(1, std::memory_order_relaxed);
    ODF_VM_BUG_ON_PAGE(previous >= debug::kRefcountSaturated, meta, frame)
        << "refcount saturation";
    (void)previous;
  }
}

void FrameAllocator::IncPtShareBatch(std::span<const FrameId> tables) {
  for (FrameId table : tables) {
    PageMeta& meta = MetaRef(table);
    ODF_VM_BUG_ON_PAGE((meta.flags & kPageFlagAllocated) == 0, meta, table)
        << "pt_share increment on freed table";
    ODF_DCHECK(meta.IsPageTable()) << "pt_share increment on non-table frame " << table;
    meta.pt_share_count.fetch_add(1, std::memory_order_relaxed);
  }
}

void FrameAllocator::DecRef(FrameId frame) {
  PageMeta& meta = GetMeta(frame);
  ODF_VM_BUG_ON_PAGE((meta.flags & kPageFlagAllocated) == 0, meta, frame)
      << "DecRef on freed frame";
  ODF_VM_BUG_ON_PAGE(meta.IsCompoundTail(), meta, frame) << "DecRef on compound tail";
  ODF_DCHECK(!meta.IsCompoundTail()) << "DecRef on compound tail " << frame;
  uint32_t previous = meta.refcount.fetch_sub(1, std::memory_order_acq_rel);
  ODF_VM_BUG_ON_PAGE(previous == 0, meta, frame) << "refcount underflow";
  ODF_DCHECK(previous != 0) << "refcount underflow on frame " << frame;
  if (previous != 1) {
    return;
  }
  // Last reference: the acq_rel RMW above ordered every other owner's accesses before this
  // point, so the frame is exclusively ours to tear down — lock-free when cacheable.
  // Poisoned frames always take the locked path: they retire to quarantine, never a cache.
  if (!meta.IsCompoundHead() && !meta.IsHwPoisoned() && CacheEligible()) {
    FreeToCache(frame);
    return;
  }
  debug::MutexGuard guard(mutex_, g_pool_lock_class);
  FreeOneLocked(frame);
}

void FrameAllocator::DecRefBatch(std::span<const FrameId> frames) {
  // Drop every reference first, collecting the frames that hit zero, then free those under
  // a single shared-pool lock acquisition (one lock round-trip per 512-entry table instead
  // of one per entry).
  std::array<FrameId, 512> dead;
  size_t dead_count = 0;
  for (FrameId frame : frames) {
    PageMeta& meta = MetaRef(frame);
    ODF_VM_BUG_ON_PAGE((meta.flags & kPageFlagAllocated) == 0, meta, frame)
        << "DecRef on freed frame";
    ODF_DCHECK(!meta.IsCompoundTail()) << "DecRef on compound tail " << frame;
    uint32_t previous = meta.refcount.fetch_sub(1, std::memory_order_acq_rel);
    ODF_VM_BUG_ON_PAGE(previous == 0, meta, frame) << "refcount underflow";
    ODF_DCHECK(previous != 0) << "refcount underflow on frame " << frame;
    if (previous == 1) {
      dead[dead_count++] = frame;
      if (dead_count == dead.size()) {
        FreeBatch(std::span<const FrameId>(dead.data(), dead_count));
        dead_count = 0;
      }
    }
  }
  if (dead_count > 0) {
    FreeBatch(std::span<const FrameId>(dead.data(), dead_count));
  }
}

void FrameAllocator::FreeBatch(std::span<const FrameId> frames) {
  if (frames.empty()) {
    return;
  }
  CountVm(VmCounter::k_batch_free, frames.size());
  ODF_TRACE(batch_free, 0, static_cast<uint64_t>(frames.size()));
  debug::MutexGuard guard(mutex_, g_pool_lock_class);
  FreeBatchLocked(frames);
}

void FrameAllocator::FreeBatchLocked(std::span<const FrameId> frames) {
  for (FrameId frame : frames) {
    FreeOneLocked(frame);
  }
}

void FrameAllocator::FreeOneLocked(FrameId frame) {
  PageMeta& meta = MetaRef(frame);
  ODF_VM_BUG_ON_PAGE((meta.flags & kPageFlagAllocated) == 0, meta, frame) << "double free";
  ODF_DCHECK((meta.flags & kPageFlagAllocated) != 0) << "double free of frame " << frame;
  if (meta.IsCompoundHead()) {
    FreeCompoundLocked(frame, meta);
    return;
  }
  bool poisoned = meta.IsHwPoisoned();
  ReleaseFrameState(frame, meta);
  if (poisoned) {
    QuarantineLocked(frame);  // Final free of a poisoned frame: retire it for good.
  } else {
    free_list_.push_back(frame);
  }
}

void FrameAllocator::FreeCompoundLocked(FrameId head, PageMeta& meta) {
  ODF_VM_BUG_ON_PAGE(meta.refcount.load(std::memory_order_relaxed) > 1, meta, head)
      << "freeing a compound that still has owners";
  uint8_t written = meta.written.load(std::memory_order_relaxed);
  if (written != 0) {
    stats_.materialized_bytes.fetch_sub(kHugePageSize, std::memory_order_relaxed);
  }
  // A subpage that died to a memory error forfeits the 512-aligned run, exactly like the
  // kernel refusing to rebuild a huge page around a PageHWPoison tail: the dead subframes
  // are quarantined with their bytes in place and the clean ones are salvaged onto the
  // order-0 free list, each now carrying the compound's written state itself.
  bool split = false;
  for (FrameId i = 0; i < kCompoundFrames && !split; ++i) {
    split = MetaRef(head + i).IsHwPoisoned();
  }
  for (FrameId i = 0; i < kCompoundFrames; ++i) {
    PageMeta& sub = MetaRef(head + i);
    ODF_VM_BUG_ON_PAGE(i != 0 && sub.refcount.load(std::memory_order_relaxed) != 0, sub,
                       head + i)
        << "compound tail gained its own references";
    sub.flags = static_cast<uint8_t>(sub.flags & kPageFlagHwPoison);
    sub.compound_head = kInvalidFrame;
    sub.refcount.store(0, std::memory_order_relaxed);
    sub.pt_share_count.store(0, std::memory_order_relaxed);
#if ODF_DEBUG_VM_COMPILED
    sub.reserved = debug::kPoisonFreed;
#endif
    if (!split) {
      continue;
    }
    sub.written.store(written, std::memory_order_relaxed);
    if (sub.IsHwPoisoned()) {
      QuarantineLocked(head + i);
    } else {
      ReleaseBytes(head + i, kPageSize, sub);
      free_list_.push_back(head + i);
    }
  }
  if (!split) {
    ReleaseBytes(head, kHugePageSize, meta);
    compound_free_list_.push_back(head);
  }
  stats_.allocated_frames.fetch_sub(kCompoundFrames, std::memory_order_relaxed);
  CountVm(VmCounter::k_frames_freed, kCompoundFrames);
}

std::byte* FrameAllocator::MaterializeData(FrameId frame, bool /*zero*/) {
  PageMeta& owner = StateOwner(frame);
  // Unwritten bytes are already zero, so marking the frame written is all there is to do.
  // The exchange picks the one first writer that accounts the bytes when several race
  // (a MAP_SHARED file page written through two address spaces at once).
  if (owner.written.load(std::memory_order_relaxed) == 0 &&
      owner.written.exchange(1, std::memory_order_relaxed) == 0) {
    stats_.materialized_bytes.fetch_add(owner.IsCompoundHead() ? kHugePageSize : kPageSize,
                                        std::memory_order_relaxed);
  }
  return FrameBytes(frame);
}

std::byte* FrameAllocator::PeekData(FrameId frame) {
  bool written = StateOwner(frame).written.load(std::memory_order_relaxed) != 0;
  return written ? FrameBytes(frame) : nullptr;
}

const std::byte* FrameAllocator::PeekData(FrameId frame) const {
  return const_cast<FrameAllocator*>(this)->PeekData(frame);
}

uint64_t* FrameAllocator::TableEntries(FrameId frame) {
  ODF_DCHECK(GetMeta(frame).IsPageTable()) << "frame " << frame << " is not a page table";
  return reinterpret_cast<uint64_t*>(FrameBytes(frame));
}

FrameAllocatorStats FrameAllocator::Stats() const {
  FrameAllocatorStats snapshot;
  snapshot.total_frames = stats_.total_frames.load(std::memory_order_relaxed);
  snapshot.allocated_frames = stats_.allocated_frames.load(std::memory_order_relaxed);
  snapshot.materialized_bytes = stats_.materialized_bytes.load(std::memory_order_relaxed);
  snapshot.page_table_frames = stats_.page_table_frames.load(std::memory_order_relaxed);
  snapshot.hwpoisoned_frames = stats_.hwpoisoned_frames.load(std::memory_order_relaxed);
  snapshot.quarantined_frames = stats_.quarantined_frames.load(std::memory_order_relaxed);
  return snapshot;
}

bool FrameAllocator::AllFree() const {
  return stats_.allocated_frames.load(std::memory_order_relaxed) == 0;
}

uint64_t FrameAllocator::CachedFrames() const {
  return phys_internal::CachedFrameCount(this);
}

}  // namespace odf
