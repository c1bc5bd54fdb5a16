// Physical frame allocator for the simulated machine.
//
// Frames are identified by dense FrameId indices into a chunked metadata array (the analog of
// the kernel's memmap/`struct page` array). Frame *data* (the 4 KiB contents) is materialised
// lazily on first write so that a 50 GB simulated mapping costs only metadata — this is the
// substitution that lets paper-scale sweeps run in a small container (see DESIGN.md).
//
// Concurrency model (docs/performance.md): order-0 allocation and free are served from
// per-thread frame caches (src/phys/per_cpu_cache.h, the pcplist analog) and touch the
// shared-pool mutex only to refill or spill a batch of frames. Refcount/free traffic on the
// fork and teardown paths goes through the batch APIs below so a 512-entry table costs one
// lock round-trip instead of 512. Statistics are relaxed atomics, so `Stats()` is race-free
// while caches run uncoordinated.
#ifndef ODF_SRC_PHYS_FRAME_ALLOCATOR_H_
#define ODF_SRC_PHYS_FRAME_ALLOCATOR_H_

#include <array>
#include <atomic>
#include <cstddef>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "src/phys/page_meta.h"
#include "src/util/mutex.h"
#include "src/util/thread_annotations.h"

namespace odf {

namespace phys_internal {
struct PerCpuCache;
}  // namespace phys_internal

// Aggregate allocator statistics: a coherent-enough snapshot assembled from relaxed atomic
// counters, readable at any time without taking the allocator lock.
struct FrameAllocatorStats {
  uint64_t total_frames = 0;      // Frames ever created (high-water mark).
  uint64_t allocated_frames = 0;  // Currently allocated (counting each tail of a compound).
  uint64_t materialized_bytes = 0;  // Real memory held by frame data buffers.
  uint64_t page_table_frames = 0;
  uint64_t hwpoisoned_frames = 0;   // Frames carrying kPageFlagHwPoison (mapped or retired).
  uint64_t quarantined_frames = 0;  // Poisoned frames parked on the quarantine list.
};

class FrameAllocator {
 public:
  FrameAllocator();
  ~FrameAllocator();

  FrameAllocator(const FrameAllocator&) = delete;
  FrameAllocator& operator=(const FrameAllocator&) = delete;

  // Allocates one 4 KiB frame. `flags` should include the owner kind (anon/file/page-table).
  // Page-table frames get their data materialised and zeroed immediately (tables are always
  // real memory; they are what this library is about). The frame starts with refcount 1.
  //
  // This is the GFP_NOFAIL analog: it never consults fault injection and aborts when the
  // frame limit cannot be satisfied after reclaim. Recoverable paths use TryAllocate.
  //
  // While no frame limit is armed, the fast path is a per-thread cache hit that never takes
  // the shared-pool lock.
  FrameId Allocate(uint8_t flags);

  // Allocates a 2 MiB compound page (512 contiguous frames, head + tails). Returns the head.
  // The head starts with refcount 1; tails are marked and redirect to the head. NOFAIL, like
  // Allocate. Compounds always go through the shared pool (they are 512-frame events; the
  // per-thread caches hold only order-0 frames, exactly like pcplists).
  FrameId AllocateCompound(uint8_t flags);

  // Fallible variants (paper §4 "Robustness"): return kInvalidFrame instead of aborting when
  // the frame limit cannot be satisfied after reclaim, or when fault injection (src/fi,
  // sites frame_alloc / page_table_alloc / compound_alloc) fails the call. Callers must
  // unwind cleanly on kInvalidFrame — see docs/robustness.md for the error contract.
  //
  // Fault injection is consulted before the per-thread cache, so an injected failure fails
  // the logical allocation even when a cached frame could have served it (schedules stay
  // seed-replayable regardless of cache state).
  [[nodiscard]] FrameId TryAllocate(uint8_t flags);
  [[nodiscard]] FrameId TryAllocateCompound(uint8_t flags);

  // Drops one reference; frees the frame when the count hits zero. For compound heads the
  // entire compound is freed. Must not be called on tails (callers resolve the head first).
  // Order-0 frames freed while no limit is armed go to the calling thread's cache.
  void DecRef(FrameId frame);

  // Adds a reference. All refcount mutation goes through these entry points (enforced by
  // scripts/odf_lint.py rule raw-refcount) so the debug-vm underflow/saturation/freed-frame
  // checks see every transition.
  void IncRef(FrameId frame);

  // Speculative pin for a translation-cache hit (the get_page_unless_zero analog): CASes
  // the refcount up only while it is observably nonzero, so a frame mid-free is never
  // resurrected. Returns false when the count was zero. Callers resolve compound heads
  // before pinning (tails keep refcount 0 and correctly fail) and MUST validate the pin
  // against the covering shard generation before trusting the frame: a pin can land on a
  // freed-and-reused frame id, which is harmless (the +1/-1 is net zero on whatever the
  // frame is now) exactly because the generation recheck rejects the stale translation.
  // Release via DecRef(frame).
  [[nodiscard]] bool TryGetRef(FrameId frame);

  // Adds `count` references at once (huge-page split: the head absorbs one reference per
  // new PTE). Checked like IncRef.
  void AddRefs(FrameId frame, uint32_t count);

  // Adds/drops one sharer on a PTE/PMD-table frame's pt_share_count (on-demand-fork table
  // sharing, §3.6). DecPtShare returns the PREVIOUS value: 1 means the caller just dropped
  // the last sharer and owns the table exclusively (the dedicate/teardown paths branch on
  // this exactly like atomic_dec_and_test).
  void IncPtShare(FrameId table);
  uint32_t DecPtShare(FrameId table);

  // --- Batched operations: one shared-pool lock round-trip per batch, not per frame ---

  // Fills `out` with freshly allocated order-0 frames. NOFAIL, like Allocate; equivalent to
  // out.size() Allocate(flags) calls but the free list is popped under a single lock hold.
  void AllocateBatch(uint8_t flags, std::span<FrameId> out);

  // Frees frames owned solely by the caller (each must have refcount exactly 1) under a
  // single lock acquisition. The bulk-teardown analog of free_pages_bulk.
  void FreeBatch(std::span<const FrameId> frames);

  // Adds one reference to each frame (callers pass resolved compound heads). One call per
  // copied PTE table keeps the fork-path cost visible at a single site.
  void IncRefBatch(std::span<const FrameId> frames);

  // Drops one reference from each frame; all frames that hit zero are freed together under
  // a single lock acquisition (counted as batch_free in vmstat).
  void DecRefBatch(std::span<const FrameId> frames);

  // Adds one sharer to each PTE/PMD-table frame's pt_share_count (fork_odf table sharing).
  void IncPtShareBatch(std::span<const FrameId> tables);

  PageMeta& GetMeta(FrameId frame);
  const PageMeta& GetMeta(FrameId frame) const;

  // Returns the frame's data buffer, materialising (and zero-filling) it if absent.
  // For compound tails, returns the interior pointer into the head's 2 MiB buffer.
  // Pass zero=false only when the caller immediately overwrites the whole buffer (COW
  // copies), saving a redundant clear.
  //
  // Materialisation synchronises on a striped lock keyed by frame id — concurrent faults on
  // different frames never serialise here, and the shared-pool lock is not involved.
  std::byte* MaterializeData(FrameId frame, bool zero = true);

  // Returns the data buffer or nullptr if the frame's content is still logical-zero.
  std::byte* PeekData(FrameId frame);
  const std::byte* PeekData(FrameId frame) const;

  // Entries view for page-table frames (asserts kPageFlagPageTable).
  uint64_t* TableEntries(FrameId frame);

  FrameAllocatorStats Stats() const;

  // True when every frame ever allocated has been freed — the leak check used by tests.
  // Frames parked in per-thread caches are free (they count toward nothing here).
  bool AllFree() const;

  // Frames currently parked in this allocator's per-thread caches. Callers must be quiescent
  // (no thread concurrently allocating/freeing); intended for tests and procfs.
  uint64_t CachedFrames() const;

  // --- Simulated physical-memory pressure (paper §4 "Robustness") ---

  // Caps the number of simultaneously allocated frames (the machine's RAM size). 0 (the
  // default) means unlimited. When an allocation would exceed the limit, the reclaim
  // callback runs (outside the allocator lock) until enough frames are free; if it cannot
  // make progress the allocation is a fatal OOM.
  //
  // Arming a limit routes every allocation and free through the locked quota path (the
  // per-thread caches stand down) so the limit is enforced exactly, not approximately.
  void SetFrameLimit(uint64_t frames);
  uint64_t frame_limit() const;

  // Must free frames (swap out pages / kill a process) and return how many it freed.
  using ReclaimCallback = std::function<uint64_t(uint64_t want)>;
  void SetReclaimCallback(ReclaimCallback callback);

  // --- Watermarks and background reclaim (src/reclaim, docs/reclaim.md) ---
  //
  // The zone-watermark analog. While a frame limit is armed, allocations compare the free
  // count against LOW on their way through the quota gate: below LOW the pressure callback
  // (kswapd's Wake) fires, and the daemon reclaims until free frames recover to HIGH. MIN
  // is advisory — the depth at which direct reclaim is expected to be doing the work.
  struct Watermarks {
    uint64_t min = 0;
    uint64_t low = 0;
    uint64_t high = 0;
  };

  // Overrides the derived defaults (SetFrameLimit sets min = frames/64 + 4, low = 2*min,
  // high = 3*min, mirroring the kernel's min_free_kbytes scaling).
  void SetWatermarks(Watermarks wm);
  Watermarks watermarks() const;

  // Frames still allocatable under the current limit (limit - allocated, saturating at 0);
  // UINT64_MAX while unlimited.
  uint64_t FreeFrames() const;

  // Cheap, non-blocking notification hook invoked (outside the allocator lock) when an
  // allocation observes free < low. Distinct from the reclaim callback: this one only
  // nudges a daemon, it must not reclaim inline or take heavy locks.
  using PressureCallback = std::function<void()>;
  void SetPressureCallback(PressureCallback callback);

  // --- Memory failure (src/mf, docs/memory-failure.md) ---

  // Marks `frame` as having suffered an uncorrectable memory error (the PageHWPoison
  // analog). Permanent: the flag is never cleared. A poisoned frame that is currently free
  // is diverted to the quarantine list (eagerly when reachable, else at its next pop); an
  // allocated one is quarantined when its last reference drops instead of re-entering the
  // free list or a per-thread cache. The sole mutator of kPageFlagHwPoison (lint rule
  // hwpoison-flag); only src/mf calls this, under the exclusive MmGate.
  void MarkHwPoison(FrameId frame);

  // True when the frame carries kPageFlagHwPoison. Callers needing a stable answer must
  // hold the exclusive MmGate (the flag is only ever set under it).
  bool IsHwPoisoned(FrameId frame) const;

  // Internal: returns `cache`'s frames to the shared free list. Called (under the cache
  // registry lock) when a thread exits with cached frames; see src/phys/per_cpu_cache.h.
  void DrainCacheToPool(phys_internal::PerCpuCache& cache);

 private:
  static constexpr size_t kChunkShift = 16;  // 65536 frames (256 MiB simulated) per chunk.
  static constexpr size_t kChunkSize = 1ULL << kChunkShift;
  // Fixed spine of chunk pointers so GetMeta never races chunk growth: slots are published
  // with a release store and read with an acquire load (the sparse-memmap-section analog).
  // 4096 chunks x 64 Ki frames x 4 KiB = 1 TiB of simulated memory, far above any sweep.
  static constexpr size_t kMaxChunks = 4096;

  struct AtomicStats {
    std::atomic<uint64_t> total_frames{0};
    std::atomic<uint64_t> allocated_frames{0};
    std::atomic<uint64_t> materialized_bytes{0};
    std::atomic<uint64_t> page_table_frames{0};
    std::atomic<uint64_t> hwpoisoned_frames{0};
    std::atomic<uint64_t> quarantined_frames{0};
  };

  // Grows the metadata array by one chunk and pushes its frames onto the free list.
  void AddChunkLocked() ODF_REQUIRES(mutex_);
  FrameId PopFreeLocked() ODF_REQUIRES(mutex_);
  void FreeOneLocked(FrameId frame) ODF_REQUIRES(mutex_);
  void FreeBatchLocked(std::span<const FrameId> frames) ODF_REQUIRES(mutex_);
  // Parks a free poisoned frame on the quarantine list (terminal; never popped again).
  void QuarantineLocked(FrameId frame) ODF_REQUIRES(mutex_);

  // Cache fast paths. AllocateFromCache returns kInvalidFrame when the cache must stand
  // down (frame limit armed); FreeToCache requires an order-0 non-compound frame whose
  // refcount already reached zero.
  FrameId AllocateFromCache(uint8_t flags);
  void FreeToCache(FrameId frame);
  bool CacheEligible() const {
    return frame_limit_.load(std::memory_order_relaxed) == 0;
  }

  // Marks `frame` allocated and initialises its metadata. Caller owns the frame exclusively
  // (just popped from the free list or a cache); no lock is required.
  void InitAllocatedFrame(FrameId frame, uint8_t flags);
  // Inverse: tears down an order-0 non-compound frame's state (drops the data buffer,
  // adjusts stats) before the id is parked in a cache or the free list.
  void ReleaseFrameState(PageMeta& meta);

  PageMeta& MetaRef(FrameId frame) const;

  // Blocks (outside the lock) until `frames` more can be allocated under the limit; aborts
  // when reclaim cannot make room (the NOFAIL contract).
  void WaitForQuota(uint64_t frames);

  // Like WaitForQuota but returns false instead of aborting when reclaim is exhausted (or no
  // reclaimer is installed while over the limit).
  [[nodiscard]] bool TryWaitForQuota(uint64_t frames);

  // Allocation bodies shared by the NOFAIL and Try entry points (quota already granted).
  FrameId AllocateGranted(uint8_t flags);
  FrameId AllocateCompoundGranted(uint8_t flags);

  // Never-reused identity for the per-thread cache table (see per_cpu_cache.h).
  const uint64_t id_;

  // Wakes the pressure callback when `want` more frames would leave free below LOW.
  void MaybeWakeReclaim(uint64_t want);

  mutable util::Mutex mutex_;
  std::atomic<uint64_t> frame_limit_{0};
  std::atomic<uint64_t> wm_min_{0};
  std::atomic<uint64_t> wm_low_{0};
  std::atomic<uint64_t> wm_high_{0};
  // Explicit SetWatermarks pins the values; otherwise SetFrameLimit re-derives them.
  bool watermarks_explicit_ ODF_GUARDED_BY(mutex_) = false;
  ReclaimCallback reclaim_callback_ ODF_GUARDED_BY(mutex_);
  PressureCallback pressure_callback_ ODF_GUARDED_BY(mutex_);
  std::atomic<bool> pressure_armed_{false};
  // Ownership; indexing goes via the spine.
  std::vector<std::unique_ptr<PageMeta[]>> chunks_ ODF_GUARDED_BY(mutex_);
  std::array<std::atomic<PageMeta*>, kMaxChunks> chunk_table_{};
  std::vector<FrameId> free_list_ ODF_GUARDED_BY(mutex_);
  // Free list of 512-aligned compound candidates (freed compounds are recycled whole).
  std::vector<FrameId> compound_free_list_ ODF_GUARDED_BY(mutex_);
  // Terminal parking lot for hwpoisoned frames: never popped, never re-entering any free
  // list. A quarantined frame keeps its data buffer (corrupted contents stay inspectable
  // in crash dumps and replay logs — the poison-on-free memset is skipped for them).
  std::vector<FrameId> quarantine_ ODF_GUARDED_BY(mutex_);
  AtomicStats stats_;
};

}  // namespace odf

#endif  // ODF_SRC_PHYS_FRAME_ALLOCATOR_H_
