// Sharded address-space locking and the per-thread translation cache.
//
// This is the lock plane behind the "shatter the global MM locks" refactor (ROADMAP item 1):
//
//   MmLockTable   one per AddressSpace — a BRAVO reader/writer gate for whole-AS operations
//                 (range ops, fork, teardown take it exclusive; fault slow paths take it
//                 shared) plus 64 range shards, each a 2 MiB-granular mutex and a shard
//                 *generation* counter. Faults in disjoint shards never contend. The shard
//                 generations are the simulator's only TLB: InvalidatePage/InvalidateRange/
//                 FlushAll bump the covering shard generation(s) — a range op bumps each
//                 covered shard ONCE (the batched shootdown), never once per PTE.
//
//   TranslationCache  a per-thread map of (as id, vpn) -> frame, validated by the covering
//                 shard generation — the one translation cache. The hit path is entirely
//                 lock-free: probe, pin the frame's refcount, recheck the generation, copy.
//                 Every miss, read or write, takes the locked walk, which refills it.
//
// Page-table frames are freed at once (DecRef), never deferred: each site that frees a
// published table holds a lock that excludes every walker still able to reach it — the
// covering shard, the AS gate exclusive, or the MmGate exclusive (docs/performance.md
// "Freeing a page table" lists the sites and the one known exception).
//
// Lock order (documented in docs/debugging.md): MutationScope -> AS gate -> shard mutex
// (fault path only, exactly one) -> MmGate shared -> split locks / rmap /
// allocator / LRU. The generation protocol's one load-bearing invariant: a mutator
// invalidates (bumps the covered shard generation) AFTER rewriting entries and BEFORE
// dropping the frame references those entries held ("gen before free"), so a reader whose
// pin precedes its successful generation recheck can never hold a stale frame.
#ifndef ODF_SRC_PT_MM_LOCKS_H_
#define ODF_SRC_PT_MM_LOCKS_H_

#include <atomic>
#include <cstdint>
#include <source_location>

#include "src/debug/lockdep.h"
#include "src/phys/frame_allocator.h"
#include "src/pt/geometry.h"
#include "src/util/bravo_gate.h"
#include "src/util/mutex.h"
#include "src/util/thread_annotations.h"

namespace odf {

// Lockdep class shared by all 64 shard mutexes of every address space. Exposed so the
// lockdep death test can drive a shard-vs-shard inversion without building two real ASes.
debug::LockClass& AsShardLockClass();

// Records a blocked MM-lock acquisition in the contention observability surface:
// the `lock_contended` vmstat counter, the `lock_contended`/`lock_wait` tracepoints, and
// the `mm_lock_wait` latency histogram (all of which land in FormatVmstat and the
// BENCH_*.json sidecars). `kind` is a small site discriminator carried in the trace args:
// 0 = MmGate reader, 1 = MmGate writer, 2 = AS-gate reader, 3 = AS-gate writer.
void NoteMmLockWait(uint64_t kind, uint64_t wait_ns);

// The whole-AS gate is itself a capability ("as_gate"): ReadScope/WriteScope below carry
// the acquire/release contracts, and mutation entry points declare ODF_REQUIRES(table) /
// ODF_REQUIRES_SHARED(table) so that calling them without the right scope in sight is a
// compile error under -Wthread-safety.
class ODF_CAPABILITY("as_gate") MmLockTable {
 public:
  static constexpr int kShards = 64;

  // The static stand-in for the 64 shard mutexes. The analysis cannot model a
  // dynamically-indexed lock array, so all shards of a table are ONE fictional
  // capability: ShardScope acquires `shard_cap`, and functions that assume "the covering
  // shard is held" declare ODF_REQUIRES(table.shard_cap). The fiction is *stricter* than
  // the runtime in exactly one way — holding two shards at once becomes a compile-time
  // double-acquire — which matches the discipline (and lockdep's same-class-nesting
  // abort): the fault path holds exactly one shard, ever.
  class ODF_CAPABILITY("shard") ShardCapability {};

  MmLockTable();
  MmLockTable(const MmLockTable&) = delete;
  MmLockTable& operator=(const MmLockTable&) = delete;

  // Monotonic, never-reused id for this address space; keys the per-thread translation
  // cache so entries from a destroyed AS can never validate.
  uint64_t as_id() const { return as_id_; }

  static int ShardOf(Vaddr va) {
    return static_cast<int>((va >> (kPageShift + kHugePageOrder)) & (kShards - 1));
  }

  uint64_t ShardGen(Vaddr va) const {
    return shards_[ShardOf(va)].gen.load(std::memory_order_seq_cst);
  }

  // The invalidation API (the TLB-shootdown analog). Call AFTER rewriting the entries and
  // BEFORE dropping the frame references they held (gen-before-free).
  //
  // One page (invlpg analog): bumps the covering shard; counts one vmstat tlb_shootdowns.
  void InvalidatePage(Vaddr va);
  // A virtual range: bumps each covered shard once, however many pages the range spans —
  // O(covered shards). Counts the range's pages in vmstat tlb_shootdowns.
  void InvalidateRange(Vaddr start, Vaddr end);
  // Full flush (CR3 reload analog): bumps every shard; counts one vmstat tlb_flushes.
  void FlushAll();

  // Whole-AS reader (fault slow path). Fast-path cost: one padded fetch_add + one load.
  // The BravoGate token protocol underneath is below the analysis (like std::atomic);
  // this scope carries the shared-capability contract for it.
  class ODF_SCOPED_CAPABILITY ReadScope {
   public:
    explicit ReadScope(MmLockTable& table) ODF_ACQUIRE_SHARED(table)
        : table_(table), token_(table.gate_.LockShared()) {
      if (token_.wait_ns != 0) {
        NoteMmLockWait(/*kind=*/2, token_.wait_ns);
      }
    }
    ReadScope(const ReadScope&) = delete;
    ReadScope& operator=(const ReadScope&) = delete;
    ~ReadScope() ODF_RELEASE_GENERIC() { table_.gate_.UnlockShared(token_); }

   private:
    MmLockTable& table_;
    util::BravoGate::ReadToken token_;
  };

  // Whole-AS writer (range ops, fork source, mapping changes). Reentrant on the same
  // thread for the same table (Remap -> Unmap), tracked in a small TLS frame stack; the
  // reentrancy is cross-function (Remap holds, calls Unmap which opens its own scope),
  // which the intraprocedural analysis never sees, so no opt-out is needed here.
  class ODF_SCOPED_CAPABILITY WriteScope {
   public:
    explicit WriteScope(MmLockTable& table) ODF_ACQUIRE(table);
    WriteScope(const WriteScope&) = delete;
    WriteScope& operator=(const WriteScope&) = delete;
    ~WriteScope() ODF_RELEASE();

   private:
    MmLockTable& table_;
    bool owner_ = false;  // False when this scope is a reentrant nesting.
  };

  // One shard's mutex, lockdep-tracked. The fault slow path holds exactly one. Runtime
  // locks shards_[ShardOf(va)].mu; the analysis is told about the `shard_cap` fiction
  // instead (see ShardCapability), so the ctor/dtor bodies are necessarily opted out —
  // allowlist entries 1+2 of ≤5 (docs/debugging.md).
  class ODF_SCOPED_CAPABILITY ShardScope {
   public:
    ShardScope(MmLockTable& table, Vaddr va,
               const std::source_location& loc = std::source_location::current())
        ODF_ACQUIRE(table.shard_cap) ODF_NO_THREAD_SAFETY_ANALYSIS
        : mu_(table.shards_[ShardOf(va)].mu) {
      debug::LockAcquired(AsShardLockClass(), loc.file_name(), loc.line());
      mu_.lock();  // odf-lint: allow(naked-lock) — this IS the scoped guard.
    }
    ShardScope(const ShardScope&) = delete;
    ShardScope& operator=(const ShardScope&) = delete;
    ~ShardScope() ODF_RELEASE() ODF_NO_THREAD_SAFETY_ANALYSIS {
      mu_.unlock();  // odf-lint: allow(naked-lock) — this IS the scoped guard.
      debug::LockReleased(AsShardLockClass());
    }

   private:
    util::Mutex& mu_;
  };

  // All 64 shard mutexes as one static capability — see ShardCapability.
  ShardCapability shard_cap;

 private:
  struct alignas(64) Shard {
    util::Mutex mu;
    std::atomic<uint64_t> gen{1};
  };

  util::BravoGate gate_;
  uint64_t as_id_;
  Shard shards_[kShards];
};

// Per-thread translation cache: the simulator's one translation cache. Entries are
// validated by (as id, vpn, shard generation); a hit costs a probe, a refcount pin, and a
// generation recheck — no locks, no shared cache lines.
struct TransCacheEntry {
  uint64_t as_id = 0;  // 0 = empty slot.
  uint64_t vpn = 0;
  uint64_t gen = 0;            // Covering shard generation when inserted.
  FrameId frame = kInvalidFrame;  // Leaf data frame (tail-resolved for huge mappings).
  FrameId pin = kInvalidFrame;    // Frame carrying the refcount (compound head).
  bool write_ok = false;  // True only when inserted by a WRITE access (dirty bit already set).
};

class TranslationCache {
 public:
  static constexpr size_t kEntries = 256;

  // Returns this thread's slot for (as_id, vpn); the caller checks the tags.
  static TransCacheEntry& SlotFor(uint64_t as_id, uint64_t vpn) {
    thread_local TransCacheEntry entries[kEntries];
    size_t index = (vpn ^ (as_id * 0x9E3779B97F4A7C15ull)) & (kEntries - 1);
    return entries[index];
  }
};

}  // namespace odf

#endif  // ODF_SRC_PT_MM_LOCKS_H_
