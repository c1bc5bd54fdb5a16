#include "src/pt/mm_locks.h"

#include <algorithm>

#include "src/debug/debug.h"
#include "src/trace/metrics.h"
#include "src/trace/trace.h"

namespace odf {

namespace {

debug::LockClass g_as_shard_lock_class("mm::AsShard");

LatencyHistogram& MmLockWaitHistogram() {
  static LatencyHistogram& histogram =
      MetricsRegistry::Global().RegisterHistogram("mm_lock_wait");
  return histogram;
}

// TLS write-reentrancy frames for MmLockTable::WriteScope: AddressSpace ops nest
// (Remap -> Unmap) on the same gate, and BravoGate's exclusive side is not reentrant.
struct WriteHold {
  const MmLockTable* table = nullptr;
  int depth = 0;
};
constexpr int kMaxWriteHolds = 8;
thread_local WriteHold t_write_holds[kMaxWriteHolds];

}  // namespace

debug::LockClass& AsShardLockClass() { return g_as_shard_lock_class; }

void NoteMmLockWait([[maybe_unused]] uint64_t kind, uint64_t wait_ns) {
  // `kind` is traced only — ODF_TRACE compiles out in no-trace builds.
  CountVm(VmCounter::k_lock_contended);
  ODF_TRACE(lock_contended, /*pid=*/0, kind, wait_ns);
  ODF_TRACE(lock_wait, /*pid=*/0, kind, wait_ns);
  MmLockWaitHistogram().RecordNanos(wait_ns);
}

MmLockTable::MmLockTable() {
  static std::atomic<uint64_t> next_as_id{1};
  as_id_ = next_as_id.fetch_add(1, std::memory_order_relaxed);
  // Eager registration: the mm_lock_wait histogram must appear in FormatVmstat and the
  // BENCH_*.json sidecars even for runs that never contend (count 0 is the data point).
  MmLockWaitHistogram();
}

void MmLockTable::InvalidatePage(Vaddr va) {
  shards_[ShardOf(va)].gen.fetch_add(1, std::memory_order_seq_cst);
  CountVm(VmCounter::k_tlb_shootdowns);
}

void MmLockTable::InvalidateRange(Vaddr start, Vaddr end) {
  if (end <= start) {
    return;
  }
  CountVm(VmCounter::k_tlb_shootdowns, (end - PageAlignDown(start) + kPageSize - 1) / kPageSize);
  uint64_t first = start >> (kPageShift + kHugePageOrder);
  uint64_t last = (end - 1) >> (kPageShift + kHugePageOrder);
  uint64_t covered = std::min<uint64_t>(last - first + 1, kShards);
  for (uint64_t chunk = first; chunk < first + covered; ++chunk) {
    shards_[chunk & (kShards - 1)].gen.fetch_add(1, std::memory_order_seq_cst);
  }
}

void MmLockTable::FlushAll() {
  for (Shard& shard : shards_) {
    shard.gen.fetch_add(1, std::memory_order_seq_cst);
  }
  CountVm(VmCounter::k_tlb_flushes);
  ODF_TRACE(tlb_flush, /*pid=*/0, as_id_);
}

MmLockTable::WriteScope::WriteScope(MmLockTable& table) : table_(table) {
  WriteHold* free_hold = nullptr;
  for (WriteHold& hold : t_write_holds) {
    if (hold.table == &table) {
      ++hold.depth;
      return;  // Reentrant nesting; the outer scope owns the gate.
    }
    if (hold.table == nullptr && free_hold == nullptr) {
      free_hold = &hold;
    }
  }
  ODF_CHECK(free_hold != nullptr) << "AS write-gate TLS hold stack exhausted";
  uint64_t wait_ns = table.gate_.LockExclusive();
  free_hold->table = &table;
  free_hold->depth = 1;
  owner_ = true;
  if (wait_ns > 1000) {
    NoteMmLockWait(/*kind=*/3, wait_ns);
  }
}

MmLockTable::WriteScope::~WriteScope() {
  for (WriteHold& hold : t_write_holds) {
    if (hold.table == &table_) {
      if (--hold.depth == 0) {
        hold.table = nullptr;
        ODF_DCHECK(owner_);
        table_.gate_.UnlockExclusive();
      }
      return;
    }
  }
  ODF_CHECK(false) << "AS write-gate release without a matching TLS hold";
}

}  // namespace odf
