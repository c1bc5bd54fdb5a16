// MmGate — the kernel-wide mutator/evictor gate (docs/reclaim.md "Locking").
//
// Reclaim rewrites leaf PTEs behind the backs of every process — including PTEs in tables
// shared across address spaces by on-demand-fork — and then frees the frames those entries
// referenced. The split-lock protocol (range_ops.h) orders *structural* mutation of one
// table, but a frame's mappings span many tables, and a mutator mid-fault carries PTE
// values in locals between translate and the data copy. The gate makes eviction sound the
// same way try_to_unmap relies on the rmap locks plus TLB shootdown IPIs: mutators hold
// the gate SHARED for the duration of one memory operation, the evictor takes it
// EXCLUSIVE, so an eviction batch observes quiescent page tables and can flush TLBs
// before any mutator runs again. The same quiescence is what lets the reclaim sweep
// (src/reclaim/rmap.h) read every address space's page tables as the reverse map.
//
// It lives in the page-table layer because every mutator in mm takes it; the evictors
// that take it exclusively (src/reclaim, src/mf, the verifier) sit above.
//
// Rules (lock order: debug::MutationScope -> per-AS gate -> shard mutex -> MmGate ->
// Kernel::table_mutex_ -> the rest; see the table in docs/debugging.md):
//   - Mutator paths (AccessMemory's fault paths, the mmap family, fork, exit) take
//     SharedScope — INSIDE any per-AS gate or shard lock they hold, never outside.
//     Shared holds are reentrant per thread and no-ops while the thread holds the gate
//     exclusively (the OOM killer calls Kernel::Exit from inside an eviction).
//   - Eviction (kswapd balance rounds, direct reclaim, memory failure, VerifyKernel,
//     the reverse-map queries) takes
//     ExclusiveScope. ExclusiveScope UPGRADES: it releases the calling thread's shared
//     holds first and restores them afterwards, so a mutator blocked at the allocation
//     quota can run direct reclaim without deadlocking against its own shared hold.
//   - No other lock may be held at a quota-wait allocation point (TryWaitForQuota): a
//     mutator blocked there has dropped the gate, and any lock it still held could be
//     needed by the eviction that must run to unblock it. DedicateTable (range_ops.cc)
//     and MemFile::GetPage (mem_fs.cc) pre-allocate outside their locks for exactly this
//     reason.
#ifndef ODF_SRC_PT_MM_GATE_H_
#define ODF_SRC_PT_MM_GATE_H_

#include "src/util/bravo_gate.h"
#include "src/util/thread_annotations.h"

namespace odf {

// Capability "mm_gate", always named MmGate::Global() in attribute expressions:
// SharedScope/ExclusiveScope carry the acquire/release contracts, and evictor-only
// machinery (the reclaim sweep and its CLOCK hand) declares ODF_REQUIRES(Global()) so a
// call without an exclusive scope in sight is a compile error. The reentrant/upgrade
// protocol lives in TLS + the unannotated BravoGate underneath, and is cross-function
// (the nested scope is opened in a callee), so the intraprocedural analysis never sees
// a same-function double acquire and no opt-outs are needed.
class ODF_CAPABILITY("mm_gate") MmGate {
 public:
  static MmGate& Global();

  MmGate(const MmGate&) = delete;
  MmGate& operator=(const MmGate&) = delete;

  // True while the calling thread holds the gate exclusively.
  static bool ThreadHoldsExclusive();
  // Number of SharedScopes open on the calling thread (0 = outside any memory operation).
  static int ThreadSharedDepth();

  // Mutator side: shared hold for the duration of one memory operation. Reentrant per
  // thread; a no-op while the calling thread holds the gate exclusively.
  class ODF_SCOPED_CAPABILITY SharedScope {
   public:
    SharedScope() ODF_ACQUIRE_SHARED(Global());
    ~SharedScope() ODF_RELEASE_GENERIC();
    SharedScope(const SharedScope&) = delete;
    SharedScope& operator=(const SharedScope&) = delete;
  };

  // Evictor side: exclusive hold with upgrade semantics. If the calling thread holds
  // shared (a mutator entering direct reclaim from the allocation quota wait), the shared
  // holds are released before blocking for exclusive and re-taken on scope exit — the
  // caller must re-validate any state derived under the dropped shared hold. Reentrant.
  class ODF_SCOPED_CAPABILITY ExclusiveScope {
   public:
    ExclusiveScope() ODF_ACQUIRE(Global());
    ~ExclusiveScope() ODF_RELEASE();
    ExclusiveScope(const ExclusiveScope&) = delete;
    ExclusiveScope& operator=(const ExclusiveScope&) = delete;

   private:
    int restored_shared_ = 0;
  };

 private:
  MmGate() = default;

  // BRAVO distributed reader/writer gate (util/bravo_gate.h): the shared side is taken on
  // EVERY memory access by every faulting thread, so the reader fast path must not bounce
  // a shared cache line — a plain shared_mutex reader count caps multi-thread fault
  // scaling long before the shard locks do.
  util::BravoGate gate_;
  static thread_local int tls_shared_depth_;
  static thread_local int tls_exclusive_depth_;
  static thread_local util::BravoGate::ReadToken tls_token_;
};

}  // namespace odf

#endif  // ODF_SRC_PT_MM_GATE_H_
