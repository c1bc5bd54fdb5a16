// AddressSpace: the simulator's mm_struct. Owns the VMA list, the root page table (PGD) and
// the sharded MM lock table (whose shard generations are the TLB); provides
// mmap/munmap/mremap/mprotect and pre-faulting.
//
// Thread-safety (docs/debugging.md "Lock order", docs/performance.md "Lock sharding"):
// every layout-mutating entry point (the mmap family, fork's copy phase, teardown) takes
// this space's MmLockTable WriteScope — the mmap_lock analog, but per address space and
// only writer-vs-reader: faulting threads hold the gate SHARED plus exactly one 2 MiB-range
// shard mutex, so faults in disjoint ranges never serialize on this structure. PTE tables
// shared across address spaces via on-demand-fork are additionally protected by per-table
// split locks (see range_ops.h), and entry words are accessed through atomic_ref so
// concurrent walkers in sharing processes are well-defined.
#ifndef ODF_SRC_MM_ADDRESS_SPACE_H_
#define ODF_SRC_MM_ADDRESS_SPACE_H_

#include <cstdint>
#include <map>
#include <vector>
#include <memory>

#include "src/mm/swap.h"
#include "src/mm/vma.h"
#include "src/phys/frame_allocator.h"
#include "src/pt/mm_locks.h"
#include "src/pt/walker.h"
#include "src/util/relaxed_counter.h"

namespace odf {

// Fault counters. Relaxed atomics: concurrent faulters in disjoint shards bump these with
// no lock in common, and monitoring reads race the bumps by design (util/relaxed_counter.h).
struct MmStats {
  util::RelaxedCounter demand_zero_faults;
  util::RelaxedCounter file_faults;
  util::RelaxedCounter cow_page_faults;       // 4 KiB data-page copies.
  util::RelaxedCounter cow_huge_faults;       // 2 MiB data-page copies.
  util::RelaxedCounter cow_reuse_faults;      // Sole owner: write-enabled in place, no copy.
  util::RelaxedCounter pte_table_cow_faults;  // Shared PTE table copied on demand (ODF path).
  util::RelaxedCounter pte_table_fixups;      // share_count==1: PMD write-enable, no copy.
  util::RelaxedCounter pmd_table_cow_faults;  // Shared PMD table copied (kOnDemandHuge, §4).
  util::RelaxedCounter pmd_table_fixups;      // share_count==1: PUD write-enable, no copy.
  util::RelaxedCounter swap_in_faults;        // Pages read back from the swap device.
  util::RelaxedCounter segv_faults;
  util::RelaxedCounter oom_faults;            // Faults failed with kOom (allocation denied).
  util::RelaxedCounter swap_io_faults;        // Faults failed with kSwapIoError.
  util::RelaxedCounter slow_path_translations;  // Cache misses resolved by the locked walk.
};

class AddressSpace {
 public:
  explicit AddressSpace(FrameAllocator* allocator, SwapSpace* swap = nullptr);
  ~AddressSpace();

  AddressSpace(const AddressSpace&) = delete;
  AddressSpace& operator=(const AddressSpace&) = delete;

  // --- Mapping syscall analogs (addresses chosen by a bump allocator unless hinted) ---

  // mmap(MAP_PRIVATE|MAP_ANONYMOUS). `huge` requests 2 MiB pages (MAP_HUGETLB analog);
  // huge mappings are 2 MiB-aligned and sized. Returns the mapped start address.
  Vaddr MapAnonymous(uint64_t length, uint32_t prot, bool huge = false, Vaddr hint = 0);

  // mmap of a file region. `shared` selects MAP_SHARED vs MAP_PRIVATE.
  Vaddr MapFile(std::shared_ptr<MemFile> file, uint64_t file_offset, uint64_t length,
                uint32_t prot, bool shared, Vaddr hint = 0);

  // munmap. Partial unmaps split VMAs. Huge VMAs must be unmapped at 2 MiB granularity.
  void Unmap(Vaddr start, uint64_t length);

  // mremap(MREMAP_MAYMOVE): shrinks in place, grows in place when the gap allows, otherwise
  // moves the mapping (copying page-table entries, not data). Returns the new start.
  Vaddr Remap(Vaddr old_start, uint64_t old_length, uint64_t new_length);

  // mprotect over an existing mapped range.
  void Protect(Vaddr start, uint64_t length, uint32_t prot);

  // Pre-faults every page of the range (MAP_POPULATE analog): pages become present and, for
  // writable VMAs, writable — without writing any data frame. Benchmarks use this to
  // stand up paper-scale "initialised" memory cheaply (see DESIGN.md).
  void PopulateRange(Vaddr start, uint64_t length);

  // madvise(MADV_DONTNEED): drops the range's current pages without unmapping. Anonymous
  // memory reads back as zeros afterwards; private file pages revert to the page-cache
  // view. Other processes sharing PTE tables with this range are unaffected (the shared
  // table is dropped or dedicated per §3.3, exactly like munmap).
  void AdviseDontNeed(Vaddr start, uint64_t length);

  // mincore: one byte per page in [start, start+length): bit 0 = resident, bit 1 = on the
  // swap device. Does not fault anything in.
  void Mincore(Vaddr start, uint64_t length, std::vector<uint8_t>* out);

  // Unmaps everything (exit teardown). Also called by the destructor.
  void TearDown();
  // True once TearDown has released the page tables (the PGD included). Set under the
  // MmGate, so an evictor holding it exclusively can tell a dead space from a live one.
  bool torn_down() const { return torn_down_; }

  // --- Introspection ---

  VmArea* FindVma(Vaddr va);
  const std::map<Vaddr, VmArea>& vmas() const { return vmas_; }
  FrameId pgd() const { return pgd_; }
  Walker& walker() { return walker_; }
  FrameAllocator& allocator() { return *allocator_; }
  SwapSpace* swap_space() { return swap_; }
  MmStats& stats() { return stats_; }
  const MmStats& stats() const { return stats_; }

  // The sharded lock table guarding this address space (src/pt/mm_locks.h): the fault path
  // takes ReadScope + one ShardScope; layout mutators (and fork) take WriteScope; the
  // translation cache validates against its shard generations, and every mutator
  // invalidates translations through it (InvalidatePage/InvalidateRange/FlushAll).
  MmLockTable& locks() { return locks_; }

  // Pid of the owning process (0 before attachment); lets mm-layer tracepoints attribute
  // fault events without a dependency on the proc layer.
  int32_t owner_pid() const { return owner_pid_; }
  void set_owner_pid(int32_t pid) { owner_pid_ = pid; }

  // Total mapped bytes across VMAs.
  uint64_t MappedBytes() const;

  // Counts present entries the slow way (testing aid).
  uint64_t CountPresentPtes();

  // Splits the VMA containing `va` so that `va` becomes a VMA boundary. No-op when already
  // a boundary. Exposed for range operations.
  void SplitVmaAt(Vaddr va);

  // Inserts a verbatim copy of `vma` at the same address range (fork support; the child must
  // mirror the parent's layout exactly). The range must be free in this address space.
  void AdoptVmaForFork(const VmArea& vma);

 private:
  Vaddr AllocateRange(uint64_t length, uint64_t alignment, Vaddr hint);
  void InsertVma(VmArea vma);

  FrameAllocator* allocator_;
  SwapSpace* swap_;
  Walker walker_;
  FrameId pgd_;
  MmLockTable locks_;
  std::map<Vaddr, VmArea> vmas_;  // Keyed by start address.
  Vaddr mmap_cursor_;
  MmStats stats_;
  int32_t owner_pid_ = 0;
  bool torn_down_ = false;
};

}  // namespace odf

#endif  // ODF_SRC_MM_ADDRESS_SPACE_H_
