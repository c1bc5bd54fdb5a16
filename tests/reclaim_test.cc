// The odf::reclaim subsystem end to end (ctest labels: reclaim, concurrency):
// the page-table sweep's mapping granularity under both fork flavours, CLOCK aging,
// workingset refault detection, watermark-driven kswapd balancing, and the
// acceptance workload from docs/reclaim.md — a working set twice the frame pool
// that completes through reclaim alone, byte-checked, with zero OOM kills.
#include <gtest/gtest.h>

#include <chrono>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "src/debug/verify.h"
#include "src/fi/fault_inject.h"
#include "src/proc/procfs.h"
#include "src/reclaim/kswapd.h"
#include "src/reclaim/rmap.h"
#include "src/trace/metrics.h"
#include "tests/test_util.h"

namespace odf {
namespace {

// The built-in vmstat counters are process-global, so every assertion works on deltas.
class CounterDelta {
 public:
  explicit CounterDelta(VmCounter counter)
      : counter_(counter), start_(ReadVm(counter)) {}
  uint64_t Get() const { return ReadVm(counter_) - start_; }

 private:
  VmCounter counter_;
  uint64_t start_;
};

uint64_t VmstatValue(const std::string& vmstat, const std::string& name) {
  std::istringstream in(vmstat);
  std::string line;
  while (std::getline(in, line)) {
    size_t space = line.find(' ');
    if (space != std::string::npos && line.substr(0, space) == name) {
      return std::stoull(line.substr(space + 1));
    }
  }
  ADD_FAILURE() << "vmstat has no line for " << name;
  return 0;
}

void ExpectVerifies(Kernel& kernel) {
  debug::VerifyResult result = debug::VerifyKernel(kernel);
  EXPECT_TRUE(result.ok()) << result.Describe();
}

// Order-0 anonymous frames the CLOCK ages (active or not).
uint64_t ClockFrames(Kernel& kernel) {
  reclaim::RmapCensus census = kernel.rmap().Census();
  return census.active_anon + census.inactive_anon;
}

// Whether the page at `va` is resident (1) or on swap (2), per mincore.
uint8_t Residency(Process& p, Vaddr va) { return p.Mincore(va, kPageSize).at(0); }

// --- Sweep granularity ---

TEST(RmapTest, TracksLeafInstallAndClear) {
  Kernel kernel;
  Process& p = kernel.CreateProcess();
  reclaim::Rmap& rmap = kernel.rmap();
  ASSERT_EQ(rmap.TotalLocations(), 0u);

  Vaddr va = p.Mmap(8 * kPageSize, kProtRead | kProtWrite);
  FillPattern(p, va, 8 * kPageSize, 1);
  EXPECT_EQ(rmap.TotalLocations(), 8u);
  EXPECT_EQ(rmap.Census().frames, 8u);
  EXPECT_EQ(ClockFrames(kernel), 8u) << "anonymous order-0 frames age on the CLOCK";
  ExpectVerifies(kernel);

  p.Munmap(va, 8 * kPageSize);
  EXPECT_EQ(rmap.TotalLocations(), 0u);
  EXPECT_EQ(ClockFrames(kernel), 0u);
  ExpectVerifies(kernel);
}

TEST(RmapTest, HugePagesAreMappedButNotLruManaged) {
  Kernel kernel;
  Process& p = kernel.CreateProcess();
  Vaddr va = p.Mmap(kHugePageSize, kProtRead | kProtWrite, /*huge=*/true);
  WriteByte(p, va, std::byte{0x5a});
  EXPECT_EQ(kernel.rmap().TotalLocations(), 1u) << "one huge PMD entry, one location";
  EXPECT_EQ(ClockFrames(kernel), 0u) << "compound pages are not reclaim candidates";
  ExpectVerifies(kernel);
}

TEST(RmapTest, SharedPteTableIsOneLocationPerSlot) {
  Kernel kernel;
  Process& p = kernel.CreateProcess();
  Vaddr va = p.Mmap(8 * kPageSize, kProtRead | kProtWrite);
  FillPattern(p, va, 8 * kPageSize, 2);
  ASSERT_EQ(kernel.rmap().TotalLocations(), 8u);

  // On-demand fork shares the PTE table: the same 8 slots now map the frames into both
  // processes, so the sweep must NOT find more — the fan-out lives in pt_share_count
  // (§3.6).
  Process& odf_child = kernel.Fork(p, ForkMode::kOnDemand);
  EXPECT_EQ(kernel.rmap().TotalLocations(), 8u)
      << "a shared table contributes one location per slot, not one per sharer";

  // A write through the shared table COW-breaks it: the child gets a private copy whose 8
  // present entries (7 still-shared frames + 1 fresh COW frame) are all found.
  WriteByte(odf_child, va, std::byte{0x11});
  EXPECT_EQ(kernel.rmap().TotalLocations(), 16u);
  ExpectVerifies(kernel);

  // Classic fork copies every present leaf entry into its own private table: +8.
  Process& classic_child = kernel.Fork(p, ForkMode::kClassic);
  EXPECT_EQ(kernel.rmap().TotalLocations(), 24u);
  ExpectVerifies(kernel);

  kernel.Exit(classic_child, 0);
  kernel.Exit(odf_child, 0);
  EXPECT_EQ(kernel.rmap().TotalLocations(), 8u) << "teardown leaves the parent's slots";
  ExpectVerifies(kernel);
}

// --- CLOCK aging and workingset shadows ---

TEST(ClockTest, ReferencedFramesAgeThroughActiveBeforeEviction) {
  Kernel kernel;
  Process& p = kernel.CreateProcess();
  Vaddr va = p.Mmap(8 * kPageSize, kProtRead | kProtWrite);
  FillPattern(p, va, 8 * kPageSize, 9);
  EXPECT_EQ(kernel.rmap().Census().inactive_anon, 8u) << "fresh pages start inactive";

  CounterDelta scanned(VmCounter::k_pgscan);
  CounterDelta activated(VmCounter::k_pgactivate);
  CounterDelta deactivated(VmCounter::k_pgdeactivate);
  CounterDelta stolen(VmCounter::k_pgsteal);
  ASSERT_EQ(kernel.ReclaimMemory(1), 1u);
  // First revolution: all 8 were referenced (scanned, activated). Second: unreferenced
  // active pages are deactivated. Third: the first inactive, unreferenced page goes.
  EXPECT_EQ(activated.Get(), 8u);
  EXPECT_EQ(deactivated.Get(), 8u);
  EXPECT_EQ(scanned.Get(), 9u);
  EXPECT_EQ(stolen.Get(), 1u);
  reclaim::RmapCensus census = kernel.rmap().Census();
  EXPECT_EQ(census.active_anon, 0u);
  EXPECT_EQ(census.inactive_anon, 7u);
  ExpectPattern(p, va, 8 * kPageSize, 9);
}

TEST(ClockTest, RefaultWithinHorizonCountsAndConsumesShadow) {
  SwapSpace swap;
  SwapSlot slot = swap.WriteOut(nullptr);
  EXPECT_EQ(swap.ShadowCount(), 1u);
  EXPECT_EQ(swap.TakeRefaultDistance(slot), 0u) << "nothing was written out since";
  EXPECT_EQ(swap.ShadowCount(), 0u) << "a shadow is consumed by its refault";
  EXPECT_EQ(swap.TakeRefaultDistance(slot), UINT64_MAX) << "no shadow, no refault";
  EXPECT_EQ(swap.TakeRefaultDistance(99), UINT64_MAX) << "never-written slots have none";
  swap.DecRef(slot);

  // Through the kernel: a page evicted and touched again right away is a workingset
  // refault. It comes back active and in the workingset, so it outlasts a cold page by
  // one sweep.
  Kernel kernel;
  Process& p = kernel.CreateProcess();
  Vaddr va = p.Mmap(2 * kPageSize, kProtRead | kProtWrite);
  FillPattern(p, va, 2 * kPageSize, 10);
  ASSERT_EQ(kernel.ReclaimMemory(2), 2u);
  EXPECT_EQ(kernel.swap_space().ShadowCount(), 2u);
  CounterDelta refaults(VmCounter::k_pgrefault);
  ExpectPattern(p, va, kPageSize, 10);  // One swap-in.
  EXPECT_EQ(refaults.Get(), 1u);
  EXPECT_EQ(kernel.swap_space().ShadowCount(), 1u);
  EXPECT_EQ(kernel.rmap().Census().active_anon, 1u);

  // Replace the other page with a fresh one, which starts inactive like a cold swap-in.
  uint64_t swap_writes = kernel.swap_space().Stats().writes;
  p.MadviseDontNeed(va + kPageSize, kPageSize);
  WriteByte(p, va + kPageSize, std::byte{1});
  EXPECT_EQ(kernel.rmap().Census().inactive_anon, 1u);
  // Referenced, then unreferenced: the cold page is deactivated and evicted in three
  // visits, while the refault spends its extra sweep still active.
  ASSERT_EQ(kernel.ReclaimMemory(1), 1u);
  EXPECT_EQ(Residency(p, va), 1) << "the workingset refault is still resident";
  EXPECT_EQ(Residency(p, va + kPageSize), 2);
  EXPECT_EQ(kernel.swap_space().Stats().writes, swap_writes + 1);
}

// --- Direct reclaim through the kernel entry point ---

TEST(ReclaimTest, DirectReclaimEvictsColdPagesAndFaultsBackByteIdentical) {
  Kernel kernel;
  Process& p = kernel.CreateProcess();
  Vaddr va = p.Mmap(64 * kPageSize, kProtRead | kProtWrite);
  FillPattern(p, va, 64 * kPageSize, 3);

  CounterDelta scanned(VmCounter::k_pgscan);
  CounterDelta stolen(VmCounter::k_pgsteal);
  uint64_t freed = kernel.ReclaimMemory(16);
  EXPECT_GE(freed, 16u) << "aging rounds must defeat the freshly-set accessed bits";
  EXPECT_GT(scanned.Get(), 0u);
  EXPECT_GE(stolen.Get(), freed);
  EXPECT_GT(kernel.swap_space().Stats().writes, 0u);
  ExpectVerifies(kernel);

  // Every page faults back byte-identical, and recent evictions count as refaults.
  CounterDelta refaults(VmCounter::k_pgrefault);
  ExpectPattern(p, va, 64 * kPageSize, 3);
  EXPECT_GT(refaults.Get(), 0u) << "immediate re-touch is inside the workingset horizon";
  ExpectVerifies(kernel);
}

// The headline satellite: evict a frame that is mapped through an on-demand-SHARED PTE
// table, then make every forked child fault it back. The data must round-trip
// byte-identical through the swap device and the verifier must find the table share
// counts exactly balanced afterwards.
TEST(ReclaimTest, SharedTableEvictionFaultsBackInAllChildren) {
  constexpr int kChildren = 4;
  constexpr uint64_t kBytes = 32 * kPageSize;
  Kernel kernel;
  Process& parent = kernel.CreateProcess();
  Vaddr va = parent.Mmap(kBytes, kProtRead | kProtWrite);
  FillPattern(parent, va, kBytes, 4);

  std::vector<Process*> children;
  for (int i = 0; i < kChildren; ++i) {
    children.push_back(&kernel.Fork(parent, ForkMode::kOnDemand));
  }
  ASSERT_EQ(kernel.rmap().TotalLocations(), kBytes / kPageSize)
      << "all children share the parent's leaf slots";

  CounterDelta stolen(VmCounter::k_pgsteal);
  uint64_t freed = kernel.ReclaimMemory(kBytes / kPageSize);
  EXPECT_GT(freed, 0u) << "pages under shared tables must be evictable via the rmap";
  EXPECT_GT(kernel.swap_space().Stats().writes, 0u);
  ExpectVerifies(kernel);

  // Children first (their faults go through the shared-table paths), parent last.
  for (Process* child : children) {
    ExpectPattern(*child, va, kBytes, 4);
  }
  ExpectPattern(parent, va, kBytes, 4);
  EXPECT_GT(stolen.Get(), 0u);
  ExpectVerifies(kernel);  // Walk/rmap bijection AND pt_share_count balance.

  for (Process* child : children) {
    kernel.Exit(*child, 0);
  }
  ExpectVerifies(kernel);
}

TEST(ReclaimTest, PinnedFrameIsUnevictableNotLost) {
  Kernel kernel;
  Process& p = kernel.CreateProcess();
  Vaddr va = p.Mmap(kPageSize, kProtRead | kProtWrite);
  WriteByte(p, va, std::byte{0x77});
  // An extra reference the sweep cannot account for (a mid-rollback fork, an I/O pin).
  AddressSpace& as = p.address_space();
  FrameId frame = as.walker().Translate(as.pgd(), va, AccessType::kRead).frame;
  kernel.allocator().IncRef(frame);

  uint64_t swap_writes_before = kernel.swap_space().Stats().writes;
  EXPECT_EQ(kernel.ReclaimMemory(1), 0u);
  EXPECT_EQ(kernel.swap_space().Stats().writes, swap_writes_before)
      << "the shrinker must refuse frames with references beyond their mappings";
  EXPECT_EQ(ReadByte(p, va), std::byte{0x77});
  kernel.allocator().DecRef(frame);
  ExpectVerifies(kernel);
}

// Classic fork gives each sharer its own PTE table, so a frame has one slot per process.
// Both tables sit at the same chunk, so the sweep finds every slot in one step and
// evicts the frame from all of them at once.
TEST(ReclaimTest, ClassicForkSharersAreEvictedWithAllTheirSlots) {
  constexpr uint64_t kPages = 16;
  Kernel kernel;
  Process& parent = kernel.CreateProcess();
  Vaddr va = parent.Mmap(kPages * kPageSize, kProtRead | kProtWrite);
  FillPattern(parent, va, kPages * kPageSize, 11);
  Process& child = kernel.Fork(parent, ForkMode::kClassic);
  ASSERT_EQ(kernel.rmap().TotalLocations(), 2 * kPages);

  EXPECT_EQ(kernel.ReclaimMemory(1000), kPages);
  EXPECT_EQ(kernel.rmap().TotalLocations(), 0u);
  EXPECT_EQ(kernel.swap_space().Stats().slots_in_use, kPages)
      << "one slot per frame, referenced from both processes";
  for (uint64_t i = 0; i < kPages; ++i) {
    EXPECT_EQ(Residency(parent, va + i * kPageSize), 2);
    EXPECT_EQ(Residency(child, va + i * kPageSize), 2);
  }
  ExpectVerifies(kernel);
  ExpectPattern(child, va, kPages * kPageSize, 11);
  ExpectPattern(parent, va, kPages * kPageSize, 11);
  ExpectVerifies(kernel);
  kernel.Exit(child, 0);
  kernel.Wait(parent);
  kernel.Exit(parent, 0);
  EXPECT_TRUE(kernel.allocator().AllFree());
  EXPECT_TRUE(kernel.swap_space().AllFree());
}

// After mremap in one sharer, a frame's slots sit at two different chunks. The sweep
// finds them in separate steps, where the refcount never equals the slots found, so the
// frame stays resident in both — it is never evicted from one slot and not the other.
TEST(ReclaimTest, MremapInOneSharerNeverEvictsPartially) {
  constexpr uint64_t kPages = 4;
  Kernel kernel;
  Process& parent = kernel.CreateProcess();
  Vaddr va = parent.Mmap(kPages * kPageSize, kProtRead | kProtWrite);
  FillPattern(parent, va, kPages * kPageSize, 12);
  Process& child = kernel.Fork(parent, ForkMode::kClassic);
  // Block in-place growth and push the child's next mapping past this 2 MiB chunk.
  child.Mmap(kHugePageSize, kProtRead | kProtWrite);
  Vaddr moved = child.Mremap(va, kPages * kPageSize, (kPages + 1) * kPageSize);
  ASSERT_NE(EntryBase(moved, PtLevel::kPmd), EntryBase(va, PtLevel::kPmd));

  EXPECT_EQ(kernel.ReclaimMemory(1000), 0u);
  for (uint64_t i = 0; i < kPages; ++i) {
    EXPECT_EQ(Residency(parent, va + i * kPageSize), 1);
    EXPECT_EQ(Residency(child, moved + i * kPageSize), 1);
  }
  EXPECT_EQ(kernel.swap_space().Stats().slots_in_use, 0u);
  ExpectVerifies(kernel);
  ExpectPattern(parent, va, kPages * kPageSize, 12);
  for (uint64_t i = 0; i < kPages * kPageSize; i += 1000) {
    EXPECT_EQ(ReadByte(child, moved + i), ReadByte(parent, va + i));
  }
}

// --- Watermarks and the background daemon ---

TEST(WatermarkTest, DerivedDefaultsScaleWithTheLimitAndExplicitValuesPin) {
  Kernel kernel;
  kernel.SetMemoryLimitFrames(640);
  FrameAllocator::Watermarks wm = kernel.allocator().watermarks();
  EXPECT_EQ(wm.min, 640 / 64 + 4);
  EXPECT_EQ(wm.low, 2 * wm.min);
  EXPECT_EQ(wm.high, 3 * wm.min);

  kernel.allocator().SetWatermarks({.min = 5, .low = 11, .high = 23});
  kernel.SetMemoryLimitFrames(1280);  // Explicit values survive a limit change.
  wm = kernel.allocator().watermarks();
  EXPECT_EQ(wm.min, 5u);
  EXPECT_EQ(wm.low, 11u);
  EXPECT_EQ(wm.high, 23u);
}

TEST(KswapdTest, PressureBelowLowWatermarkWakesDaemonWhichBalancesToHigh) {
  constexpr uint64_t kLimit = 512;
  Kernel kernel;
  kernel.SetMemoryLimitFrames(kLimit);
  kernel.StartKswapd();
  ASSERT_NE(kernel.kswapd(), nullptr);
  ASSERT_TRUE(kernel.kswapd()->Running());

  CounterDelta wakes(VmCounter::k_kswapd_wake);
  Process& p = kernel.CreateProcess();
  constexpr uint64_t kPages = 500;  // Deep past LOW (24 for this limit).
  Vaddr va = p.Mmap(kPages * kPageSize, kProtRead | kProtWrite);
  FillPattern(p, va, kPages * kPageSize, 5);

  // The allocations crossed the LOW watermark, so the pressure callback must have fired;
  // the daemon then reclaims in the background until free frames recover to HIGH.
  uint64_t high = kernel.allocator().watermarks().high;
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while ((kernel.allocator().FreeFrames() < high ||
          kernel.kswapd()->stats().wakeups.load() == 0) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GT(kernel.kswapd()->stats().wakeups.load(), 0u);
  EXPECT_GT(wakes.Get(), 0u);
  EXPECT_GE(kernel.allocator().FreeFrames(), high)
      << "kswapd balances until the high watermark";
  EXPECT_GT(kernel.kswapd()->stats().pages_freed.load(), 0u);

  // The evicted pages come back byte-identical while the daemon keeps running.
  ExpectPattern(p, va, kPages * kPageSize, 5);
  kernel.StopKswapd();
  EXPECT_EQ(kernel.kswapd(), nullptr);
  ExpectVerifies(kernel);
}

// --- The docs/reclaim.md acceptance workload ---

// A frame pool HALF the size of the working set: before src/reclaim this configuration
// died in the OOM killer; now it must complete through reclaim with every byte intact.
TEST(ReclaimAcceptanceTest, PoolAtHalfTheWorkingSetCompletesWithZeroCorruption) {
  constexpr uint64_t kWorkingSetPages = 512;
  constexpr uint64_t kPoolFrames = 300;  // ~50% of pages + tables.
  Kernel kernel;
  kernel.SetMemoryLimitFrames(kPoolFrames);

  CounterDelta scanned(VmCounter::k_pgscan);
  CounterDelta stolen(VmCounter::k_pgsteal);
  CounterDelta refaults(VmCounter::k_pgrefault);
  CounterDelta direct(VmCounter::k_direct_reclaim);

  Process& p = kernel.CreateProcess();
  Vaddr va = p.Mmap(kWorkingSetPages * kPageSize, kProtRead | kProtWrite);
  // Two full passes: the fill forces eviction of its own tail, the verify refaults
  // everything back in (and evicts again to make room while doing so).
  FillPattern(p, va, kWorkingSetPages * kPageSize, 6);
  ExpectPattern(p, va, kWorkingSetPages * kPageSize, 6);

  EXPECT_EQ(kernel.oom_kills(), 0u) << "reclaim must carry this load without killing";
  EXPECT_GT(scanned.Get(), 0u);
  EXPECT_GT(stolen.Get(), 0u);
  EXPECT_GT(refaults.Get(), 0u);
  EXPECT_GT(direct.Get(), 0u);
  ExpectVerifies(kernel);

  std::string vmstat = FormatVmstat(kernel);
  EXPECT_GT(VmstatValue(vmstat, "pgscan"), 0u);
  EXPECT_GT(VmstatValue(vmstat, "pgsteal"), 0u);
  EXPECT_GT(VmstatValue(vmstat, "pgrefault"), 0u);
}

// The same over-committed workload with the daemon running: mutator faults race kswapd's
// balance rounds (this is the TSan-interesting configuration).
TEST(ReclaimAcceptanceTest, OverCommittedWorkloadCompletesWithKswapdRunning) {
  constexpr uint64_t kWorkingSetPages = 512;
  Kernel kernel;
  kernel.SetMemoryLimitFrames(300);
  kernel.StartKswapd();

  Process& p = kernel.CreateProcess();
  Vaddr va = p.Mmap(kWorkingSetPages * kPageSize, kProtRead | kProtWrite);
  FillPattern(p, va, kWorkingSetPages * kPageSize, 7);
  ExpectPattern(p, va, kWorkingSetPages * kPageSize, 7);

  EXPECT_EQ(kernel.oom_kills(), 0u);
  kernel.StopKswapd();
  ExpectVerifies(kernel);
}

// --- Observability surfaces (docs/observability.md, docs/reclaim.md) ---

TEST(ReclaimProcfsTest, MeminfoReportsPoolLruAndWatermarks) {
  Kernel kernel;
  kernel.SetMemoryLimitFrames(1024);
  Process& p = kernel.CreateProcess();
  Vaddr va = p.Mmap(16 * kPageSize, kProtRead | kProtWrite);
  FillPattern(p, va, 16 * kPageSize, 8);

  std::string meminfo = FormatMeminfo(kernel);
  EXPECT_NE(meminfo.find("MemTotal:"), std::string::npos) << meminfo;
  EXPECT_NE(meminfo.find("Inactive(anon):"), std::string::npos) << meminfo;
  EXPECT_NE(meminfo.find("WatermarkLow:"), std::string::npos) << meminfo;

  std::string vmstat = FormatVmstat(kernel);
  EXPECT_EQ(VmstatValue(vmstat, "nr_rmap_locations"), 16u);
  EXPECT_EQ(VmstatValue(vmstat, "nr_inactive_anon") + VmstatValue(vmstat, "nr_active_anon"),
            16u);
  EXPECT_EQ(VmstatValue(vmstat, "kswapd_running"), 0u);
}

}  // namespace
}  // namespace odf
