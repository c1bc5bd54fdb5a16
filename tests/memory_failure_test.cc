// Memory-failure resilience (docs/memory-failure.md): hard offline (HWPoison) containment
// through shared on-demand-fork page tables, soft offline via page migration, quarantine
// permanence, the poisoned-PTE fault contract, the injected-ECC delivery path, and the
// replay determinism of the whole lot.
#include "src/mf/memory_failure.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/debug/verify.h"
#include "src/fi/fault_inject.h"
#include "src/mm/fault.h"
#include "src/proc/kernel.h"
#include "src/proc/procfs.h"
#include "src/replay/recorder.h"
#include "src/replay/replayer.h"
#include "tests/test_util.h"

namespace odf {
namespace {

using mf::MfResult;

// Resolves the 4 KiB frame currently backing `va` (tail-resolved for huge mappings).
FrameId FrameAt(Process& p, Vaddr va) {
  AddressSpace& as = p.address_space();
  Translation t = as.walker().Translate(as.pgd(), va, AccessType::kRead);
  EXPECT_EQ(t.status, TranslateStatus::kOk) << "va " << va << " not present";
  return t.frame;
}

// Every test leaves the (process-global) injector the way it found it.
class MemoryFailureTest : public ::testing::Test {
 protected:
  void SetUp() override { fi::FaultInjector::Global().Reset(); }
  void TearDown() override { fi::FaultInjector::Global().Reset(); }
};

TEST_F(MemoryFailureTest, ResultNamesAreStable) {
  EXPECT_STREQ(MfResultName(MfResult::kRecovered), "recovered");
  EXPECT_STREQ(MfResultName(MfResult::kDelayed), "delayed");
  EXPECT_STREQ(MfResultName(MfResult::kAlreadyPoisoned), "already-poisoned");
  EXPECT_STREQ(MfResultName(MfResult::kMigrated), "migrated");
  EXPECT_STREQ(MfResultName(MfResult::kFailedBusy), "failed-busy");
  EXPECT_STREQ(MfResultName(MfResult::kFailedKernelPage), "failed-kernel-page");
  EXPECT_STREQ(MfResultName(MfResult::kNotSupported), "not-supported");
}

// The FaultResult classification contract (src/mm/fault.h): kHwPoison is recoverable —
// the kernel survives, the toucher gets the SIGBUS analog — while the SEGV class is not.
// The switch in IsRecoverableFault is exhaustive with no default, so ADDING a FaultResult
// without classifying it is a compile error; this test pins the decided classification.
TEST_F(MemoryFailureTest, FaultResultClassificationContract) {
  EXPECT_FALSE(IsRecoverableFault(FaultResult::kHandled));
  EXPECT_FALSE(IsRecoverableFault(FaultResult::kSegvUnmapped));
  EXPECT_FALSE(IsRecoverableFault(FaultResult::kSegvProt));
  EXPECT_TRUE(IsRecoverableFault(FaultResult::kOom));
  EXPECT_TRUE(IsRecoverableFault(FaultResult::kSwapIoError));
  EXPECT_TRUE(IsRecoverableFault(FaultResult::kRetryExhausted));
  EXPECT_TRUE(IsRecoverableFault(FaultResult::kHwPoison));
}

#if !ODF_MEMORY_FAILURE_COMPILED

TEST_F(MemoryFailureTest, CompiledOutReturnsNotSupported) {
  Kernel kernel;
  Process& p = kernel.CreateProcess();
  Vaddr va = p.Mmap(kPageSize, kProtRead | kProtWrite);
  WriteByte(p, va, std::byte{1});
  EXPECT_EQ(kernel.MemoryFailure(FrameAt(p, va)), MfResult::kNotSupported);
  EXPECT_EQ(kernel.SoftOfflinePage(FrameAt(p, va)), MfResult::kNotSupported);
  EXPECT_EQ(ReadByte(p, va), std::byte{1});  // Nothing happened.
}

#else  // ODF_MEMORY_FAILURE_COMPILED

constexpr uint64_t kPages = 16;
constexpr uint64_t kLength = kPages * kPageSize;

// Verifies the seed-1 pattern everywhere except the dead page, which must fault with
// kHwPoison — the per-page containment shape every hard-offline test asserts.
void ExpectContained(Process& p, Vaddr base, Vaddr dead_va) {
  for (uint64_t page = 0; page < kPages; ++page) {
    Vaddr va = base + page * kPageSize;
    if (va == dead_va) {
      std::byte scratch{0};
      EXPECT_FALSE(p.ReadMemory(va, std::span(&scratch, 1)));
      EXPECT_EQ(p.last_fault_result(), FaultResult::kHwPoison)
          << "pid " << p.pid() << ": dead page must raise the SIGBUS analog";
    } else {
      ExpectPattern(p, va, kPageSize, 1);
    }
  }
}

// The §3.6 headline: a frame mapped into 9 processes through shared on-demand-fork PTE
// tables sits in ONE slot the sweep finds once, so hard offline rewrites ONE slot — and
// still contains the error for every sharer. Every byte outside the dead page survives in
// all of them.
TEST_F(MemoryFailureTest, HardOfflineContainsThroughSharedOdfTables) {
  Kernel kernel;
  Process& parent = kernel.CreateProcess();
  Vaddr base = parent.Mmap(kLength, kProtRead | kProtWrite);
  FillPattern(parent, base, kLength, 1);

  std::vector<Process*> children;
  for (int i = 0; i < 8; ++i) {
    children.push_back(&kernel.Fork(parent, ForkMode::kOnDemand));
  }
  Vaddr dead_va = base + 5 * kPageSize;
  FrameId frame = FrameAt(parent, dead_va);
  // All 9 processes map the frame, through ONE slot in ONE shared table.
  ASSERT_EQ(kernel.rmap().LocationCount(frame), 1u);

  EXPECT_EQ(kernel.MemoryFailure(frame), MfResult::kRecovered);

  EXPECT_EQ(kernel.rmap().LocationCount(frame), 0u);
  EXPECT_TRUE(kernel.allocator().IsHwPoisoned(frame));
  EXPECT_EQ(kernel.allocator().Stats().hwpoisoned_frames, 1u);
  ExpectContained(parent, base, dead_va);
  for (Process* child : children) {
    ExpectContained(*child, base, dead_va);
  }
  EXPECT_TRUE(debug::VerifyKernel(kernel).ok());

  for (Process* child : children) {
    kernel.Exit(*child, 0);
    kernel.Wait(parent);
  }
  EXPECT_TRUE(debug::VerifyKernel(kernel).ok());
}

// Classic fork copies tables eagerly, so the same frame has one location per process —
// offline must find and rewrite all 9.
TEST_F(MemoryFailureTest, HardOfflineContainsThroughClassicTables) {
  Kernel kernel;
  Process& parent = kernel.CreateProcess();
  Vaddr base = parent.Mmap(kLength, kProtRead | kProtWrite);
  FillPattern(parent, base, kLength, 1);

  std::vector<Process*> children;
  for (int i = 0; i < 8; ++i) {
    children.push_back(&kernel.Fork(parent, ForkMode::kClassic));
  }
  Vaddr dead_va = base + 9 * kPageSize;
  FrameId frame = FrameAt(parent, dead_va);
  ASSERT_EQ(kernel.rmap().LocationCount(frame), 9u)
      << "classic fork: one dedicated-table slot per process";

  EXPECT_EQ(kernel.MemoryFailure(frame), MfResult::kRecovered);

  ExpectContained(parent, base, dead_va);
  for (Process* child : children) {
    ExpectContained(*child, base, dead_va);
  }
  EXPECT_TRUE(debug::VerifyKernel(kernel).ok());
  for (Process* child : children) {
    kernel.Exit(*child, 0);
    kernel.Wait(parent);
  }
}

// After mremap in one classic-fork sharer, the frame's two slots sit at different
// addresses — the reclaim sweep never evicts such a frame, but offline must still find
// and poison both.
TEST_F(MemoryFailureTest, HardOfflineAfterMremapPoisonsBothSlots) {
  Kernel kernel;
  Process& parent = kernel.CreateProcess();
  Vaddr base = parent.Mmap(4 * kPageSize, kProtRead | kProtWrite);
  FillPattern(parent, base, 4 * kPageSize, 1);
  Process& child = kernel.Fork(parent, ForkMode::kClassic);
  child.Mmap(kHugePageSize, kProtRead | kProtWrite);  // Blocks in-place growth.
  Vaddr moved = child.Mremap(base, 4 * kPageSize, 5 * kPageSize);
  ASSERT_NE(EntryBase(moved, PtLevel::kPmd), EntryBase(base, PtLevel::kPmd));
  FrameId frame = FrameAt(parent, base + kPageSize);
  ASSERT_EQ(FrameAt(child, moved + kPageSize), frame);
  ASSERT_EQ(kernel.rmap().LocationCount(frame), 2u);

  EXPECT_EQ(kernel.MemoryFailure(frame), MfResult::kRecovered);

  EXPECT_EQ(kernel.rmap().LocationCount(frame), 0u);
  std::byte b{0};
  EXPECT_FALSE(parent.ReadMemory(base + kPageSize, std::span(&b, 1)));
  EXPECT_EQ(parent.last_fault_result(), FaultResult::kHwPoison);
  EXPECT_FALSE(child.ReadMemory(moved + kPageSize, std::span(&b, 1)));
  EXPECT_EQ(child.last_fault_result(), FaultResult::kHwPoison);
  EXPECT_EQ(ReadByte(child, moved), ReadByte(parent, base)) << "neighbours survive";
  EXPECT_TRUE(debug::VerifyKernel(kernel).ok());
}

// Fork after the failure: the child inherits the poison marker (not the dead page), under
// both engines — the child's copy of the VA is exactly as lost as the parent's.
TEST_F(MemoryFailureTest, ForkPropagatesPoisonMarkers) {
  for (ForkMode mode : {ForkMode::kClassic, ForkMode::kOnDemand}) {
    Kernel kernel;
    Process& parent = kernel.CreateProcess();
    Vaddr base = parent.Mmap(kLength, kProtRead | kProtWrite);
    FillPattern(parent, base, kLength, 1);
    Vaddr dead_va = base + 2 * kPageSize;
    ASSERT_EQ(kernel.MemoryFailure(FrameAt(parent, dead_va)), MfResult::kRecovered);

    Process& child = kernel.Fork(parent, mode);
    ExpectContained(child, base, dead_va);
    ExpectContained(parent, base, dead_va);
    EXPECT_TRUE(debug::VerifyKernel(kernel).ok());
  }
}

// A 2 MiB mapping loses exactly one 4 KiB subpage: the huge mapping is split (in the
// parent AND a PMD-sharing child) and the other 511 subpages keep their bytes.
TEST_F(MemoryFailureTest, HugeMappingSplitsAndLosesOneSubpage) {
  Kernel kernel;
  Process& parent = kernel.CreateProcess();
  Vaddr base = parent.Mmap(kHugePageSize, kProtRead | kProtWrite, /*huge=*/true);
  FillPattern(parent, base, kLength, 1);  // Pattern over the first 16 subpages.
  Process& child = kernel.Fork(parent, ForkMode::kOnDemandHuge);

  Vaddr dead_va = base + 5 * kPageSize;
  FrameId frame = FrameAt(parent, dead_va);
  uint64_t splits_before = ReadVm(VmCounter::k_mf_huge_splits);
  EXPECT_EQ(kernel.MemoryFailure(frame), MfResult::kRecovered);
  EXPECT_GT(ReadVm(VmCounter::k_mf_huge_splits), splits_before);

  ExpectContained(parent, base, dead_va);
  ExpectContained(child, base, dead_va);
  // The untouched tail of the 2 MiB page still reads as zeros (never written).
  std::byte far{0xff};
  EXPECT_TRUE(parent.ReadMemory(base + 400 * kPageSize, std::span(&far, 1)));
  EXPECT_EQ(far, std::byte{0});
  EXPECT_TRUE(debug::VerifyKernel(kernel).ok());

  kernel.Exit(child, 0);
  kernel.Wait(parent);
  parent.Munmap(base, kHugePageSize);
  // With the compound fully unmapped, its last free salvages the run: the one poisoned
  // subpage is quarantined, the 511 healthy ones return to the allocator.
  EXPECT_EQ(kernel.allocator().Stats().quarantined_frames, 1u);
  EXPECT_TRUE(debug::VerifyKernel(kernel).ok());
}

// The last free of a compound with a poisoned subpage quarantines that subframe with its
// bytes in place (they stay inspectable) and salvages the healthy ones.
TEST_F(MemoryFailureTest, QuarantinedSubframeOfFreedCompoundKeepsItsBytes) {
  Kernel kernel;
  Process& p = kernel.CreateProcess();
  Vaddr base = p.Mmap(kHugePageSize, kProtRead | kProtWrite, /*huge=*/true);
  FillPattern(p, base, kLength, 3);
  Vaddr dead_va = base + 5 * kPageSize;
  FrameId frame = FrameAt(p, dead_va);
  std::vector<std::byte> expected(kPageSize);
  ASSERT_TRUE(p.ReadMemory(dead_va, expected));
  ASSERT_EQ(kernel.MemoryFailure(frame), MfResult::kRecovered);
  p.Munmap(base, kHugePageSize);
  ASSERT_EQ(kernel.allocator().Stats().quarantined_frames, 1u);
  const std::byte* kept = kernel.allocator().PeekData(frame);
  ASSERT_NE(kept, nullptr);
  EXPECT_TRUE(std::equal(expected.begin(), expected.end(), kept));
  EXPECT_TRUE(debug::VerifyKernel(kernel).ok());
}

// Offline of a resident frame whose PTE table also holds swap entries: the swap slots are
// untouched and swap-in still works around the dead page.
TEST_F(MemoryFailureTest, SwappedOutNeighborsSurviveOffline) {
  Kernel kernel;
  Process& p = kernel.CreateProcess();
  Vaddr base = p.Mmap(kLength, kProtRead | kProtWrite);
  FillPattern(p, base, kLength, 1);
  // Two passes: the first clears accessed bits (second chance), the second evicts.
  kernel.ReclaimMemory(4);
  kernel.ReclaimMemory(4);
  ASSERT_GT(kernel.swap_space().Stats().slots_in_use, 0u) << "no pages were swapped out";

  // Pick a page that is still resident.
  Vaddr dead_va = 0;
  for (uint64_t page = 0; page < kPages; ++page) {
    Vaddr va = base + page * kPageSize;
    Translation t = p.address_space().walker().Translate(p.address_space().pgd(), va,
                                                         AccessType::kRead);
    if (t.status == TranslateStatus::kOk) {
      dead_va = va;
      break;
    }
  }
  ASSERT_NE(dead_va, 0u) << "everything was swapped out";
  uint64_t slots_before = kernel.swap_space().Stats().slots_in_use;

  EXPECT_EQ(kernel.MemoryFailure(FrameAt(p, dead_va)), MfResult::kRecovered);

  EXPECT_EQ(kernel.swap_space().Stats().slots_in_use, slots_before)
      << "offline must not disturb swap entries sharing the table";
  ExpectContained(p, base, dead_va);  // Swapped pages fault back in around the dead one.
  EXPECT_TRUE(debug::VerifyKernel(kernel).ok());
}

// Soft offline: the frame is migrated, so NOTHING is lost — all 9 sharers still read
// every byte, through the single repointed shared-table slot.
TEST_F(MemoryFailureTest, SoftOfflineMigratesWithZeroLossAcrossSharers) {
  Kernel kernel;
  Process& parent = kernel.CreateProcess();
  Vaddr base = parent.Mmap(kLength, kProtRead | kProtWrite);
  FillPattern(parent, base, kLength, 1);
  std::vector<Process*> children;
  for (int i = 0; i < 8; ++i) {
    children.push_back(&kernel.Fork(parent, ForkMode::kOnDemand));
  }
  Vaddr va = base + 7 * kPageSize;
  FrameId old_frame = FrameAt(parent, va);
  ASSERT_EQ(kernel.rmap().LocationCount(old_frame), 1u);

  EXPECT_EQ(kernel.SoftOfflinePage(old_frame), MfResult::kMigrated);

  FrameId new_frame = FrameAt(parent, va);
  EXPECT_NE(new_frame, old_frame);
  EXPECT_TRUE(kernel.allocator().IsHwPoisoned(old_frame));
  EXPECT_EQ(kernel.allocator().Stats().quarantined_frames, 1u)
      << "the source's only references were its mappings; it must be parked already";
  EXPECT_EQ(kernel.rmap().LocationCount(new_frame), 1u) << "one slot repointed, not nine";
  ExpectPattern(parent, base, kLength, 1);
  for (Process* child : children) {
    ExpectPattern(*child, base, kLength, 1);
  }
  EXPECT_TRUE(debug::VerifyKernel(kernel).ok());
}

// The transactional contract: when the one allocation of the migration fails (injected
// frame_alloc verdict), NOTHING has been mutated — same discipline as TryFork.
TEST_F(MemoryFailureTest, SoftOfflineRollsBackOnAllocationFailure) {
  if (!ODF_FAULT_INJECT_COMPILED) {
    GTEST_SKIP() << "fault injection compiled out";
  }
  Kernel kernel;
  Process& p = kernel.CreateProcess();
  Vaddr base = p.Mmap(kLength, kProtRead | kProtWrite);
  FillPattern(p, base, kLength, 1);
  Vaddr va = base + 3 * kPageSize;
  FrameId frame = FrameAt(p, va);
  uint64_t failed_before = ReadVm(VmCounter::k_mf_offline_failed);
  {
    fi::ScopedInjection inject(FiSite::k_frame_alloc, FiSiteConfig{.nth = 1});
    EXPECT_EQ(kernel.SoftOfflinePage(frame), MfResult::kFailedBusy);
  }
  EXPECT_EQ(ReadVm(VmCounter::k_mf_offline_failed), failed_before + 1);
  EXPECT_EQ(FrameAt(p, va), frame) << "mapping must be untouched";
  EXPECT_FALSE(kernel.allocator().IsHwPoisoned(frame));
  ExpectPattern(p, base, kLength, 1);
  // The retry (injection disarmed) succeeds.
  EXPECT_EQ(kernel.SoftOfflinePage(frame), MfResult::kMigrated);
  ExpectPattern(p, base, kLength, 1);
  EXPECT_TRUE(debug::VerifyKernel(kernel).ok());
}

// A clean page-cache frame loses nothing on HARD offline either: the contents relocate
// (the "re-read from disk" analog) and mappers simply refault.
TEST_F(MemoryFailureTest, HardOfflineRelocatesFileBackedPages) {
  Kernel kernel;
  auto file = kernel.fs().Open("/data");
  std::vector<std::byte> content(kPageSize);
  for (uint64_t i = 0; i < kPageSize; ++i) {
    content[i] = static_cast<std::byte>(i * 7);
  }
  file->Write(0, content);

  Process& p = kernel.CreateProcess();
  Vaddr va = p.address_space().MapFile(file, 0, kPageSize, kProtRead, /*shared=*/true);
  std::vector<std::byte> out(kPageSize);
  ASSERT_TRUE(p.ReadMemory(va, out));
  ASSERT_EQ(out, content);
  FrameId frame = FrameAt(p, va);

  EXPECT_EQ(kernel.MemoryFailure(frame), MfResult::kRecovered);

  EXPECT_TRUE(p.ReadMemory(va, out)) << "clean file page must NOT raise SIGBUS";
  EXPECT_EQ(out, content) << "contents must survive via the relocated cache frame";
  EXPECT_NE(FrameAt(p, va), frame);
  EXPECT_TRUE(kernel.allocator().IsHwPoisoned(frame));
  EXPECT_TRUE(debug::VerifyKernel(kernel).ok());
}

// Quarantine is terminal: a poisoned frame is never handed out again, no matter how much
// allocation pressure follows.
TEST_F(MemoryFailureTest, QuarantinedFramesAreNeverReallocated) {
  Kernel kernel;
  Process& p = kernel.CreateProcess();
  Vaddr base = p.Mmap(kLength, kProtRead | kProtWrite);
  FillPattern(p, base, kLength, 1);
  FrameId frame = FrameAt(p, base);
  ASSERT_EQ(kernel.MemoryFailure(frame), MfResult::kRecovered);
  EXPECT_EQ(kernel.allocator().Stats().quarantined_frames, 1u);

  // Churn far more frames than the pool had free; the dead one must never come back.
  for (int round = 0; round < 4; ++round) {
    Vaddr churn = p.Mmap(64 * kPageSize, kProtRead | kProtWrite);
    FillPattern(p, churn, 64 * kPageSize, static_cast<uint64_t>(round) + 2);
    for (uint64_t page = 0; page < 64; ++page) {
      EXPECT_NE(FrameAt(p, churn + page * kPageSize), frame)
          << "quarantined frame re-entered circulation";
    }
    p.Munmap(churn, 64 * kPageSize);
  }
  EXPECT_TRUE(kernel.allocator().IsHwPoisoned(frame));
  EXPECT_EQ(kernel.allocator().Stats().quarantined_frames, 1u);
}

TEST_F(MemoryFailureTest, SecondReportIsAlreadyPoisoned) {
  Kernel kernel;
  Process& p = kernel.CreateProcess();
  Vaddr va = p.Mmap(kPageSize, kProtRead | kProtWrite);
  WriteByte(p, va, std::byte{1});
  FrameId frame = FrameAt(p, va);
  EXPECT_EQ(kernel.MemoryFailure(frame), MfResult::kRecovered);
  EXPECT_EQ(kernel.MemoryFailure(frame), MfResult::kAlreadyPoisoned);
  EXPECT_EQ(kernel.SoftOfflinePage(frame), MfResult::kAlreadyPoisoned);
  EXPECT_EQ(kernel.allocator().Stats().hwpoisoned_frames, 1u);
}

TEST_F(MemoryFailureTest, PageTableFramesAreRefused) {
  Kernel kernel;
  Process& p = kernel.CreateProcess();
  Vaddr va = p.Mmap(kPageSize, kProtRead | kProtWrite);
  WriteByte(p, va, std::byte{1});
  AddressSpace& as = p.address_space();
  FrameId table = as.walker().FindTable(as.pgd(), va, PtLevel::kPte);
  ASSERT_NE(table, kInvalidFrame);
  EXPECT_EQ(kernel.MemoryFailure(table), MfResult::kFailedKernelPage);
  EXPECT_EQ(kernel.SoftOfflinePage(table), MfResult::kFailedKernelPage);
  EXPECT_FALSE(kernel.allocator().IsHwPoisoned(table));
  EXPECT_EQ(ReadByte(p, va), std::byte{1});  // Still readable; nothing was torn down.
}

TEST_F(MemoryFailureTest, FreeFrameOfflineIsDelayedAndStillQuarantined) {
  Kernel kernel;
  Process& p = kernel.CreateProcess();
  Vaddr va = p.Mmap(kPageSize, kProtRead | kProtWrite);
  WriteByte(p, va, std::byte{1});
  FrameId frame = FrameAt(p, va);
  p.Munmap(va, kPageSize);  // Frees the frame (possibly into a per-thread cache).
  EXPECT_EQ(kernel.MemoryFailure(frame), MfResult::kDelayed);
  EXPECT_TRUE(kernel.allocator().IsHwPoisoned(frame));
  // Churn allocations: the poisoned id must be diverted, not served.
  Vaddr churn = p.Mmap(64 * kPageSize, kProtRead | kProtWrite);
  FillPattern(p, churn, 64 * kPageSize, 3);
  for (uint64_t page = 0; page < 64; ++page) {
    EXPECT_NE(FrameAt(p, churn + page * kPageSize), frame);
  }
  EXPECT_TRUE(debug::VerifyKernel(kernel).ok());
}

// The delivery path: an injected machine check (fi site mf_ecc) fails the access that
// consumed the poison with kHwPoison, and the frame is contained for everyone else.
TEST_F(MemoryFailureTest, InjectedEccDeliversSigbusToTheToucher) {
  if (!ODF_FAULT_INJECT_COMPILED) {
    GTEST_SKIP() << "fault injection compiled out";
  }
  Kernel kernel;
  Process& parent = kernel.CreateProcess();
  Vaddr base = parent.Mmap(kLength, kProtRead | kProtWrite);
  FillPattern(parent, base, kLength, 1);
  Process& child = kernel.Fork(parent, ForkMode::kOnDemand);

  Vaddr dead_va = base + 4 * kPageSize;
  uint64_t sigbus_before = ReadVm(VmCounter::k_mf_sigbus);
  {
    fi::ScopedInjection inject(FiSite::k_mf_ecc, FiSiteConfig{.nth = 1});
    std::byte scratch{0};
    EXPECT_FALSE(parent.ReadMemory(dead_va, std::span(&scratch, 1)));
    EXPECT_EQ(parent.last_fault_result(), FaultResult::kHwPoison);
  }
  EXPECT_EQ(kernel.allocator().Stats().hwpoisoned_frames, 1u);
  ExpectContained(parent, base, dead_va);
  EXPECT_GT(ReadVm(VmCounter::k_mf_sigbus), sigbus_before);
  ExpectContained(child, base, dead_va);
  EXPECT_TRUE(debug::VerifyKernel(kernel).ok());
}

TEST_F(MemoryFailureTest, ProcfsReportsCountersAndGauges) {
  Kernel kernel;
  Process& p = kernel.CreateProcess();
  Vaddr va = p.Mmap(kPageSize, kProtRead | kProtWrite);
  WriteByte(p, va, std::byte{1});
  ASSERT_EQ(kernel.MemoryFailure(FrameAt(p, va)), MfResult::kRecovered);

  std::string text = FormatMemoryFailure(kernel);
  EXPECT_NE(text.find("memory_failure_compiled 1"), std::string::npos) << text;
  EXPECT_NE(text.find("nr_hwpoisoned_frames 1"), std::string::npos) << text;
  std::string meminfo = FormatMeminfo(kernel);
  EXPECT_NE(meminfo.find("HardwareCorrupted: 4 kB"), std::string::npos) << meminfo;
}

#if ODF_REPLAY_COMPILED
// The acceptance gate: an mf-heavy recorded run — hard offline through shared tables,
// soft offline, an injected ECC delivery — replays deterministically, final memory
// digests and all.
TEST_F(MemoryFailureTest, MfHeavyRecordingReplaysDeterministically) {
  std::string path = ::testing::TempDir() + "mf_replay.odflog";
  replay::RecorderOptions options;
  options.mode = replay::RecorderMode::kFull;
  ASSERT_TRUE(replay::Recorder::Global().Start(options));
  {
    Kernel kernel;
    Process& parent = kernel.CreateProcess();
    Vaddr base = parent.Mmap(kLength, kProtRead | kProtWrite);
    FillPattern(parent, base, kLength, 1);
    Process& child = kernel.Fork(parent, ForkMode::kOnDemand);
    kernel.MemoryFailure(FrameAt(parent, base + 2 * kPageSize));
    kernel.SoftOfflinePage(FrameAt(parent, base + 6 * kPageSize));
    if (ODF_FAULT_INJECT_COMPILED) {
      fi::ScopedInjection inject(FiSite::k_mf_ecc, FiSiteConfig{.nth = 1});
      parent.TouchRange(base + 9 * kPageSize, kPageSize, AccessType::kWrite);
    }
    // Survivors still see every healthy byte; the recording captures the digests.
    std::byte scratch{0};
    child.ReadMemory(base + 3 * kPageSize, std::span(&scratch, 1));
    kernel.Exit(child, 0);
    kernel.Wait(parent);
    std::string error;
    ASSERT_TRUE(replay::StopAndWriteLog(kernel, path, &error)) << error;
  }
  replay::ReplayLog log;
  std::string error;
  ASSERT_TRUE(replay::ReadLogFile(path, &log, &error)) << error;
  ASSERT_TRUE(log.Complete());
  replay::ReplayReport report = replay::Replay(log, replay::ReplayOptions{});
  EXPECT_TRUE(report.ok()) << report.Describe();
  EXPECT_EQ(report.ops_replayed, report.ops_total);
}
#endif  // ODF_REPLAY_COMPILED

using MemoryFailureDeathTest = MemoryFailureTest;

// The NOFAIL accessors CHECK on any failed read; consuming poisoned memory through them
// is a contract violation that must abort loudly, not return garbage.
TEST_F(MemoryFailureDeathTest, LoadThroughPoisonAborts) {
  Kernel kernel;
  Process& p = kernel.CreateProcess();
  Vaddr va = p.Mmap(kPageSize, kProtRead | kProtWrite);
  p.StoreU64(va, 0x1234);
  ASSERT_EQ(kernel.MemoryFailure(FrameAt(p, va)), MfResult::kRecovered);
  EXPECT_DEATH((void)p.LoadU64(va), "SEGV reading u64");
}

#endif  // ODF_MEMORY_FAILURE_COMPILED

}  // namespace
}  // namespace odf
