// Memory pressure (paper §4 "Robustness"): frame quota, CLOCK reclaim over accessed bits,
// the swap device, swap-entry interaction with both fork flavours, and the OOM killer.
#include <gtest/gtest.h>

#include <algorithm>

#include "src/trace/metrics.h"
#include "tests/test_util.h"

namespace odf {
namespace {

TEST(SwapSpaceTest, WriteReadRoundTrip) {
  SwapSpace swap;
  std::vector<std::byte> page(kPageSize);
  for (size_t i = 0; i < page.size(); ++i) {
    page[i] = static_cast<std::byte>(i * 3);
  }
  SwapSlot slot = swap.WriteOut(page.data());
  std::vector<std::byte> back(kPageSize);
  swap.ReadIn(slot, back.data());
  EXPECT_EQ(back, page);
  EXPECT_EQ(swap.Stats().slots_in_use, 1u);
  swap.DecRef(slot);
  EXPECT_TRUE(swap.AllFree());
}

TEST(SwapSpaceTest, ZeroPagesNeedNoStorage) {
  SwapSpace swap;
  SwapSlot slot = swap.WriteOut(nullptr);
  std::vector<std::byte> back(kPageSize, std::byte{0xff});
  swap.ReadIn(slot, back.data());
  for (std::byte b : back) {
    ASSERT_EQ(b, std::byte{0});
  }
  swap.DecRef(slot);
}

TEST(SwapSpaceTest, RefcountingAndRecycling) {
  SwapSpace swap;
  std::vector<std::byte> page(kPageSize, std::byte{7});
  SwapSlot a = swap.WriteOut(page.data());
  swap.IncRef(a);
  swap.DecRef(a);
  EXPECT_EQ(swap.Stats().slots_in_use, 1u);
  swap.DecRef(a);
  EXPECT_EQ(swap.Stats().slots_in_use, 0u);
  SwapSlot b = swap.WriteOut(page.data());
  EXPECT_EQ(b, a) << "freed slots should be recycled";
  swap.DecRef(b);
}

class ReclaimTest : public ::testing::Test {
 protected:
  ReclaimTest() : p_(kernel_.CreateProcess()) {}

  Kernel kernel_;
  Process& p_;
};

TEST_F(ReclaimTest, ClockSwapsOutColdPagesAfterSecondChance) {
  Vaddr va = p_.Mmap(64 * kPageSize, kProtRead | kProtWrite);
  FillPattern(p_, va, 64 * kPageSize, 1);

  // Every page was just written, so the CLOCK first gives each its second chance
  // (activate, then deactivate) and only then collects it as cold.
  uint64_t activated = ReadVm(VmCounter::k_pgactivate);
  EXPECT_EQ(kernel_.ReclaimMemory(64), 64u);
  EXPECT_EQ(ReadVm(VmCounter::k_pgactivate) - activated, 64u)
      << "all pages were recently accessed: each gets a second chance first";
  EXPECT_EQ(kernel_.swap_space().Stats().slots_in_use, 64u);

  // Content must survive the round trip through the device (swap-in faults).
  ExpectPattern(p_, va, 64 * kPageSize, 1);
  EXPECT_EQ(p_.address_space().stats().swap_in_faults, 64u);
  EXPECT_TRUE(kernel_.swap_space().AllFree());
}

TEST_F(ReclaimTest, AccessedPagesSurviveOnePass) {
  constexpr uint64_t kPages = 64;
  constexpr uint64_t kTouched = 16;
  Vaddr va = p_.Mmap(kPages * kPageSize, kProtRead | kProtWrite);
  FillPattern(p_, va, kPages * kPageSize, 2);
  // The first eviction ages every page through its second chance: all the others are
  // left inactive with their accessed bits clear.
  ASSERT_EQ(kernel_.ReclaimMemory(1), 1u);
  // Touch the first quarter again: those pages get their accessed bit back.
  std::vector<std::byte> buffer(kTouched * kPageSize);
  ASSERT_TRUE(p_.ReadMemory(va, buffer));
  std::vector<uint8_t> residency = p_.Mincore(va, kPages * kPageSize);
  uint64_t cold = static_cast<uint64_t>(
      std::count(residency.begin() + kTouched, residency.end(), uint8_t{1}));
  ASSERT_GE(cold, kPages - kTouched - 1);

  EXPECT_EQ(kernel_.ReclaimMemory(cold), cold) << "only the untouched pages are cold";
  residency = p_.Mincore(va, kPages * kPageSize);
  for (uint64_t i = 0; i < kPages; ++i) {
    EXPECT_EQ(residency[i], i < kTouched ? 1 : 2) << "page " << i;
  }
  ExpectPattern(p_, va, kPages * kPageSize, 2);
}

TEST_F(ReclaimTest, NeverMaterializedPagesAreDroppedWithoutSwap) {
  Vaddr va = p_.Mmap(16 * kPageSize, kProtRead | kProtWrite);
  p_.address_space().PopulateRange(va, 16 * kPageSize);
  EXPECT_EQ(kernel_.ReclaimMemory(1000), 16u);
  EXPECT_EQ(kernel_.swap_space().Stats().writes, 0u) << "zero pages need no swap slots";
  EXPECT_EQ(ReadByte(p_, va), std::byte{0});
}

// The sweep visits a PTE table shared by on-demand-fork once, through whichever sharer
// reaches it first, and skips it when the other sharer's PMD entry leads to it again.
TEST_F(ReclaimTest, SharedTablesAreSkipped) {
  constexpr uint64_t kPages = kHugePageSize / kPageSize;
  Vaddr va = p_.Mmap(kHugePageSize, kProtRead | kProtWrite);
  FillPattern(p_, va, kHugePageSize, 3);
  Process& child = kernel_.Fork(p_, ForkMode::kOnDemand);  // Table now shared.
  uint64_t scanned = ReadVm(VmCounter::k_pgscan);
  EXPECT_EQ(kernel_.ReclaimMemory(1000), kPages);
  // Inactive pages are scanned in the first and third revolution: once each, not once
  // per sharer.
  EXPECT_EQ(ReadVm(VmCounter::k_pgscan) - scanned, 2 * kPages);
  EXPECT_EQ(kernel_.swap_space().Stats().slots_in_use, kPages)
      << "one swap entry per shared-table slot serves both sharers";
  ExpectPattern(child, va, kHugePageSize, 3);
  ExpectPattern(p_, va, kHugePageSize, 3);
  EXPECT_TRUE(kernel_.swap_space().AllFree());
}

class SwapForkTest : public ReclaimTest, public ::testing::WithParamInterface<ForkMode> {};

TEST_P(SwapForkTest, ForkWithSwappedPagesKeepsCowSemantics) {
  Vaddr va = p_.Mmap(32 * kPageSize, kProtRead | kProtWrite);
  FillPattern(p_, va, 32 * kPageSize, 4);
  ASSERT_EQ(kernel_.ReclaimMemory(1000), 32u);

  Process& child = kernel_.Fork(p_, GetParam());
  // Both sides fault their own copies in; writes stay private.
  WriteByte(child, va + 5, std::byte{0xc1});
  EXPECT_EQ(ReadByte(child, va + 5), std::byte{0xc1});
  ExpectPattern(p_, va, 32 * kPageSize, 4);
  // And the child sees the parent's pre-fork data everywhere else.
  auto original = [&](Vaddr addr) {
    return static_cast<std::byte>((4 * 1099511628211ULL + addr) >> 5);
  };
  EXPECT_EQ(ReadByte(child, va + 6), original(va + 6));

  kernel_.Exit(child, 0);
  kernel_.Wait(p_);
  kernel_.Exit(p_, 0);
  EXPECT_TRUE(kernel_.allocator().AllFree());
  EXPECT_TRUE(kernel_.swap_space().AllFree()) << "swap slots leaked";
}

TEST_P(SwapForkTest, UnmapReleasesSwapSlots) {
  Vaddr va = p_.Mmap(16 * kPageSize, kProtRead | kProtWrite);
  FillPattern(p_, va, 16 * kPageSize, 5);
  ASSERT_EQ(kernel_.ReclaimMemory(1000), 16u);
  Process& child = kernel_.Fork(p_, GetParam());
  ASSERT_GT(kernel_.swap_space().Stats().slots_in_use, 0u);
  child.Munmap(va, 16 * kPageSize);
  p_.Munmap(va, 16 * kPageSize);
  EXPECT_TRUE(kernel_.swap_space().AllFree());
}

INSTANTIATE_TEST_SUITE_P(BothForks, SwapForkTest,
                         ::testing::Values(ForkMode::kClassic, ForkMode::kOnDemand),
                         [](const auto& param_info) {
                           return param_info.param == ForkMode::kClassic ? "classic"
                                                                         : "ondemand";
                         });

TEST(MemoryPressureTest, QuotaTriggersTransparentSwapping) {
  Kernel kernel;
  Process& p = kernel.CreateProcess();
  // Budget: 2048 frames (8 MiB of simulated RAM). Write 12 MiB of data through it.
  kernel.SetMemoryLimitFrames(2048);
  Vaddr va = p.Mmap(12 << 20, kProtRead | kProtWrite);
  FillPattern(p, va, 12 << 20, 6);
  EXPECT_GT(kernel.swap_space().Stats().writes, 0u)
      << "filling past the quota must push pages to swap";
  EXPECT_LE(kernel.allocator().Stats().allocated_frames, 2048u);
  // Every byte must still read back correctly through swap-in faults.
  ExpectPattern(p, va, 12 << 20, 6);
  EXPECT_GT(p.address_space().stats().swap_in_faults, 0u);
  EXPECT_EQ(kernel.oom_kills(), 0u);
  kernel.Exit(p, 0);
  EXPECT_TRUE(kernel.allocator().AllFree());
  EXPECT_TRUE(kernel.swap_space().AllFree());
}

TEST(MemoryPressureTest, ForkUnderPressureStaysCorrect) {
  Kernel kernel;
  kernel.SetMemoryLimitFrames(3072);  // 12 MiB simulated RAM.
  Process& p = kernel.CreateProcess();
  Vaddr va = p.Mmap(8 << 20, kProtRead | kProtWrite);
  FillPattern(p, va, 8 << 20, 7);

  Process& child = kernel.Fork(p, ForkMode::kOnDemand);
  WriteByte(child, va + 1000, std::byte{0x3c});
  ExpectPattern(p, va, 8 << 20, 7);
  EXPECT_EQ(ReadByte(child, va + 1000), std::byte{0x3c});
  kernel.Exit(child, 0);
  kernel.Wait(p);
  kernel.Exit(p, 0);
  EXPECT_TRUE(kernel.allocator().AllFree());
  EXPECT_TRUE(kernel.swap_space().AllFree());
}

TEST(MemoryPressureTest, OomKillerFiresWhenNothingIsReclaimable) {
  Kernel kernel;
  Process& small = kernel.CreateProcess();
  Process& big = kernel.CreateProcess();

  // Huge (compound) pages are not swappable by the clock reclaimer, so filling the machine
  // with them leaves the OOM killer as the only way out — like a hugetlbfs-heavy box.
  Vaddr big_va = big.Mmap(8 * kHugePageSize, kProtRead | kProtWrite, /*huge=*/true);
  WriteByte(big, big_va, std::byte{1});  // Populate all 8 compounds.
  for (int i = 1; i < 8; ++i) {
    WriteByte(big, big_va + static_cast<uint64_t>(i) * kHugePageSize, std::byte{1});
  }
  Vaddr small_va = small.Mmap(kHugePageSize, kProtRead | kProtWrite, /*huge=*/true);
  WriteByte(small, small_va, std::byte{2});

  // Cap RAM just above current usage: the next compound allocation cannot fit, nothing is
  // reclaimable, so the largest process must die.
  kernel.SetMemoryLimitFrames(kernel.allocator().Stats().allocated_frames + 4);
  Vaddr extra = small.Mmap(kHugePageSize, kProtRead | kProtWrite, /*huge=*/true);
  WriteByte(small, extra, std::byte{3});

  EXPECT_GE(kernel.oom_kills(), 1u);
  EXPECT_EQ(big.state(), ProcessState::kZombie) << "the largest process should be the victim";
  EXPECT_EQ(small.state(), ProcessState::kRunning);
  EXPECT_EQ(ReadByte(small, extra), std::byte{3});
  EXPECT_EQ(ReadByte(small, small_va), std::byte{2});
}

}  // namespace
}  // namespace odf
