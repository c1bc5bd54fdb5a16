// Semantics of classic fork (the baseline): eager PTE copying, per-page refcounts, data COW.
#include <gtest/gtest.h>

#include "src/mm/range_ops.h"
#include "src/trace/metrics.h"
#include "tests/test_util.h"

namespace odf {
namespace {

class ClassicForkTest : public ::testing::Test {
 protected:
  ClassicForkTest() : parent_(kernel_.CreateProcess()) {}

  Vaddr MapFilled(uint64_t length, uint64_t seed = 1) {
    Vaddr va = parent_.Mmap(length, kProtRead | kProtWrite);
    FillPattern(parent_, va, length, seed);
    return va;
  }

  FrameId FrameOf(Process& p, Vaddr va) {
    AddressSpace& as = p.address_space();
    Translation t = as.walker().Translate(as.pgd(), va, AccessType::kRead);
    return t.status == TranslateStatus::kOk ? t.frame : kInvalidFrame;
  }

  Kernel kernel_;
  Process& parent_;
};

TEST_F(ClassicForkTest, ChildGetsPrivateTablesSharedPages) {
  Vaddr va = MapFilled(2 * kHugePageSize);
  Process& child = kernel_.Fork(parent_, ForkMode::kClassic);

  AddressSpace& pas = parent_.address_space();
  AddressSpace& cas = child.address_space();
  uint64_t* p_pmd = pas.walker().FindEntry(pas.pgd(), va, PtLevel::kPmd);
  uint64_t* c_pmd = cas.walker().FindEntry(cas.pgd(), va, PtLevel::kPmd);
  ASSERT_NE(p_pmd, nullptr);
  ASSERT_NE(c_pmd, nullptr);
  EXPECT_NE(LoadEntry(p_pmd).frame(), LoadEntry(c_pmd).frame())
      << "classic fork must give the child its own PTE tables";
  EXPECT_TRUE(LoadEntry(p_pmd).IsWritable()) << "classic fork does not protect the PMD";

  // Data pages are shared (same frame) with refcount 2 and write-protected on both sides.
  FrameId p_frame = FrameOf(parent_, va);
  FrameId c_frame = FrameOf(child, va);
  EXPECT_EQ(p_frame, c_frame);
  EXPECT_EQ(kernel_.allocator().GetMeta(p_frame).refcount.load(), 2u);
}

TEST_F(ClassicForkTest, EveryPteEntryIsCopied) {
  MapFilled(3 * kHugePageSize);
  kernel_.Fork(parent_, ForkMode::kClassic);
  EXPECT_EQ(kernel_.fork_counters().pte_entries_copied, 3 * kEntriesPerTable);
  EXPECT_EQ(kernel_.fork_counters().pte_tables_shared, 0u);
}

TEST_F(ClassicForkTest, ChildSeesParentData) {
  Vaddr va = MapFilled(kHugePageSize, /*seed=*/5);
  Process& child = kernel_.Fork(parent_, ForkMode::kClassic);
  ExpectPattern(child, va, kHugePageSize, 5);
}

TEST_F(ClassicForkTest, WritesAreIsolatedBothWays) {
  Vaddr va = MapFilled(kHugePageSize, /*seed=*/6);
  Process& child = kernel_.Fork(parent_, ForkMode::kClassic);
  WriteByte(child, va + 777, std::byte{0xc1});
  WriteByte(parent_, va + 999, std::byte{0xc2});
  EXPECT_EQ(ReadByte(child, va + 777), std::byte{0xc1});
  EXPECT_EQ(ReadByte(parent_, va + 999), std::byte{0xc2});
  // Each side still sees the original pattern at the other side's write offset.
  auto original = [&](Vaddr addr) {
    return static_cast<std::byte>((6 * 1099511628211ULL + addr) >> 5);
  };
  EXPECT_EQ(ReadByte(child, va + 999), original(va + 999));
  EXPECT_EQ(ReadByte(parent_, va + 777), original(va + 777));
}

TEST_F(ClassicForkTest, CowCopiesOnlyTheWrittenPage) {
  Vaddr va = MapFilled(kHugePageSize);
  Process& child = kernel_.Fork(parent_, ForkMode::kClassic);
  FrameId before = FrameOf(child, va);
  WriteByte(child, va, std::byte{1});
  FrameId after = FrameOf(child, va);
  EXPECT_NE(before, after);
  EXPECT_EQ(child.address_space().stats().cow_page_faults, 1u);
  // Neighbouring page still shared.
  EXPECT_EQ(FrameOf(child, va + kPageSize), FrameOf(parent_, va + kPageSize));
  // The old page's refcount dropped back to 1 (parent only).
  EXPECT_EQ(kernel_.allocator().GetMeta(before).refcount.load(), 1u);
}

TEST_F(ClassicForkTest, SoleOwnerWriteReusesPageInPlace) {
  Vaddr va = MapFilled(kHugePageSize);
  Process& child = kernel_.Fork(parent_, ForkMode::kClassic);
  WriteByte(child, va, std::byte{1});                       // COW copy.
  kernel_.Exit(child, 0);
  kernel_.Wait(parent_);
  uint64_t copies = parent_.address_space().stats().cow_page_faults;
  WriteByte(parent_, va, std::byte{2});  // Parent now sole owner: reuse, no copy.
  EXPECT_EQ(parent_.address_space().stats().cow_page_faults, copies);
  EXPECT_GE(parent_.address_space().stats().cow_reuse_faults, 1u);
}

TEST_F(ClassicForkTest, ForkAfterOnDemandForkDedicatesSharedTables) {
  Vaddr va = MapFilled(kHugePageSize, /*seed=*/8);
  Process& odf_child = kernel_.Fork(parent_, ForkMode::kOnDemand);
  // Parent's table is now shared; a classic fork must not corrupt the sharer's view.
  Process& classic_child = kernel_.Fork(parent_, ForkMode::kClassic);
  WriteByte(classic_child, va, std::byte{0xaa});
  WriteByte(parent_, va + kPageSize, std::byte{0xbb});
  ExpectPattern(odf_child, va, kHugePageSize, 8);
  EXPECT_EQ(ReadByte(classic_child, va), std::byte{0xaa});
}

TEST_F(ClassicForkTest, GrandchildForkChains) {
  Vaddr va = MapFilled(kHugePageSize, /*seed=*/9);
  Process& child = kernel_.Fork(parent_, ForkMode::kClassic);
  Process& grandchild = kernel_.Fork(child, ForkMode::kClassic);
  FrameId frame = FrameOf(grandchild, va);
  EXPECT_EQ(kernel_.allocator().GetMeta(frame).refcount.load(), 3u);
  WriteByte(grandchild, va, std::byte{0x99});
  ExpectPattern(child, va, kHugePageSize, 9);
  ExpectPattern(parent_, va, kHugePageSize, 9);
}

TEST_F(ClassicForkTest, NoLeaksAfterLineageExits) {
  Vaddr va = MapFilled(2 * kHugePageSize, /*seed=*/10);
  Process& child = kernel_.Fork(parent_, ForkMode::kClassic);
  Process& grandchild = kernel_.Fork(child, ForkMode::kClassic);
  WriteByte(grandchild, va, std::byte{1});
  WriteByte(child, va + kPageSize, std::byte{2});
  kernel_.Exit(grandchild, 0);
  kernel_.Wait(child);
  kernel_.Exit(child, 0);
  kernel_.Wait(parent_);
  kernel_.Exit(parent_, 0);
  EXPECT_TRUE(kernel_.allocator().AllFree());
}

TEST_F(ClassicForkTest, ReadOnlyMappingSurvivesFork) {
  Vaddr va = parent_.Mmap(kHugePageSize, kProtRead | kProtWrite);
  FillPattern(parent_, va, kHugePageSize, 12);
  parent_.address_space().Protect(va, kHugePageSize, kProtRead);
  Process& child = kernel_.Fork(parent_, ForkMode::kClassic);
  ExpectPattern(child, va, kHugePageSize, 12);
  std::byte b{1};
  EXPECT_FALSE(child.WriteMemory(va, std::span(&b, 1))) << "read-only VMA must SEGV on write";
}

// The copy loop is the same with and without a ForkProfile: swapped-out entries are copied
// (and counted) either way.
TEST(ClassicForkProfileTest, ProfiledForkCountsSwapEntriesLikeUnprofiled) {
  constexpr uint64_t kPages = 32;
  for (bool profiled : {false, true}) {
    Kernel kernel;
    Process& parent = kernel.CreateProcess();
    Vaddr va = parent.Mmap(kPages * kPageSize, kProtRead | kProtWrite);
    FillPattern(parent, va, kPages * kPageSize, 5);
    ASSERT_EQ(kernel.ReclaimMemory(kPages / 2), kPages / 2);  // Half the entries are swap.

    ForkProfile profile;
    uint64_t copied_before = ReadVm(VmCounter::k_fork_pte_entries_copied);
    Process& child = kernel.Fork(parent, ForkMode::kClassic, profiled ? &profile : nullptr);
    EXPECT_EQ(ReadVm(VmCounter::k_fork_pte_entries_copied) - copied_before, kPages)
        << (profiled ? "profiled" : "unprofiled");
    EXPECT_EQ(kernel.fork_counters().pte_entries_copied.load(), kPages)
        << (profiled ? "profiled" : "unprofiled");
    if (profiled) {
      EXPECT_EQ(profile.pte_entries_copied, kPages);
    }
    ExpectPattern(child, va, kPages * kPageSize, 5);
  }
}

}  // namespace
}  // namespace odf
