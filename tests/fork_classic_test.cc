// Semantics of classic fork (the baseline): eager PTE copying, per-page refcounts, data COW.
#include <gtest/gtest.h>

#include <map>
#include <ostream>

#include "src/debug/verify.h"
#include "src/mf/memory_failure.h"
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

// Reference counts held on what the parent maps in [lo, hi): per compound head (a split
// huge page's tails all count on their head) and per swap slot.
struct MappedRefs {
  std::map<FrameId, int64_t> frames;
  std::map<SwapSlot, int64_t> slots;
  bool operator==(const MappedRefs&) const = default;
};

void PrintTo(const MappedRefs& refs, std::ostream* os) {
  for (const auto& [frame, count] : refs.frames) {
    *os << " frame " << frame << ": " << count;
  }
  for (const auto& [slot, count] : refs.slots) {
    *os << " slot " << slot << ": " << count;
  }
}

MappedRefs ReadMappedRefs(Kernel& kernel, Process& p, Vaddr lo, Vaddr hi) {
  MappedRefs refs;
  AddressSpace& as = p.address_space();
  for (Vaddr va = lo; va < hi; va += kPageSize) {
    uint64_t* slot = as.walker().FindEntry(as.pgd(), va, PtLevel::kPte);
    Pte entry = slot != nullptr ? LoadEntry(slot) : Pte();
    if (entry.IsPresent()) {
      FrameId head = ResolveCompoundHead(kernel.allocator().GetMeta(entry.frame()),
                                         entry.frame());
      refs.frames[head] = kernel.allocator().GetMeta(head).refcount.load();
    } else if (entry.IsSwap()) {
      refs.slots[entry.swap_slot()] = kernel.swap_space().RefCount(entry.swap_slot());
    }
  }
  return refs;
}

MappedRefs Delta(const MappedRefs& before, const MappedRefs& after) {
  MappedRefs delta = after;
  for (const auto& [frame, count] : before.frames) {
    delta.frames[frame] -= count;
  }
  for (const auto& [slot, count] : before.slots) {
    delta.slots[slot] -= count;
  }
  return delta;
}

bool PteWritable(Process& p, Vaddr va) {
  AddressSpace& as = p.address_space();
  uint64_t* slot = as.walker().FindEntry(as.pgd(), va, PtLevel::kPte);
  return slot != nullptr && LoadEntry(slot).IsWritable();
}

// Classic fork and on-demand fork's PTE-table COW run one copier, so they must take the
// same references. One PTE table mixes present anonymous pages, swap entries, a poison
// marker and a MAP_SHARED file page. A huge VMA owns its whole 2 MiB chunk, so a split
// huge page's compound tails (and the poison marker memory failure leaves among them) sit
// in a second table of the same process.
TEST(ForkCopyEquivalenceTest, ClassicForkAndTableCowTakeTheSameReferences) {
  if (!ODF_MEMORY_FAILURE_COMPILED) {
    GTEST_SKIP() << "memory failure compiled out";
  }
  constexpr uint64_t kAnonPages = 8;
  constexpr uint32_t kRw = kProtRead | kProtWrite;
  Kernel kernel;
  Process& parent = kernel.CreateProcess();
  AddressSpace& as = parent.address_space();
  auto frame_at = [&](Vaddr va) {
    return as.walker().Translate(as.pgd(), va, AccessType::kRead).frame;
  };

  // The split huge page: a hard offline of one subpage splits the 2 MiB mapping.
  Vaddr huge = parent.Mmap(kHugePageSize, kRw, /*huge=*/true);
  FillPattern(parent, huge, 16 * kPageSize, 1);
  Vaddr huge_dead = huge + 3 * kPageSize;
  ASSERT_EQ(kernel.MemoryFailure(frame_at(huge_dead)), mf::MfResult::kRecovered);

  // The mixed table: anonymous pages, then one MAP_SHARED file page in the same chunk.
  Vaddr anon = as.MapAnonymous(kAnonPages * kPageSize, kRw, /*huge=*/false,
                               huge + 2 * kHugePageSize);
  std::shared_ptr<MemFile> file = kernel.fs().Open("/shared");
  file->Write(0, std::vector<std::byte>(kPageSize, std::byte{7}));
  Vaddr file_va = as.MapFile(file, 0, kPageSize, kRw, /*shared=*/true,
                             anon + (kAnonPages + 1) * kPageSize);
  ASSERT_EQ(EntryBase(file_va, PtLevel::kPmd), EntryBase(anon, PtLevel::kPmd));
  FillPattern(parent, anon, kAnonPages * kPageSize, 2);
  WriteByte(parent, file_va, std::byte{0x5f});
  ASSERT_TRUE(PteWritable(parent, file_va));
  ASSERT_EQ(kernel.ReclaimMemory(kAnonPages / 2), kAnonPages / 2);
  Vaddr anon_dead = 0;
  for (Vaddr va = anon; va < anon + kAnonPages * kPageSize && anon_dead == 0; va += kPageSize) {
    if (parent.Mincore(va, kPageSize).at(0) == 1) {
      anon_dead = va;
    }
  }
  ASSERT_NE(anon_dead, 0u);
  ASSERT_EQ(kernel.MemoryFailure(frame_at(anon_dead)), mf::MfResult::kRecovered);

  auto read_refs = [&] {
    MappedRefs refs = ReadMappedRefs(kernel, parent, huge, huge + kHugePageSize);
    MappedRefs mixed = ReadMappedRefs(kernel, parent, anon, file_va + kPageSize);
    refs.frames.insert(mixed.frames.begin(), mixed.frames.end());
    refs.slots.insert(mixed.slots.begin(), mixed.slots.end());
    return refs;
  };
  const MappedRefs before = read_refs();
  ASSERT_EQ(before.frames.size(), 1 + (kAnonPages / 2 - 1) + 1)
      << "the compound head, the resident anonymous pages and the file page";
  ASSERT_EQ(before.slots.size(), kAnonPages / 2);

  Process& classic = kernel.Fork(parent, ForkMode::kClassic);
  const MappedRefs classic_delta = Delta(before, read_refs());
  EXPECT_TRUE(PteWritable(classic, file_va)) << "classic fork keeps MAP_SHARED writable";
  EXPECT_TRUE(PteWritable(parent, file_va));
  EXPECT_EQ(classic_delta.frames.at(frame_at(huge)), static_cast<int64_t>(kEntriesPerTable - 1))
      << "one head reference per mapped tail";
  kernel.Exit(classic, 0);
  kernel.Wait(parent);
  ASSERT_EQ(read_refs(), before);

  // One table COW per table: the write to the shared-file page needs no page COW after it,
  // and the access to the poisoned subpage dedicates the table before reporting the poison.
  Process& odf = kernel.Fork(parent, ForkMode::kOnDemand);
  WriteByte(odf, file_va, std::byte{0x60});
  std::byte scratch{0};
  EXPECT_FALSE(odf.WriteMemory(huge_dead, std::span(&scratch, 1)));
  EXPECT_EQ(odf.last_fault_result(), FaultResult::kHwPoison);
  EXPECT_EQ(odf.address_space().stats().pte_table_cow_faults, 2u);
  EXPECT_EQ(Delta(before, read_refs()), classic_delta);

  debug::VerifyResult result = debug::VerifyKernel(kernel);
  EXPECT_TRUE(result.ok()) << result.Describe();
}

}  // namespace
}  // namespace odf
