// Tests for PTE encoding, address geometry, the software walker, and TLB invalidation
// (MmLockTable shard generations).
#include <gtest/gtest.h>

#include <array>

#include "src/phys/frame_allocator.h"
#include "src/pt/geometry.h"
#include "src/pt/mm_locks.h"
#include "src/pt/pte.h"
#include "src/pt/walker.h"
#include "src/trace/metrics.h"

namespace odf {
namespace {

TEST(PteTest, EncodingRoundTrips) {
  Pte entry = Pte::Make(0x12345, kPtePresent | kPteWritable | kPteUser);
  EXPECT_TRUE(entry.IsPresent());
  EXPECT_TRUE(entry.IsWritable());
  EXPECT_TRUE(entry.IsUser());
  EXPECT_FALSE(entry.IsAccessed());
  EXPECT_FALSE(entry.IsDirty());
  EXPECT_FALSE(entry.IsHuge());
  EXPECT_EQ(entry.frame(), 0x12345u);
}

TEST(PteTest, FlagManipulation) {
  Pte entry = Pte::Make(7, kPtePresent);
  entry = entry.WithFlag(kPteAccessed).WithFlag(kPteDirty);
  EXPECT_TRUE(entry.IsAccessed());
  EXPECT_TRUE(entry.IsDirty());
  entry = entry.WithoutFlag(kPteDirty);
  EXPECT_FALSE(entry.IsDirty());
  EXPECT_EQ(entry.frame(), 7u);
  entry = entry.WithFrame(42);
  EXPECT_EQ(entry.frame(), 42u);
  EXPECT_TRUE(entry.IsAccessed()) << "changing the frame must preserve flags";
}

TEST(GeometryTest, LevelShifts) {
  EXPECT_EQ(EntryShift(PtLevel::kPte), 12u);
  EXPECT_EQ(EntryShift(PtLevel::kPmd), 21u);
  EXPECT_EQ(EntryShift(PtLevel::kPud), 30u);
  EXPECT_EQ(EntryShift(PtLevel::kPgd), 39u);
  EXPECT_EQ(EntrySpan(PtLevel::kPmd), 2ULL << 20);
  EXPECT_EQ(kPteTableSpan, 2ULL << 20);
}

TEST(GeometryTest, TableIndexDecomposition) {
  // va = PGD:1, PUD:2, PMD:3, PTE:4, offset 5.
  Vaddr va = (1ULL << 39) | (2ULL << 30) | (3ULL << 21) | (4ULL << 12) | 5;
  EXPECT_EQ(TableIndex(va, PtLevel::kPgd), 1u);
  EXPECT_EQ(TableIndex(va, PtLevel::kPud), 2u);
  EXPECT_EQ(TableIndex(va, PtLevel::kPmd), 3u);
  EXPECT_EQ(TableIndex(va, PtLevel::kPte), 4u);
  EXPECT_EQ(EntryBase(va, PtLevel::kPmd), va & ~((2ULL << 20) - 1));
}

class WalkerTest : public ::testing::Test {
 protected:
  WalkerTest() : walker_(&allocator_), pgd_(AllocPageTable(allocator_)) {}

  FrameAllocator allocator_;
  Walker walker_;
  FrameId pgd_;
};

TEST_F(WalkerTest, TranslateFailsOnEmptyTables) {
  Translation t = walker_.Translate(pgd_, 0x400000, AccessType::kRead);
  EXPECT_EQ(t.status, TranslateStatus::kNotPresent);
  EXPECT_EQ(t.fault_level, PtLevel::kPgd);
}

TEST_F(WalkerTest, EnsureEntryBuildsIntermediateTables) {
  Vaddr va = 0x12345000;
  uint64_t* slot = walker_.EnsureEntry(pgd_, va, PtLevel::kPte);
  ASSERT_NE(slot, nullptr);
  EXPECT_FALSE(LoadEntry(slot).IsPresent());
  // 3 intermediate tables (PUD, PMD, PTE) plus the PGD.
  EXPECT_EQ(allocator_.Stats().page_table_frames, 4u);
  // Second call must not allocate more.
  uint64_t* again = walker_.EnsureEntry(pgd_, va, PtLevel::kPte);
  EXPECT_EQ(slot, again);
  EXPECT_EQ(allocator_.Stats().page_table_frames, 4u);
}

TEST_F(WalkerTest, TranslateReadAndWriteSucceedOnMappedPage) {
  Vaddr va = 0x200000;
  uint64_t* slot = walker_.EnsureEntry(pgd_, va, PtLevel::kPte);
  FrameId frame = allocator_.Allocate(kPageFlagAnon);
  StoreEntry(slot, Pte::Make(frame, kPtePresent | kPteWritable | kPteUser));

  Translation read = walker_.Translate(pgd_, va + 123, AccessType::kRead);
  EXPECT_EQ(read.status, TranslateStatus::kOk);
  EXPECT_EQ(read.frame, frame);
  EXPECT_FALSE(read.huge);

  Translation write = walker_.Translate(pgd_, va, AccessType::kWrite);
  EXPECT_EQ(write.status, TranslateStatus::kOk);
  EXPECT_TRUE(LoadEntry(slot).IsDirty()) << "write translation must set the dirty bit";
}

TEST_F(WalkerTest, TranslateSetsAccessedBitsAtEveryLevel) {
  Vaddr va = 0x200000;
  uint64_t* pte_slot = walker_.EnsureEntry(pgd_, va, PtLevel::kPte);
  FrameId frame = allocator_.Allocate(kPageFlagAnon);
  StoreEntry(pte_slot, Pte::Make(frame, kPtePresent | kPteUser));

  ASSERT_EQ(walker_.Translate(pgd_, va, AccessType::kRead).status, TranslateStatus::kOk);
  for (PtLevel level : {PtLevel::kPgd, PtLevel::kPud, PtLevel::kPmd, PtLevel::kPte}) {
    uint64_t* slot = walker_.FindEntry(pgd_, va, level);
    ASSERT_NE(slot, nullptr);
    EXPECT_TRUE(LoadEntry(slot).IsAccessed()) << "level " << static_cast<int>(level);
  }
}

TEST_F(WalkerTest, HierarchicalWriteProtectionAtPmdBlocksWrites) {
  Vaddr va = 0x200000;
  uint64_t* pte_slot = walker_.EnsureEntry(pgd_, va, PtLevel::kPte);
  FrameId frame = allocator_.Allocate(kPageFlagAnon);
  StoreEntry(pte_slot, Pte::Make(frame, kPtePresent | kPteWritable | kPteUser));

  // Clear the writable bit at the PMD level only — the ODF write-protection mechanism.
  uint64_t* pmd_slot = walker_.FindEntry(pgd_, va, PtLevel::kPmd);
  ASSERT_NE(pmd_slot, nullptr);
  StoreEntry(pmd_slot, LoadEntry(pmd_slot).WithoutFlag(kPteWritable));

  EXPECT_EQ(walker_.Translate(pgd_, va, AccessType::kRead).status, TranslateStatus::kOk)
      << "reads must pass through a write-protected PMD";
  Translation write = walker_.Translate(pgd_, va, AccessType::kWrite);
  EXPECT_EQ(write.status, TranslateStatus::kNotWritable);
  EXPECT_EQ(write.fault_level, PtLevel::kPmd)
      << "the fault must be reported at the PMD, where ODF detects sharing";
  EXPECT_FALSE(LoadEntry(pte_slot).IsDirty())
      << "dirty must never be set while the table is write-protected (§3.2)";
}

TEST_F(WalkerTest, HugeEntryTranslatesInteriorPages) {
  Vaddr va = 0x40000000;  // 1 GiB, 2 MiB-aligned.
  uint64_t* pmd_slot = walker_.EnsureEntry(pgd_, va, PtLevel::kPmd);
  FrameId head = allocator_.AllocateCompound(kPageFlagAnon);
  StoreEntry(pmd_slot, Pte::Make(head, kPtePresent | kPteWritable | kPteUser | kPteHuge));

  Translation t = walker_.Translate(pgd_, va + 5 * kPageSize + 7, AccessType::kRead);
  EXPECT_EQ(t.status, TranslateStatus::kOk);
  EXPECT_TRUE(t.huge);
  EXPECT_EQ(t.frame, head + 5);
}

std::array<uint64_t, MmLockTable::kShards> ShardGens(const MmLockTable& locks) {
  std::array<uint64_t, MmLockTable::kShards> gens{};
  for (int i = 0; i < MmLockTable::kShards; ++i) {
    gens[static_cast<size_t>(i)] = locks.ShardGen(static_cast<Vaddr>(i) * kHugePageSize);
  }
  return gens;
}

TEST(MmLockTableTest, InvalidateRangeBumpsEachCoveredShardOnce) {
  MmLockTable locks;
  auto before = ShardGens(locks);
  uint64_t shootdowns_before = ReadVm(VmCounter::k_tlb_shootdowns);
  uint64_t flushes_before = ReadVm(VmCounter::k_tlb_flushes);
  // 6 MiB starting in shard 10: shards 10, 11 and 12 — not a full flush, however many
  // pages the range spans.
  Vaddr start = 10 * kHugePageSize;
  locks.InvalidateRange(start, start + 3 * kHugePageSize);
  auto after = ShardGens(locks);
  for (size_t i = 0; i < before.size(); ++i) {
    bool covered = i >= 10 && i <= 12;
    EXPECT_EQ(after[i] - before[i], covered ? 1u : 0u) << "shard " << i;
  }
  EXPECT_EQ(ReadVm(VmCounter::k_tlb_shootdowns) - shootdowns_before, 3 * kEntriesPerTable)
      << "a range shootdown counts its pages";
  EXPECT_EQ(ReadVm(VmCounter::k_tlb_flushes), flushes_before);

  // 130 chunks wrap around the 64 shards twice; each shard is still bumped once.
  before = after;
  locks.InvalidateRange(kHugePageSize, 131 * kHugePageSize);
  after = ShardGens(locks);
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(after[i] - before[i], 1u) << "shard " << i;
  }
}

TEST(MmLockTableTest, PageInvalidationBumpsOneShardAndFlushAllBumpsEvery) {
  MmLockTable locks;
  auto before = ShardGens(locks);
  locks.InvalidatePage(5 * kHugePageSize + 3 * kPageSize);
  auto after = ShardGens(locks);
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(after[i] - before[i], i == 5 ? 1u : 0u) << "shard " << i;
  }
  uint64_t flushes_before = ReadVm(VmCounter::k_tlb_flushes);
  before = after;
  locks.FlushAll();
  after = ShardGens(locks);
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(after[i] - before[i], 1u) << "shard " << i;
  }
  EXPECT_EQ(ReadVm(VmCounter::k_tlb_flushes) - flushes_before, 1u);
}

}  // namespace
}  // namespace odf
