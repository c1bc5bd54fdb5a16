#include "src/phys/frame_allocator.h"

#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <span>
#include <vector>

namespace odf {
namespace {

TEST(FrameAllocatorTest, AllocateReturnsDistinctFrames) {
  FrameAllocator allocator;
  std::set<FrameId> seen;
  for (int i = 0; i < 1000; ++i) {
    FrameId frame = allocator.Allocate(kPageFlagAnon);
    EXPECT_TRUE(seen.insert(frame).second) << "frame " << frame << " handed out twice";
  }
  EXPECT_EQ(allocator.Stats().allocated_frames, 1000u);
}

TEST(FrameAllocatorTest, AllocateSetsInitialState) {
  FrameAllocator allocator;
  FrameId frame = allocator.Allocate(kPageFlagAnon);
  const PageMeta& meta = allocator.GetMeta(frame);
  EXPECT_EQ(meta.refcount.load(), 1u);
  EXPECT_TRUE((meta.flags & kPageFlagAllocated) != 0);
  EXPECT_FALSE(meta.IsCompound());
  EXPECT_EQ(meta.compound_head, frame);
  EXPECT_EQ(allocator.PeekData(frame), nullptr) << "data must be lazy for non-table frames";
}

TEST(FrameAllocatorTest, PageTableFramesAreMaterializedAndZeroed) {
  FrameAllocator allocator;
  FrameId frame = allocator.Allocate(kPageFlagPageTable);
  EXPECT_TRUE(allocator.GetMeta(frame).IsPageTable());
  uint64_t* entries = allocator.TableEntries(frame);
  ASSERT_NE(entries, nullptr);
  for (uint64_t i = 0; i < kPageSize / sizeof(uint64_t); ++i) {
    EXPECT_EQ(entries[i], 0u);
  }
}

TEST(FrameAllocatorTest, DecRefFreesAtZero) {
  FrameAllocator allocator;
  FrameId frame = allocator.Allocate(kPageFlagAnon);
  allocator.IncRef(frame);
  allocator.DecRef(frame);
  EXPECT_EQ(allocator.Stats().allocated_frames, 1u);
  allocator.DecRef(frame);
  EXPECT_EQ(allocator.Stats().allocated_frames, 0u);
  EXPECT_TRUE(allocator.AllFree());
}

TEST(FrameAllocatorTest, FreedFramesAreRecycled) {
  FrameAllocator allocator;
  FrameId first = allocator.Allocate(kPageFlagAnon);
  allocator.DecRef(first);
  FrameId second = allocator.Allocate(kPageFlagAnon);
  EXPECT_EQ(first, second);
}

TEST(FrameAllocatorTest, MaterializeZeroFillsAndAccounts) {
  FrameAllocator allocator;
  FrameId frame = allocator.Allocate(kPageFlagAnon);
  std::byte* data = allocator.MaterializeData(frame);
  ASSERT_NE(data, nullptr);
  for (uint64_t i = 0; i < kPageSize; ++i) {
    EXPECT_EQ(data[i], std::byte{0});
  }
  EXPECT_EQ(allocator.Stats().materialized_bytes, kPageSize);
  EXPECT_EQ(allocator.MaterializeData(frame), data) << "second materialize must be idempotent";
  allocator.DecRef(frame);
  EXPECT_EQ(allocator.Stats().materialized_bytes, 0u);
}

TEST(FrameAllocatorTest, CompoundAllocationShapesHeadAndTails) {
  FrameAllocator allocator;
  FrameId head = allocator.AllocateCompound(kPageFlagAnon);
  EXPECT_EQ(head % (1u << kHugePageOrder), 0u) << "compound head must be 512-aligned";
  const PageMeta& head_meta = allocator.GetMeta(head);
  EXPECT_TRUE(head_meta.IsCompoundHead());
  EXPECT_EQ(allocator.PeekData(head), nullptr) << "a fresh compound is unwritten";
  EXPECT_EQ(head_meta.refcount.load(), 1u);
  for (FrameId i = 1; i < (1u << kHugePageOrder); ++i) {
    const PageMeta& tail = allocator.GetMeta(head + i);
    EXPECT_TRUE(tail.IsCompoundTail());
    EXPECT_EQ(tail.compound_head, head);
    EXPECT_EQ(ResolveCompoundHead(tail, head + i), head);
  }
  EXPECT_EQ(allocator.Stats().allocated_frames, 1u << kHugePageOrder);
}

TEST(FrameAllocatorTest, CompoundTailDataPointsIntoHeadBuffer) {
  FrameAllocator allocator;
  FrameId head = allocator.AllocateCompound(kPageFlagAnon);
  std::byte* head_data = allocator.MaterializeData(head);
  std::byte* tail_data = allocator.MaterializeData(head + 3);
  EXPECT_EQ(tail_data, head_data + 3 * kPageSize);
  EXPECT_EQ(allocator.Stats().materialized_bytes, kHugePageSize);
}

TEST(FrameAllocatorTest, CompoundFreeReleasesWholeUnitAndRecycles) {
  FrameAllocator allocator;
  FrameId head = allocator.AllocateCompound(kPageFlagAnon);
  allocator.DecRef(head);
  EXPECT_TRUE(allocator.AllFree());
  FrameId again = allocator.AllocateCompound(kPageFlagAnon);
  EXPECT_EQ(again, head) << "freed compounds should be recycled whole";
}

TEST(FrameAllocatorTest, MixedSinglesAndCompoundsDoNotCollide) {
  FrameAllocator allocator;
  std::vector<FrameId> singles;
  for (int i = 0; i < 100; ++i) {
    singles.push_back(allocator.Allocate(kPageFlagAnon));
  }
  FrameId head = allocator.AllocateCompound(kPageFlagAnon);
  for (FrameId single : singles) {
    EXPECT_TRUE(single < head || single >= head + (1u << kHugePageOrder));
  }
}

TEST(FrameAllocatorTest, GrowsBeyondOneChunk) {
  FrameAllocator allocator;
  // One chunk is 65536 frames; allocate past it.
  std::vector<FrameId> frames;
  for (int i = 0; i < 70000; ++i) {
    frames.push_back(allocator.Allocate(kPageFlagAnon));
  }
  EXPECT_GE(allocator.Stats().total_frames, 70000u);
  for (FrameId frame : frames) {
    allocator.DecRef(frame);
  }
  EXPECT_TRUE(allocator.AllFree());
}

static_assert(sizeof(PageMeta) == 16, "four metadata entries per 64-byte cache line");

// Fills the frame's bytes through MaterializeData, frees it and returns the id.
FrameId WriteAndFree(FrameAllocator& allocator, uint8_t flags) {
  FrameId frame = allocator.Allocate(flags);
  std::memset(allocator.MaterializeData(frame), 0x5a, kPageSize);
  allocator.DecRef(frame);
  return frame;
}

bool AllZero(const std::byte* bytes, uint64_t length) {
  for (uint64_t i = 0; i < length; ++i) {
    if (bytes[i] != std::byte{0}) {
      return false;
    }
  }
  return true;
}

// A frame written in an earlier life is zeroed when it is handed out again, so a zero-fill
// allocation is unwritten and its bytes (read through the address a write would use) are 0.
TEST(FrameAllocatorTest, RecycledWrittenFrameIsZeroAndUnwritten) {
  FrameAllocator allocator;
  FrameId first = WriteAndFree(allocator, kPageFlagAnon);
  EXPECT_EQ(allocator.Stats().materialized_bytes, 0u);
  FrameId again = allocator.Allocate(kPageFlagAnon | kPageFlagZeroFill);
  ASSERT_EQ(again, first) << "the per-thread cache hands the freed frame straight back";
  EXPECT_EQ(allocator.PeekData(again), nullptr);
  EXPECT_TRUE(AllZero(allocator.MaterializeData(again), kPageSize));
  EXPECT_EQ(allocator.Stats().materialized_bytes, kPageSize);
  allocator.DecRef(again);
}

TEST(FrameAllocatorTest, PageTableReusingADataFrameStartsEmpty) {
  FrameAllocator allocator;
  FrameId first = WriteAndFree(allocator, kPageFlagAnon);
  FrameId table = allocator.Allocate(kPageFlagPageTable);
  ASSERT_EQ(table, first);
  EXPECT_TRUE(AllZero(reinterpret_cast<const std::byte*>(allocator.TableEntries(table)),
                      kPageSize));
  EXPECT_NE(allocator.PeekData(table), nullptr) << "page tables are always written";
  EXPECT_EQ(allocator.Stats().materialized_bytes, kPageSize);
  allocator.DecRef(table);
  EXPECT_EQ(allocator.Stats().materialized_bytes, 0u);
}

TEST(FrameAllocatorTest, RecycledCompoundWithOneWrittenTailIsZeroAndUnwritten) {
  FrameAllocator allocator;
  FrameId head = allocator.AllocateCompound(kPageFlagAnon);
  std::memset(allocator.MaterializeData(head + 7), 0x5a, kPageSize);
  EXPECT_EQ(allocator.PeekData(head), allocator.PeekData(head + 7) - 7 * kPageSize)
      << "one written tail makes the whole compound written";
  allocator.DecRef(head);
  FrameId again = allocator.AllocateCompound(kPageFlagAnon | kPageFlagZeroFill);
  ASSERT_EQ(again, head);
  EXPECT_EQ(allocator.PeekData(again), nullptr);
  EXPECT_EQ(allocator.PeekData(again + 7), nullptr);
  EXPECT_TRUE(AllZero(allocator.MaterializeData(again), kHugePageSize));
  allocator.DecRef(again);
}

// Use-after-free of a frame's bytes: the allocator poisons them for ASan at every free
// path, so a read through an address taken before the free is reported.
TEST(FrameAllocatorDeathTest, ReadingFreedFrameBytesIsReported) {
#if defined(__SANITIZE_ADDRESS__)
  constexpr bool kAsan = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
  constexpr bool kAsan = true;
#else
  constexpr bool kAsan = false;
#endif
#else
  constexpr bool kAsan = false;
#endif
  if (!kAsan) {
    GTEST_SKIP() << "use-after-free reports need the asan-ubsan preset (-DODF_SANITIZE=ON)";
  }
  FrameAllocator allocator;
  auto read_after_free = [&allocator](FrameId frame, uint64_t offset) {
    const volatile std::byte* bytes = allocator.MaterializeData(frame);
    allocator.DecRef(frame);
    return bytes[offset];
  };
  EXPECT_DEATH(read_after_free(allocator.Allocate(kPageFlagAnon), 17), "use-after-poison");
  EXPECT_DEATH(read_after_free(allocator.AllocateCompound(kPageFlagAnon), 3 * kPageSize),
               "use-after-poison");
  // The shared-pool path (a batch free) poisons too, page tables included.
  auto read_table_after_batch_free = [&allocator]() {
    FrameId table = allocator.Allocate(kPageFlagPageTable);
    const volatile uint64_t* entries = allocator.TableEntries(table);
    allocator.FreeBatch(std::span<const FrameId>(&table, 1));
    return entries[5];
  };
  EXPECT_DEATH(read_table_after_batch_free(), "use-after-poison");
}

}  // namespace
}  // namespace odf
