// The global invariant auditor, plus audit sweeps after every category of complex scenario.
#include <gtest/gtest.h>

#include "src/proc/auditor.h"
#include "tests/test_util.h"

namespace odf {
namespace {

#define EXPECT_AUDIT_OK(kernel)                                 \
  do {                                                          \
    AuditResult audit_result = AuditKernel(kernel);             \
    EXPECT_TRUE(audit_result.ok()) << audit_result.Describe();  \
  } while (0)

TEST(AuditorTest, CleanKernelPasses) {
  Kernel kernel;
  Process& p = kernel.CreateProcess();
  Vaddr va = p.Mmap(1 << 20, kProtRead | kProtWrite);
  FillPattern(p, va, 1 << 20, 1);
  EXPECT_AUDIT_OK(kernel);
}

TEST(AuditorTest, DetectsInjectedRefcountDrift) {
  Kernel kernel;
  Process& p = kernel.CreateProcess();
  Vaddr va = p.Mmap(64 * kPageSize, kProtRead | kProtWrite);
  FillPattern(p, va, 64 * kPageSize, 2);
  // Sabotage: bump one page's refcount without a referencing entry.
  AddressSpace& as = p.address_space();
  Translation t = as.walker().Translate(as.pgd(), va, AccessType::kRead);
  ASSERT_EQ(t.status, TranslateStatus::kOk);
  // odf-lint: allow(raw-refcount) — deliberate counter sabotage under test.
  kernel.allocator().GetMeta(t.frame).refcount.fetch_add(1);
  AuditResult audit = AuditKernel(kernel);
  EXPECT_FALSE(audit.ok()) << "the auditor must catch a drifted page refcount";
  // odf-lint: allow(raw-refcount) — deliberate counter sabotage under test.
  kernel.allocator().GetMeta(t.frame).refcount.fetch_sub(1);  // Undo for clean teardown.
  EXPECT_AUDIT_OK(kernel);
}

TEST(AuditorTest, DetectsInjectedShareCountDrift) {
  Kernel kernel;
  Process& p = kernel.CreateProcess();
  Vaddr va = p.Mmap(kHugePageSize, kProtRead | kProtWrite);
  FillPattern(p, va, kHugePageSize, 3);
  kernel.Fork(p, ForkMode::kOnDemand);
  AddressSpace& as = p.address_space();
  uint64_t* pmd = as.walker().FindEntry(as.pgd(), va, PtLevel::kPmd);
  FrameId table = LoadEntry(pmd).frame();
  // odf-lint: allow(raw-refcount) — deliberate counter sabotage under test.
  kernel.allocator().GetMeta(table).pt_share_count.fetch_add(1);
  EXPECT_FALSE(AuditKernel(kernel).ok()) << "the auditor must catch share-count drift";
  // odf-lint: allow(raw-refcount) — deliberate counter sabotage under test.
  kernel.allocator().GetMeta(table).pt_share_count.fetch_sub(1);
  EXPECT_AUDIT_OK(kernel);
}

class AuditSweepTest : public ::testing::Test {
 protected:
  Kernel kernel_;
};

TEST_F(AuditSweepTest, AfterForkChainsOfAllModes) {
  Process& root = kernel_.CreateProcess();
  Vaddr va = root.Mmap(8 * kHugePageSize, kProtRead | kProtWrite);
  FillPattern(root, va, 8 * kHugePageSize, 4);
  Process& a = kernel_.Fork(root, ForkMode::kOnDemand);
  Process& b = kernel_.Fork(a, ForkMode::kOnDemandHuge);
  Process& c = kernel_.Fork(b, ForkMode::kClassic);
  WriteByte(a, va, std::byte{1});
  WriteByte(b, va + kHugePageSize, std::byte{2});
  WriteByte(c, va + 2 * kHugePageSize, std::byte{3});
  EXPECT_AUDIT_OK(kernel_);
  kernel_.Exit(b, 0);
  EXPECT_AUDIT_OK(kernel_);
}

TEST_F(AuditSweepTest, AfterUnmapRemapTraffic) {
  Process& p = kernel_.CreateProcess();
  Vaddr a = p.Mmap(3 * kHugePageSize, kProtRead | kProtWrite);
  FillPattern(p, a, 3 * kHugePageSize, 5);
  Process& child = kernel_.Fork(p, ForkMode::kOnDemand);
  child.Munmap(a + kHugePageSize, kHugePageSize);
  p.Mremap(a, 3 * kHugePageSize, kHugePageSize);
  EXPECT_AUDIT_OK(kernel_);
}

TEST_F(AuditSweepTest, AfterFileMappingsAndForks) {
  Process& p = kernel_.CreateProcess();
  auto file = kernel_.fs().Open("/f");
  std::vector<std::byte> data(16 * kPageSize, std::byte{9});
  file->Write(0, data);
  Vaddr shared = p.address_space().MapFile(file, 0, 8 * kPageSize,
                                           kProtRead | kProtWrite, true);
  Vaddr priv = p.address_space().MapFile(file, 0, 16 * kPageSize,
                                         kProtRead | kProtWrite, false);
  WriteByte(p, shared, std::byte{1});
  WriteByte(p, priv, std::byte{2});
  Process& child = kernel_.Fork(p, ForkMode::kOnDemand);
  WriteByte(child, priv + kPageSize, std::byte{3});
  EXPECT_AUDIT_OK(kernel_);
}

TEST_F(AuditSweepTest, AfterSwapTraffic) {
  Process& p = kernel_.CreateProcess();
  Vaddr va = p.Mmap(64 * kPageSize, kProtRead | kProtWrite);
  FillPattern(p, va, 64 * kPageSize, 6);
  kernel_.ReclaimMemory(1000);  // More than is mapped: evicts every page.
  EXPECT_AUDIT_OK(kernel_);
  Process& child = kernel_.Fork(p, ForkMode::kClassic);  // Copies swap entries.
  EXPECT_AUDIT_OK(kernel_);
  ExpectPattern(child, va, 64 * kPageSize, 6);  // Swap-ins on both sides.
  ExpectPattern(p, va, 64 * kPageSize, 6);
  EXPECT_AUDIT_OK(kernel_);
}

TEST_F(AuditSweepTest, AfterMemoryPressureWorkload) {
  kernel_.SetMemoryLimitFrames(3000);
  Process& p = kernel_.CreateProcess();
  Vaddr va = p.Mmap(16 << 20, kProtRead | kProtWrite);
  FillPattern(p, va, 16 << 20, 7);
  Process& child = kernel_.Fork(p, ForkMode::kOnDemand);
  WriteByte(child, va + 12345, std::byte{1});
  EXPECT_AUDIT_OK(kernel_);
}

TEST_F(AuditSweepTest, RandomizedScenarioAudit) {
  // A compressed version of the property test, with a full audit every 50 ops.
  Rng rng(77);
  Process& root = kernel_.CreateProcess();
  std::vector<Process*> live{&root};
  std::vector<std::pair<Vaddr, uint64_t>> regions;
  for (int r = 0; r < 2; ++r) {
    uint64_t length = rng.NextInRange(1, 3) * kHugePageSize;
    regions.emplace_back(root.Mmap(length, kProtRead | kProtWrite), length);
    FillPattern(root, regions.back().first, regions.back().second, static_cast<uint64_t>(r));
  }
  for (int op = 0; op < 200; ++op) {
    Process& p = *live[rng.NextBelow(live.size())];
    switch (rng.NextBelow(4)) {
      case 0: {
        auto& [base, length] = regions[rng.NextBelow(regions.size())];
        std::byte value{static_cast<uint8_t>(op)};
        p.WriteMemory(base + rng.NextBelow(length), std::span(&value, 1));
        break;
      }
      case 1: {
        auto& [base, length] = regions[rng.NextBelow(regions.size())];
        std::byte out;
        p.ReadMemory(base + rng.NextBelow(length), std::span(&out, 1));
        break;
      }
      case 2: {
        if (live.size() < 6) {
          static constexpr ForkMode kModes[] = {ForkMode::kClassic, ForkMode::kOnDemand,
                                                ForkMode::kOnDemandHuge};
          live.push_back(&kernel_.Fork(p, kModes[rng.NextBelow(3)]));
        }
        break;
      }
      case 3: {
        if (live.size() > 2 && &p != &root) {
          kernel_.Exit(p, 0);
          live.erase(std::find(live.begin(), live.end(), &p));
        }
        break;
      }
    }
    if (op % 50 == 49) {
      AuditResult audit = AuditKernel(kernel_);
      ASSERT_TRUE(audit.ok()) << "op " << op << ": " << audit.Describe();
    }
  }
}

}  // namespace
}  // namespace odf
