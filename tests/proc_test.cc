// Process and Kernel facade: lifecycle, wait semantics, per-process fork-mode config, the
// typed memory API, and TLB behaviour through the access path.
#include <gtest/gtest.h>

#include "src/apps/lambda.h"
#include "src/debug/verify.h"
#include "src/trace/metrics.h"
#include "tests/test_util.h"

namespace odf {
namespace {

class ProcTest : public ::testing::Test {
 protected:
  Kernel kernel_;
};

TEST_F(ProcTest, PidsAreSequentialAndDistinct) {
  Process& a = kernel_.CreateProcess();
  Process& b = kernel_.CreateProcess();
  EXPECT_NE(a.pid(), b.pid());
  EXPECT_EQ(kernel_.ProcessCount(), 2u);
  EXPECT_EQ(kernel_.FindProcess(a.pid()), &a);
  EXPECT_EQ(kernel_.FindProcess(9999), nullptr);
}

TEST_F(ProcTest, ExitMakesZombieAndReleasesMemory) {
  Process& p = kernel_.CreateProcess();
  Vaddr va = p.Mmap(1 << 20, kProtRead | kProtWrite);
  FillPattern(p, va, 1 << 20, 1);
  ASSERT_GT(kernel_.allocator().Stats().allocated_frames, 0u);
  kernel_.Exit(p, 42);
  EXPECT_EQ(p.state(), ProcessState::kZombie);
  EXPECT_EQ(p.exit_code(), 42);
  EXPECT_TRUE(kernel_.allocator().AllFree()) << "exit must tear down the address space";
  EXPECT_EQ(kernel_.ProcessCount(), 1u) << "zombie remains until reaped";
}

TEST_F(ProcTest, WaitReapsOnlyZombieChildren) {
  Process& parent = kernel_.CreateProcess();
  Process& child1 = kernel_.Fork(parent, ForkMode::kOnDemand);
  Process& child2 = kernel_.Fork(parent, ForkMode::kOnDemand);
  EXPECT_EQ(kernel_.Wait(parent), -1) << "no zombies yet";
  Pid child1_pid = child1.pid();
  kernel_.Exit(child1, 0);
  EXPECT_EQ(kernel_.Wait(parent), child1_pid);
  EXPECT_EQ(kernel_.Wait(parent), -1);
  Pid child2_pid = child2.pid();
  kernel_.Exit(child2, 0);
  EXPECT_EQ(kernel_.Wait(parent), child2_pid);
  EXPECT_EQ(kernel_.ProcessCount(), 1u);
}

TEST_F(ProcTest, WaitDoesNotReapOtherProcessesChildren) {
  Process& parent = kernel_.CreateProcess();
  Process& stranger = kernel_.CreateProcess();
  Process& child = kernel_.Fork(parent, ForkMode::kClassic);
  kernel_.Exit(child, 0);
  EXPECT_EQ(kernel_.Wait(stranger), -1);
  EXPECT_NE(kernel_.Wait(parent), -1);
}

TEST_F(ProcTest, ForkModeConfigIsInherited) {
  kernel_.set_default_fork_mode(ForkMode::kOnDemand);
  Process& p = kernel_.CreateProcess();
  EXPECT_EQ(p.fork_mode(), ForkMode::kOnDemand);
  Process& child = kernel_.Fork(p);  // Uses the configured mode.
  EXPECT_EQ(child.fork_mode(), ForkMode::kOnDemand);
  EXPECT_EQ(kernel_.fork_counters().on_demand_forks, 1u);
  EXPECT_EQ(kernel_.fork_counters().classic_forks, 0u);

  child.set_fork_mode(ForkMode::kClassic);
  Process& grandchild = kernel_.Fork(child);
  EXPECT_EQ(grandchild.fork_mode(), ForkMode::kClassic);
  EXPECT_EQ(kernel_.fork_counters().classic_forks, 1u);
}

TEST_F(ProcTest, TypedAccessorsRoundTrip) {
  Process& p = kernel_.CreateProcess();
  Vaddr va = p.Mmap(kPageSize, kProtRead | kProtWrite);
  p.StoreU64(va, 0x1122334455667788ULL);
  EXPECT_EQ(p.LoadU64(va), 0x1122334455667788ULL);
  p.StoreU32(va + 8, 0xabcd1234u);
  EXPECT_EQ(p.LoadU32(va + 8), 0xabcd1234u);
  // Little-endian composition check: the u32 sits inside the following u64 read.
  EXPECT_EQ(p.LoadU64(va + 8) & 0xffffffffu, 0xabcd1234u);
}

TEST_F(ProcTest, ReadStringStopsAtNulAndSegv) {
  Process& p = kernel_.CreateProcess();
  Vaddr va = p.Mmap(kPageSize, kProtRead | kProtWrite);
  const char text[] = "hello world";
  ASSERT_TRUE(p.WriteMemory(va, std::as_bytes(std::span(text))));
  EXPECT_EQ(p.ReadString(va, 100), "hello world");
  EXPECT_EQ(p.ReadString(va, 5), "hello");
  // A string running off the mapping ends at the fault instead of dying.
  Vaddr tail = va + kPageSize - 3;
  ASSERT_TRUE(p.WriteMemory(tail, std::as_bytes(std::span("ab", 2))));
  EXPECT_EQ(p.ReadString(tail, 100), "ab");
}

TEST_F(ProcTest, TouchRangeFaultsEveryPage) {
  Process& p = kernel_.CreateProcess();
  Vaddr va = p.Mmap(16 * kPageSize, kProtRead | kProtWrite);
  EXPECT_TRUE(p.TouchRange(va, 16 * kPageSize, AccessType::kWrite));
  EXPECT_EQ(p.address_space().CountPresentPtes(), 16u);
  EXPECT_FALSE(p.TouchRange(va, 17 * kPageSize, AccessType::kRead))
      << "touching past the VMA must report the SEGV";
}

TEST_F(ProcTest, TlbAcceleratesRepeatedAccess) {
  Process& p = kernel_.CreateProcess();
  Vaddr va = p.Mmap(kPageSize, kProtRead | kProtWrite);
  WriteByte(p, va, std::byte{1});
  const MmStats& stats = p.address_space().stats();
  uint64_t slow_before = stats.slow_path_translations;
  for (int i = 0; i < 100; ++i) {
    ReadByte(p, va);
  }
  EXPECT_EQ(stats.slow_path_translations - slow_before, 0u)
      << "hot-page reads must hit the per-thread translation cache, never the locked path";

  // Read first: a fresh on-demand-fork child reads the page through the shared PTE table.
  // Its cache is cold, so the first read takes the locked walk once, which refills it.
  Process& child = kernel_.Fork(p, ForkMode::kOnDemand);
  const MmStats& child_stats = child.address_space().stats();
  slow_before = child_stats.slow_path_translations;
  EXPECT_EQ(ReadByte(child, va), std::byte{1});
  EXPECT_EQ(child_stats.slow_path_translations - slow_before, 1u)
      << "a read miss in the translation cache must take the locked walk";
  slow_before = child_stats.slow_path_translations;
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(ReadByte(child, va), std::byte{1});
  }
  EXPECT_EQ(child_stats.slow_path_translations - slow_before, 0u)
      << "the locked walk must refill the cache for the reads that follow";
}

TEST_F(ProcTest, TlbFlushedOnFork) {
  Process& p = kernel_.CreateProcess();
  Vaddr va = p.Mmap(kPageSize, kProtRead | kProtWrite);
  WriteByte(p, va, std::byte{1});
  uint64_t flushes_before = ReadVm(VmCounter::k_tlb_flushes);
  kernel_.Fork(p, ForkMode::kOnDemand);
  EXPECT_GT(ReadVm(VmCounter::k_tlb_flushes), flushes_before)
      << "the parent's TLB must be flushed when its PMDs lose write permission";
  // And the stale cached writable translation must not bypass COW:
  WriteByte(p, va, std::byte{2});
  EXPECT_EQ(ReadByte(p, va), std::byte{2});
}

TEST(LambdaTest, WarmInvocationMatchesColdResult) {
  Kernel kernel;
  LambdaConfig config;
  config.runtime_image_bytes = 8 << 20;
  config.state_table_entries = 1 << 14;
  LambdaPlatform platform = LambdaPlatform::Deploy(kernel, config);

  uint8_t payload[8] = {9, 8, 7, 6, 5, 4, 3, 2};
  // The warm path's whole advantage is fork speed; under the debug-vm preset every fork
  // and exit also runs an O(mapped memory) kernel verification, which swamps the timing
  // comparison. Disarm the hook for the timed region only.
  debug::SetAutoVerify(false);
  LambdaInvocation warm = platform.Invoke(payload);
  LambdaInvocation cold = platform.InvokeCold(payload);
  debug::SetAutoVerify(true);
  EXPECT_EQ(warm.result, cold.result) << "template cloning must not change handler output";
  EXPECT_LT(warm.startup_us, cold.startup_us) << "warm start must beat cold start";
  EXPECT_EQ(kernel.ProcessCount(), 2u);  // Template + the cold zombie (never reaped).
}

TEST(LambdaTest, InvocationsAreIsolated) {
  Kernel kernel;
  LambdaConfig config;
  config.runtime_image_bytes = 4 << 20;
  config.state_table_entries = 1 << 12;
  LambdaPlatform platform = LambdaPlatform::Deploy(kernel, config);
  uint8_t a[1] = {1};
  uint8_t b[1] = {2};
  uint64_t first = platform.Invoke(a).result;
  platform.Invoke(b);
  EXPECT_EQ(platform.Invoke(a).result, first)
      << "clone writes must never leak back into the template";
}

}  // namespace
}  // namespace odf
