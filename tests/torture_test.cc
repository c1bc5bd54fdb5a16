// Torture suite (ctest label: torture): tens of thousands of randomized fork / fault /
// reclaim / exit operations under probabilistic fault injection and a tight frame limit.
// The whole run is single-threaded and seeded, so a failing seed replays deterministically:
//   ODF_TORTURE_SEED=<seed> ./torture_test
// (see docs/robustness.md "Replaying a failing seed").
//
// Invariants checked continuously:
//   - zero aborts: every injected failure surfaces as a typed, recoverable error;
//   - byte-identical parent memory after every failed fork (transactional rollback);
//   - zero leaks: FrameAllocator::AllFree() once every process has exited;
//   - determinism: two runs with the same seed produce identical op and injection counts.
#include <gtest/gtest.h>

#include <cstdlib>
#include <map>
#include <vector>

#include "src/fi/fault_inject.h"
#include "src/mm/fault.h"
#include "src/replay/recorder.h"
#include "src/trace/metrics.h"
#include "src/util/rng.h"
#include "tests/test_util.h"

namespace odf {
namespace {

using fi::FaultInjector;

#if ODF_REPLAY_COMPILED
// Every torture test runs under the black-box flight recorder (docs/replay.md): a bounded
// recording costs a few percent, and a failing run leaves behind a log plus the exact
// odf-replay command to time-travel through it — strictly more information than the seed
// alone, because the log pins the fault-injection schedule and op outcomes that led to the
// failure. Set ODF_TORTURE_RECORD=0 to opt out (e.g. when profiling the suite itself).
class TortureFlightRecorder : public ::testing::EmptyTestEventListener {
  void OnTestStart(const ::testing::TestInfo&) override {
    if (const char* env = std::getenv("ODF_TORTURE_RECORD")) {
      if (std::atoi(env) == 0) {
        return;
      }
    }
    replay::RecorderOptions options;
    options.mode = replay::RecorderMode::kBlackBox;
    options.force_tracing = true;  // Perf is irrelevant here; keep the dump annotated.
    replay::Recorder::Global().Start(options);
  }
  void OnTestEnd(const ::testing::TestInfo& info) override {
    replay::Recorder& recorder = replay::Recorder::Global();
    if (!recorder.recording()) {
      return;
    }
    if (info.result()->Failed()) {
      // DumpNow prints the log path and the replay command to stderr.
      recorder.DumpNow();
    }
    recorder.Stop();
  }
};

const bool g_torture_recorder_registered = [] {
  ::testing::UnitTest::GetInstance()->listeners().Append(new TortureFlightRecorder);
  return true;
}();
#endif  // ODF_REPLAY_COMPILED

constexpr uint64_t kRootRegionBytes = 2 * kPteTableSpan;  // 4 MiB, 1024 pattern pages.
constexpr uint64_t kPatternSeed = 0xabcdef;
constexpr uint64_t kFrameLimit = 4096;  // Tight enough that reclaim runs, children get hit.
constexpr size_t kMaxLiveChildren = 3;
constexpr int kOps = 12000;

// Per-run tallies compared across the two same-seed runs for the determinism gate.
struct TortureTally {
  uint64_t forks_attempted = 0;
  uint64_t forks_failed = 0;
  uint64_t child_writes = 0;
  uint64_t child_write_failures = 0;
  uint64_t root_reads = 0;
  uint64_t root_read_retries = 0;
  uint64_t huge_touches = 0;
  uint64_t poison_heals = 0;
  uint64_t oom_kills = 0;
  // (calls, injected) per site, accumulated across re-arm windows.
  std::vector<std::pair<uint64_t, uint64_t>> site_stats;

  bool operator==(const TortureTally& other) const = default;
};

class TortureDriver {
 public:
  // `frame_limit` sets the pool size; `start_kswapd` arms the background reclaim daemon
  // (which makes the run nondeterministic — only the single-threaded default
  // configuration feeds the same-seed replay gate).
  explicit TortureDriver(uint64_t seed, uint64_t frame_limit = kFrameLimit,
                        bool start_kswapd = false, bool arm_mf = false)
      : rng_(seed), arm_mf_(arm_mf) {
    // The pattern fill runs before arming: the torture loop needs a known-good baseline to
    // verify rollbacks against, so its writes must not themselves be failed.
    FaultInjector::Global().Reset(seed);
    root_ = &kernel_.CreateProcess();
    region_ = root_->Mmap(kRootRegionBytes, kProtRead | kProtWrite);
    FillPattern(*root_, region_, kRootRegionBytes, kPatternSeed);
    kernel_.SetMemoryLimitFrames(frame_limit);
    if (start_kswapd) {
      kernel_.StartKswapd();
    }
    ArmAll();
  }

  void Run(TortureTally* tally) {
    for (int op = 0; op < kOps; ++op) {
      ASSERT_EQ(root_->state(), ProcessState::kRunning)
          << "op " << op << ": the OOM killer must never pick the driving root process";
      ReapZombies();
      uint64_t dice = rng_.NextBelow(100);
      if (dice < 25) {
        ASSERT_NO_FATAL_FAILURE(DoFork(tally)) << "op " << op;
      } else if (dice < 50) {
        ASSERT_NO_FATAL_FAILURE(DoChildWrite(tally)) << "op " << op;
      } else if (dice < 62) {
        ASSERT_NO_FATAL_FAILURE(DoHugeTouch(tally)) << "op " << op;
      } else if (dice < 82) {
        ASSERT_NO_FATAL_FAILURE(DoRootRead(tally)) << "op " << op;
      } else if (dice < 94) {
        DoExitChild();
      } else {
        kernel_.ReclaimMemory(rng_.NextInRange(8, 64));
      }
    }

    // Drain: every child exits, the injector is disarmed, and the root's pattern plus the
    // allocator's ledger must be exactly as they started.
    while (!children_.empty()) {
      Process* child = children_.back().second;
      if (child->state() == ProcessState::kRunning) {
        kernel_.Exit(*child, 0);
      }
      children_.pop_back();
    }
    while (kernel_.Wait(*root_) != -1) {
    }
    AccumulateSiteStats();
    FaultInjector::Global().Reset();
    ExpectPattern(*root_, region_, kRootRegionBytes, kPatternSeed);
    kernel_.Exit(*root_, 0);
    EXPECT_TRUE(kernel_.allocator().AllFree()) << "torture run leaked frames";
    tally->oom_kills = kernel_.oom_kills();
    tally->site_stats = site_totals_;
  }

 private:
  void ArmAll() {
    FaultInjector& fi = FaultInjector::Global();
    fi.Arm(FiSite::k_page_table_alloc, FiSiteConfig{.probability = 0.03});
    fi.Arm(FiSite::k_frame_alloc, FiSiteConfig{.probability = 0.01});
    fi.Arm(FiSite::k_compound_alloc, FiSiteConfig{.probability = 0.5});
    fi.Arm(FiSite::k_swap_out, FiSiteConfig{.probability = 0.05});
    fi.Arm(FiSite::k_swap_in, FiSiteConfig{.probability = 0.02});
    fi.Arm(FiSite::k_reclaim_writeback, FiSiteConfig{.probability = 0.05});
    if (arm_mf_) {
      // Injected uncorrectable memory errors (docs/memory-failure.md): each hit hard-
      // offlines the touched frame mid-access and permanently quarantines it. Arm() calls
      // restart the per-site call index (and the disarmed verification windows re-arm
      // constantly), so the probability must be high enough to fire within a window; the
      // `times` budget caps the quarantine growth so a 12000-op run cannot eat the pool.
      fi.Arm(FiSite::k_mf_ecc, FiSiteConfig{.probability = 0.01, .times = 2});
    }
  }

  // Arm() restarts per-site counters, so fold the window that is about to be lost into the
  // running totals before disarming for a verification pass.
  void AccumulateSiteStats() {
    FaultInjector& fi = FaultInjector::Global();
    if (site_totals_.empty()) {
      site_totals_.resize(kFiSiteCount, {0, 0});
    }
    for (size_t i = 0; i < kFiSiteCount; ++i) {
      FiSiteStats stats = fi.SiteStats(static_cast<FiSite>(i));
      site_totals_[i].first += stats.calls;
      site_totals_[i].second += stats.injected;
    }
  }

  // Pattern verification must not itself trip injection (a failed swap-in would read as a
  // corruption), so it runs in a disarmed window.
  void VerifyRootPattern() {
    AccumulateSiteStats();
    FaultInjector& fi = FaultInjector::Global();
    for (size_t i = 0; i < kFiSiteCount; ++i) {
      fi.Disarm(static_cast<FiSite>(i));
    }
    ExpectPattern(*root_, region_, kRootRegionBytes, kPatternSeed);
    ArmAll();
  }

  void DoFork(TortureTally* tally) {
    ++tally->forks_attempted;
    ForkMode mode = static_cast<ForkMode>(rng_.NextBelow(3));
    Process* child = kernel_.TryFork(*root_, mode);
    if (child == nullptr) {
      ++tally->forks_failed;
      // The acceptance gate: parent memory byte-identical after every failed fork.
      VerifyRootPattern();
      return;
    }
    if (children_.size() >= kMaxLiveChildren) {
      // Over the live cap: the child exits immediately (a short-lived fork); the next
      // ReapZombies sweep frees it.
      kernel_.Exit(*child, 0);
      return;
    }
    // Every live child maps its private huge scratch up front (no frames until touched).
    // Besides feeding DoHugeTouch, this keeps each child's mapped footprint strictly above
    // the root's, so the OOM killer's largest-process heuristic can never select the root.
    huge_scratch_[child->pid()] =
        child->Mmap(kHugePageSize, kProtRead | kProtWrite, /*huge=*/true);
    children_.emplace_back(child->pid(), child);
  }

  Process* PickRunningChild() {
    if (children_.empty()) {
      return nullptr;
    }
    size_t index = rng_.NextBelow(children_.size());
    Process* child = children_[index].second;
    if (child->state() != ProcessState::kRunning) {
      return nullptr;  // OOM-killed; the next ReapZombies sweep collects it.
    }
    return child;
  }

  // A write inside the mapped region must either succeed or fail with a recoverable,
  // typed verdict — never SEGV, never abort.
  void DoChildWrite(TortureTally* tally) {
    Process* child = PickRunningChild();
    if (child == nullptr) {
      return;
    }
    ++tally->child_writes;
    uint64_t pages = rng_.NextInRange(1, 8);
    uint64_t page = rng_.NextBelow(kRootRegionBytes / kPageSize - pages);
    std::vector<std::byte> junk(pages * kPageSize,
                                static_cast<std::byte>(rng_.NextBelow(256)));
    if (!child->WriteMemory(region_ + page * kPageSize, junk)) {
      ++tally->child_write_failures;
      ASSERT_TRUE(IsRecoverableFault(child->last_fault_result()))
          << "in-range write failed with verdict "
          << static_cast<int>(child->last_fault_result());
    }
  }

  // Children map a private 2 MiB huge scratch region and poke it: exercises compound
  // allocation, its 4 KiB degrade paths, and huge-page teardown under pressure.
  void DoHugeTouch(TortureTally* tally) {
    Process* child = PickRunningChild();
    if (child == nullptr) {
      return;
    }
    ++tally->huge_touches;
    Vaddr scratch = huge_scratch_.at(child->pid());
    Vaddr va = scratch + rng_.NextBelow(kHugePageSize / kPageSize) * kPageSize;
    std::byte value{0x5a};
    if (!child->WriteMemory(va, std::span(&value, 1))) {
      ASSERT_TRUE(IsRecoverableFault(child->last_fault_result()));
    }
  }

  // Root reads re-fault swapped-out pattern pages; injected swap-in/alloc failures are
  // recoverable, so a bounded retry must converge once the schedule moves on. An injected
  // memory error (kHwPoison) is sticky for the VA, not transient: retrying would spin, so
  // the driver heals — discard the dead page, rewrite its pattern slice — the way a real
  // SIGBUS handler restores state from a checkpoint, then lets the read converge.
  void DoRootRead(TortureTally* tally) {
    ++tally->root_reads;
    uint64_t page = rng_.NextBelow(kRootRegionBytes / kPageSize);
    Vaddr va = region_ + page * kPageSize;
    std::byte expected =
        static_cast<std::byte>((kPatternSeed * 1099511628211ULL + va) >> 5);
    std::byte got{0};
    for (int attempt = 0; attempt < 64; ++attempt) {
      if (root_->ReadMemory(va, std::span(&got, 1))) {
        ASSERT_EQ(got, expected) << "root pattern corrupted at page " << page;
        return;
      }
      ASSERT_TRUE(IsRecoverableFault(root_->last_fault_result()));
      if (root_->last_fault_result() == FaultResult::kHwPoison) {
        ASSERT_NO_FATAL_FAILURE(HealRootPage(va));
        ++tally->poison_heals;
        continue;
      }
      ++tally->root_read_retries;
    }
    FAIL() << "root read did not converge in 64 attempts (p=0.02 schedule)";
  }

  // Drops the poison marker at `va` and rewrites that page's slice of the pattern. Runs in
  // a disarmed window (FillPattern's write must not itself be failed — or poisoned again).
  void HealRootPage(Vaddr va) {
    AccumulateSiteStats();
    FaultInjector& fi = FaultInjector::Global();
    for (size_t i = 0; i < kFiSiteCount; ++i) {
      fi.Disarm(static_cast<FiSite>(i));
    }
    root_->MadviseDontNeed(va, kPageSize);
    FillPattern(*root_, va, kPageSize, kPatternSeed);
    ArmAll();
  }

  void DoExitChild() {
    if (children_.empty()) {
      return;
    }
    size_t index = rng_.NextBelow(children_.size());
    auto [pid, child] = children_[index];
    if (child->state() == ProcessState::kRunning) {
      kernel_.Exit(*child, 0);
    }
    children_.erase(children_.begin() + static_cast<ptrdiff_t>(index));
    huge_scratch_.erase(pid);
  }

  // Collects children the OOM killer terminated behind our back.
  void ReapZombies() {
    for (size_t i = 0; i < children_.size();) {
      if (children_[i].second->state() == ProcessState::kZombie) {
        huge_scratch_.erase(children_[i].first);
        children_.erase(children_.begin() + static_cast<ptrdiff_t>(i));
      } else {
        ++i;
      }
    }
    while (kernel_.Wait(*root_) != -1) {
    }
  }

  Rng rng_;
  bool arm_mf_ = false;
  Kernel kernel_;
  Process* root_ = nullptr;
  Vaddr region_ = 0;
  std::vector<std::pair<Pid, Process*>> children_;
  std::map<Pid, Vaddr> huge_scratch_;
  std::vector<std::pair<uint64_t, uint64_t>> site_totals_;
};

uint64_t TortureSeed() {
  if (const char* env = std::getenv("ODF_TORTURE_SEED")) {
    return std::strtoull(env, nullptr, 0);
  }
  return 0x70a7012eULL;
}

TEST(TortureTest, RandomizedForkFaultReclaimUnderInjection) {
#if !ODF_FAULT_INJECT_COMPILED
  GTEST_SKIP() << "fault-injection hooks compiled out (ODF_FAULT_INJECT=OFF)";
#endif
  uint64_t seed = TortureSeed();
  SCOPED_TRACE(::testing::Message() << "ODF_TORTURE_SEED=" << seed);

  TortureTally first;
  {
    TortureDriver driver(seed);
    ASSERT_NO_FATAL_FAILURE(driver.Run(&first));
  }
  EXPECT_GT(first.forks_attempted, 1000u) << "op mix drifted; forks barely exercised";
  EXPECT_GT(first.forks_failed, 0u) << "injection never failed a fork; schedule too weak";
  uint64_t injected_total = 0;
  for (const auto& [calls, injected] : first.site_stats) {
    injected_total += injected;
  }
  EXPECT_GT(injected_total, 100u) << "torture run barely exercised the injector";

  // Replay: the identical seed must reproduce the identical run — same op outcomes, same
  // per-site call/injection counts, same OOM kills. (Kernel state, the xoshiro op stream,
  // and the SplitMix64 injection schedule are all pure functions of the seed.)
  FaultInjector::Global().Reset();
  TortureTally replay;
  {
    TortureDriver driver(seed);
    ASSERT_NO_FATAL_FAILURE(driver.Run(&replay));
  }
  EXPECT_EQ(first, replay) << "same-seed torture runs diverged; determinism broken";
  FaultInjector::Global().Reset();
}

// The memory-pressure variant (docs/reclaim.md): the pool shrinks to half the default —
// tight enough that the root's pattern region alone overcommits it — and kswapd runs
// concurrently with the op mix, so CLOCK aging, sweep-driven eviction, direct reclaim, and the
// background daemon all fight over the same frames while faults are being injected. The
// daemon makes the schedule nondeterministic, so there is no replay gate here; the
// invariants are survival ones: the root is never OOM-picked, its pattern stays
// byte-identical, reclaim demonstrably ran, and nothing leaks.
TEST(TortureTest, MemoryPressureWithKswapdUnderInjection) {
#if !ODF_FAULT_INJECT_COMPILED
  GTEST_SKIP() << "fault-injection hooks compiled out (ODF_FAULT_INJECT=OFF)";
#endif
  uint64_t seed = TortureSeed() ^ 0x9e3779b97f4a7c15ULL;
  SCOPED_TRACE(::testing::Message() << "ODF_TORTURE_SEED=" << seed);

  uint64_t pgsteal_before = ReadVm(VmCounter::k_pgsteal);
  TortureTally tally;
  {
    TortureDriver driver(seed, kFrameLimit / 2, /*start_kswapd=*/true);
    ASSERT_NO_FATAL_FAILURE(driver.Run(&tally));
  }
  EXPECT_GT(tally.forks_attempted, 1000u);
  EXPECT_GT(ReadVm(VmCounter::k_pgsteal) - pgsteal_before, 0u)
      << "a half-sized pool must force actual evictions";
  FaultInjector::Global().Reset();
}

// The memory-failure variant (docs/memory-failure.md): the full op mix with the mf_ecc
// site armed, so random accesses consume injected uncorrectable memory errors — each one
// hard-offlines the touched frame mid-access (splitting huge mappings, quarantining the
// frame forever) while forks, COW, reclaim, and the other six sites keep firing. The
// invariants are the robustness gates: zero aborts (every poison surfaces as a typed
// kHwPoison the driver heals), the root's pattern is byte-identical after healing, the
// quarantine never leaks back, AllFree() still holds at the end (quarantined frames leave
// the allocated ledger), and the same seed reproduces the identical run.
TEST(TortureTest, MemoryFailureInjectionUnderTorture) {
#if !ODF_FAULT_INJECT_COMPILED || !ODF_MEMORY_FAILURE_COMPILED
  GTEST_SKIP() << "fault-injection or memory-failure hooks compiled out";
#endif
  uint64_t seed = TortureSeed() ^ 0xc0ffeec0ffeeULL;
  SCOPED_TRACE(::testing::Message() << "ODF_TORTURE_SEED=" << seed);

  uint64_t offlines_before = ReadVm(VmCounter::k_mf_hard_offline);
  TortureTally first;
  {
    TortureDriver driver(seed, kFrameLimit, /*start_kswapd=*/false, /*arm_mf=*/true);
    ASSERT_NO_FATAL_FAILURE(driver.Run(&first));
  }
  EXPECT_GT(ReadVm(VmCounter::k_mf_hard_offline) - offlines_before, 0u)
      << "the mf_ecc schedule never fired; the variant exercised nothing";
  EXPECT_GT(first.forks_attempted, 1000u);

  // Same-seed determinism must survive mid-access offline: the poison schedule, the heal
  // writes, and the quarantine diversions are all pure functions of the seed.
  FaultInjector::Global().Reset();
  TortureTally replay;
  {
    TortureDriver driver(seed, kFrameLimit, /*start_kswapd=*/false, /*arm_mf=*/true);
    ASSERT_NO_FATAL_FAILURE(driver.Run(&replay));
  }
  EXPECT_EQ(first, replay) << "same-seed mf torture runs diverged; determinism broken";
  FaultInjector::Global().Reset();
}

}  // namespace
}  // namespace odf
