// overcommit: one thread makes seeded, skewed reads and writes over a working set of
// about 115% of a SetMemoryLimitFrames pool with kswapd running, and every
// kOvercommitForkEvery operations takes an on-demand-fork snapshot whose child exits at once.
// Reclaim (shrink, LRU aging, kswapd, swap) and the swap-in fault path do real work
// here and almost none in the other workloads.
#include "perfbench/bench.h"
#include "src/proc/kernel.h"
#include "src/util/rng.h"

namespace odf::perfbench {
namespace {

// Full size: a 64 MiB pool (16384 frames), about the size of kv-snapshot's dataset, and a
// snapshot fork every 2000 operations, which keeps forks under 1% of the thread's time.
// The demand of 115% of the pool is that of bench/fig_reclaim_pressure.cc. Swap-ins,
// pages scanned and refaults per operation were the same with pools of 4096, 16384 and
// 65536 frames; the larger pool only adds host-cache misses (NOTES.md has the sweep).
constexpr uint64_t kOvercommitPoolFrames = 16384;
constexpr uint64_t kOvercommitForkEvery = 2000;

struct OvercommitSize {
  uint64_t pool_frames;
  uint64_t fork_every;  // Operations between snapshot forks.
};

OvercommitSize SizeFor(const Options& options) {
  if (options.tiny) {
    return {512, 256};
  }
  return {kOvercommitPoolFrames, kOvercommitForkEvery};
}

// Share of operations aimed at the hot set, and the hot set's share of the pages. The hot
// set (35% of the pool) fits with room to spare, so LRU aging has something to keep: with
// uniform access every page is equally likely to be next and the swap-ins per operation
// were four times as many (NOTES.md).
constexpr double kHotOps = 0.8;
constexpr uint64_t kHotPercent = 30;

class Overcommit : public Workload {
 public:
  explicit Overcommit(const Options& options)
      : options_(options), size_(SizeFor(options)), rng_(Mix64(options.seed ^ 0x0c)) {
    pages_ = size_.pool_frames * 115 / 100;
    hot_pages_ = pages_ * kHotPercent / 100;
    kernel_.SetMemoryLimitFrames(size_.pool_frames);
    kernel_.StartKswapd();
    process_ = &kernel_.CreateProcess();
    base_ = process_->Mmap(pages_ * kPageSize, kProtRead | kProtWrite);
    model_.resize(pages_);
    for (uint64_t page = 0; page < pages_; ++page) {
      model_[page] = Mix64(options.seed ^ page);
      ODF_CHECK(Write(page, model_[page]));
    }
  }

  void Prepare(Result* result) override {
    if (options_.corrupt_model) {
      model_[0] ^= 1;
    }
    result->Note("overcommit", "{\"pool_frames\": " + std::to_string(size_.pool_frames) +
                                   ", \"pages\": " + std::to_string(pages_) +
                                   ", \"hot_pages\": " + std::to_string(hot_pages_) +
                                   ", \"fork_every\": " + std::to_string(size_.fork_every) +
                                   "}");
  }

  Kernel& kernel() override { return kernel_; }
  FaultsInside faults() const override { return FaultsInside::kMm; }

  void RunPhase(double seconds, bool traced, Phase* phase) override {
    double cpu0 = ThreadCpuSeconds();
    const uint64_t deadline = NowNs() + static_cast<uint64_t>(seconds * 1e9);
    while (NowNs() < deadline) {
      for (int batch = 0; batch < 64; ++batch) {
        uint64_t page = rng_.NextBool(kHotOps) ? rng_.NextBelow(hot_pages_)
                                               : rng_.NextBelow(pages_);
        bool write = rng_.NextBool(0.5);
        uint64_t value = write ? Mix64(rng_.Next()) : 0;
        ++phase->attempted;
        bool ok;
        uint64_t t0 = NowNs();
        {
          SpanScope op(SpanKind::kOp);
          SpanScope access(SpanKind::kAccess);
          ok = write ? Write(page, value) : Read(page, &value);
        }
        phase->op.Add(NowNs() - t0);
        ++phase->ops;
        if (write && ok) {
          model_[page] = value;
        }
        if (!ok || value != model_[page]) {
          ++phase->failed;
        }
        if (++since_fork_ == size_.fork_every) {
          since_fork_ = 0;
          Snapshot(traced, phase);
        }
      }
    }
    phase->driver_cpu_s += ThreadCpuSeconds() - cpu0;
    phase->forking_threads = 1;
  }

  void Finish(Result* result) override {
    for (uint64_t page = 0; page < pages_; ++page) {
      uint64_t value = 0;
      if (!Read(page, &value) || value != model_[page]) {
        result->Fail("final read of page " + std::to_string(page) + " differs from the model");
      }
    }
    kernel_.StopKswapd();
    kernel_.Exit(*process_, 0);
    CheckAllFree(kernel_, result);
  }

 private:
  // Each page holds its value at a page-dependent offset, so accesses spread over lines.
  Vaddr Slot(uint64_t page) const { return base_ + page * kPageSize + (page * 64) % kPageSize; }

  bool Write(uint64_t page, uint64_t value) {
    return process_->WriteMemory(Slot(page), std::as_bytes(std::span(&value, 1)));
  }

  bool Read(uint64_t page, uint64_t* value) {
    return process_->ReadMemory(Slot(page), std::as_writable_bytes(std::span(value, 1)));
  }

  void Snapshot(bool traced, Phase* phase) {
    SpanScope op(SpanKind::kOp);
    ForkProfile profile;
    uint64_t t0 = NowNs();
    Process* child = nullptr;
    {
      SpanScope span(SpanKind::kFork);
      child = kernel_.TryFork(*process_, ForkMode::kOnDemand, traced ? &profile : nullptr);
    }
    uint64_t t1 = NowNs();
    phase->fork.Add(t1 - t0);
    phase->fork_ns_total += static_cast<double>(t1 - t0);
    ++phase->forks;
    AddProfile(profile, &phase->profile);
    if (child == nullptr) {
      ++phase->failed;  // Fork rolled back.
      return;
    }
    {
      SpanScope span(SpanKind::kExit);
      kernel_.Exit(*child, 0);
    }
    uint64_t t2 = NowNs();
    phase->exit.Add(t2 - t1);
    Pid reaped;
    {
      SpanScope span(SpanKind::kWait);
      reaped = kernel_.Wait(*process_);
    }
    phase->wait.Add(NowNs() - t2);
    if (reaped < 0) {
      ++phase->failed;
    }
  }

  const Options options_;
  const OvercommitSize size_;
  Rng rng_;
  Kernel kernel_;
  Process* process_ = nullptr;
  Vaddr base_ = 0;
  uint64_t pages_ = 0;
  uint64_t hot_pages_ = 0;
  std::vector<uint64_t> model_;  // Last value written to each page.
  uint64_t since_fork_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeOvercommit(const Options& options) {
  return std::make_unique<Overcommit>(options);
}

}  // namespace odf::perfbench
