#include "src/reclaim/kswapd.h"

#include "src/debug/debug.h"
#include "src/debug/mutation.h"
#include "src/pt/mm_gate.h"
#include "src/trace/metrics.h"
#include "src/trace/trace.h"

namespace odf {
namespace reclaim {

Kswapd::Kswapd(ShrinkContext ctx) : ctx_(std::move(ctx)) {}

Kswapd::~Kswapd() { Stop(); }

void Kswapd::Start() {
  if (running_.load(std::memory_order_relaxed)) {
    return;
  }
  {
    util::MutexLock lock(mu_);
    stop_ = false;
    pending_ = false;
  }
  running_.store(true, std::memory_order_relaxed);
  thread_ = std::thread([this] { Loop(); });
}

void Kswapd::Stop() {
  if (!running_.load(std::memory_order_relaxed)) {
    return;
  }
  {
    util::MutexLock lock(mu_);
    stop_ = true;
  }
  cv_.NotifyAll();
  if (thread_.joinable()) {
    thread_.join();
  }
  running_.store(false, std::memory_order_relaxed);
}

void Kswapd::Wake() {
  {
    util::MutexLock lock(mu_);
    if (pending_ || stop_) {
      return;  // A wake is already queued (or we are shutting down): nothing to signal.
    }
    pending_ = true;
  }
  cv_.NotifyOne();
}

void Kswapd::Loop() {
  for (;;) {
    {
      // Explicit predicate loop: the analysis verifies `stop_`/`pending_` against mu_
      // here, which a predicate lambda passed into wait() would hide from it.
      util::MutexLock lock(mu_);
      while (!stop_ && !pending_) {
        cv_.Wait(mu_);
      }
      if (stop_) {
        return;
      }
      pending_ = false;
    }
    stats_.wakeups.fetch_add(1, std::memory_order_relaxed);
    CountVm(VmCounter::k_kswapd_wake);
    ODF_TRACE(kswapd_wake, 0);
    Balance();
    ODF_TRACE(kswapd_sleep, 0);
  }
}

void Kswapd::Balance() {
  FrameAllocator& allocator = *ctx_.allocator;
  // Balance until free frames recover to HIGH. One gate acquisition per round keeps
  // exclusive holds short: mutators (and the auto-verifier) interleave between rounds.
  for (int round = 0; round < 256; ++round) {
    uint64_t limit = allocator.frame_limit();
    if (limit == 0) {
      return;
    }
    FrameAllocator::Watermarks wm = allocator.watermarks();
    uint64_t free = allocator.FreeFrames();
    if (free >= wm.high) {
      return;
    }
    uint64_t freed;
    {
      debug::MutationScope mutation_scope;
      MmGate::ExclusiveScope gate;
      freed = ReclaimPages(ctx_, wm.high - free);
    }
    stats_.balance_rounds.fetch_add(1, std::memory_order_relaxed);
    stats_.pages_freed.fetch_add(freed, std::memory_order_relaxed);
    if (freed == 0) {
      return;  // Nothing reclaimable: sleep; direct reclaim / the OOM killer take over.
    }
  }
}

}  // namespace reclaim
}  // namespace odf
