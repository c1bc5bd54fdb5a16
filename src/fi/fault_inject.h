// odf::fi — deterministic fault injection, modeled on the kernel's failslab /
// fail_page_alloc debugfs machinery.
//
// Recoverable allocation and I/O sites (frame alloc, compound alloc, page-table alloc,
// swap-out, swap-in) consult ShouldInject(site) on their fallible ("Try") paths and turn an
// injected failure into the same typed error a genuine ENOMEM/EIO would produce. NOFAIL
// paths (the GFP_NOFAIL analogs: plain Allocate/AllocateCompound/AllocPageTable and
// teardown/rollback code) never consult the injector, so an armed injector can fail any
// recoverable operation but can never abort the kernel — that is what makes torture runs
// (tests/torture_test.cc) possible.
//
// Determinism: every injection decision is a pure function of (seed, site, per-site call
// index). Probability mode hashes those three through SplitMix64 instead of drawing from a
// shared RNG stream, so the schedule at one site does not depend on how calls at other
// sites interleave — replaying a failing seed with the same workload reproduces the exact
// same failure schedule (see docs/robustness.md "Replaying a failing seed").
//
// Cost model (mirrors ODF_TRACE):
//   - compiled out (-DODF_FAULT_INJECT=OFF => ODF_FAULT_INJECT_COMPILED=0): ShouldInject is
//     a constant false; the injector object still compiles but is inert.
//   - disarmed (the default): one relaxed atomic load and a predicted branch per Try call.
//   - armed: a mutex-serialized decision per call at the armed sites (testing-only cost).
#ifndef ODF_SRC_FI_FAULT_INJECT_H_
#define ODF_SRC_FI_FAULT_INJECT_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/util/mutex.h"
#include "src/util/thread_annotations.h"

// Set by the build (src/fi/CMakeLists.txt); default to compiled-in for out-of-build users.
#ifndef ODF_FAULT_INJECT_COMPILED
#define ODF_FAULT_INJECT_COMPILED 1
#endif

namespace odf {

// The injection-site catalog. Each site is one class of recoverable failure; the Try entry
// point that consults it is listed in docs/robustness.md.
#define ODF_FI_SITE_LIST(X) \
  X(frame_alloc)            \
  X(compound_alloc)         \
  X(page_table_alloc)       \
  X(swap_out)               \
  X(swap_in)                \
  X(reclaim_writeback)      \
  X(mf_ecc)

enum class FiSite : uint32_t {
#define ODF_FI_ENUM_MEMBER(name) k_##name,
  ODF_FI_SITE_LIST(ODF_FI_ENUM_MEMBER)
#undef ODF_FI_ENUM_MEMBER
      kCount,
};

constexpr size_t kFiSiteCount = static_cast<size_t>(FiSite::kCount);

// Stable lowercase name, e.g. "compound_alloc"; "?" for out-of-range values.
const char* FiSiteName(FiSite site);

// Parses a site name as printed by FiSiteName. Returns false on unknown names.
bool ParseFiSite(std::string_view name, FiSite* out);

// Per-site schedule. Modes compose: a call fails when ANY armed mode selects it, subject to
// the `times` budget. All-zero config (the default) never fails a call but still counts it.
struct FiSiteConfig {
  double probability = 0.0;  // Bernoulli per call, derived from (seed, site, call index).
  uint64_t nth = 0;          // If nonzero: fail exactly the nth call (1-based), once.
  uint64_t interval = 0;     // If nonzero: fail every interval-th call (call % interval == 0).
  int64_t times = -1;        // Max injections at this site; -1 = unlimited.
};

struct FiSiteStats {
  uint64_t calls = 0;     // Try-path decisions taken at this site while armed.
  uint64_t injected = 0;  // Calls the injector failed.
};

namespace fi {

// True when at least one site is armed. Inline so the disarmed fast path in ShouldInject is
// a single relaxed load (the static_key analog).
inline std::atomic<bool> g_fi_armed{false};

// Observer invoked (outside the injector lock) for every armed-site decision, with the
// 1-based per-site call index and the final verdict. The replay flight recorder installs one
// to log the schedule; replay then pins it back via PinForReplay. The hook must not call
// back into the injector.
using DecisionHook = void (*)(FiSite site, uint64_t call, bool verdict);
void SetDecisionHook(DecisionHook hook);

// Observer invoked (outside the injector lock) when the injection schedule itself changes:
// Arm fires (site, &config), Disarm fires (site, nullptr), and Reset fires
// (FiSite::kCount, nullptr). The flight recorder logs these as schedule ops so replay can
// reproduce per-site call indices, which restart at every arming. Same no-reentry rule as
// DecisionHook.
using ConfigHook = void (*)(FiSite site, const FiSiteConfig* config);
void SetConfigHook(ConfigHook hook);

class FaultInjector {
 public:
  static constexpr uint64_t kDefaultSeed = 0x0df0df0dULL;

  // The process-wide injector (failslab is machine-global; so is this).
  static FaultInjector& Global();

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  // Arms `site` with `config`. Counters for the site restart at zero, so `nth` is relative
  // to the moment of arming.
  void Arm(FiSite site, const FiSiteConfig& config);
  void Disarm(FiSite site);

  // Disarms every site, zeroes all stats, and reseeds. The canonical way for a test to
  // leave the (global) injector the way it found it.
  void Reset(uint64_t seed = kDefaultSeed);

  void SetSeed(uint64_t seed);
  uint64_t seed() const;

  // The armed-path decision: counts the call and returns true when the schedule fails it.
  // Callers go through ShouldInject, which checks the armed flag first.
  bool ShouldFail(FiSite site);

  bool IsArmed(FiSite site) const;
  FiSiteConfig SiteConfig(FiSite site) const;
  FiSiteStats SiteStats(FiSite site) const;

  // Total injections across all sites since the last Reset.
  uint64_t TotalInjected() const;

  // debugfs-style status text: seed plus one line per site (armed sites show their config).
  std::string FormatStatus() const;

  // The procfs knob: applies a whitespace-separated key=value spec, e.g.
  //   "seed=42 site=frame_alloc probability=0.01 times=5"
  //   "site=compound_alloc nth=3"
  //   "site=swap_out interval=7"
  //   "site=swap_in off"
  // `seed=` applies globally; every other key configures the most recently named site. The
  // bare token `off` disarms the named site; `reset` resets everything. Returns false (and
  // fills *error) on malformed input, leaving prior state untouched on parse errors that
  // precede any applied token.
  bool Configure(std::string_view spec, std::string* error = nullptr);

  // Replay mode: arms `site` with a fixed verdict schedule indexed by per-site call number
  // (verdicts[i] is the verdict of call i+1), overriding probability/nth/interval. Calls past
  // the end of the schedule return false and bump PinnedOverflow() — the replay engine treats
  // a nonzero overflow as divergence. Counters restart at zero, as with Arm.
  void PinForReplay(FiSite site, std::vector<bool> verdicts);

  // Disarms every pinned site and zeroes the overflow count; sites armed via Arm survive.
  void UnpinAll();

  // Decisions demanded past the end of a pinned schedule since the last UnpinAll/Reset.
  uint64_t PinnedOverflow() const;

 private:
  FaultInjector() = default;

  struct Site {
    FiSiteConfig config;
    bool armed = false;
    bool pinned = false;
    uint64_t calls = 0;
    uint64_t injected = 0;
    std::vector<bool> pinned_verdicts;
  };

  void RefreshArmedFlagLocked() ODF_REQUIRES(mutex_);

  mutable util::Mutex mutex_;
  uint64_t seed_ ODF_GUARDED_BY(mutex_) = kDefaultSeed;
  uint64_t pinned_overflow_ ODF_GUARDED_BY(mutex_) = 0;
  std::array<Site, kFiSiteCount> sites_ ODF_GUARDED_BY(mutex_);
};

// Hot-path check used by the Try entry points. Compiled out => constant false; disarmed =>
// one relaxed load; armed => full (serialized) schedule decision.
inline bool ShouldInject(FiSite site) {
#if ODF_FAULT_INJECT_COMPILED
  if (!g_fi_armed.load(std::memory_order_relaxed)) {
    return false;
  }
  return FaultInjector::Global().ShouldFail(site);
#else
  (void)site;
  return false;
#endif
}

// RAII arming for tests: arms on construction, disarms (and forgets the site's counters on
// the next Arm) on destruction.
class ScopedInjection {
 public:
  ScopedInjection(FiSite site, const FiSiteConfig& config) : site_(site) {
    FaultInjector::Global().Arm(site_, config);
  }
  ScopedInjection(const ScopedInjection&) = delete;
  ScopedInjection& operator=(const ScopedInjection&) = delete;
  ~ScopedInjection() { FaultInjector::Global().Disarm(site_); }

 private:
  FiSite site_;
};

}  // namespace fi
}  // namespace odf

#endif  // ODF_SRC_FI_FAULT_INJECT_H_
