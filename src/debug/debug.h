// odf::debug — CONFIG_DEBUG_VM-style invariant checking for the simulated mm.
//
// The paper's mechanism lives in the code the kernel itself trusts least: fork, COW fault
// handling, and page-table refcounting. Linux guards that code with CONFIG_DEBUG_VM
// (VM_BUG_ON_PAGE), page poisoning, and refcount saturation checks; this header is the
// simulator's analog. Three macro families:
//
//   ODF_VM_BUG_ON(cond) << "context";
//       Aborts when `cond` is TRUE (kernel BUG_ON polarity). Streams extra context like
//       ODF_CHECK.
//
//   ODF_VM_BUG_ON_PAGE(cond, meta, frame) << "context";
//       Like ODF_VM_BUG_ON but appends a dump_page()-style rendering of the frame's
//       PageMeta (flags/refcount/pt_share/compound_head/written) to the abort message.
//
//   ODF_VM_POISON(...) / poison constants below:
//       Freed frames carry a canary in PageMeta::reserved and their written bytes are
//       filled with kPoisonByte at free; allocation re-checks the canary and the zeroed
//       counters, catching stale IncRef/DecRef/flag writes on freed frames at the next
//       allocation. Use-after-free of the *data* bytes is ASan's: the allocator poisons a
//       frame's arena bytes at free and unpoisons them at allocation, so under the
//       asan-ubsan preset any touch through a stale pointer is reported.
//
// Cost model (mirrors ODF_TRACE): with -DODF_DEBUG_VM=OFF (the default) every macro
// expands to a constant-folded no-op — condition expressions are parsed but never
// evaluated — so release builds are byte-for-byte free of checker overhead. With the
// `debug-vm` preset (-DODF_DEBUG_VM=ON) every check runs and counts itself; see
// docs/debugging.md.
#ifndef ODF_SRC_DEBUG_DEBUG_H_
#define ODF_SRC_DEBUG_DEBUG_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "src/phys/page_meta.h"
#include "src/util/log.h"

// Set by the build (src/debug/CMakeLists.txt); default to compiled-out for out-of-build
// users — debug checking is opt-in, unlike tracing.
#ifndef ODF_DEBUG_VM_COMPILED
#define ODF_DEBUG_VM_COMPILED 0
#endif

namespace odf {
namespace debug {

// Returns true when the invariant checkers are compiled into this binary.
constexpr bool Compiled() { return ODF_DEBUG_VM_COMPILED != 0; }

// --- Poison values (PAGE_POISON analogs) ---

// Written into every byte of a written frame when it is freed. Any stale pointer that
// reads the frame before it is handed out again (and re-zeroed) observes this pattern
// instead of plausible page contents.
inline constexpr uint8_t kPoisonByte = 0xaa;

// PageMeta::reserved canaries. A frame's `reserved` field is 0 only before its first
// allocation; afterwards it alternates between the two canaries. Poison-check-on-alloc
// verifies the freed canary (or 0) plus zeroed refcount/pt_share/flags, so any mutation
// of a freed frame's metadata aborts at the next allocation with a full page dump.
inline constexpr uint16_t kPoisonFreed = 0xdead;
inline constexpr uint16_t kPoisonAllocated = 0xa11c;

// Refcount saturation threshold (the refcount_t analog): an increment that reaches this
// value aborts — a counter this large is a runaway IncRef loop, and letting it wrap to
// zero would free a frame that still has billions of apparent owners.
inline constexpr uint32_t kRefcountSaturated = 0x7fffffffu;

// --- Check statistics (exported through procfs FormatDebugVm) ---

struct CheckStats {
  uint64_t vm_checks = 0;       // ODF_VM_BUG_ON conditions evaluated.
  uint64_t poison_checks = 0;   // Poison-check-on-alloc sweeps performed.
  uint64_t poison_writes = 0;   // Poison-on-free buffer fills performed.
};

CheckStats GetCheckStats();

namespace internal {

#if ODF_DEBUG_VM_COMPILED
extern std::atomic<uint64_t> g_vm_checks;
extern std::atomic<uint64_t> g_poison_checks;
extern std::atomic<uint64_t> g_poison_writes;

inline bool CountCheck() {
  g_vm_checks.fetch_add(1, std::memory_order_relaxed);
  return true;
}
#endif

// dump_page() analog: renders a PageMeta for abort messages.
std::string DescribePage(const PageMeta& meta, FrameId frame);

}  // namespace internal
}  // namespace debug
}  // namespace odf

// The checks fire when the condition is TRUE (BUG_ON polarity), unlike ODF_CHECK which
// fires when its condition is false. Both are statement-safe single void expressions.
#if ODF_DEBUG_VM_COMPILED

#define ODF_VM_BUG_ON(condition)                                                     \
  (::odf::debug::internal::CountCheck() && !(condition))                             \
      ? (void)0                                                                      \
      : ::odf::internal::CheckVoidify() &                                            \
            ::odf::internal::CheckFailer(__FILE__, __LINE__, "VM_BUG_ON(" #condition ")")

#define ODF_VM_BUG_ON_PAGE(condition, meta, frame)                                   \
  (::odf::debug::internal::CountCheck() && !(condition))                             \
      ? (void)0                                                                      \
      : ::odf::internal::CheckVoidify() &                                            \
            ::odf::internal::CheckFailer(__FILE__, __LINE__,                         \
                                         "VM_BUG_ON_PAGE(" #condition ")")           \
                << ::odf::debug::internal::DescribePage((meta), (frame)) << " "

#else  // ODF_DEBUG_VM_COMPILED

// Compiled out: the conditions stay parsed and type-checked but are never evaluated
// (the `true ||` short-circuit folds away, the ODF_DCHECK pattern).
#define ODF_VM_BUG_ON(condition) ODF_CHECK(true || (condition))
#define ODF_VM_BUG_ON_PAGE(condition, meta, frame) \
  ODF_CHECK(true || ((void)(meta), (void)(frame), (condition)))

#endif  // ODF_DEBUG_VM_COMPILED

#endif  // ODF_SRC_DEBUG_DEBUG_H_
