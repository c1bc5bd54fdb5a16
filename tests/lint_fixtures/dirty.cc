// Lint fixture: every directory-scoped odf_lint rule fires at least once here.
// NEVER compiled — tests/lint_selftest.py lints this file explicitly and asserts
// the exact rule ids below. The default tree scan skips tests/lint_fixtures/.
//
// Line numbers matter to the selftest: add new cases at the END of the file.

#include <mutex>

namespace odf_fixture {

void RawRefcount(Meta& meta) {
  meta.refcount.fetch_add(1);  // raw-refcount
}

void NakedLock(std::mutex& mu) {
  mu.lock();  // naked-lock (and the std::mutex parameter above is raw-std-mutex)
}

void RawStdMutex() {
  std::lock_guard<std::mutex> guard(g_mutex);  // raw-std-mutex (+ naked-lock)
}

void GenBeforeFreeViolation(Allocator& allocator, uint64_t* slot) {
  StoreEntry(slot, Pte());
  allocator.DecRef(frame);  // gen-before-free: rewrite above, no bump between
}

void TraceOutsideGuard() {
  trace::Emit(TraceEventId::k_fault, 0, 0);  // trace-outside-guard
}

void DirectWriteback(SwapSpace& swap, const std::byte* data) {
  swap.TryWriteOut(data);  // direct-writeback
}

void TableMutex(Kernel& kernel) {
  kernel.table_mutex_.lock();  // table-mutex (+ naked-lock)
}

void HwPoison(Allocator& allocator) {
  allocator.MarkHwPoison(frame);  // hwpoison-flag
}

}  // namespace odf_fixture
