// Lint fixture: the same violations as dirty.cc, each suppressed with an
// `// odf-lint: allow(<rule>)` comment (on the line or the line above).
// tests/lint_selftest.py asserts this file lints CLEAN — proving the allow
// mechanism works for every rule. Never compiled.

#include <mutex>  // odf-lint: allow(raw-std-mutex) — fixture exercises suppression

namespace odf_fixture {

void RawRefcount(Meta& meta) {
  meta.refcount.fetch_add(1);  // odf-lint: allow(raw-refcount)
}

void NakedLock(RawMutex& mu) {
  // odf-lint: allow(naked-lock)
  mu.lock();
}

void RawStdMutex() {
  // odf-lint: allow(raw-std-mutex)
  std::mutex mu;
  // odf-lint: allow(naked-lock)
  mu.lock();  // odf-lint: allow(raw-std-mutex)
}

void GenBeforeFreeOrdered(Allocator& allocator, MmLockTable& locks, uint64_t* slot) {
  StoreEntry(slot, Pte());
  locks.InvalidatePage(va);  // bump between rewrite and free: no finding
  allocator.DecRef(frame);
}

void GenBeforeFreeAllowed(Allocator& allocator, uint64_t* slot) {
  StoreEntry(slot, Pte());
  // odf-lint: allow(gen-before-free)
  allocator.DecRef(frame);
}

void TraceOutsideGuard() {
  trace::Emit(TraceEventId::k_fault, 0, 0);  // odf-lint: allow(trace-outside-guard)
}

void DirectWriteback(SwapSpace& swap, const std::byte* data) {
  // odf-lint: allow(direct-writeback)
  swap.TryWriteOut(data);
}

void TableMutex(Kernel& kernel) {
  // odf-lint: allow(naked-lock)
  kernel.table_mutex_.lock();  // odf-lint: allow(table-mutex)
}

void HwPoison(Allocator& allocator) {
  allocator.MarkHwPoison(frame);  // odf-lint: allow(hwpoison-flag)
}

}  // namespace odf_fixture
