#include "src/pt/mm_gate.h"

#include "src/debug/debug.h"
#include "src/pt/mm_locks.h"

namespace odf {

thread_local int MmGate::tls_shared_depth_ = 0;
thread_local int MmGate::tls_exclusive_depth_ = 0;
thread_local util::BravoGate::ReadToken MmGate::tls_token_;

MmGate& MmGate::Global() {
  static MmGate gate;
  return gate;
}

bool MmGate::ThreadHoldsExclusive() { return tls_exclusive_depth_ > 0; }

int MmGate::ThreadSharedDepth() { return tls_shared_depth_; }

MmGate::SharedScope::SharedScope() {
  if (tls_exclusive_depth_ > 0) {
    // The evictor re-entering a mutator path (OOM kill -> Exit): exclusive subsumes
    // shared. Counted as a shared hold so the destructor stays symmetric, but the
    // gate itself is untouched — acquiring shared here would self-deadlock.
    ++tls_shared_depth_;
    return;
  }
  if (tls_shared_depth_++ == 0) {
    tls_token_ = Global().gate_.LockShared();
    if (tls_token_.wait_ns != 0) {
      NoteMmLockWait(/*kind=*/0, tls_token_.wait_ns);
    }
  }
}

MmGate::SharedScope::~SharedScope() {
  ODF_DCHECK(tls_shared_depth_ > 0) << "unbalanced MmGate::SharedScope";
  if (--tls_shared_depth_ == 0 && tls_exclusive_depth_ == 0) {
    Global().gate_.UnlockShared(tls_token_);
  }
}

MmGate::ExclusiveScope::ExclusiveScope() {
  if (tls_exclusive_depth_++ > 0) {
    return;  // Reentrant: already exclusive.
  }
  // Upgrade: drop this thread's shared holds so the exclusive acquisition cannot deadlock
  // against itself. Other threads' shared holds still gate us, which is the point.
  restored_shared_ = tls_shared_depth_;
  if (restored_shared_ > 0) {
    tls_shared_depth_ = 0;
    Global().gate_.UnlockShared(tls_token_);
  }
  uint64_t wait_ns = Global().gate_.LockExclusive();
  if (wait_ns > 1000) {
    NoteMmLockWait(/*kind=*/1, wait_ns);
  }
}

MmGate::ExclusiveScope::~ExclusiveScope() {
  ODF_DCHECK(tls_exclusive_depth_ > 0) << "unbalanced MmGate::ExclusiveScope";
  if (--tls_exclusive_depth_ > 0) {
    return;
  }
  Global().gate_.UnlockExclusive();
  if (restored_shared_ > 0) {
    // Restore the caller's shared holds after the upgrade.
    tls_token_ = Global().gate_.LockShared();
    tls_shared_depth_ = restored_shared_;
  }
}

}  // namespace odf
