// Positive control for the negative-compile harness: the same APIs as the case*.cc
// violations, used CORRECTLY. This file must compile clean under
// -Werror=thread-safety — if it does not, the harness is rejecting good code and
// every "expected failure" result is meaningless. It doubles as the vacuous-macro
// guard: src/util/thread_annotations.h #errors if a Clang without capability
// attributes would silently compile the annotations to nothing.
#include "src/mm/fault.h"
#include "src/pt/mm_locks.h"
#include "src/pt/mm_gate.h"
#include "src/util/mutex.h"
#include "src/util/thread_annotations.h"

namespace {

class Counter {
 public:
  void Bump() {
    odf::util::MutexLock guard(mu_);
    ++value_;
  }

 private:
  odf::util::Mutex mu_;
  int value_ ODF_GUARDED_BY(mu_) = 0;
};

}  // namespace

// Case 2 done right: the full fault-path stack — gate shared, covering shard,
// MmGate shared — then the handler call.
odf::FaultResult DriveFault(odf::AddressSpace& as, odf::Vaddr va) {
  odf::MmLockTable::ReadScope rs(as.locks());
  odf::MmLockTable::ShardScope shard(as.locks(), va);
  odf::MmGate::SharedScope gate;
  return odf::HandleFault(as, va, odf::AccessType::kRead);
}

// Cases 4/5 done right: one shard at a time; scoped acquisition pairs the release.
void OneShard(odf::MmLockTable& t, odf::Vaddr a) {
  odf::MmLockTable::ShardScope shard(t, a);
}

// Case 6 done right: exclusive hold for the exclusive-required callee.
void MutateLayout(odf::MmLockTable& t) ODF_REQUIRES(t);
void MutateUnderExclusiveHold(odf::MmLockTable& t) {
  odf::MmLockTable::WriteScope ws(t);
  MutateLayout(t);
}

void UseAll() { Counter().Bump(); }
