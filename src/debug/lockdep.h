// Lockdep-lite: a runtime lock-order validator modeled on the kernel's lockdep.
//
// Locks are grouped into *classes* (all 64 range shards of an address space are one class, like
// lockdep keying all instances of a lock type to one class). Each acquisition is recorded
// on a per-thread held-lock stack; every (held -> acquired) pair becomes an edge in a
// global class dependency graph. The first acquisition that would close a cycle aborts,
// printing the acquisition context (file:line) of both ends of the inversion plus the
// recorded context of every edge on the existing dependency path — one clean report on
// the first violation instead of a once-a-week deadlock.
//
// Instrumented sites use debug::MutexGuard in place of std::lock_guard:
//
//   namespace { odf::debug::LockClass g_pool_lock("FrameAllocator::mutex_"); }
//   ...
//   odf::debug::MutexGuard guard(mutex_, g_pool_lock);
//
// Same-class nesting (acquiring a second lock of a class already held) also aborts: no
// code path in this codebase legitimately nests two stripe locks, so any such nesting is
// an ABBA deadlock waiting for the right pair of frame ids.
//
// Cost model: with -DODF_DEBUG_VM=OFF, LockClass is an empty constexpr tag and MutexGuard
// compiles to exactly a std::lock_guard — zero overhead, byte-identical locking. With the
// debug-vm preset each acquisition costs a held-stack push and, on first occurrence of a
// (held, acquired) pair, one graph update under an internal mutex.
#ifndef ODF_SRC_DEBUG_LOCKDEP_H_
#define ODF_SRC_DEBUG_LOCKDEP_H_

#include "src/debug/debug.h"  // Defines the ODF_DEBUG_VM_COMPILED default; keep first.

#include <cstdint>
#if ODF_DEBUG_VM_COMPILED
#include <atomic>
#include <source_location>
#endif

#include "src/util/mutex.h"
#include "src/util/thread_annotations.h"

namespace odf {
namespace debug {

struct LockdepStats {
  uint64_t classes = 0;       // Lock classes seen at least once.
  uint64_t edges = 0;         // Distinct (held -> acquired) dependencies recorded.
  uint64_t acquisitions = 0;  // Total instrumented acquisitions.
};

LockdepStats GetLockdepStats();

#if ODF_DEBUG_VM_COMPILED

class LockClass {
 public:
  explicit constexpr LockClass(const char* name) : name_(name) {}
  LockClass(const LockClass&) = delete;
  LockClass& operator=(const LockClass&) = delete;

  const char* name() const { return name_; }

  // Validator-assigned class id; -1 until the first acquisition. Internal to lockdep.
  int assigned_id() const { return id_.load(std::memory_order_acquire); }
  void assign_id(int id) { id_.store(id, std::memory_order_release); }

 private:
  const char* name_;
  std::atomic<int> id_{-1};
};

// Raw validator entry points (MutexGuard wraps them; the lockdep death test drives them
// directly so it can force an inversion without actually deadlocking two mutexes).
// LockAcquired aborts on a cycle or same-class nesting; call it BEFORE blocking on the
// underlying mutex so a would-deadlock acquisition reports instead of hanging.
void LockAcquired(LockClass& cls, const char* file, uint32_t line);
void LockReleased(LockClass& cls);

class ODF_SCOPED_CAPABILITY MutexGuard {
 public:
  MutexGuard(util::Mutex& mutex, LockClass& cls,
             const std::source_location& loc = std::source_location::current())
      ODF_ACQUIRE(mutex)
      : mutex_(mutex), cls_(cls) {
    LockAcquired(cls_, loc.file_name(), loc.line());
    mutex_.lock();
  }

  MutexGuard(const MutexGuard&) = delete;
  MutexGuard& operator=(const MutexGuard&) = delete;

  ~MutexGuard() ODF_RELEASE() {
    mutex_.unlock();
    LockReleased(cls_);
  }

 private:
  util::Mutex& mutex_;
  LockClass& cls_;
};

#else  // ODF_DEBUG_VM_COMPILED

// Compiled out: an empty tag type and a plain lock_guard. Call sites are unchanged.
class LockClass {
 public:
  explicit constexpr LockClass(const char* /*name*/) {}
  LockClass(const LockClass&) = delete;
  LockClass& operator=(const LockClass&) = delete;
};

inline void LockAcquired(LockClass& /*cls*/, const char* /*file*/, uint32_t /*line*/) {}
inline void LockReleased(LockClass& /*cls*/) {}

class ODF_SCOPED_CAPABILITY MutexGuard {
 public:
  MutexGuard(util::Mutex& mutex, LockClass& /*cls*/) ODF_ACQUIRE(mutex) : mutex_(mutex) {
    mutex_.lock();
  }
  MutexGuard(const MutexGuard&) = delete;
  MutexGuard& operator=(const MutexGuard&) = delete;

  ~MutexGuard() ODF_RELEASE() { mutex_.unlock(); }

 private:
  util::Mutex& mutex_;
};

#endif  // ODF_DEBUG_VM_COMPILED

}  // namespace debug
}  // namespace odf

#endif  // ODF_SRC_DEBUG_LOCKDEP_H_
