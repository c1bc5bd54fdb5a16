// A copyable, implicitly-convertible relaxed atomic counter.
//
// Statistics structs (MmStats and friends) were plain uint64_t fields while one
// thread drove each address space; with sharded MM locking, disjoint-range
// faults bump the same counters concurrently. RelaxedCounter keeps the call
// sites (`++stats.x`, `stats.x += n`, `uint64_t v = stats.x`) source-compatible
// while making the increments well-defined. Relaxed ordering is correct here:
// the counters carry no synchronization, only tallies.
#ifndef ODF_SRC_UTIL_RELAXED_COUNTER_H_
#define ODF_SRC_UTIL_RELAXED_COUNTER_H_

#include <atomic>
#include <cstdint>

namespace odf::util {

class RelaxedCounter {
 public:
  constexpr RelaxedCounter() = default;
  constexpr RelaxedCounter(uint64_t value) : value_(value) {}  // NOLINT(google-explicit-constructor)

  RelaxedCounter(const RelaxedCounter& other) : value_(other.load()) {}
  RelaxedCounter& operator=(const RelaxedCounter& other) {
    value_.store(other.load(), std::memory_order_relaxed);
    return *this;
  }
  RelaxedCounter& operator=(uint64_t value) {
    value_.store(value, std::memory_order_relaxed);
    return *this;
  }

  operator uint64_t() const { return load(); }  // NOLINT(google-explicit-constructor)
  uint64_t load() const { return value_.load(std::memory_order_relaxed); }

  uint64_t operator++() { return value_.fetch_add(1, std::memory_order_relaxed) + 1; }
  uint64_t operator++(int) { return value_.fetch_add(1, std::memory_order_relaxed); }
  RelaxedCounter& operator+=(uint64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
    return *this;
  }
  RelaxedCounter& operator-=(uint64_t delta) {
    value_.fetch_sub(delta, std::memory_order_relaxed);
    return *this;
  }

 private:
  std::atomic<uint64_t> value_{0};
};

}  // namespace odf::util

#endif  // ODF_SRC_UTIL_RELAXED_COUNTER_H_
