// Shared machinery of the repository benchmark (perfbench): run options, the result
// record, latency distributions, vmstat deltas, and the benchmark-side span recorder.
//
// Everything here measures the library from outside: it times calls into the public API
// and reads public counters. Nothing in src/ knows the benchmark exists.
#ifndef ODF_PERFBENCH_BENCH_H_
#define ODF_PERFBENCH_BENCH_H_

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/core/fork.h"
#include "src/trace/metrics.h"

namespace odf {
class Kernel;
}

namespace odf::perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;           // Self-test size: every path runs, nothing is steady.
  bool corrupt_model = false;  // Self-test: one model value is made wrong on purpose.
  std::string spans_out;       // Traced run: where the span log is written ("" = nowhere).
  std::string source_id = "unknown";
  std::string source_dirty = "unknown";
};

uint64_t NowNs();

// Latency distribution in nanoseconds: log-linear buckets (64 per power of two, so a
// bucket is at most 1.6% wide) with linear interpolation inside the bucket. Fixed size,
// so the benchmark's own memory, which peak_rss_mib includes, does not grow with the
// number of operations measured (LatencyRecorder keeps every sample), and finer than
// LatencyHistogram, whose 12.5%-wide buckets report the same bucket edge run after run.
class LatencyDist {
 public:
  void Add(uint64_t ns);
  void Merge(const LatencyDist& other);
  uint64_t count() const { return count_; }
  // Percentile p in [0, 100], in microseconds; 0 when empty.
  double PercentileUs(double p) const;

 private:
  static constexpr int kSub = 64;
  static constexpr int kOctaves = 42;
  static size_t Index(uint64_t ns);
  static double Lower(size_t index);
  static double Upper(size_t index);

  std::array<uint64_t, kSub * kOctaves> buckets_{};
  uint64_t count_ = 0;
};

// Built-in vmstat counters, read at one instant.
struct VmSnap {
  std::array<uint64_t, kVmCounterCount> v{};
  static VmSnap Take();
  uint64_t operator[](VmCounter c) const { return v[static_cast<size_t>(c)]; }
};

// Counter deltas between two snapshots.
struct VmDelta {
  VmSnap before;
  VmSnap after;
  uint64_t operator[](VmCounter c) const { return after[c] - before[c]; }
};

// Total time, in nanoseconds, the kernel's fault-latency histograms have recorded.
double FaultHistogramNs();

// CPU time of the calling thread and of the whole process, in seconds.
double ThreadCpuSeconds();
double ProcessCpuSeconds();

// Events ever appended to the kernel tracer's per-thread rings.
uint64_t TraceRingAppends();

// 64-bit hash used for model and snapshot digests.
uint64_t HashBytes(const void* data, size_t size, uint64_t seed = 0);
uint64_t Mix64(uint64_t x);

// --- Benchmark-side spans (traced runs only) ---
//
// A span wraps one public call the benchmark makes. Spans nest per thread; the spans of
// one workload operation share its op id, also across threads (a snapshot child's task
// carries the id of the request that forked it).
enum class SpanKind : uint8_t {
  kOp,         // One workload operation (layer "bench": its self time is model upkeep).
  kFork,       // Kernel::TryFork (layer "core").
  kChildTask,  // The work a forked child runs (layer "apps").
  kExit,       // Kernel::Exit (layer "proc").
  kWait,       // Kernel::Wait (layer "proc").
  kSnapshot,   // KvStore::SaveSnapshot in the child (layer "apps").
  kSet,        // KvStore::Set (layer "apps").
  kGet,        // KvStore::Get (layer "apps").
  kAccess,     // Process::ReadMemory / WriteMemory (layer "mm").
  kReclaim,    // Kernel::ReclaimMemory through the allocator's reclaim hook ("reclaim").
  kCount,
};

const char* SpanKindName(SpanKind kind);
const char* SpanLayer(SpanKind kind);

inline constexpr uint64_t kInheritOp = ~0ULL;

class SpanScope {
 public:
  explicit SpanScope(SpanKind kind, uint64_t op_id = kInheritOp);
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  bool active_ = false;
};

// Id of the operation whose span is innermost on this thread (0 when none is open).
uint64_t CurrentOpId();

// Turns span recording on or off for every thread. Only flipped while no span is open.
void SetSpansEnabled(bool enabled);

// Self time (span duration minus the part covered by child spans) per layer, in
// nanoseconds, summed over every span recorded so far; plus span counts per kind.
struct SpanTotals {
  std::map<std::string, double> self_ns_by_layer;
  std::array<uint64_t, static_cast<size_t>(SpanKind::kCount)> count_by_kind{};
  uint64_t recorded = 0;  // Spans kept in memory for the span log.
  uint64_t dropped = 0;   // Spans past the in-memory cap (counted in the totals only).
};
SpanTotals CollectSpanTotals();

// Writes the kept spans as CSV (op_id,thread,kind,layer,parent,start_ns,end_ns).
bool WriteSpanLog(const std::string& path);

// Routes the allocator's reclaim hook through a kReclaim span around
// Kernel::ReclaimMemory, so direct reclaim shows up as its own span. `on` false restores
// the plain hook.
void SpanDirectReclaim(Kernel& kernel, bool on);

// --- Results ---

struct Metric {
  double value = 0;
  std::string unit;
};

class Result {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  // Records a failed check (counted once) with a message for the diagnostics.
  void Fail(const std::string& what);
  void Note(const std::string& key, const std::string& json_value);

  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  std::vector<std::string> failures;  // First few failure messages.
  std::vector<std::pair<std::string, std::string>> notes;
};

// Names of the metrics each kind of run must emit (BENCHMARK.json lists the same).
const std::vector<std::string>& EndToEndMetricNames();
const std::vector<std::string>& PerLayerMetricNames();

// What one timed phase measured, common to every workload.
struct Phase {
  double wall_s = 0;
  uint64_t ops = 0;            // Operations completed.
  uint64_t attempted = 0;      // Operations started.
  uint64_t failed = 0;         // Operations whose check failed (or that failed outright).
  LatencyDist op;              // Per-operation latency.
  LatencyDist fork;            // Time blocked in Kernel::TryFork.
  LatencyDist exit;            // Kernel::Exit.
  LatencyDist wait;            // Kernel::Wait.
  LatencyDist set;             // KvStore::Set service time.
  LatencyDist get;             // KvStore::Get service time.
  LatencyDist table_cow_set;   // Set calls during which pte_table_cow advanced.
  LatencyDist exec;            // Child task of a fork-server exec.
  LatencyDist snapshot;        // KvStore::SaveSnapshot.
  LatencyDist late;            // Open loop: how late each request started.
  uint64_t forks = 0;
  double fork_ns_total = 0;
  uint32_t forking_threads = 1;
  double driver_cpu_s = 0;     // CPU time of the threads the benchmark started.
  double process_cpu_s = 0;
  VmDelta vm;
  ForkProfile profile;         // Traced runs: ForkProfile splits summed over every fork.
  uint64_t reclaim_locations = 0;  // RmapRegistry::TotalLocations at the end.
  uint64_t page_table_frames = 0;  // FrameAllocatorStats::page_table_frames at the end.

  // Folds a worker thread's counts and distributions into this phase.
  void Merge(const Phase& worker);
};

// Adds one fork's ForkProfile splits to a running sum.
void AddProfile(const ForkProfile& fork, ForkProfile* sum);

// Where the page faults of a workload happen: inside its apps spans (a KvStore call, a
// forked child's task) or inside its own mm spans (direct memory calls).
enum class FaultsInside { kApps, kMm };

// A workload after its set-up, ready to run timed phases. The constructor of each
// implementation builds the dataset and is what setup_s times.
class Workload {
 public:
  virtual ~Workload() = default;
  // Untimed preparation of the correctness checks (expected results, digests).
  virtual void Prepare(Result* result) = 0;
  // Runs the workload for `seconds`; `traced` asks for ForkProfile splits. Consecutive
  // calls are consecutive windows of one run of phases.
  virtual void RunPhase(double seconds, bool traced, Phase* phase) = 0;
  // Ends a run of phases: stops whatever the workload keeps running between windows and
  // adds what it measured since the last window to `phase`.
  virtual void Quiesce(Phase* /*phase*/) {}
  // Final checks and teardown, ending with the allocator leak check.
  virtual void Finish(Result* result) = 0;
  virtual Kernel& kernel() = 0;
  virtual FaultsInside faults() const = 0;
};

// Median of `values` (0 when empty).
double Median(std::vector<double> values);

// The leak check after teardown: every frame must be back in the allocator.
void CheckAllFree(Kernel& kernel, Result* result);

// Adds every end-to-end metric from the consecutive windows of an untraced phase, and the
// latency tails and fork times that are reported per layer. Each figure is the median of
// its per-window values, so one disturbed window cannot move it; a percentile too high for
// one window's sample count is taken over the pooled samples.
void AddEndToEnd(const std::vector<Phase>& windows, double setup_s, Result* result);

// Adds every per-layer metric from a traced phase. `untraced` is the phase run just
// before it with recording off, for the tracing overhead; `fault_ns` is the fault time
// the kernel's histograms recorded during the traced phase.
void AddPerLayer(const Phase& traced, const Phase& untraced, const SpanTotals& spans,
                 double fault_ns, FaultsInside faults, Result* result);

// Prints the diagnostics line and the result line; returns the process exit code.
int Emit(const Options& options, const Result& result);

}  // namespace odf::perfbench

#endif  // ODF_PERFBENCH_BENCH_H_
