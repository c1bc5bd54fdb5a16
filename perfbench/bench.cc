#include "perfbench/bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <memory>
#include <mutex>
#include <thread>

#include "src/proc/kernel.h"
#include "src/trace/trace.h"

namespace odf::perfbench {

uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

// --- LatencyDist ---

size_t LatencyDist::Index(uint64_t ns) {
  if (ns < kSub) {
    return static_cast<size_t>(ns);
  }
  int msb = 63 - std::countl_zero(ns);
  int octave = msb - 5;  // 64..127 ns is octave 1.
  if (octave >= kOctaves) {
    return static_cast<size_t>(kSub * kOctaves - 1);
  }
  uint64_t sub = (ns >> (msb - 6)) & (kSub - 1);
  return static_cast<size_t>(octave * kSub) + static_cast<size_t>(sub);
}

double LatencyDist::Lower(size_t index) {
  size_t octave = index / kSub;
  size_t sub = index % kSub;
  if (octave == 0) {
    return static_cast<double>(sub);
  }
  return std::ldexp(static_cast<double>(kSub + sub), static_cast<int>(octave) - 1);
}

double LatencyDist::Upper(size_t index) {
  size_t octave = index / kSub;
  size_t sub = index % kSub;
  if (octave == 0) {
    return static_cast<double>(sub + 1);
  }
  return std::ldexp(static_cast<double>(kSub + sub + 1), static_cast<int>(octave) - 1);
}

void LatencyDist::Add(uint64_t ns) {
  ++buckets_[Index(ns)];
  ++count_;
}

void LatencyDist::Merge(const LatencyDist& other) {
  for (size_t i = 0; i < buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
  count_ += other.count_;
}

double LatencyDist::PercentileUs(double p) const {
  if (count_ == 0) {
    return 0;
  }
  double rank = std::clamp(p / 100.0, 0.0, 1.0) * static_cast<double>(count_);
  double seen = 0;
  for (size_t i = 0; i < buckets_.size(); ++i) {
    if (buckets_[i] == 0) {
      continue;
    }
    double in_bucket = static_cast<double>(buckets_[i]);
    if (seen + in_bucket >= rank) {
      double frac = (rank - seen) / in_bucket;
      return (Lower(i) + frac * (Upper(i) - Lower(i))) / 1e3;
    }
    seen += in_bucket;
  }
  return Upper(buckets_.size() - 1) / 1e3;
}

// --- Counters ---

VmSnap VmSnap::Take() {
  VmSnap snap;
  for (size_t i = 0; i < kVmCounterCount; ++i) {
    snap.v[i] = g_vm_counters[i].load(std::memory_order_relaxed);
  }
  return snap;
}

double FaultHistogramNs() {
  double total = 0;
  for (const char* name : {"fault_demand_zero_ns", "fault_cow_page_ns", "fault_cow_pte_table_ns",
                           "fault_cow_pmd_table_ns"}) {
    const LatencyHistogram& h = MetricsRegistry::Global().RegisterHistogram(name);
    total += h.MeanMicros() * static_cast<double>(h.TotalCount()) * 1e3;
  }
  return total;
}

namespace {

double ClockSeconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace

uint64_t TraceRingAppends() {
  uint64_t total = 0;
  for (const auto& ring : trace::Tracer::Global().CollectRingStats()) {
    total += ring.appended;
  }
  return total;
}

double ThreadCpuSeconds() { return ClockSeconds(CLOCK_THREAD_CPUTIME_ID); }
double ProcessCpuSeconds() { return ClockSeconds(CLOCK_PROCESS_CPUTIME_ID); }

uint64_t Mix64(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

uint64_t HashBytes(const void* data, size_t size, uint64_t seed) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  uint64_t h = Mix64(seed ^ (size * 0x9e3779b97f4a7c15ULL));
  size_t i = 0;
  for (; i + 8 <= size; i += 8) {
    uint64_t word = 0;
    std::memcpy(&word, bytes + i, 8);
    h = (h ^ word) * 0x9e3779b97f4a7c15ULL;
    h ^= h >> 29;
  }
  uint64_t tail = 0;
  std::memcpy(&tail, bytes + i, size - i);
  return Mix64(h ^ tail);
}

// --- Spans ---

namespace {

constexpr size_t kKinds = static_cast<size_t>(SpanKind::kCount);
constexpr size_t kKeptPerThread = 1 << 18;  // 8 MiB of spans per thread at most.

struct KeptSpan {
  uint64_t op_id;
  uint64_t start_ns;
  uint64_t end_ns;
  int64_t parent;  // Index into the same thread's kept spans; -1 for a root.
  SpanKind kind;
};

struct OpenSpan {
  uint64_t op_id;
  uint64_t start_ns;
  double child_ns;
  int64_t kept;  // Index of its kept record, or -1 when past the cap.
  SpanKind kind;
};

struct ThreadSpans {
  std::vector<KeptSpan> kept;
  std::vector<OpenSpan> open;
  std::array<double, kKinds> self_ns{};
  std::array<uint64_t, kKinds> count{};
  uint64_t dropped = 0;
};

std::atomic<bool> g_spans_enabled{false};
std::atomic<uint64_t> g_next_op_id{1};
std::mutex g_spans_mutex;
std::vector<std::unique_ptr<ThreadSpans>> g_span_threads;  // Guarded by g_spans_mutex.
thread_local ThreadSpans* t_spans = nullptr;

ThreadSpans& ThisThreadSpans() {
  if (t_spans == nullptr) {
    std::lock_guard<std::mutex> lock(g_spans_mutex);
    g_span_threads.push_back(std::make_unique<ThreadSpans>());
    t_spans = g_span_threads.back().get();
    t_spans->kept.reserve(4096);
  }
  return *t_spans;
}

}  // namespace

const char* SpanKindName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kOp: return "op";
    case SpanKind::kFork: return "fork";
    case SpanKind::kChildTask: return "child_task";
    case SpanKind::kExit: return "exit";
    case SpanKind::kWait: return "wait";
    case SpanKind::kSnapshot: return "snapshot";
    case SpanKind::kSet: return "set";
    case SpanKind::kGet: return "get";
    case SpanKind::kAccess: return "access";
    case SpanKind::kReclaim: return "direct_reclaim";
    case SpanKind::kCount: break;
  }
  return "?";
}

const char* SpanLayer(SpanKind kind) {
  switch (kind) {
    case SpanKind::kOp: return "bench";
    case SpanKind::kFork: return "core";
    case SpanKind::kExit:
    case SpanKind::kWait: return "proc";
    case SpanKind::kChildTask:
    case SpanKind::kSnapshot:
    case SpanKind::kSet:
    case SpanKind::kGet: return "apps";
    case SpanKind::kAccess: return "mm";
    case SpanKind::kReclaim: return "reclaim";
    case SpanKind::kCount: break;
  }
  return "?";
}

SpanScope::SpanScope(SpanKind kind, uint64_t op_id) {
  if (!g_spans_enabled.load(std::memory_order_relaxed)) {
    return;
  }
  active_ = true;
  ThreadSpans& t = ThisThreadSpans();
  if (op_id == kInheritOp) {
    op_id = !t.open.empty() ? t.open.back().op_id
                            : g_next_op_id.fetch_add(1, std::memory_order_relaxed);
  }
  int64_t parent = t.open.empty() ? -1 : t.open.back().kept;
  int64_t kept = -1;
  uint64_t start = NowNs();
  if (t.kept.size() < kKeptPerThread) {
    kept = static_cast<int64_t>(t.kept.size());
    t.kept.push_back(KeptSpan{op_id, start, 0, parent, kind});
  } else {
    ++t.dropped;
  }
  t.open.push_back(OpenSpan{op_id, start, 0, kept, kind});
}

SpanScope::~SpanScope() {
  if (!active_) {
    return;
  }
  uint64_t end = NowNs();
  ThreadSpans& t = *t_spans;
  OpenSpan span = t.open.back();
  t.open.pop_back();
  double duration = static_cast<double>(end - span.start_ns);
  size_t kind = static_cast<size_t>(span.kind);
  t.self_ns[kind] += duration - span.child_ns;
  ++t.count[kind];
  if (!t.open.empty()) {
    t.open.back().child_ns += duration;
  }
  if (span.kept >= 0) {
    t.kept[static_cast<size_t>(span.kept)].end_ns = end;
  }
}

uint64_t CurrentOpId() {
  if (t_spans == nullptr || t_spans->open.empty()) {
    return 0;
  }
  return t_spans->open.back().op_id;
}

void SetSpansEnabled(bool enabled) { g_spans_enabled.store(enabled, std::memory_order_relaxed); }

SpanTotals CollectSpanTotals() {
  SpanTotals totals;
  std::lock_guard<std::mutex> lock(g_spans_mutex);
  for (const auto& t : g_span_threads) {
    for (size_t k = 0; k < kKinds; ++k) {
      totals.self_ns_by_layer[SpanLayer(static_cast<SpanKind>(k))] += t->self_ns[k];
      totals.count_by_kind[k] += t->count[k];
    }
    totals.recorded += t->kept.size();
    totals.dropped += t->dropped;
  }
  return totals;
}

bool WriteSpanLog(const std::string& path) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return false;
  }
  std::fprintf(out, "op_id,thread,kind,layer,parent,start_ns,end_ns\n");
  std::lock_guard<std::mutex> lock(g_spans_mutex);
  for (size_t thread = 0; thread < g_span_threads.size(); ++thread) {
    for (const KeptSpan& s : g_span_threads[thread]->kept) {
      std::fprintf(out, "%llu,%zu,%s,%s,%lld,%llu,%llu\n",
                   static_cast<unsigned long long>(s.op_id), thread, SpanKindName(s.kind),
                   SpanLayer(s.kind), static_cast<long long>(s.parent),
                   static_cast<unsigned long long>(s.start_ns),
                   static_cast<unsigned long long>(s.end_ns));
    }
  }
  return std::fclose(out) == 0;
}

void SpanDirectReclaim(Kernel& kernel, bool on) {
  if (on) {
    kernel.allocator().SetReclaimCallback([&kernel](uint64_t want) {
      SpanScope span(SpanKind::kReclaim);
      return kernel.ReclaimMemory(want);
    });
  } else {
    kernel.allocator().SetReclaimCallback(
        [&kernel](uint64_t want) { return kernel.ReclaimMemory(want); });
  }
}

void CheckAllFree(Kernel& kernel, Result* result) {
  if (kernel.allocator().AllFree()) {
    return;
  }
  FrameAllocatorStats stats = kernel.allocator().Stats();
  result->Fail("frames still allocated after teardown: " +
               std::to_string(stats.allocated_frames) + " (page-table frames " +
               std::to_string(stats.page_table_frames) + ")");
}

// --- Results ---

void Result::Set(const std::string& name, double value, const std::string& unit) {
  metrics[name] = Metric{value, unit};
}

void Result::Fail(const std::string& what) {
  ++failed;
  if (failures.size() < 8) {
    failures.push_back(what);
  }
}

void Result::Note(const std::string& key, const std::string& json_value) {
  notes.emplace_back(key, json_value);
}

const std::vector<std::string>& EndToEndMetricNames() {
  static const std::vector<std::string> names = {"setup_s", "ops_per_s", "op_p50_us",
                                                  "peak_rss_mib"};
  return names;
}

const std::vector<std::string>& PerLayerMetricNames() {
  static const std::vector<std::string> names = {
      "proc.exit_p50_us",
      "proc.exit_p99_us",
      "proc.wait_p50_us",
      "proc.self_us_per_op",
      "tail.op_p99_us",
      "tail.op_p999_us",
      "core.fork_p50_us",
      "core.fork_p99_us",
      "core.fork_busy_share",
      "core.pte_entries_copied_per_fork",
      "core.pte_tables_shared_per_fork",
      "core.self_us_per_op",
      "core.fork.refcount_ns",
      "core.fork.meta_resolve_ns",
      "core.fork.entry_copy_ns",
      "core.fork.table_alloc_ns",
      "mm.pte_table_cow_per_op",
      "mm.cow_page_per_op",
      "mm.swap_in_per_op",
      "mm.table_cow_set_p99_us",
      "mm.self_us_per_op",
      "apps.set_p99_us",
      "apps.get_p99_us",
      "apps.snapshot_s",
      "apps.exec_p50_us",
      "apps.self_us_per_op",
      "phys.frames_allocated_per_op",
      "phys.pcp_hit_ratio",
      "phys.page_table_frames",
      "pt.lock_contended_per_op",
      "pt.mm_lock_wait_p99_us",
      "pt.tlb_flushes_per_op",
      "reclaim.pgscan_per_op",
      "reclaim.steal_ratio",
      "reclaim.refault_ratio",
      "reclaim.direct_reclaim_per_op",
      "reclaim.kswapd_wakes_per_s",
      "reclaim.rmap_locations",
      "reclaim.self_us_per_op",
      "reclaim.kswapd_cpu_share",
      "bench.self_us_per_op",
      "hooks.trace_ring_appends",
      "hooks.replay_ops_recorded",
      "hooks.fi_injected",
      "trace.overhead_ops_share",
      "trace.overhead_p50_share",
  };
  return names;
}

void Phase::Merge(const Phase& worker) {
  ops += worker.ops;
  attempted += worker.attempted;
  failed += worker.failed;
  for (auto [mine, theirs] :
       {std::pair{&op, &worker.op}, {&fork, &worker.fork}, {&exit, &worker.exit},
        {&wait, &worker.wait}, {&set, &worker.set}, {&get, &worker.get},
        {&table_cow_set, &worker.table_cow_set}, {&exec, &worker.exec},
        {&snapshot, &worker.snapshot}, {&late, &worker.late}}) {
    mine->Merge(*theirs);
  }
  forks += worker.forks;
  fork_ns_total += worker.fork_ns_total;
  driver_cpu_s += worker.driver_cpu_s;
  AddProfile(worker.profile, &profile);
}

void AddProfile(const ForkProfile& fork, ForkProfile* sum) {
  sum->pte_entries_copied += fork.pte_entries_copied;
  sum->pte_tables_visited += fork.pte_tables_visited;
  sum->huge_entries_copied += fork.huge_entries_copied;
  sum->meta_resolve_ns += fork.meta_resolve_ns;
  sum->refcount_ns += fork.refcount_ns;
  sum->entry_copy_ns += fork.entry_copy_ns;
  sum->table_alloc_ns += fork.table_alloc_ns;
  sum->upper_level_ns += fork.upper_level_ns;
  sum->total_ns += fork.total_ns;
}

namespace {

double PerOp(double count, const Phase& phase) {
  return phase.ops == 0 ? 0 : count / static_cast<double>(phase.ops);
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

double PeakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux.
}

}  // namespace

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

namespace {

// Percentile p of one distribution of every window, as the median over the windows
// where each window holds at least ten samples beyond p; otherwise over all windows'
// samples pooled.
double WindowedPercentileUs(const std::vector<Phase>& windows, LatencyDist Phase::*dist,
                            double p) {
  std::vector<double> values;
  LatencyDist pooled;
  bool supported = true;
  for (const Phase& window : windows) {
    const LatencyDist& d = window.*dist;
    supported &= static_cast<double>(d.count()) * (1 - p / 100) >= 10;
    values.push_back(d.PercentileUs(p));
    pooled.Merge(d);
  }
  return supported ? Median(values) : pooled.PercentileUs(p);
}

}  // namespace

void AddEndToEnd(const std::vector<Phase>& windows, double setup_s, Result* result) {
  std::vector<double> throughput;
  for (const Phase& window : windows) {
    throughput.push_back(Ratio(static_cast<double>(window.ops), window.wall_s));
  }
  result->Set("setup_s", setup_s, "s");
  result->Set("ops_per_s", Median(throughput), "1/s");
  result->Set("op_p50_us", WindowedPercentileUs(windows, &Phase::op, 50), "us");
  result->Set("peak_rss_mib", PeakRssMib(), "MiB");
  // Measured too, but their run-to-run spread is too wide to bound (see NOTES.md).
  result->Set("tail.op_p99_us", WindowedPercentileUs(windows, &Phase::op, 99), "us");
  result->Set("tail.op_p999_us", WindowedPercentileUs(windows, &Phase::op, 99.9), "us");
  result->Set("core.fork_p50_us", WindowedPercentileUs(windows, &Phase::fork, 50), "us");
  result->Set("core.fork_p99_us", WindowedPercentileUs(windows, &Phase::fork, 99), "us");
}

void AddPerLayer(const Phase& traced, const Phase& untraced, const SpanTotals& spans,
                 double fault_ns, FaultsInside faults, Result* result) {
  const VmDelta& vm = traced.vm;
  double forks = static_cast<double>(traced.forks);
  auto vm_per_op = [&](VmCounter c) { return PerOp(static_cast<double>(vm[c]), traced); };

  result->Set("proc.exit_p50_us", traced.exit.PercentileUs(50), "us");
  result->Set("proc.exit_p99_us", traced.exit.PercentileUs(99), "us");
  result->Set("proc.wait_p50_us", traced.wait.PercentileUs(50), "us");

  result->Set("core.fork_busy_share",
              Ratio(traced.fork_ns_total * 1e-9, traced.wall_s * traced.forking_threads),
              "ratio");
  result->Set("core.pte_entries_copied_per_fork",
              Ratio(static_cast<double>(vm[VmCounter::k_fork_pte_entries_copied]), forks),
              "count");
  result->Set("core.pte_tables_shared_per_fork",
              Ratio(static_cast<double>(vm[VmCounter::k_pte_tables_shared]), forks), "count");
  result->Set("core.fork.refcount_ns",
              Ratio(static_cast<double>(traced.profile.refcount_ns), forks), "ns");
  result->Set("core.fork.meta_resolve_ns",
              Ratio(static_cast<double>(traced.profile.meta_resolve_ns), forks), "ns");
  result->Set("core.fork.entry_copy_ns",
              Ratio(static_cast<double>(traced.profile.entry_copy_ns), forks), "ns");
  result->Set("core.fork.table_alloc_ns",
              Ratio(static_cast<double>(traced.profile.table_alloc_ns), forks), "ns");

  result->Set("mm.pte_table_cow_per_op", vm_per_op(VmCounter::k_pte_table_cow), "count");
  result->Set("mm.cow_page_per_op", vm_per_op(VmCounter::k_pgfault_cow_page), "count");
  result->Set("mm.swap_in_per_op", vm_per_op(VmCounter::k_pgfault_swap_in), "count");
  result->Set("mm.table_cow_set_p99_us", traced.table_cow_set.PercentileUs(99), "us");

  result->Set("apps.set_p99_us", traced.set.PercentileUs(99), "us");
  result->Set("apps.get_p99_us", traced.get.PercentileUs(99), "us");
  result->Set("apps.snapshot_s", traced.snapshot.PercentileUs(50) * 1e-6, "s");
  result->Set("apps.exec_p50_us", traced.exec.PercentileUs(50), "us");

  uint64_t pcp_hit = vm[VmCounter::k_pcp_hit];
  uint64_t pcp_miss = vm[VmCounter::k_pcp_miss];
  result->Set("phys.frames_allocated_per_op", vm_per_op(VmCounter::k_frames_allocated),
              "count");
  result->Set("phys.pcp_hit_ratio",
              Ratio(static_cast<double>(pcp_hit), static_cast<double>(pcp_hit + pcp_miss)),
              "ratio");
  result->Set("phys.page_table_frames", static_cast<double>(traced.page_table_frames),
              "count");

  result->Set("pt.lock_contended_per_op", vm_per_op(VmCounter::k_lock_contended), "count");
  result->Set("pt.mm_lock_wait_p99_us",
              MetricsRegistry::Global().RegisterHistogram("mm_lock_wait").PercentileMicros(99),
              "us");
  result->Set("pt.tlb_flushes_per_op", vm_per_op(VmCounter::k_tlb_flushes), "count");

  double pgscan = static_cast<double>(vm[VmCounter::k_pgscan]);
  double pgsteal = static_cast<double>(vm[VmCounter::k_pgsteal]);
  result->Set("reclaim.pgscan_per_op", PerOp(pgscan, traced), "count");
  result->Set("reclaim.steal_ratio", Ratio(pgsteal, pgscan), "ratio");
  result->Set("reclaim.refault_ratio",
              Ratio(static_cast<double>(vm[VmCounter::k_pgrefault]), pgsteal), "ratio");
  result->Set("reclaim.direct_reclaim_per_op", vm_per_op(VmCounter::k_direct_reclaim), "count");
  result->Set("reclaim.kswapd_wakes_per_s",
              Ratio(static_cast<double>(vm[VmCounter::k_kswapd_wake]), traced.wall_s), "1/s");
  result->Set("reclaim.rmap_locations", static_cast<double>(traced.reclaim_locations), "count");
  result->Set("reclaim.kswapd_cpu_share",
              Ratio(std::max(0.0, traced.process_cpu_s - traced.driver_cpu_s), traced.wall_s),
              "ratio");

  // Self time per layer. Page faults run inside the calls that touch memory; the
  // kernel's fault-latency histograms give their total, which is moved from the layer
  // whose spans enclose them to mm.
  std::map<std::string, double> self = spans.self_ns_by_layer;
  if (faults == FaultsInside::kApps) {
    double moved = std::min(fault_ns, self["apps"]);
    self["apps"] -= moved;
    self["mm"] += moved;
  }
  for (const char* layer : {"proc", "core", "mm", "apps", "reclaim", "bench"}) {
    result->Set(std::string(layer) + ".self_us_per_op", PerOp(self[layer] * 1e-3, traced), "us");
  }

  result->Set("trace.overhead_ops_share",
              1.0 - Ratio(Ratio(static_cast<double>(traced.ops), traced.wall_s),
                          Ratio(static_cast<double>(untraced.ops), untraced.wall_s)),
              "ratio");
  result->Set("trace.overhead_p50_share",
              Ratio(traced.op.PercentileUs(50), untraced.op.PercentileUs(50)) - 1.0, "ratio");
}

namespace {

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) {
    return "0";
  }
  char buffer[64];
  auto [end, ec] = std::to_chars(buffer, buffer + sizeof(buffer), value);
  if (ec != std::errc()) {
    return "0";
  }
  return std::string(buffer, end);
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

#define ODF_PERFBENCH_STR2(x) #x
#define ODF_PERFBENCH_STR(x) ODF_PERFBENCH_STR2(x)

}  // namespace

int Emit(const Options& options, const Result& result) {
  // Provenance: which code, build and machine produced these numbers.
  std::string provenance = "{";
  provenance += "\"source\": " + JsonString(options.source_id);
  provenance += ", \"dirty\": " + JsonString(options.source_dirty);
  provenance += ", \"compiler\": " + JsonString(__VERSION__);
  provenance += ", \"build_type\": " + JsonString(ODF_PERFBENCH_STR(ODF_PERFBENCH_BUILD_TYPE));
  provenance += ", \"options\": " + JsonString(ODF_PERFBENCH_STR(ODF_PERFBENCH_OPTIONS));
  provenance += ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency());
  provenance += ", \"workload\": " + JsonString(options.workload);
  provenance += ", \"seed\": " + std::to_string(options.seed);
  provenance += ", \"seconds\": " + JsonNumber(options.seconds);
  provenance += ", \"trace\": " + std::string(options.trace ? "true" : "false");
  provenance += ", \"size\": " + JsonString(options.tiny ? "tiny" : "full");
  provenance += "}";

  std::string diagnostics = "{\"provenance\": " + provenance;
  diagnostics += ", \"hooks\": {\"trace_ring_appends\": " + std::to_string(TraceRingAppends()) +
                 ", \"replay_ops_recorded\": " +
                 std::to_string(ReadVm(VmCounter::k_replay_ops_recorded)) +
                 ", \"fi_injected\": " + std::to_string(ReadVm(VmCounter::k_fi_injected)) + "}";
  for (const auto& [key, value] : result.notes) {
    diagnostics += ", " + JsonString(key) + ": " + value;
  }
  diagnostics += ", \"failures\": [";
  for (size_t i = 0; i < result.failures.size(); ++i) {
    diagnostics += (i == 0 ? "" : ", ") + JsonString(result.failures[i]);
  }
  diagnostics += "]}";
  std::printf("diagnostics: %s\n", diagnostics.c_str());

  const std::vector<std::string>& names =
      options.trace ? PerLayerMetricNames() : EndToEndMetricNames();
  std::string line = "{\"correct\": ";
  line += result.failed == 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(result.attempted);
  line += ", \"failed\": " + std::to_string(result.failed);
  line += ", \"metrics\": {";
  bool first = true;
  for (const std::string& name : names) {
    auto it = result.metrics.find(name);
    if (it == result.metrics.end()) {
      std::fprintf(stderr, "perfbench: metric %s was not measured\n", name.c_str());
      return 1;
    }
    line += (first ? "" : ", ") + JsonString(name) + ": {\"value\": " +
            JsonNumber(it->second.value) + ", \"unit\": " + JsonString(it->second.unit) + "}";
    first = false;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace odf::perfbench
