// perfbench: the repository benchmark. One invocation runs one workload from a seed and
// prints, as its last line, one JSON object with the end-to-end metrics (untraced run)
// or the per-layer metrics (traced run), the operations attempted and failed, and
// whether every correctness check passed. See perfbench/NOTES.md.
//
//   odf_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 [--size tiny] [--corrupt-model] [--spans-out <file>]
//                 [--source <id>] [--dirty <flag>]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "perfbench/bench.h"
#include "src/proc/kernel.h"
#include "src/trace/trace.h"

namespace odf::perfbench {

std::unique_ptr<Workload> MakeKvSnapshot(const Options& options);
std::unique_ptr<Workload> MakeForkServer(const Options& options);
std::unique_ptr<Workload> MakeForkServerClassic(const Options& options);
std::unique_ptr<Workload> MakeOvercommit(const Options& options);

namespace {

// Set-up is repeated, at least kSetupRepeats times and until kSetupSeconds have passed,
// and its median reported, so one slow set-up does not decide it and a short set-up is
// measured often enough to be steady.
constexpr size_t kSetupRepeats = 5;
constexpr size_t kSetupMaxRepeats = 50;
constexpr double kSetupSeconds = 2.0;

// An untraced run is measured as this many consecutive windows of equal length.
constexpr int kWindows = 15;

using Factory = std::unique_ptr<Workload> (*)(const Options&);

Factory FindWorkload(const std::string& name) {
  if (name == "kv-snapshot") return MakeKvSnapshot;
  if (name == "fork-server") return MakeForkServer;
  if (name == "fork-server-classic") return MakeForkServerClassic;
  if (name == "overcommit") return MakeOvercommit;
  return nullptr;
}

bool ParseArgs(int argc, char** argv, Options* options) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    const char* v = nullptr;
    if (arg == "--corrupt-model") {
      options->corrupt_model = true;
      continue;
    }
    if ((v = value()) == nullptr) {
      return false;
    }
    if (arg == "--workload") {
      options->workload = v;
    } else if (arg == "--seed") {
      options->seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds") {
      options->seconds = std::strtod(v, nullptr);
    } else if (arg == "--trace") {
      options->trace = std::strcmp(v, "1") == 0;
    } else if (arg == "--size") {
      options->tiny = std::strcmp(v, "tiny") == 0;
    } else if (arg == "--spans-out") {
      options->spans_out = v;
    } else if (arg == "--source") {
      options->source_id = v;
    } else if (arg == "--dirty") {
      options->source_dirty = v;
    } else {
      return false;
    }
  }
  return !options->workload.empty() && options->seconds > 0;
}

// Runs one timed phase with tracing on or off and records what surrounds it.
void TimedPhase(Workload& workload, double seconds, bool traced, Phase* phase) {
  Kernel& kernel = workload.kernel();
  if (traced) {
    // The kernel's latency histograms and tracepoints record only while its tracer is on;
    // the reset makes the histograms describe this phase alone.
    MetricsRegistry::Global().ResetForTest();
    trace::SetEnabled(true);
    SpanDirectReclaim(kernel, true);
    SetSpansEnabled(true);
  }
  phase->vm.before = VmSnap::Take();
  double cpu0 = ProcessCpuSeconds();
  uint64_t t0 = NowNs();
  workload.RunPhase(seconds, traced, phase);
  phase->wall_s = static_cast<double>(NowNs() - t0) * 1e-9;
  phase->process_cpu_s = ProcessCpuSeconds() - cpu0;
  phase->vm.after = VmSnap::Take();
  if (traced) {
    SetSpansEnabled(false);
    SpanDirectReclaim(kernel, false);
    trace::SetEnabled(false);
  }
  phase->page_table_frames = kernel.allocator().Stats().page_table_frames;
  phase->reclaim_locations = kernel.rmap().TotalLocations();
}

// Fault injection and the replay recorder must never fire in a benchmark run. (A traced
// run resets the kernel's counters when it turns the tracer on, so they are checked
// before that and again at the end.)
void CheckHooksIdle(Result* result) {
  if (ReadVm(VmCounter::k_fi_injected) != 0 || ReadVm(VmCounter::k_replay_ops_recorded) != 0) {
    result->Fail("fault-injection or replay hooks fired");
  }
}

// Sample counts behind the percentiles, and how late an open loop ran.
std::string DescribePhase(const Phase& phase) {
  char buffer[512];
  std::snprintf(buffer, sizeof(buffer),
                "{\"wall_s\": %.3f, \"ops\": %llu, \"forks\": %llu, \"failed\": %llu, "
                "\"late_p99_us\": %.3f}",
                phase.wall_s, static_cast<unsigned long long>(phase.op.count()),
                static_cast<unsigned long long>(phase.fork.count()),
                static_cast<unsigned long long>(phase.failed), phase.late.PercentileUs(99));
  return buffer;
}

int Run(const Options& options) {
  Factory factory = FindWorkload(options.workload);
  if (factory == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", options.workload.c_str());
    return 2;
  }
  Result result;
  std::vector<double> setup_s;
  std::unique_ptr<Workload> workload;
  double setup_total_s = 0;
  while (setup_s.size() < kSetupRepeats ||
         (setup_total_s < kSetupSeconds && setup_s.size() < kSetupMaxRepeats)) {
    workload.reset();
    uint64_t t0 = NowNs();
    workload = factory(options);
    setup_s.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
    setup_total_s += setup_s.back();
  }
  workload->Prepare(&result);

  Phase untraced;
  std::vector<Phase> windows;
  if (!options.trace) {
    windows.resize(kWindows);
    for (Phase& window : windows) {
      TimedPhase(*workload, options.seconds / kWindows, false, &window);
      untraced.Merge(window);
      untraced.wall_s += window.wall_s;
    }
    workload->Quiesce(&untraced);
  } else {
    // A traced run measures its first half untraced: the difference is the overhead.
    TimedPhase(*workload, options.seconds / 2, false, &untraced);
    workload->Quiesce(&untraced);
    windows.push_back(untraced);
  }
  // Nothing has turned the kernel's tracer on yet, so every hook must still be idle.
  uint64_t ring_appends = TraceRingAppends();
  if (ring_appends != 0) {
    result.Fail("tracepoints fired in an untraced run");
  }
  CheckHooksIdle(&result);

  if (options.trace) {
    result.Set("hooks.trace_ring_appends", static_cast<double>(ring_appends), "count");
    result.Set("hooks.replay_ops_recorded",
               static_cast<double>(ReadVm(VmCounter::k_replay_ops_recorded)), "count");
    result.Set("hooks.fi_injected", static_cast<double>(ReadVm(VmCounter::k_fi_injected)),
               "count");
    Phase traced;
    double fault_ns0 = FaultHistogramNs();
    TimedPhase(*workload, options.seconds / 2, true, &traced);
    workload->Quiesce(&traced);
    double fault_ns = FaultHistogramNs() - fault_ns0;
    SpanTotals spans = CollectSpanTotals();
    AddPerLayer(traced, untraced, spans, fault_ns, workload->faults(), &result);
    result.attempted += traced.attempted;
    result.failed += traced.failed;
    if (!options.spans_out.empty() && !WriteSpanLog(options.spans_out)) {
      std::fprintf(stderr, "perfbench: could not write %s\n", options.spans_out.c_str());
    }
    std::string counts = "{";
    for (size_t k = 0; k < spans.count_by_kind.size(); ++k) {
      counts += std::string(k == 0 ? "" : ", ") + "\"" +
                SpanKindName(static_cast<SpanKind>(k)) +
                "\": " + std::to_string(spans.count_by_kind[k]);
    }
    result.Note("spans", "{\"by_kind\": " + counts + "}, \"kept\": " +
                             std::to_string(spans.recorded) +
                             ", \"dropped\": " + std::to_string(spans.dropped) + "}");
  }
  result.attempted += untraced.attempted;
  result.failed += untraced.failed;
  if (result.attempted == 0) {
    result.Fail("no operation was attempted");
  }
  AddEndToEnd(windows, Median(setup_s), &result);
  result.Note("setup_repeats", std::to_string(setup_s.size()));
  result.Note("untraced_phase", DescribePhase(untraced));
  std::string tails = "{";
  for (const char* name : {"tail.op_p99_us", "tail.op_p999_us", "core.fork_p50_us",
                           "core.fork_p99_us"}) {
    char item[96];
    std::snprintf(item, sizeof(item), "%s\"%s\": %.6g", tails.size() > 1 ? ", " : "", name,
                  result.metrics[name].value);
    tails += item;
  }
  result.Note("unbounded_us", tails + "}");
  std::string per_window = "[";
  for (const Phase& window : windows) {
    per_window += (per_window.size() > 1 ? ", " : "") +
                  std::to_string(static_cast<double>(window.ops) / window.wall_s);
  }
  result.Note("window_ops_per_s", per_window + "]");
  CheckHooksIdle(&result);
  if (workload->kernel().oom_kills() != 0) {
    result.Fail("the OOM killer ran");
  }
  workload->Finish(&result);
  return Emit(options, result);
}

}  // namespace
}  // namespace odf::perfbench

int main(int argc, char** argv) {
  odf::perfbench::Options options;
  if (!odf::perfbench::ParseArgs(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: odf_perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--size tiny] [--corrupt-model] [--spans-out <file>]\n");
    return 2;
  }
  return odf::perfbench::Run(options);
}
