// Shared configuration and helpers for the paper-reproduction benchmark binaries.
//
// Environment knobs (all optional):
//   ODF_BENCH_MAX_GB    largest simulated mapping in the Fig. 2/4/7 sweeps (default 8; the
//                       paper goes to 50 — set 50 to match, given ~4 GB of RAM headroom)
//   ODF_BENCH_REPS      repetitions per data point (default 5, like the paper)
//   ODF_BENCH_SECONDS   duration of throughput benchmarks (default 10)
//   ODF_BENCH_FAST      set to 1 for a quick smoke run (small sizes, 1 rep)
//   ODF_BENCH_JSON      set to 0 to suppress the BENCH_<name>.json sidecar
//   ODF_BENCH_JSON_DIR  directory for BENCH_<name>.json (default: current directory)
#ifndef ODF_BENCH_BENCH_COMMON_H_
#define ODF_BENCH_BENCH_COMMON_H_

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "src/proc/kernel.h"
#include "src/trace/json.h"
#include "src/trace/metrics.h"
#include "src/trace/trace.h"
#include "src/util/log.h"
#include "src/util/stats.h"
#include "src/util/stopwatch.h"
#include "src/util/table_printer.h"

namespace odf {

struct BenchConfig {
  double max_gb = 8.0;
  int reps = 5;
  double seconds = 10.0;
  bool fast = false;

  static BenchConfig FromEnv() {
    BenchConfig config;
    if (const char* v = std::getenv("ODF_BENCH_MAX_GB")) {
      config.max_gb = std::atof(v);
    }
    if (const char* v = std::getenv("ODF_BENCH_REPS")) {
      config.reps = std::atoi(v);
    }
    if (const char* v = std::getenv("ODF_BENCH_SECONDS")) {
      config.seconds = std::atof(v);
    }
    if (const char* v = std::getenv("ODF_BENCH_FAST")) {
      if (std::atoi(v) != 0) {
        config.fast = true;
        config.max_gb = std::min(config.max_gb, 2.0);
        config.reps = 1;
        config.seconds = std::min(config.seconds, 2.0);
      }
    }
    return config;
  }
};

// The paper's x-axis: 0.5, 1, 2, 4, ... GB up to max_gb (log-scale sweep; the paper samples
// every 512 MB but plots on a log axis — the doubling sweep reproduces the plotted points).
inline std::vector<double> SizeSweepGb(double max_gb) {
  std::vector<double> sizes;
  double gb = 0.5;
  for (; gb <= max_gb + 1e-9; gb *= 2) {
    sizes.push_back(gb);
  }
  // Include the ceiling itself when the doubling ladder skips it (e.g. max 50 -> ..., 32, 50).
  if (!sizes.empty() && sizes.back() < max_gb - 1e-9) {
    sizes.push_back(max_gb);
  }
  return sizes;
}

inline uint64_t GbToBytes(double gb) {
  return static_cast<uint64_t>(gb * 1024.0 * 1024.0 * 1024.0);
}

// Creates a process with `bytes` of populated private anonymous memory (every page mapped;
// data materialised only if `materialize`).
inline Process& MakePopulatedProcess(Kernel& kernel, uint64_t bytes, bool huge = false,
                                     bool materialize = false) {
  Process& p = kernel.CreateProcess();
  Vaddr va = p.Mmap(bytes, kProtRead | kProtWrite, huge);
  p.address_space().PopulateRange(va, bytes);
  if (materialize) {
    ODF_CHECK(p.MemsetMemory(va, std::byte{0x5a}, bytes));
  }
  return p;
}

inline Vaddr FirstVmaStart(Process& p) {
  return p.address_space().vmas().begin()->second.start;
}

// Times `reps` forks of `parent` (child exits immediately, as in the paper's Fig. 1 loop);
// returns per-fork milliseconds.
inline std::vector<double> TimeForks(Kernel& kernel, Process& parent, ForkMode mode,
                                     int reps) {
  std::vector<double> times_ms;
  times_ms.reserve(static_cast<size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    Stopwatch sw;
    Process& child = kernel.Fork(parent, mode);
    times_ms.push_back(sw.ElapsedMillis());
    kernel.Exit(child, 0);
    kernel.Wait(parent);
  }
  return times_ms;
}

// Host minor page faults this process has taken (getrusage RUSAGE_SELF): the host layer
// under a simulated fault, e.g. the first touch of a frame's arena page. Start one next to a
// Stopwatch and read Elapsed() when the timed region ends.
class HostFaultCounter {
 public:
  HostFaultCounter() : start_(Now()) {}
  uint64_t Elapsed() const { return Now() - start_; }

  static uint64_t Now() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<uint64_t>(usage.ru_minflt);
  }

 private:
  uint64_t start_;
};

inline void PrintHeader(const std::string& title, const std::string& paper_ref) {
  std::printf("\n=== %s ===\n", title.c_str());
  std::printf("Reproduces: %s\n\n", paper_ref.c_str());
}

// One table of a benchmark's output, as (section name, printed table) for the JSON sidecar.
struct BenchSection {
  std::string name;
  const TablePrinter* table;
};

namespace bench_internal {

// Emits a table cell as a JSON number when the whole cell parses as one ("3.14", "42"),
// otherwise as a string ("on-demand-fork", "1.2 GB"). Keeps the sidecar directly loadable
// into analysis tools without per-bench schemas.
inline void WriteCell(JsonWriter& json, const std::string& cell) {
  if (!cell.empty()) {
    char* end = nullptr;
    double value = std::strtod(cell.c_str(), &end);
    if (end == cell.c_str() + cell.size()) {
      json.Value(value);
      return;
    }
  }
  json.Value(cell);
}

// Trimmed stdout of a git command run in the source checkout; empty when git or the
// checkout is unavailable.
inline std::string GitOutput(const std::string& args) {
  std::string command =
      "git -C '" + std::string(ODF_BENCH_SOURCE_DIR) + "' " + args + " 2>/dev/null";
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) {
    return "";
  }
  std::string out;
  char buffer[256];
  while (std::fgets(buffer, sizeof(buffer), pipe) != nullptr) {
    out += buffer;
  }
  if (pclose(pipe) != 0) {
    return "";
  }
  while (!out.empty() && (out.back() == '\n' || out.back() == ' ')) {
    out.pop_back();
  }
  return out;
}

// The same record as perfbench's diagnostics.provenance: which commit (and whether the
// checkout differed from it when the bench ran), compiler, build type, ODF_* options, nproc.
// ODF_BENCH_SOURCE_DIR/_BUILD_TYPE/_OPTIONS are defined per target by bench/CMakeLists.txt.
inline void WriteProvenance(JsonWriter& json) {
  std::string sha = GitOutput("rev-parse HEAD");
  std::string dirty = "unknown";
  if (!sha.empty()) {
    dirty = GitOutput("status --porcelain --untracked-files=no").empty() ? "0" : "1";
  }
  json.Key("provenance").BeginObject();
  json.Key("source").Value(sha.empty() ? std::string("unknown") : "git:" + sha);
  json.Key("dirty").Value(dirty);
  json.Key("compiler").Value(__VERSION__);
  json.Key("build_type").Value(ODF_BENCH_BUILD_TYPE);
  json.Key("options").Value(ODF_BENCH_OPTIONS);
  json.Key("nproc").Value(static_cast<uint64_t>(std::thread::hardware_concurrency()));
  json.EndObject();
}

}  // namespace bench_internal

// Writes BENCH_<name>.json next to the benchmark (schema: docs/observability.md). Every
// fig*/tab*/abl* binary calls this after printing its tables so the bench harness can
// consume results without scraping stdout. Honors ODF_BENCH_JSON / ODF_BENCH_JSON_DIR.
inline void WriteBenchJson(const std::string& name, const BenchConfig& config,
                           const std::vector<BenchSection>& sections) {
  if (const char* v = std::getenv("ODF_BENCH_JSON")) {
    if (std::atoi(v) == 0) {
      return;
    }
  }
  std::string path = "BENCH_" + name + ".json";
  if (const char* dir = std::getenv("ODF_BENCH_JSON_DIR")) {
    path = std::string(dir) + "/" + path;
  }
  std::ofstream out(path);
  if (!out) {
    ODF_LOG(kWarn) << "cannot write " << path;
    return;
  }
  JsonWriter json(out);
  json.BeginObject();
  json.Key("schema_version").Value(1);
  json.Key("bench").Value(name);
  json.Key("config").BeginObject();
  json.Key("max_gb").Value(config.max_gb);
  json.Key("reps").Value(config.reps);
  json.Key("seconds").Value(config.seconds);
  json.Key("fast").Value(config.fast);
  json.EndObject();
  bench_internal::WriteProvenance(json);
  json.Key("sections").BeginArray();
  for (const BenchSection& section : sections) {
    json.BeginObject();
    json.Key("name").Value(section.name);
    json.Key("columns").BeginArray();
    for (const std::string& header : section.table->headers()) {
      json.Value(header);
    }
    json.EndArray();
    json.Key("rows").BeginArray();
    for (const auto& row : section.table->rows()) {
      json.BeginArray();
      for (const std::string& cell : row) {
        bench_internal::WriteCell(json, cell);
      }
      json.EndArray();
    }
    json.EndArray();
    json.EndObject();
  }
  json.EndArray();
  // Counter snapshot at exit: lets the harness correlate bench results with kernel-wide
  // activity (e.g. COW fault volume behind a latency series) without a second run.
  json.Key("vmstat").BeginObject();
  for (const auto& [counter, value] : MetricsRegistry::Global().SnapshotCounters()) {
    json.Key(counter).Value(value);
  }
  json.EndObject();
  // Registered latency histograms (mm_lock_wait et al.): contention summaries so a bench
  // result can be read next to how hard the MM locks were fought over while it ran.
  json.Key("histograms").BeginObject();
  for (const auto& [hist_name, histogram] : MetricsRegistry::Global().Histograms()) {
    json.Key(hist_name).BeginObject();
    json.Key("count").Value(histogram->TotalCount());
    json.Key("p50_us").Value(histogram->PercentileMicros(50));
    json.Key("p99_us").Value(histogram->PercentileMicros(99));
    json.Key("mean_us").Value(histogram->MeanMicros());
    json.EndObject();
  }
  json.EndObject();
  // Per-ring append/overwrite accounting: a wrapped trace ring silently loses events, so
  // any trace-derived number in the sections above must be read next to these counts.
  json.Key("trace_rings").BeginArray();
  for (const auto& ring : trace::Tracer::Global().CollectRingStats()) {
    json.BeginObject();
    json.Key("tid").Value(static_cast<uint64_t>(ring.tid));
    json.Key("appended").Value(ring.appended);
    json.Key("overwritten").Value(ring.overwritten);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  out << "\n";
  std::printf("[bench] wrote %s\n", path.c_str());
}

}  // namespace odf

#endif  // ODF_BENCH_BENCH_COMMON_H_
