// fork-server and fork-server-classic: AFL-style fork servers (paper Fig. 9 and §2.4.3).
// Each driver thread owns a MiniDb template process and, for each seeded shell input,
// runs Fork -> RunMiniDbShell in the child -> Exit -> Wait as a closed loop. The two
// workloads differ only in the fork mode, so a gain on one mode that costs the other
// shows up as a pair.
#include <algorithm>
#include <thread>

#include "perfbench/bench.h"
#include "src/apps/minidb.h"
#include "src/apps/minidb_shell.h"
#include "src/proc/kernel.h"
#include "src/util/rng.h"

namespace odf::perfbench {
namespace {

// Full size: 100k-row templates with 64-byte text columns, as in the fast mode of
// bench/fig09_fuzz_throughput.cc, 256 seeded inputs, two driver threads (at most one less
// than the machine's hardware threads). Two rather than three: on the 4-vCPU machine
// this was sized on, three threads gained little throughput and made run-to-run spread
// much wider, as contention outcomes varied from run to run.
constexpr uint64_t kForkServerRows = 100000;
constexpr size_t kForkServerInputs = 256;
constexpr uint32_t kForkServerThreads = 2;

constexpr uint32_t kTextWidth = 64;
const std::string kTable = "t";

struct ForkServerSize {
  uint64_t rows;     // Rows in each template's table.
  size_t inputs;     // Seeded shell inputs, cycled through by every thread.
  uint32_t threads;  // Driver threads, one template each.
};

ForkServerSize SizeFor(const Options& options) {
  if (options.tiny) {
    return {2000, 16, 2};
  }
  uint32_t spare = std::max(2u, std::thread::hardware_concurrency()) - 1;
  return {kForkServerRows, kForkServerInputs, std::min(kForkServerThreads, spare)};
}

// One seeded input in the shell's command language: a few commands, mostly point
// queries and updates, with the odd range command and malformed line.
std::string MakeInput(Rng& rng, uint64_t rows) {
  std::string input;
  uint64_t lines = rng.NextInRange(3, 8);
  uint64_t key_space = rows + rows / 8;  // Some keys miss, some inserts succeed.
  for (uint64_t i = 0; i < lines; ++i) {
    uint64_t k = rng.NextBelow(key_space);
    uint64_t pick = rng.NextBelow(100);
    if (pick < 35) {
      input += "SEL " + std::to_string(k);
    } else if (pick < 60) {
      input += "UPD " + std::to_string(k) + " " + std::to_string(rng.NextBelow(1000));
    } else if (pick < 70) {
      input += "INS " + std::to_string(k) + " " + std::to_string(rng.NextBelow(1000)) +
               " row" + std::to_string(k);
    } else if (pick < 80) {
      input += "DEL " + std::to_string(k);
    } else if (pick < 88) {
      uint64_t lo = rng.NextBelow(1000);
      input += "RNG " + std::to_string(lo) + " " + std::to_string(lo + rng.NextBelow(4));
    } else if (pick < 92) {
      uint64_t lo = rng.NextBelow(1000);
      input += "UPR " + std::to_string(lo) + " " + std::to_string(lo + rng.NextBelow(2)) +
               " " + std::to_string(rng.NextBelow(1000));
    } else if (pick < 95) {
      uint64_t lo = rng.NextBelow(1000);
      input += "DLR " + std::to_string(lo) + " " + std::to_string(lo);
    } else {
      input += "XQZ " + std::to_string(k) + " ??";
    }
    input += '\n';
  }
  return input;
}

bool SameResult(const ShellResult& a, const ShellResult& b) {
  return a.commands_executed == b.commands_executed && a.parse_errors == b.parse_errors &&
         a.rows_touched == b.rows_touched;
}

// Digest of a template's whole heap, which holds its table, index and segments.
uint64_t HeapDigest(Kernel& kernel, Process& process, Vaddr meta) {
  MiniDb db = MiniDb::Attach(kernel, process, meta);
  Vaddr base = db.heap().base();
  uint64_t brk = db.heap().Stats().brk;
  std::vector<std::byte> chunk(1 << 20);
  uint64_t digest = 0;
  for (uint64_t offset = 0; offset < brk; offset += chunk.size()) {
    size_t n = static_cast<size_t>(std::min<uint64_t>(chunk.size(), brk - offset));
    if (!process.ReadMemory(base + offset, std::span(chunk.data(), n))) {
      return 0;
    }
    digest = HashBytes(chunk.data(), n, digest);
  }
  return digest;
}

class ForkServer : public Workload {
 public:
  ForkServer(const Options& options, ForkMode mode)
      : options_(options), size_(SizeFor(options)), mode_(mode) {
    uint64_t heap = size_.rows * 256 + (32ULL << 20);
    for (uint32_t t = 0; t < size_.threads; ++t) {
      Process& p = kernel_.CreateProcess();
      MiniDb db = MiniDb::Create(kernel_, p, heap);
      Rng fixture(Mix64(options.seed ^ 0xf1));  // Same rows in every template.
      db.BulkLoadFixture(kTable, size_.rows, kTextWidth, fixture);
      templates_.push_back(Template{&p, db.meta_base(), 0});
    }
  }

  void Prepare(Result* result) override {
    Rng rng(Mix64(options_.seed ^ 0x1a));
    for (size_t i = 0; i < size_.inputs; ++i) {
      inputs_.push_back(MakeInput(rng, size_.rows));
    }
    // Expected per-input totals come from the other fork mode: both must agree.
    ForkMode other = mode_ == ForkMode::kOnDemand ? ForkMode::kClassic : ForkMode::kOnDemand;
    Template& reference = templates_[0];
    for (const std::string& input : inputs_) {
      Process& child = kernel_.Fork(*reference.process, other);
      MiniDb view = MiniDb::Attach(kernel_, child, reference.meta);
      expected_.push_back(RunMiniDbShell(view, kTable, input, nullptr));
      kernel_.Exit(child, 0);
      kernel_.Wait(*reference.process);
    }
    for (Template& t : templates_) {
      t.digest = HeapDigest(kernel_, *t.process, t.meta);
    }
    for (uint32_t t = 0; t < size_.threads; ++t) {
      next_input_.push_back(t * inputs_.size() / size_.threads);
    }
    if (options_.corrupt_model) {
      ++expected_[0].rows_touched;  // Thread 0 runs input 0 first.
    }
    result->Note("fork_server", "{\"rows\": " + std::to_string(size_.rows) +
                                    ", \"inputs\": " + std::to_string(size_.inputs) +
                                    ", \"threads\": " + std::to_string(size_.threads) +
                                    ", \"mode\": \"" + ForkModeName(mode_) + "\"}");
  }

  Kernel& kernel() override { return kernel_; }
  FaultsInside faults() const override { return FaultsInside::kApps; }

  void RunPhase(double seconds, bool traced, Phase* phase) override {
    std::vector<Phase> workers(size_.threads);
    std::vector<std::thread> threads;
    const uint64_t deadline = NowNs() + static_cast<uint64_t>(seconds * 1e9);
    for (uint32_t t = 0; t < size_.threads; ++t) {
      threads.emplace_back([this, t, deadline, traced, &workers] {
        Drive(t, deadline, traced, &workers[t]);
      });
    }
    for (std::thread& thread : threads) {
      thread.join();
    }
    for (const Phase& worker : workers) {
      phase->Merge(worker);
    }
    phase->forking_threads = size_.threads;
  }

  void Finish(Result* result) override {
    for (Template& t : templates_) {
      if (HeapDigest(kernel_, *t.process, t.meta) != t.digest) {
        result->Fail("a template's heap changed while its children ran");
      }
      kernel_.Exit(*t.process, 0);
    }
    CheckAllFree(kernel_, result);
  }

 private:
  struct Template {
    Process* process;
    Vaddr meta;
    uint64_t digest;
  };

  void Drive(uint32_t thread, uint64_t deadline, bool traced, Phase* phase) {
    double cpu0 = ThreadCpuSeconds();
    Template& tmpl = templates_[thread];
    size_t& next = next_input_[thread];
    while (NowNs() < deadline) {
      size_t index = next++ % inputs_.size();
      ++phase->attempted;
      ForkProfile profile;
      ShellResult got;
      bool ok = true;
      uint64_t t0 = NowNs();
      {
        SpanScope op(SpanKind::kOp);
        Process* child = nullptr;
        {
          SpanScope span(SpanKind::kFork);
          child = kernel_.TryFork(*tmpl.process, mode_, traced ? &profile : nullptr);
        }
        uint64_t t1 = NowNs();
        phase->fork.Add(t1 - t0);
        phase->fork_ns_total += static_cast<double>(t1 - t0);
        ++phase->forks;
        AddProfile(profile, &phase->profile);
        if (child == nullptr) {
          ok = false;  // Fork rolled back.
        } else {
          {
            SpanScope span(SpanKind::kChildTask);
            MiniDb view = MiniDb::Attach(kernel_, *child, tmpl.meta);
            got = RunMiniDbShell(view, kTable, inputs_[index], nullptr);
          }
          uint64_t t2 = NowNs();
          phase->exec.Add(t2 - t1);
          {
            SpanScope span(SpanKind::kExit);
            kernel_.Exit(*child, 0);
          }
          uint64_t t3 = NowNs();
          phase->exit.Add(t3 - t2);
          Pid reaped;
          {
            SpanScope span(SpanKind::kWait);
            reaped = kernel_.Wait(*tmpl.process);
          }
          phase->wait.Add(NowNs() - t3);
          ok = reaped >= 0 && SameResult(got, expected_[index]);
        }
      }
      phase->op.Add(NowNs() - t0);
      ++phase->ops;
      if (!ok) {
        ++phase->failed;
      }
    }
    phase->driver_cpu_s += ThreadCpuSeconds() - cpu0;
  }

  const Options options_;
  const ForkServerSize size_;
  const ForkMode mode_;
  Kernel kernel_;
  std::vector<Template> templates_;
  std::vector<std::string> inputs_;
  std::vector<ShellResult> expected_;
  std::vector<size_t> next_input_;  // Per thread; each thread starts at its own offset.
};

}  // namespace

std::unique_ptr<Workload> MakeForkServer(const Options& options) {
  return std::make_unique<ForkServer>(options, ForkMode::kOnDemand);
}

std::unique_ptr<Workload> MakeForkServerClassic(const Options& options) {
  return std::make_unique<ForkServer>(options, ForkMode::kClassic);
}

}  // namespace odf::perfbench
