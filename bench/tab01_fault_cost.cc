// Table 1: worst-case page-fault handling cost after each fork flavour. The child writes one
// byte to the middle of a 1 GB region, which is the first access to its 2 MiB chunk:
//   fork            -> COW one 4 KiB page                       (paper: 0.0023 ms)
//   fork w/ huge    -> COW one 2 MiB page                       (paper: 0.1984 ms, ~86x)
//   on-demand-fork  -> copy the shared PTE table + COW the page (paper: 0.0122 ms, ~5.3x)
// The orderings (fork < ODF << huge) are the shape under test.
#include "bench/bench_common.h"

namespace odf {
namespace {

struct FaultCost {
  double ms = 0;           // Mean over the timed repetitions.
  double host_faults = 0;  // Mean host minor faults per timed repetition.
};

FaultCost MeasureFault(ForkMode mode, bool huge, int reps) {
  RunningStats stats;
  RunningStats host;
  for (int r = -1; r < reps; ++r) {  // r == -1 is an untimed warmup iteration.
    Kernel kernel;
    uint64_t bytes = GbToBytes(1.0);
    // Materialise the data so COW copies move real bytes, as in the paper (memory is
    // initialised before measurement).
    Process& parent = MakePopulatedProcess(kernel, bytes, huge, /*materialize=*/true);
    Vaddr middle = FirstVmaStart(parent) + bytes / 2;

    Process& child = kernel.Fork(parent, mode);
    std::byte value{0xff};
    HostFaultCounter host_faults;
    Stopwatch sw;
    ODF_CHECK(child.WriteMemory(middle, std::span(&value, 1)));
    if (r >= 0) {
      stats.Add(sw.ElapsedMillis());
      host.Add(static_cast<double>(host_faults.Elapsed()));
    }
    kernel.Exit(child, 0);
    kernel.Wait(parent);
  }
  return FaultCost{stats.mean(), host.mean()};
}

void Run() {
  BenchConfig config = BenchConfig::FromEnv();
  int reps = config.fast ? 3 : 10;  // The paper averages 10 runs.
  PrintHeader("Table 1 — worst-case page-fault handling cost",
              "fork 0.0023 ms | fork w/ huge 0.1984 ms | on-demand-fork 0.0122 ms");

  FaultCost classic = MeasureFault(ForkMode::kClassic, false, reps);
  FaultCost huge = MeasureFault(ForkMode::kClassic, true, reps);
  FaultCost odf = MeasureFault(ForkMode::kOnDemand, false, reps);

  TablePrinter table({"Type", "Avg. time (ms)", "vs fork", "Host minor faults"});
  table.AddRow({"Fork", TablePrinter::FormatDouble(classic.ms, 4), "1.0x",
                TablePrinter::FormatDouble(classic.host_faults, 1)});
  table.AddRow({"Fork w/ huge pages", TablePrinter::FormatDouble(huge.ms, 4),
                TablePrinter::FormatDouble(huge.ms / classic.ms, 1) + "x",
                TablePrinter::FormatDouble(huge.host_faults, 1)});
  table.AddRow({"On-demand-fork", TablePrinter::FormatDouble(odf.ms, 4),
                TablePrinter::FormatDouble(odf.ms / classic.ms, 1) + "x",
                TablePrinter::FormatDouble(odf.host_faults, 1)});
  table.Print();
  WriteBenchJson("tab01_fault_cost", config, {{"fault_cost", &table}});
  std::printf("\nShape check: fork < on-demand-fork << fork w/ huge pages; ODF should be\n"
              "several times fork (table copy) and ~an order of magnitude under huge pages.\n"
              "Host minor faults: mean per timed fault, the host's share of its cost.\n");
}

}  // namespace
}  // namespace odf

int main() {
  odf::Run();
  return 0;
}
