// Example: the §4 "Robustness" machinery end to end — cap simulated RAM, watch the CLOCK
// reclaimer push cold pages to swap while a working set stays resident, then drive the
// machine into an OOM kill, with procfs-style reports along the way.
//
//   ./build/examples/pressure_demo
#include <cstdio>

#include "src/proc/auditor.h"
#include "src/proc/procfs.h"

int main() {
  odf::Kernel kernel;
  const uint64_t kRamFrames = 4096;  // 16 MiB of simulated RAM.
  kernel.SetMemoryLimitFrames(kRamFrames);
  std::printf("machine booted with %llu MB of simulated RAM\n",
              (unsigned long long)(kRamFrames * odf::kPageSize >> 20));

  // A process that wants more anonymous memory than the machine has.
  odf::Process& worker = kernel.CreateProcess();
  const uint64_t kWorkload = 24ULL << 20;  // 24 MiB of data through 16 MiB of RAM.
  odf::Vaddr buffer = worker.Mmap(kWorkload, odf::kProtRead | odf::kProtWrite);
  std::printf("\nworker writes %llu MB...\n", (unsigned long long)(kWorkload >> 20));
  for (odf::Vaddr va = buffer; va < buffer + kWorkload; va += odf::kPageSize) {
    worker.StoreU64(va, va);  // Each write may trigger reclaim of colder pages.
  }
  odf::ProcessMemoryReport report = odf::BuildMemoryReport(worker);
  std::printf("after the fill:  %s\n", odf::FormatStatusLine(report).c_str());
  std::printf("reclaim activity: %llu pages swapped out so far\n",
              (unsigned long long)kernel.swap_space().Stats().writes);

  // Re-touch a hot working set; everything must read back correctly via swap-ins.
  std::printf("\nverifying all %llu MB (transparent swap-ins)...\n",
              (unsigned long long)(kWorkload >> 20));
  uint64_t errors = 0;
  for (odf::Vaddr va = buffer; va < buffer + kWorkload; va += odf::kPageSize) {
    if (worker.LoadU64(va) != va) {
      ++errors;
    }
  }
  report = odf::BuildMemoryReport(worker);
  std::printf("verified with %llu errors; %llu swap-in faults\n",
              (unsigned long long)errors,
              (unsigned long long)worker.address_space().stats().swap_in_faults);
  std::printf("after verify:    %s\n", odf::FormatStatusLine(report).c_str());

  // Invariants still hold under pressure.
  odf::AuditResult audit = odf::AuditKernel(kernel);
  std::printf("\nauditor: %s\n", audit.Describe().c_str());

  // Now the OOM killer. Huge pages are unswappable, so two huge-page hogs plus the worker
  // cannot all fit: the kernel first drains the worker to swap, then starts sacrificing the
  // largest processes (the currently-allocating process is immune, as a SIGKILLed caller
  // cannot be simulated).
  std::printf("\nspawning huge-page hogs until the OOM killer must fire...\n");
  odf::Process& hog_a = kernel.CreateProcess();
  odf::Vaddr a_mem = hog_a.Mmap(8ULL << 20, odf::kProtRead | odf::kProtWrite, /*huge=*/true);
  for (uint64_t offset = 0; offset < (8ULL << 20); offset += odf::kHugePageSize) {
    std::byte one{1};
    hog_a.WriteMemory(a_mem + offset, std::span(&one, 1));
  }
  std::printf("hog A resident: 8 MB of huge pages (unswappable)\n");

  odf::Process& hog_b = kernel.CreateProcess();
  odf::Vaddr b_mem = hog_b.Mmap(12ULL << 20, odf::kProtRead | odf::kProtWrite, /*huge=*/true);
  for (uint64_t offset = 0; offset < (12ULL << 20); offset += odf::kHugePageSize) {
    std::byte one{1};
    hog_b.WriteMemory(b_mem + offset, std::span(&one, 1));
  }
  std::printf("hog B resident: 12 MB of huge pages\n");

  auto state_name = [](const odf::Process& process) {
    return process.state() == odf::ProcessState::kRunning ? "running" : "killed";
  };
  std::printf("\nOOM kills: %llu — worker(24MB mapped): %s, hog A(8MB): %s, hog B(12MB): %s\n",
              (unsigned long long)kernel.oom_kills(), state_name(worker), state_name(hog_a),
              state_name(hog_b));
  std::printf("\n(victim order follows mapped size, largest first, sparing the allocating\n"
              "process — the paper's §4 robustness story: faulting processes sleep while\n"
              "the kernel frees pages, and the OOM killer is the last resort)\n");
  return 0;
}
