// VM density at production scale: sweeps 8 -> 1024 VMs and prints the
// VMs-vs-switch-latency curve, then runs the create/destroy churn loop.
// The density claims (flat switch cost, zero heap growth under churn) are
// gated once, by check_table3.py on run_all's `density` section.
//
// Usage: bench_density [rotations] [churn_vms] [churn_cycles]
#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "density.hpp"
#include "util/table.hpp"

using namespace minova;

int main(int argc, char** argv) {
  u32 rotations = 2;
  u32 churn_vms = 1024;
  u32 churn_cycles = 3;
  if (argc > 1) rotations = u32(std::strtoul(argv[1], nullptr, 0));
  if (argc > 2) churn_vms = u32(std::strtoul(argv[2], nullptr, 0));
  if (argc > 3) churn_cycles = u32(std::strtoul(argv[3], nullptr, 0));

  std::printf("=== VM density sweep (%u measured rotations/point) ===\n\n",
              rotations);
  util::TextTable t({"VMs", "switches", "sim cycles/switch", "heap B/VM",
                     "ASID gen", "host ns/switch"});
  double lo = 0, hi = 0;
  for (u32 n : bench::density_sweep()) {
    const bench::DensityPoint p = bench::measure_density(n, rotations);
    char cyc[32], bpv[32], ns[32];
    std::snprintf(cyc, sizeof(cyc), "%.1f", p.sim_cycles_per_switch);
    std::snprintf(bpv, sizeof(bpv), "%.0f", p.heap_bytes_per_vm);
    std::snprintf(ns, sizeof(ns), "%.0f", p.host_ns_per_switch);
    t.add_row({std::to_string(p.vms), std::to_string(p.switches), cyc, bpv,
               std::to_string(p.asid_generation), ns});
    lo = lo == 0 ? p.sim_cycles_per_switch
                 : std::min(lo, p.sim_cycles_per_switch);
    hi = std::max(hi, p.sim_cycles_per_switch);
  }
  std::fputs(t.to_string().c_str(), stdout);
  std::printf("\nswitch-cost spread across sweep: %.2f%%\n",
              lo > 0 ? (hi / lo - 1.0) * 100.0 : 100.0);

  std::printf("\n=== churn: %u VMs x %u create/destroy cycles ===\n",
              churn_vms, churn_cycles);
  const bench::ChurnResult churn = bench::run_churn(churn_vms, churn_cycles);
  std::printf("destroyed %llu VMs, ASID generation %u, heap %s\n",
              (unsigned long long)churn.vms_destroyed, churn.asid_generation,
              churn.heap_flat ? "flat (zero growth between cycles)"
                              : "GREW — pool leak");
  return 0;
}
