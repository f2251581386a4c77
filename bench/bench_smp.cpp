// SMP scaling: the Table III 4-guest configuration with the kernel run as
// 1, 2, 4 and 8 simulated cores (per-core run queues, work stealing, IPIs,
// cross-core TLB shootdown — DESIGN.md §13).
//
// Print-only: run_all's "smp" section runs the same sweep, and
// bench/check_table3.py gates it (cores=1 bit-identical to the Table III
// 4-guest column, SMP machinery live at cores>1).
//
// Usage: bench_smp [sim_ms_per_config] [--csv]
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "smp.hpp"
#include "util/table.hpp"

using namespace minova;

namespace {
std::string f2(double v) { return util::TextTable::fmt_double(v, 2); }
}  // namespace

int main(int argc, char** argv) {
  double sim_ms = 2000.0;
  bool csv = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--csv") == 0)
      csv = true;
    else
      sim_ms = std::stod(argv[i]);
  }

  std::printf("=== SMP scaling: Table III workload, 4 guests (us) ===\n");
  std::printf("(%.0f ms simulated per core count)\n\n", sim_ms);

  const u32 core_counts[] = {1, 2, 4, 8};
  std::vector<bench::SmpPoint> pts;
  for (u32 c : core_counts) pts.push_back(bench::run_smp_point(c, sim_ms));

  util::TextTable t({"Cores", "1", "2", "4", "8"});
  auto add_d = [&](const char* name, double bench::Measurement::* field) {
    std::vector<std::string> cells{name};
    for (const auto& p : pts) cells.push_back(f2(p.m.*field));
    t.add_row(std::move(cells));
  };
  auto add_u = [&](const char* name, u64 bench::SmpPoint::* field) {
    std::vector<std::string> cells{name};
    for (const auto& p : pts) cells.push_back(std::to_string(p.*field));
    t.add_row(std::move(cells));
  };
  add_d("HW Manager entry", &bench::Measurement::entry);
  add_d("HW Manager exit", &bench::Measurement::exit);
  add_d("PL IRQ entry", &bench::Measurement::irq_entry);
  add_d("HW Manager execution", &bench::Measurement::exec);
  add_d("Total overhead", &bench::Measurement::total);
  {
    std::vector<std::string> cells{"(samples)"};
    for (const auto& p : pts) cells.push_back(std::to_string(p.m.samples));
    t.add_row(std::move(cells));
  }
  add_u("(vm switches)", &bench::SmpPoint::vm_switches);
  add_u("(IPIs sent)", &bench::SmpPoint::ipis_sent);
  add_u("(steals)", &bench::SmpPoint::steals);
  add_u("(shootdowns sent)", &bench::SmpPoint::shootdowns_sent);
  add_u("(shootdown acks)", &bench::SmpPoint::shootdown_acks);
  add_u("(cross-core IRQs)", &bench::SmpPoint::cross_core_irqs);
  std::fputs((csv ? t.to_csv() : t.to_string()).c_str(), stdout);

  double host_s = 0, sim_us = 0;
  for (const auto& p : pts) {
    host_s += p.m.host_seconds;
    sim_us += p.m.sim_us;
  }
  std::printf("\n[host] %.2f s wall clock, %.0f sim-us/host-s\n", host_s,
              host_s > 0 ? sim_us / host_s : 0.0);
  return 0;
}
