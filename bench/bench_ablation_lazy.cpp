// Ablation: lazy vs active VFP / L2-control switching (paper Table I).
//
// Mini-NOVA lazily switches the VFP bank and L2 control registers because
// they are "relatively less frequently accessed and quite expensive to
// save". This bench runs the same 4-guest workload (the GSM encoder uses
// the VFP) with lazy and active switching and reports the VFP context
// transfers performed and the hardware-task response latency.
//
// Usage: bench_ablation_lazy [sim_ms]
#include <cstdio>
#include <string>

#include "ucos/system.hpp"
#include "util/table.hpp"

using namespace minova;

namespace {

struct Result {
  u64 vm_switches;
  u64 vfp_transfers;  // context moves of the 264-byte VFP frame
  double entry_us;
  double total_us;
  u64 guest_ticks;
};

Result run(bool lazy, double sim_ms) {
  ucos::SystemConfig cfg;
  cfg.num_guests = 4;
  cfg.seed = 42;
  cfg.kernel.lazy_vfp = lazy;
  cfg.kernel.lazy_l2ctrl = lazy;
  ucos::VirtualizedSystem sys(cfg);
  sys.run_for_us(sim_ms * 1000.0);
  Result r{};
  r.vm_switches = sys.kernel().vm_switch_count();
  r.vfp_transfers =
      lazy ? sys.platform().stats().counter_value("kernel.trap.vfp_switch")
           : 2 * sys.kernel().vm_switch_count();  // save + restore each time
  auto& lat = sys.kernel().hwmgr_latencies();
  r.entry_us = lat.entry_us.count() ? lat.entry_us.mean() : 0.0;
  r.total_us = lat.total_us.count() ? lat.total_us.mean() : 0.0;
  for (u32 g = 0; g < sys.num_guests(); ++g)
    r.guest_ticks += sys.guest(g).os().tick_count();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const double sim_ms = argc > 1 ? std::stod(argv[1]) : 1000.0;
  std::printf("=== Ablation: lazy vs active VFP/L2-control switching "
              "(Table I) ===\n(4 guests, %.0f ms simulated)\n\n",
              sim_ms);
  const Result lazy = run(true, sim_ms);
  const Result active = run(false, sim_ms);

  util::TextTable t({"metric", "lazy (paper)", "active (ablation)"});
  auto u64s = [](u64 v) { return std::to_string(v); };
  auto f2 = [](double v) { return util::TextTable::fmt_double(v, 2); };
  t.add_row({"VM switches", u64s(lazy.vm_switches), u64s(active.vm_switches)});
  t.add_row({"VFP context transfers", u64s(lazy.vfp_transfers),
             u64s(active.vfp_transfers)});
  t.add_row({"HW manager entry (us)", f2(lazy.entry_us), f2(active.entry_us)});
  t.add_row({"HW request total (us)", f2(lazy.total_us), f2(active.total_us)});
  t.add_row({"guest ticks progressed", u64s(lazy.guest_ticks),
             u64s(active.guest_ticks)});
  std::fputs(t.to_string().c_str(), stdout);

  const double saved = double(active.vfp_transfers) -
                       double(lazy.vfp_transfers);
  std::printf("\nLazy switching avoided %.0f VFP bank transfers (%.1fx "
              "fewer), at ~%u words each.\n",
              saved,
              double(active.vfp_transfers) /
                  double(std::max<u64>(lazy.vfp_transfers, 1)),
              nova::Vcpu::kVfpWords);
  return 0;
}
