// Whole-system integration: the paper's Fig. 8 setup running end-to-end.
#include <gtest/gtest.h>

#include "ucos/native.hpp"
#include "ucos/system.hpp"

namespace minova {
namespace {

TEST(VirtualizedSystem, TwoGuestsRunWorkloadsAndHwTasks) {
  ucos::SystemConfig cfg;
  cfg.num_guests = 2;
  cfg.seed = 7;
  ucos::VirtualizedSystem sys(cfg);
  sys.run_for_us(150'000);

  const auto thw = sys.total_thw_stats();
  EXPECT_GT(thw.requests, 10u);
  EXPECT_GT(thw.grants, 5u);
  EXPECT_GT(thw.jobs_completed, 3u);
  // End-to-end correctness: every completed accelerator job matched the
  // software reference.
  EXPECT_EQ(thw.validation_failures, 0u);
  // No hardware task ever escaped its data section.
  EXPECT_EQ(sys.platform().prr_controller().total_violations(), 0u);
}

TEST(VirtualizedSystem, GuestsProgressFairly) {
  ucos::SystemConfig cfg;
  cfg.num_guests = 2;
  cfg.seed = 3;
  ucos::VirtualizedSystem sys(cfg);
  sys.run_for_us(200'000);
  const u64 t0 = sys.guest(0).os().tick_count();
  const u64 t1 = sys.guest(1).os().tick_count();
  EXPECT_GT(t0, 100u);  // ~1 kHz virtual ticks over 200 ms shared 2 ways
  // Equal CPU share -> comparable virtual tick progress.
  EXPECT_NEAR(double(t0) / double(t1), 1.0, 0.35);
}

TEST(VirtualizedSystem, FourGuestsStayCorrectUnderContention) {
  ucos::SystemConfig cfg;
  cfg.num_guests = 4;
  cfg.seed = 11;
  ucos::VirtualizedSystem sys(cfg);
  sys.run_for_us(300'000);
  const auto thw = sys.total_thw_stats();
  EXPECT_GT(thw.jobs_completed, 4u);
  EXPECT_EQ(thw.validation_failures, 0u);
  EXPECT_EQ(sys.platform().prr_controller().total_violations(), 0u);
  // Contention is real at 4 guests: reclaims must have happened.
  EXPECT_GT(sys.manager().stats().reclaims, 0u);
}

TEST(VirtualizedSystem, ReconfigurationsHappenAndComplete) {
  ucos::SystemConfig cfg;
  cfg.num_guests = 2;
  cfg.seed = 5;
  ucos::VirtualizedSystem sys(cfg);
  sys.run_for_us(150'000);
  EXPECT_GT(sys.platform().pcap().transfers_completed(), 3u);
  const auto thw = sys.total_thw_stats();
  EXPECT_GT(thw.reconfigs, 2u);
}

TEST(VirtualizedSystem, DeterministicAcrossRuns) {
  auto run = [] {
    ucos::SystemConfig cfg;
    cfg.num_guests = 2;
    cfg.seed = 99;
    ucos::VirtualizedSystem sys(cfg);
    sys.run_for_us(60'000);
    const auto thw = sys.total_thw_stats();
    return std::tuple{sys.kernel().hypercall_count(),
                      sys.kernel().vm_switch_count(), thw.requests,
                      thw.jobs_completed,
                      sys.platform().clock().now()};
  };
  EXPECT_EQ(run(), run());
}

TEST(VirtualizedSystem, LatencyInstrumentationPopulated) {
  ucos::SystemConfig cfg;
  cfg.num_guests = 1;
  ucos::VirtualizedSystem sys(cfg);
  sys.run_for_us(200'000);
  auto& lat = sys.kernel().hwmgr_latencies();
  ASSERT_GT(lat.entry_us.count(), 2u);
  // Sanity bands around the paper's Table III magnitudes.
  EXPECT_GT(lat.entry_us.mean(), 0.2);
  EXPECT_LT(lat.entry_us.mean(), 5.0);
  EXPECT_GT(lat.exec_us.mean(), 5.0);
  EXPECT_LT(lat.exec_us.mean(), 40.0);
  EXPECT_GT(lat.pl_irq_entry_us.count(), 0u);
  EXPECT_LT(lat.pl_irq_entry_us.mean(), 3.0);
}

TEST(VirtualizedSystem, TraceCapturesKernelActivity) {
  ucos::SystemConfig cfg;
  cfg.num_guests = 2;
  cfg.seed = 13;
  ucos::VirtualizedSystem sys(cfg);
  sys.platform().trace().set_enabled(true);
  sys.run_for_us(80'000);
  auto& tr = sys.platform().trace();
  EXPECT_GT(tr.count(sim::TraceKind::kVmSwitch), 4u);
  EXPECT_GT(tr.count(sim::TraceKind::kHypercall), 10u);
  EXPECT_GT(tr.count(sim::TraceKind::kVirqInject), 10u);
  EXPECT_GT(tr.count(sim::TraceKind::kHwGrant), 0u);
  EXPECT_GT(tr.count(sim::TraceKind::kPcapStart), 0u);
  // The dump renders.
  const std::string dump =
      tr.to_string(sys.platform().clock().freq_hz());
  EXPECT_NE(dump.find("hw-grant"), std::string::npos);
}

TEST(NativeSystem, RunsSameWorkloadsWithoutVirtualization) {
  Platform platform;
  ucos::GuestConfig cfg;
  cfg.seed = 7;
  ucos::NativeSystem sys(platform, cfg);
  sys.run_for_us(150'000);
  const auto* thw = sys.thw_stats();
  ASSERT_NE(thw, nullptr);
  EXPECT_GT(thw->jobs_completed, 3u);
  EXPECT_EQ(thw->validation_failures, 0u);
  EXPECT_GT(sys.os().tick_count(), 100u);
  EXPECT_GT(sys.allocator().exec_us().count(), 3u);
}

TEST(NativeVsVirtualized, VirtualizationCostsMoreTotalResponse) {
  // The headline claim of Table III: virtualization adds bounded overhead.
  Platform nplat;
  ucos::GuestConfig ncfg;
  ncfg.seed = 42;
  ucos::NativeSystem native(nplat, ncfg);
  native.run_for_us(300'000);
  const double native_exec = native.allocator().exec_us().mean();

  ucos::SystemConfig cfg;
  cfg.num_guests = 1;
  cfg.seed = 42;
  ucos::VirtualizedSystem virt(cfg);
  virt.run_for_us(300'000);
  auto& lat = virt.kernel().hwmgr_latencies();
  const double virt_total = lat.total_us.mean();

  EXPECT_GT(virt_total, native_exec);          // overhead exists
  EXPECT_LT(virt_total, native_exec * 1.6);    // ...but stays bounded
}

}  // namespace
}  // namespace minova
