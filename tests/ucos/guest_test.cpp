// Guest-port level behaviour of the paravirtualized uC/OS-II (§V.A):
// boot-sequence hypercalls, virtual-timer-driven ticks, and workload
// progress inside the full system.
#include <gtest/gtest.h>

#include "ucos/system.hpp"

namespace minova::ucos {
namespace {

TEST(UcosGuestPort, BootSequenceRunsThroughHypercalls) {
  SystemConfig cfg;
  cfg.num_guests = 1;
  VirtualizedSystem sys(cfg);
  sys.run_for_us(5'000);
  // The porting patch printed its banner through the supervised UART, and
  // the characters drained through the device model.
  EXPECT_NE(sys.platform().uart().transmitted().find("ucos-vm0 up"),
            std::string::npos);
  // Boot performed privileged-register setup via reg_write.
  EXPECT_EQ(sys.kernel().pd_by_id(1)->sysregs[0], 0xC5A9'0001u);
}

TEST(UcosGuestPort, VirtualTimerDrivesOsTicks) {
  SystemConfig cfg;
  cfg.num_guests = 1;
  VirtualizedSystem sys(cfg);
  sys.run_for_us(50'000);
  // 1 kHz guest tick: ~50 ticks in 50 ms (boot + quantization slack).
  EXPECT_GE(sys.guest(0).os().tick_count(), 40u);
  EXPECT_LE(sys.guest(0).os().tick_count(), 55u);
  EXPECT_GT(sys.guest(0).virqs_handled(), 40u);
}

TEST(UcosGuestPort, WorkloadsProgressConcurrently) {
  SystemConfig cfg;
  cfg.num_guests = 1;
  cfg.seed = 21;
  VirtualizedSystem sys(cfg);
  sys.run_for_us(120'000);
  const auto& st = sys.guest(0).os().stats();
  EXPECT_GT(st.units_run, 100u);
  EXPECT_GT(st.context_switches, 10u);  // T_hw, gsm, adpcm interleave
  const auto* thw = sys.guest(0).thw_stats();
  ASSERT_NE(thw, nullptr);
  EXPECT_GT(thw->jobs_completed, 0u);
  EXPECT_EQ(thw->validation_failures, 0u);
}

TEST(UcosGuestPort, ThwVoluntaryReleasesHappen) {
  SystemConfig cfg;
  cfg.num_guests = 2;
  cfg.seed = 31;
  VirtualizedSystem sys(cfg);
  sys.run_for_us(400'000);
  const auto thw = sys.total_thw_stats();
  EXPECT_GT(thw.jobs_completed, 10u);
  // ~15% of completed cycles release the task voluntarily.
  EXPECT_GT(sys.manager().stats().releases, 0u);
}

}  // namespace
}  // namespace minova::ucos
