#include <gtest/gtest.h>

#include "timer/private_timer.hpp"
#include "timer/ttc.hpp"

namespace minova::timer {
namespace {

class TimerTest : public ::testing::Test {
 protected:
  void pump() { events_.run_due(clock_.now()); }

  sim::Clock clock_;
  sim::EventQueue events_;
  irq::Gic gic_;
};

TEST_F(TimerTest, OneShotFiresOnce) {
  PrivateTimer t(clock_, events_, gic_);
  gic_.enable_irq(mem::kIrqPrivateTimer);
  t.start(100, /*auto_reload=*/false);
  clock_.advance(199);  // 100 ticks * divider 2 = 200 cycles
  pump();
  EXPECT_EQ(t.expirations(), 0u);
  clock_.advance(1);
  pump();
  EXPECT_EQ(t.expirations(), 1u);
  EXPECT_TRUE(gic_.is_pending(mem::kIrqPrivateTimer));
  EXPECT_FALSE(t.running());
  clock_.advance(1000);
  pump();
  EXPECT_EQ(t.expirations(), 1u);  // one-shot
}

TEST_F(TimerTest, AutoReloadKeepsFiring) {
  PrivateTimer t(clock_, events_, gic_);
  t.start(50, /*auto_reload=*/true);
  for (int i = 1; i <= 5; ++i) {
    clock_.advance(100);
    pump();
    EXPECT_EQ(t.expirations(), u64(i));
  }
  EXPECT_TRUE(t.running());
}

TEST_F(TimerTest, StopCancelsPendingExpiry) {
  PrivateTimer t(clock_, events_, gic_);
  t.start(100, true);
  t.stop();
  clock_.advance(10'000);
  pump();
  EXPECT_EQ(t.expirations(), 0u);
}

TEST_F(TimerTest, CurrentValueCountsDown) {
  PrivateTimer t(clock_, events_, gic_);
  t.start(100, false);
  EXPECT_EQ(t.current_value(), 100u);
  clock_.advance(100);  // 50 timer ticks
  EXPECT_EQ(t.current_value(), 50u);
  clock_.advance(200);
  EXPECT_EQ(t.current_value(), 0u);
}

TEST_F(TimerTest, EventFlagSetAndCleared) {
  PrivateTimer t(clock_, events_, gic_);
  t.start(10, false);
  clock_.advance(20);
  pump();
  EXPECT_TRUE(t.event_flag());
  t.clear_event_flag();
  EXPECT_FALSE(t.event_flag());
}

TEST_F(TimerTest, RestartReplacesDeadline) {
  PrivateTimer t(clock_, events_, gic_);
  t.start(100, false);
  clock_.advance(50);
  t.start(1000, false);  // reprogram before expiry
  clock_.advance(200);   // old deadline passed
  pump();
  EXPECT_EQ(t.expirations(), 0u);
  clock_.advance(2000);
  pump();
  EXPECT_EQ(t.expirations(), 1u);
}

// The fired event's id is stale: stop() after expiry must not cancel the
// event that reused its slot, and a restart arms afresh.
TEST_F(TimerTest, StopAfterExpiryThenRestart) {
  PrivateTimer t(clock_, events_, gic_);
  t.start(10, false);
  clock_.advance(20);
  pump();
  ASSERT_EQ(t.expirations(), 1u);
  int other = 0;
  events_.schedule_at(clock_.now() + 5, [&] { ++other; });  // reuses slot
  t.stop();
  EXPECT_EQ(events_.size(), 1u);
  t.start(10, false);
  clock_.advance(20);
  pump();
  EXPECT_EQ(other, 1);
  EXPECT_EQ(t.expirations(), 2u);
  t.stop();
  EXPECT_TRUE(events_.empty());
}

TEST_F(TimerTest, TtcStopAfterExpiryThenRestart) {
  Ttc ttc(clock_, events_, gic_);
  ttc.start_interval(2, 100, 0);
  clock_.advance(200);
  pump();
  ASSERT_EQ(ttc.expirations(2), 1u);
  ttc.stop(2);
  EXPECT_TRUE(events_.empty());
  int other = 0;
  events_.schedule_at(clock_.now() + 5, [&] { ++other; });  // reuses slot
  ttc.stop(2);  // the cancelled id is stale now
  EXPECT_EQ(events_.size(), 1u);
  ttc.start_interval(2, 100, 0);
  clock_.advance(200);
  pump();
  EXPECT_EQ(other, 1);
  EXPECT_EQ(ttc.expirations(2), 2u);
}

TEST_F(TimerTest, TtcIntervalModeRaisesChannelIrq) {
  Ttc ttc(clock_, events_, gic_);
  gic_.enable_irq(mem::kIrqTtc0_0 + 1);
  ttc.start_interval(/*ch=*/1, /*interval=*/100, /*prescale=*/0);
  clock_.advance(200);  // interval << 1
  pump();
  EXPECT_EQ(ttc.expirations(1), 1u);
  EXPECT_TRUE(gic_.is_pending(mem::kIrqTtc0_0 + 1));
  EXPECT_EQ(ttc.expirations(0), 0u);
  clock_.advance(200);
  pump();
  EXPECT_EQ(ttc.expirations(1), 2u);  // periodic
  ttc.stop(1);
  clock_.advance(2000);
  pump();
  EXPECT_EQ(ttc.expirations(1), 2u);
}

TEST_F(TimerTest, TtcPrescalerScalesPeriod) {
  Ttc ttc(clock_, events_, gic_);
  ttc.start_interval(0, 10, /*prescale=*/3);  // 10 << 4 = 160 cycles
  clock_.advance(159);
  pump();
  EXPECT_EQ(ttc.expirations(0), 0u);
  clock_.advance(1);
  pump();
  EXPECT_EQ(ttc.expirations(0), 1u);
}

}  // namespace
}  // namespace minova::timer
