#include "irq/gic.hpp"

#include <gtest/gtest.h>

namespace minova::irq {
namespace {

TEST(Gic, PendingWithoutEnableDoesNotAssert) {
  Gic gic;
  gic.raise(40);
  EXPECT_FALSE(gic.irq_asserted());
  gic.enable_irq(40);
  EXPECT_TRUE(gic.irq_asserted());
}

TEST(Gic, AcknowledgeReturnsHighestPriority) {
  Gic gic;
  gic.enable_irq(40);
  gic.enable_irq(50);
  gic.set_priority(40, 0xA0);
  gic.set_priority(50, 0x20);  // numerically lower = higher priority
  gic.raise(40);
  gic.raise(50);
  EXPECT_EQ(gic.acknowledge(), 50u);
  EXPECT_EQ(gic.acknowledge(), 40u);
  EXPECT_EQ(gic.acknowledge(), kSpuriousIrq);
}

TEST(Gic, AckClearsPendingSetsActive) {
  Gic gic;
  gic.enable_irq(29);
  gic.raise(29);
  EXPECT_TRUE(gic.is_pending(29));
  EXPECT_EQ(gic.acknowledge(), 29u);
  EXPECT_FALSE(gic.is_pending(29));
  EXPECT_FALSE(gic.irq_asserted());
}

TEST(Gic, ActiveIrqBlocksReAckUntilEoi) {
  Gic gic;
  gic.enable_irq(29);
  gic.raise(29);
  ASSERT_EQ(gic.acknowledge(), 29u);
  gic.raise(29);  // fires again while active
  EXPECT_EQ(gic.acknowledge(), kSpuriousIrq);
  gic.eoi(29);
  EXPECT_EQ(gic.acknowledge(), 29u);
}

TEST(Gic, DisableMasksButKeepsPending) {
  Gic gic;
  gic.enable_irq(40);
  gic.raise(40);
  gic.disable_irq(40);
  EXPECT_FALSE(gic.irq_asserted());
  EXPECT_TRUE(gic.is_pending(40));  // latched
  gic.enable_irq(40);               // unmask -> delivered
  EXPECT_TRUE(gic.irq_asserted());
  EXPECT_EQ(gic.acknowledge(), 40u);
}

TEST(Gic, Counters) {
  Gic gic;
  gic.enable_irq(61);
  gic.raise(61);
  gic.raise(62);  // disabled, still counted as raised
  gic.acknowledge();
  EXPECT_EQ(gic.raised_count(), 2u);
  EXPECT_EQ(gic.acked_count(), 1u);
}

}  // namespace
}  // namespace minova::irq
