#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace minova::sim {
namespace {

TEST(EventQueue, FiresInDeadlineOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(30, [&] { order.push_back(3); });
  q.schedule_at(10, [&] { order.push_back(1); });
  q.schedule_at(20, [&] { order.push_back(2); });
  EXPECT_EQ(q.run_due(100), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesFireInScheduleOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule_at(10, [&] { order.push_back(1); });
  q.schedule_at(10, [&] { order.push_back(2); });
  q.run_due(10);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(EventQueue, DoesNotFireFutureEvents) {
  EventQueue q;
  int fired = 0;
  q.schedule_at(100, [&] { ++fired; });
  EXPECT_EQ(q.run_due(99), 0u);
  EXPECT_EQ(fired, 0);
  EXPECT_EQ(q.run_due(100), 1u);
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, CancelPreventsFiring) {
  EventQueue q;
  int fired = 0;
  const auto id = q.schedule_at(10, [&] { ++fired; });
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));  // double cancel reports failure
  EXPECT_EQ(q.run_due(100), 0u);
  EXPECT_EQ(fired, 0);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CallbackMaySchedule) {
  EventQueue q;
  int fired = 0;
  q.schedule_at(10, [&] {
    ++fired;
    q.schedule_at(20, [&] { ++fired; });    // due within same run
    q.schedule_at(1000, [&] { ++fired; });  // future
  });
  EXPECT_EQ(q.run_due(100), 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, NextDeadlineSkipsCancelled) {
  EventQueue q;
  const auto a = q.schedule_at(5, [] {});
  q.schedule_at(9, [] {});
  cycles_t d = 0;
  ASSERT_TRUE(q.next_deadline(d));
  EXPECT_EQ(d, 5u);
  q.cancel(a);
  ASSERT_TRUE(q.next_deadline(d));
  EXPECT_EQ(d, 9u);
}

TEST(EventQueue, EmptyQueueHasNoDeadline) {
  EventQueue q;
  cycles_t d = 0;
  EXPECT_FALSE(q.next_deadline(d));
}

TEST(EventQueue, StaleIdCannotCancelSlotReuser) {
  EventQueue q;
  const auto stale = q.schedule_at(10, [] {});
  ASSERT_EQ(q.run_due(10), 1u);
  int fired = 0;
  const auto fresh = q.schedule_at(20, [&] { ++fired; });
  EXPECT_EQ(q.slot_count(), 1u);  // the fired event's slot was reused
  EXPECT_NE(stale, fresh);
  EXPECT_FALSE(q.cancel(stale));
  EXPECT_EQ(q.run_due(20), 1u);
  EXPECT_EQ(fired, 1);

  // Same after a cancel: the cancelled id stays dead once its slot is reused.
  const auto cancelled = q.schedule_at(30, [] {});
  ASSERT_TRUE(q.cancel(cancelled));
  const auto reuser = q.schedule_at(40, [&] { ++fired; });
  EXPECT_FALSE(q.cancel(cancelled));
  EXPECT_EQ(q.run_due(100), 1u);
  EXPECT_EQ(fired, 2);
  EXPECT_FALSE(q.cancel(reuser));  // already fired
  EXPECT_EQ(q.slot_count(), 1u);
}

TEST(EventQueue, NoEventNamesNoSlot) {
  EventQueue q;
  int fired = 0;
  const auto live = q.schedule_at(10, [&] { ++fired; });
  ASSERT_EQ(u32(live), 0u);  // slot 0 is live
  EXPECT_FALSE(q.cancel(EventQueue::kNoEvent));
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.run_due(10), 1u);
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, SlotStorageStaysBounded) {
  EventQueue q;
  cycles_t now = 0;
  int fired = 0;
  for (int i = 0; i < 100'000; ++i) {
    q.schedule_at(++now, [&] { ++fired; });
    q.run_due(now);
    const auto id = q.schedule_at(now + 1000, [&] { ++fired; });
    ASSERT_TRUE(q.cancel(id));
    cycles_t d = 0;
    EXPECT_FALSE(q.next_deadline(d));
  }
  EXPECT_EQ(fired, 100'000);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.slot_count(), 1u);
}

TEST(EventQueue, NextDeadlineAgreesWithFiringOrder) {
  EventQueue q;
  const std::vector<cycles_t> when{50, 10, 40, 10, 30, 20, 60, 20};
  std::vector<EventQueue::EventId> ids;
  std::vector<std::size_t> fired;
  for (std::size_t i = 0; i < when.size(); ++i)
    ids.push_back(q.schedule_at(when[i], [&fired, i] { fired.push_back(i); }));
  // Cancel both events at the head, and one in the middle.
  ASSERT_TRUE(q.cancel(ids[1]));
  ASSERT_TRUE(q.cancel(ids[3]));
  ASSERT_TRUE(q.cancel(ids[4]));
  std::vector<cycles_t> deadlines;
  cycles_t d = 0;
  while (q.next_deadline(d)) {
    deadlines.push_back(d);
    const std::size_t before = fired.size();
    ASSERT_GE(q.run_due(d), 1u);
    for (std::size_t k = before; k < fired.size(); ++k)
      EXPECT_EQ(when[fired[k]], d);  // run_due fires exactly that deadline
  }
  EXPECT_EQ(deadlines, (std::vector<cycles_t>{20, 40, 50, 60}));
  EXPECT_EQ(fired, (std::vector<std::size_t>{5, 7, 2, 0, 6}));
  EXPECT_TRUE(q.empty());
}

}  // namespace
}  // namespace minova::sim
