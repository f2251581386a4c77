// Differential test: `EventQueue`, which stores each callback in place in
// its slot, must behave exactly like `RefEventQueue`, the `std::function`
// queue it replaced. Seeded random traces drive both with schedules
// (deadlines often tied, some already past), cancels of live, fired,
// cancelled and stale ids and of `kNoEvent`, `run_due` at random times and
// `next_deadline`; the callbacks themselves schedule and cancel. After
// every operation both must agree on the firing order, every `cancel`
// result, every id handed out, `size()` and `slot_count()`.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "ref/ref_event_queue.hpp"
#include "sim/event_queue.hpp"
#include "util/rng.hpp"

namespace minova::sim {
namespace {

/// Log entry for a `cancel` result; fired events log their tag (< 2^32).
constexpr u64 kCancelled = u64(1) << 40;
constexpr u64 kNotCancelled = u64(1) << 41;

/// One queue under test plus what the trace saw of it.
template <typename Q>
struct Side {
  Q q;
  cycles_t now = 0;  // the time of the run_due in progress
  u32 next_tag = 0;
  std::vector<u64> ids;  // every id handed out, indexed by tag
  std::vector<u64> log;  // fired tags and cancel results, in order

  void schedule(cycles_t when) {
    const u32 tag = next_tag++;
    Side* self = this;
    ids.push_back(q.schedule_at(when, [self, tag] { self->fire(tag); }));
  }

  void cancel(u64 id) {
    log.push_back(q.cancel(id) ? kCancelled : kNotCancelled);
  }

  // A callback's follow-up depends only on its tag, so both queues are
  // asked the same thing as long as they fired the same events. Some
  // follow-ups are due at once and must fire within the same run_due.
  void fire(u32 tag) {
    log.push_back(tag);
    u64 state = tag;
    const u64 h = util::splitmix64(state);
    if (h % 3 == 0) schedule(now + (h >> 8) % 24);
    if (h % 5 == 0) cancel(ids[(h >> 16) % ids.size()]);
  }
};

void run_trace(u64 seed, u64 ops) {
  Side<EventQueue> a;
  Side<RefEventQueue> b;
  util::Xoshiro256 rng(seed);
  std::size_t checked = 0;
  for (u64 op = 0; op < ops; ++op) {
    const u64 r = rng.next() % 100;
    if (r < 45) {
      // Coarse deadlines tie often; some land behind the clock.
      const cycles_t when =
          a.now - std::min<cycles_t>(a.now, 16) + (rng.next() % 16) * 8;
      a.schedule(when);
      b.schedule(when);
    } else if (r < 70) {
      // Any id ever handed out: live, fired, cancelled or stale.
      const u64 id = a.ids.empty() || rng.next() % 16 == 0
                         ? EventQueue::kNoEvent
                         : a.ids[rng.next() % a.ids.size()];
      a.cancel(id);
      b.cancel(id);
    } else if (r < 90) {
      const cycles_t now = a.now + rng.next() % 40;
      a.now = b.now = now;
      ASSERT_EQ(a.q.run_due(now), b.q.run_due(now)) << "op " << op;
    } else {
      cycles_t da = 0, db = 0;
      const bool ha = a.q.next_deadline(da);
      ASSERT_EQ(ha, b.q.next_deadline(db)) << "op " << op;
      if (ha) {
        ASSERT_EQ(da, db) << "op " << op;
      }
    }
    ASSERT_EQ(a.ids, b.ids) << "op " << op;
    ASSERT_EQ(a.log.size(), b.log.size()) << "op " << op;
    for (; checked < a.log.size(); ++checked)
      ASSERT_EQ(a.log[checked], b.log[checked]) << "op " << op;
    ASSERT_EQ(a.q.size(), b.q.size()) << "op " << op;
    ASSERT_EQ(a.q.empty(), b.q.empty()) << "op " << op;
    ASSERT_EQ(a.q.slot_count(), b.q.slot_count()) << "op " << op;
  }
  // Drain: everything still pending, and what it schedules, fires in the
  // same order.
  while (!a.q.empty() || !b.q.empty()) {
    a.now = b.now = a.now + 1000;
    ASSERT_EQ(a.q.run_due(a.now), b.q.run_due(b.now));
  }
  EXPECT_EQ(a.log, b.log);
}

TEST(EventQueueDifferential, RandomTraces) {
  for (u64 seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(seed);
    run_trace(0xE7E7'0000ull + seed, 20'000);
    if (HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace minova::sim
