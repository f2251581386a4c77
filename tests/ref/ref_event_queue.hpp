// Reference event queue: the `std::function` implementation `EventQueue`
// replaced, kept verbatim as the behavioral golden model for it.
//
// `EventQueue` (sim/event_queue.hpp) stores its callbacks in place instead
// of in a `std::function`, and must otherwise behave exactly like this
// class: same firing order (deadline, then scheduling order), same
// `cancel` results for live, fired, cancelled and stale ids, same `size()`
// and same slot reuse (`slot_count()`). The differential test
// (tests/sim/event_queue_diff_test.cpp) drives both with seeded random
// traces and compares them after every operation.
//
// Do not optimize this class: its value is being the original.
#pragma once

#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "sim/clock.hpp"
#include "util/assert.hpp"
#include "util/types.hpp"

namespace minova::sim {

class RefEventQueue {
 public:
  using Callback = std::function<void()>;
  using EventId = u64;

  EventId schedule_at(cycles_t when, Callback cb) {
    MINOVA_CHECK(cb != nullptr);
    u32 index;
    if (free_slots_.empty()) {
      index = u32(slots_.size());
      slots_.emplace_back();
    } else {
      index = free_slots_.back();
      free_slots_.pop_back();
    }
    Slot& slot = slots_[index];
    slot.cb = std::move(cb);
    const EventId id = (EventId(slot.gen) << 32) | index;
    heap_.push(Event{when, next_seq_++, id});
    ++live_count_;
    return id;
  }

  bool cancel(EventId id) {
    if (live_slot(id) == nullptr) return false;
    release(u32(id));  // the heap entry is dropped lazily when it surfaces
    return true;
  }

  std::size_t run_due(cycles_t now) {
    std::size_t fired = 0;
    while (!heap_.empty() && heap_.top().when <= now) {
      const EventId id = heap_.top().id;
      heap_.pop();
      Slot* slot = live_slot(id);
      if (slot == nullptr) continue;  // was cancelled
      Callback cb = std::move(slot->cb);
      release(u32(id));
      cb();
      ++fired;
    }
    return fired;
  }

  bool next_deadline(cycles_t& out) {
    while (!heap_.empty()) {
      if (live_slot(heap_.top().id) != nullptr) {
        out = heap_.top().when;
        return true;
      }
      heap_.pop();  // cancelled
    }
    return false;
  }

  bool empty() const { return live_count_ == 0; }
  std::size_t size() const { return live_count_; }
  std::size_t slot_count() const { return slots_.size(); }

 private:
  struct Event {
    cycles_t when;
    u64 seq;
    EventId id;
    // Ordered as a min-heap on (when, seq).
    bool operator>(const Event& o) const {
      if (when != o.when) return when > o.when;
      return seq > o.seq;
    }
  };
  struct Slot {
    Callback cb;  // empty == free
    u32 gen = 0;  // bumped each time the slot is released
  };

  Slot* live_slot(EventId id) {
    const u32 index = u32(id);
    if (index >= slots_.size()) return nullptr;
    Slot& slot = slots_[index];
    return slot.cb && slot.gen == u32(id >> 32) ? &slot : nullptr;
  }

  void release(u32 index) {
    Slot& slot = slots_[index];
    slot.cb = nullptr;
    ++slot.gen;
    free_slots_.push_back(index);
    --live_count_;
  }

  std::priority_queue<Event, std::vector<Event>, std::greater<>> heap_;
  std::vector<Slot> slots_;
  std::vector<u32> free_slots_;
  u64 next_seq_ = 0;
  std::size_t live_count_ = 0;
};

}  // namespace minova::sim
