// Discrete-event queue driving asynchronous devices.
//
// The CPU side of the simulation advances the clock by explicit cost
// accounting; devices with their own latency (timers, PCAP transfers, DMA,
// hardware-task completion) schedule callbacks at absolute cycle times.
// After every quantum of CPU progress, the kernel loop calls
// `run_due(clock.now())` so device events interleave deterministically with
// software execution.
#pragma once

#include <functional>
#include <queue>
#include <vector>

#include "sim/clock.hpp"
#include "util/types.hpp"

namespace minova::sim {

class EventQueue {
 public:
  using Callback = std::function<void()>;
  /// Opaque handle: a callback slot index tagged with the slot's
  /// generation, so an id that outlived its event never names the event
  /// that later reuses the slot.
  using EventId = u64;

  /// Schedule `cb` to fire once the clock reaches `when` (absolute cycles).
  EventId schedule_at(cycles_t when, Callback cb);

  /// Cancel a pending event. Returns false if it already fired/was cancelled.
  bool cancel(EventId id);

  /// Fire every event with deadline <= `now`, in deadline order; ties fire
  /// in scheduling order (stable). Events scheduled by callbacks that are
  /// also due are fired in the same call.
  /// Returns the number of events fired.
  std::size_t run_due(cycles_t now);

  /// Deadline of the earliest pending event, or no value if empty. Drops
  /// cancelled entries at the head of the heap on the way.
  bool next_deadline(cycles_t& out);

  bool empty() const { return live_count_ == 0; }
  std::size_t size() const { return live_count_; }
  /// Callback slots ever allocated (pending plus free). Bounded by the peak
  /// number of simultaneously pending events, not by events scheduled.
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

  /// The slot `id` names, or null if its event already fired or was
  /// cancelled.
  Slot* live_slot(EventId id);
  /// Return a fired or cancelled event's slot to the free list.
  void release(u32 index);

  std::priority_queue<Event, std::vector<Event>, std::greater<>> heap_;
  std::vector<Slot> slots_;
  std::vector<u32> free_slots_;
  u64 next_seq_ = 0;
  std::size_t live_count_ = 0;
};

}  // namespace minova::sim
