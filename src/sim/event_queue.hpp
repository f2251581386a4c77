// Discrete-event queue driving asynchronous devices.
//
// The CPU side of the simulation advances the clock by explicit cost
// accounting; devices with their own latency (timers, PCAP transfers, DMA,
// hardware-task completion) schedule callbacks at absolute cycle times.
// After every quantum of CPU progress, the kernel loop calls
// `run_due(clock.now())` so device events interleave deterministically with
// software execution.
//
// Callbacks are stored in place in their slot, next to a function-pointer
// thunk that calls them: a callback must be trivially copyable and at most
// two words (every device captures `this` plus at most one index), so
// scheduling never allocates and needs no `std::function`.
#pragma once

#include <new>
#include <queue>
#include <type_traits>
#include <vector>

#include "sim/clock.hpp"
#include "util/types.hpp"

namespace minova::sim {

class EventQueue {
 public:
  /// Opaque handle: a callback slot index tagged with the slot's
  /// generation, so an id that outlived its event never names the event
  /// that later reuses the slot.
  using EventId = u64;
  /// An id that names no slot: cancelling it is a no-op.
  static constexpr EventId kNoEvent = ~EventId(0);

  /// Schedule `fn` to fire once the clock reaches `when` (absolute cycles).
  template <typename F>
  EventId schedule_at(cycles_t when, F fn) {
    static_assert(std::is_trivially_copyable_v<F> &&
                      sizeof(F) <= sizeof(Storage) &&
                      alignof(F) <= alignof(Storage),
                  "event callbacks are trivially copyable, at most two words");
    Storage s{};
    ::new (s.bytes) F(fn);
    return enqueue(when, s, [](Storage& p) {
      (*std::launder(reinterpret_cast<F*>(p.bytes)))();
    });
  }

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
  struct alignas(void*) Storage {
    unsigned char bytes[2 * sizeof(void*)];
  };
  using Thunk = void (*)(Storage&);

  struct Event {
    cycles_t when;
    u64 seq;
    EventId id;
  };
  // Orders the heap as a min-heap on (when, seq).
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      return a.when != b.when ? a.when > b.when : a.seq > b.seq;
    }
  };
  struct Slot {
    Storage fn;
    Thunk call = nullptr;  // null == free
    u32 gen = 0;           // bumped each time the slot is released
  };

  EventId enqueue(cycles_t when, const Storage& fn, Thunk call);
  /// The slot `id` names, or null if its event already fired or was
  /// cancelled.
  Slot* live_slot(EventId id);
  /// Return a fired or cancelled event's slot to the free list.
  void release(u32 index);

  std::priority_queue<Event, std::vector<Event>, Later> heap_;
  std::vector<Slot> slots_;
  std::vector<u32> free_slots_;
  u64 next_seq_ = 0;
  std::size_t live_count_ = 0;
};

}  // namespace minova::sim
