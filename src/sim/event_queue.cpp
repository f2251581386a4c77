#include "sim/event_queue.hpp"

#include <cstring>

namespace minova::sim {

EventQueue::EventId EventQueue::enqueue(cycles_t when, const Storage& fn,
                                        Thunk call) {
  u32 index = free_head_;
  if (index == kNoSlot) {
    index = u32(slots_.size());
    slots_.emplace_back();
  }
  Slot& slot = slots_[index];
  free_head_ = slot.next_free;
  // memcpy (not assignment) creates the callable in a slot that may have
  // held another type.
  std::memcpy(&slot.fn, &fn, sizeof fn);
  slot.call = call;
  const EventId id = (EventId(slot.gen) << 32) | index;
  heap_.push(Event{when, next_seq_++, id});
  ++live_count_;
  return id;
}

EventQueue::Slot* EventQueue::live_slot(EventId id) {
  const u32 index = u32(id);
  if (index >= slots_.size()) return nullptr;
  Slot& slot = slots_[index];
  return slot.call != nullptr && slot.gen == u32(id >> 32) ? &slot : nullptr;
}

void EventQueue::release(u32 index) {
  Slot& slot = slots_[index];
  slot.call = nullptr;
  ++slot.gen;
  slot.next_free = free_head_;
  free_head_ = index;
  --live_count_;
}

bool EventQueue::cancel(EventId id) {
  if (live_slot(id) == nullptr) return false;
  release(u32(id));  // the heap entry is dropped lazily when it surfaces
  return true;
}

std::size_t EventQueue::run_due(cycles_t now) {
  std::size_t fired = 0;
  while (!heap_.empty() && heap_.top().when <= now) {
    const EventId id = heap_.top().id;
    heap_.pop();
    Slot* slot = live_slot(id);
    if (slot == nullptr) continue;  // was cancelled
    // Copy out before releasing: the callback may reuse the slot or grow
    // `slots_`.
    Storage fn = slot->fn;
    const Thunk call = slot->call;
    release(u32(id));
    call(fn);
    ++fired;
  }
  return fired;
}

bool EventQueue::next_deadline(cycles_t& out) {
  while (!heap_.empty()) {
    if (live_slot(heap_.top().id) != nullptr) {
      out = heap_.top().when;
      return true;
    }
    heap_.pop();  // cancelled
  }
  return false;
}

}  // namespace minova::sim
