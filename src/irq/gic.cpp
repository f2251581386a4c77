#include "irq/gic.hpp"

#include <bit>

#include "util/assert.hpp"

namespace minova::irq {

Gic::Gic(u32 num_irqs)
    : state_(num_irqs), candidates_((num_irqs + 63) / 64) {}

void Gic::enable_irq(u32 id) {
  MINOVA_CHECK(id < state_.size());
  state_[id].enabled = true;
  refresh(id);
  update_line();
}

void Gic::disable_irq(u32 id) {
  MINOVA_CHECK(id < state_.size());
  state_[id].enabled = false;
  refresh(id);
  update_line();
}

bool Gic::is_enabled(u32 id) const {
  MINOVA_CHECK(id < state_.size());
  return state_[id].enabled;
}

void Gic::set_priority(u32 id, u8 prio) {
  MINOVA_CHECK(id < state_.size());
  state_[id].prio = prio;
  update_line();
}

u8 Gic::priority(u32 id) const {
  MINOVA_CHECK(id < state_.size());
  return state_[id].prio;
}

void Gic::raise(u32 id) {
  MINOVA_CHECK(id < state_.size());
  state_[id].pending = true;
  refresh(id);
  ++raised_count_;
  update_line();
}

bool Gic::is_pending(u32 id) const {
  MINOVA_CHECK(id < state_.size());
  return state_[id].pending;
}

void Gic::clear_pending(u32 id) {
  MINOVA_CHECK(id < state_.size());
  state_[id].pending = false;
  refresh(id);
  update_line();
}

void Gic::set_target_mask(u32 id, u8 mask) {
  MINOVA_CHECK(id < state_.size());
  state_[id].targets = mask;
  update_line();
}

u8 Gic::target_mask(u32 id) const {
  MINOVA_CHECK(id < state_.size());
  return state_[id].targets;
}

void Gic::refresh(u32 id) {
  const IrqState& s = state_[id];
  const u64 bit = u64(1) << (id % 64);
  if (s.enabled && s.pending && !s.active)
    candidates_[id / 64] |= bit;
  else
    candidates_[id / 64] &= ~bit;
}

// Visits candidates in ascending ID order and keeps the first strictly best
// priority, so ties go to the lowest ID exactly as a full scan would.
int Gic::highest_pending(u8 cpu_mask) const {
  int best = -1;
  u8 best_prio = priority_mask_;
  for (u32 w = 0; w < candidates_.size(); ++w) {
    for (u64 bits = candidates_[w]; bits != 0; bits &= bits - 1) {
      const u32 i = w * 64 + u32(std::countr_zero(bits));
      const IrqState& s = state_[i];
      if ((s.targets & cpu_mask) == 0 || s.prio >= best_prio) continue;
      best = int(i);
      best_prio = s.prio;
    }
  }
  return best;
}

u32 Gic::acknowledge_for(u8 cpu_mask) {
  const int id = highest_pending(cpu_mask);
  if (id < 0) return kSpuriousIrq;
  IrqState& s = state_[u32(id)];
  s.pending = false;
  s.active = true;
  refresh(u32(id));
  ++acked_count_;
  update_line();
  return u32(id);
}

void Gic::eoi(u32 id) {
  MINOVA_CHECK(id < state_.size());
  state_[id].active = false;
  refresh(id);
  update_line();
}

void Gic::update_line() {
  u8 cpus = 0;
  for (u32 w = 0; w < candidates_.size(); ++w) {
    for (u64 bits = candidates_[w]; bits != 0; bits &= bits - 1) {
      const IrqState& s = state_[w * 64 + u32(std::countr_zero(bits))];
      if (s.prio < priority_mask_) cpus |= s.targets;
    }
  }
  const bool was = irq_asserted();
  asserted_cpus_ = cpus;
  if (irq_asserted() != was && irq_line_) irq_line_(irq_asserted());
}

}  // namespace minova::irq
