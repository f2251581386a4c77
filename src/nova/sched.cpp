#include "nova/sched.hpp"

#include "util/assert.hpp"

namespace minova::nova {

// All queue mutations are O(1): each PD carries its own list iterator
// (`sched_it`) plus membership flags, so membership tests and removals need
// no scans — a hard requirement once thousands of VMs churn through the
// run queue. FIFO order within a level is unchanged from the list-scan
// implementation.

u64 Scheduler::next_stamp() {
  static u64 counter = 0;
  return ++counter;
}

// Claim the PD's membership bookkeeping for this scheduler instance; flags
// left behind by another (possibly destroyed) scheduler are stale.
void Scheduler::adopt(ProtectionDomain* pd) const {
  if (pd->sched_owner != stamp_) {
    pd->sched_owner = stamp_;
    pd->in_run_queue = false;
    pd->in_suspended = false;
  }
}

void Scheduler::enqueue(ProtectionDomain* pd) {
  MINOVA_CHECK(pd != nullptr);
  MINOVA_CHECK(pd->priority() < kNumPriorities);
  adopt(pd);
  if (pd->in_run_queue) return;
  if (pd->in_suspended) {
    suspended_.erase(pd->sched_it);
    pd->in_suspended = false;
  }
  if (pd->quantum_left == 0) pd->quantum_left = default_quantum_;
  auto& lvl = level(pd->priority());
  pd->sched_it = lvl.insert(lvl.end(), pd);
  pd->in_run_queue = true;
  pd->set_state(PdState::kReady);
}

void Scheduler::suspend(ProtectionDomain* pd) {
  MINOVA_CHECK(pd != nullptr);
  adopt(pd);
  if (pd->in_run_queue) {
    level(pd->priority()).erase(pd->sched_it);
    pd->in_run_queue = false;
  }
  if (!pd->in_suspended) {
    pd->sched_it = suspended_.insert(suspended_.end(), pd);
    pd->in_suspended = true;
  }
  pd->set_state(PdState::kSuspended);
}

void Scheduler::remove(ProtectionDomain* pd) {
  MINOVA_CHECK(pd != nullptr);
  adopt(pd);
  if (pd->in_run_queue) {
    level(pd->priority()).erase(pd->sched_it);
    pd->in_run_queue = false;
  }
  if (pd->in_suspended) {
    suspended_.erase(pd->sched_it);
    pd->in_suspended = false;
  }
  pd->set_state(PdState::kHalted);
}

void Scheduler::take(ProtectionDomain* pd) {
  MINOVA_CHECK(pd != nullptr);
  adopt(pd);
  if (pd->in_run_queue) {
    level(pd->priority()).erase(pd->sched_it);
    pd->in_run_queue = false;
  }
  if (pd->in_suspended) {
    suspended_.erase(pd->sched_it);
    pd->in_suspended = false;
  }
}

ProtectionDomain* Scheduler::pick() {
  for (u32 p = kNumPriorities; p-- > 0;) {
    if (!levels_[p].empty()) return levels_[p].front();
  }
  return nullptr;
}

void Scheduler::rotate(ProtectionDomain* pd) {
  MINOVA_CHECK(pd != nullptr);
  auto& lvl = level(pd->priority());
  if (pd->sched_owner == stamp_ && pd->in_run_queue && lvl.front() == pd) {
    lvl.pop_front();
    pd->sched_it = lvl.insert(lvl.end(), pd);
  }
  pd->quantum_left = default_quantum_;
}

bool Scheduler::is_runnable(const ProtectionDomain* pd) const {
  return pd->sched_owner == stamp_ && pd->in_run_queue;
}

bool Scheduler::is_suspended(const ProtectionDomain* pd) const {
  return pd->sched_owner == stamp_ && pd->in_suspended;
}

bool Scheduler::higher_priority_ready(const ProtectionDomain* pd) {
  for (u32 p = kNumPriorities; p-- > pd->priority() + 1;) {
    if (!levels_[p].empty()) return true;
  }
  return false;
}

std::size_t Scheduler::runnable_count() const {
  std::size_t n = 0;
  for (const auto& l : levels_) n += l.size();
  return n;
}

}  // namespace minova::nova
