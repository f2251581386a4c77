#include "nova/sched.hpp"

#include <atomic>

#include "util/assert.hpp"

namespace minova::nova {

// All queue mutations are O(1): every queue is an intrusive doubly-linked
// list threaded through the PDs themselves (`sched_prev`/`sched_next`), and
// each PD carries membership flags, so membership tests and removals need
// no scans — a hard requirement once thousands of VMs churn through the
// run queue. The `nonempty_` bitmap takes the highest non-empty level in
// one instruction. FIFO order within a level is that of the original
// list-scan implementation.

namespace {

void link_back(Scheduler::Queue& q, ProtectionDomain* pd) {
  pd->sched_prev = q.tail;
  pd->sched_next = nullptr;
  if (q.tail != nullptr)
    q.tail->sched_next = pd;
  else
    q.head = pd;
  q.tail = pd;
}

void unlink(Scheduler::Queue& q, ProtectionDomain* pd) {
  if (pd->sched_prev != nullptr)
    pd->sched_prev->sched_next = pd->sched_next;
  else
    q.head = pd->sched_next;
  if (pd->sched_next != nullptr)
    pd->sched_next->sched_prev = pd->sched_prev;
  else
    q.tail = pd->sched_prev;
  pd->sched_prev = pd->sched_next = nullptr;
}

}  // namespace

u64 Scheduler::next_stamp() {
  // Kernels are built on any host thread (run_all's claim pool, the
  // parallel-construction test): the counter must be atomic.
  static std::atomic<u64> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

// Claim the PD's membership bookkeeping for this scheduler instance; flags
// left behind by another (destroyed) scheduler are stale, and its links are
// rewritten when the PD is next queued. A PD leaving a *live* scheduler
// goes through take() first, so no live queue still points at it.
void Scheduler::adopt(ProtectionDomain* pd) const {
  if (pd->sched_owner != stamp_) {
    pd->sched_owner = stamp_;
    pd->in_run_queue = false;
    pd->in_suspended = false;
  }
}

void Scheduler::detach(ProtectionDomain* pd) {
  if (pd->in_run_queue) {
    const u32 p = pd->priority();
    unlink(levels_[p], pd);
    if (levels_[p].head == nullptr) nonempty_ &= ~(1u << p);
    pd->in_run_queue = false;
  } else if (pd->in_suspended) {
    unlink(suspended_, pd);
    pd->in_suspended = false;
  }
}

void Scheduler::push_level(ProtectionDomain* pd) {
  const u32 p = pd->priority();
  link_back(levels_[p], pd);
  nonempty_ |= 1u << p;
  pd->in_run_queue = true;
}

void Scheduler::enqueue(ProtectionDomain* pd) {
  MINOVA_CHECK(pd != nullptr);
  MINOVA_CHECK(pd->priority() < kNumPriorities);
  adopt(pd);
  if (pd->in_run_queue) return;
  detach(pd);
  if (pd->quantum_left == 0) pd->quantum_left = default_quantum_;
  push_level(pd);
  pd->set_state(PdState::kReady);
}

void Scheduler::suspend(ProtectionDomain* pd) {
  MINOVA_CHECK(pd != nullptr);
  adopt(pd);
  if (!pd->in_suspended) {
    detach(pd);
    link_back(suspended_, pd);
    pd->in_suspended = true;
  }
  pd->set_state(PdState::kSuspended);
}

void Scheduler::remove(ProtectionDomain* pd) {
  take(pd);
  pd->set_state(PdState::kHalted);
}

void Scheduler::take(ProtectionDomain* pd) {
  MINOVA_CHECK(pd != nullptr);
  adopt(pd);
  detach(pd);
}

void Scheduler::rotate(ProtectionDomain* pd) {
  MINOVA_CHECK(pd != nullptr);
  if (is_runnable(pd) && levels_[pd->priority()].head == pd) {
    detach(pd);
    push_level(pd);
  }
  pd->quantum_left = default_quantum_;
}

bool Scheduler::is_runnable(const ProtectionDomain* pd) const {
  return pd->sched_owner == stamp_ && pd->in_run_queue;
}

bool Scheduler::is_suspended(const ProtectionDomain* pd) const {
  return pd->sched_owner == stamp_ && pd->in_suspended;
}

std::size_t Scheduler::runnable_count() const {
  std::size_t n = 0;
  for (const Queue& q : levels_)
    for (const ProtectionDomain* pd = q.head; pd; pd = pd->sched_next) ++n;
  return n;
}

}  // namespace minova::nova
