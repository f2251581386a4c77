#include "ucos/kernel.hpp"

#include "util/assert.hpp"

namespace minova::ucos {

// ---- TaskCtx ----------------------------------------------------------------

void TaskCtx::dly(u32 ticks) {
  auto& tcb = os_.tcbs_[prio_];
  tcb.state = Kernel::TaskState::kDelayed;
  tcb.delay = ticks == 0 ? 1 : ticks;
  svc_.spend_insns(30);
}

bool TaskCtx::sem_pend(SemId sem) {
  MINOVA_CHECK(sem < os_.sems_.size());
  svc_.exec(os_.rg_services_, 0.5);
  if (os_.sems_[sem].count > 0) {
    --os_.sems_[sem].count;
    return true;
  }
  auto& tcb = os_.tcbs_[prio_];
  tcb.state = Kernel::TaskState::kPendSem;
  tcb.wait_obj = sem;
  ++os_.stats_.sem_pends_blocked;
  return false;
}

void TaskCtx::sem_post(SemId sem) { os_.sem_post(sem); }

bool TaskCtx::mbox_pend(MboxId mbox, u32& out) {
  MINOVA_CHECK(mbox < os_.mboxes_.size());
  svc_.exec(os_.rg_services_, 0.5);
  auto& mb = os_.mboxes_[mbox];
  if (mb.full) {
    out = mb.msg;
    mb.full = false;
    return true;
  }
  auto& tcb = os_.tcbs_[prio_];
  tcb.state = Kernel::TaskState::kPendMbox;
  tcb.wait_obj = mbox;
  return false;
}

bool TaskCtx::mbox_post(MboxId mbox, u32 msg) { return os_.mbox_post(mbox, msg); }

bool TaskCtx::q_pend(QueueId q, u32& out) {
  MINOVA_CHECK(q < os_.queues_.size());
  svc_.exec(os_.rg_services_, 0.5);
  auto& qq = os_.queues_[q];
  if (!qq.msgs.empty()) {
    out = qq.msgs.front();
    qq.msgs.pop_front();
    return true;
  }
  auto& tcb = os_.tcbs_[prio_];
  tcb.state = Kernel::TaskState::kPendQueue;
  tcb.wait_obj = q;
  return false;
}

bool TaskCtx::q_post(QueueId q, u32 msg) {
  MINOVA_CHECK(q < os_.queues_.size());
  auto& qq = os_.queues_[q];
  if (qq.msgs.size() >= qq.capacity) return false;
  qq.msgs.push_back(msg);
  os_.wake_pending_on(Kernel::TaskState::kPendQueue, q);
  return true;
}

// ---- Kernel -----------------------------------------------------------------

Kernel::Kernel(std::string name, cpu::CodeLayout& code)
    : name_(std::move(name)) {
  rg_sched_ = code.place(256);
  rg_tick_ = code.place(192);
  rg_switch_ = code.place(224);
  rg_services_ = code.place(288);
  // The OS idle task exists implicitly: run_one_unit returns false when it
  // would be the only runnable task.
}

void Kernel::create_task(std::string name, u8 prio, TaskFn fn) {
  MINOVA_CHECK(prio < kIdlePrio);
  MINOVA_CHECK_MSG(tcbs_[prio].state == TaskState::kUnused,
                   "priority already in use (uC/OS-II: unique per task)");
  tcbs_[prio] =
      Tcb{std::move(name), TaskState::kReady, 0, 0, std::move(fn)};
}

SemId Kernel::sem_create(u32 initial) {
  sems_.push_back(Sem{initial});
  return SemId(sems_.size() - 1);
}

MboxId Kernel::mbox_create() {
  mboxes_.push_back(Mbox{});
  return MboxId(mboxes_.size() - 1);
}

QueueId Kernel::q_create(u32 capacity) {
  queues_.push_back(Queue{capacity, {}});
  return QueueId(queues_.size() - 1);
}

void Kernel::make_ready(u8 prio) {
  tcbs_[prio].state = TaskState::kReady;
  tcbs_[prio].delay = 0;
}

void Kernel::wake_pending_on(TaskState kind, u32 obj) {
  // Highest-priority pender wins (uC/OS-II wakes one task per post).
  for (u8 p = 0; p < kIdlePrio; ++p) {
    if (tcbs_[p].state == kind && tcbs_[p].wait_obj == obj) {
      make_ready(p);
      return;
    }
  }
}

void Kernel::sem_post(SemId sem) {
  MINOVA_CHECK(sem < sems_.size());
  ++stats_.sem_posts;
  // Accumulate the count, then wake the highest-priority pender (its re-run
  // of OSSemPend consumes the count — the handoff of the real kernel at
  // unit granularity).
  ++sems_[sem].count;
  for (u8 p = 0; p < kIdlePrio; ++p) {
    if (tcbs_[p].state == TaskState::kPendSem && tcbs_[p].wait_obj == sem) {
      make_ready(p);
      return;
    }
  }
}

bool Kernel::mbox_post(MboxId mbox, u32 msg) {
  MINOVA_CHECK(mbox < mboxes_.size());
  auto& mb = mboxes_[mbox];
  for (u8 p = 0; p < kIdlePrio; ++p) {
    if (tcbs_[p].state == TaskState::kPendMbox && tcbs_[p].wait_obj == mbox) {
      mb.msg = msg;  // delivered through the slot
      mb.full = true;
      make_ready(p);
      return true;
    }
  }
  if (mb.full) return false;
  mb.full = true;
  mb.msg = msg;
  return true;
}

void Kernel::tick(workloads::Services& svc) {
  svc.exec(rg_tick_);
  ++stats_.ticks;
  for (u8 p = 0; p < kIdlePrio; ++p) {
    if (tcbs_[p].state == TaskState::kDelayed && --tcbs_[p].delay == 0)
      make_ready(p);
  }
}

int Kernel::highest_ready() const {
  for (u8 p = 0; p < kIdlePrio; ++p)
    if (tcbs_[p].state == TaskState::kReady) return p;
  return -1;
}

bool Kernel::run_one_unit(workloads::Services& svc) {
  svc.exec(rg_sched_, 0.5);
  const int p = highest_ready();
  if (p < 0) return false;  // only the idle task: environment may sleep
  if (p != last_ran_) {
    svc.exec(rg_switch_);
    svc.spend_insns(90);  // register save/restore of the outgoing task
    ++stats_.context_switches;
    last_ran_ = p;
  }
  TaskCtx ctx(*this, svc, u8(p));
  tcbs_[p].fn(ctx);
  ++stats_.units_run;
  return true;
}

}  // namespace minova::ucos
