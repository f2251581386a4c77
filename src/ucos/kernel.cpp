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

// ---- Kernel -----------------------------------------------------------------

Kernel::Kernel(std::string name, cpu::CodeLayout& code)
    : name_(std::move(name)) {
  rg_sched_ = code.place(256);
  rg_tick_ = code.place(192);
  rg_switch_ = code.place(224);
  // The OS services (semaphore, mailbox, queue) text is never fetched, but
  // it stays in the image: every later region's I-cache sets depend on it.
  code.place(288);
  // The OS idle task exists implicitly: run_one_unit returns false when it
  // would be the only runnable task.
}

void Kernel::create_task(std::string name, u8 prio, TaskFn fn) {
  MINOVA_CHECK(prio < kIdlePrio);
  MINOVA_CHECK_MSG(tcbs_[prio].state == TaskState::kUnused,
                   "priority already in use (uC/OS-II: unique per task)");
  tcbs_[prio] = Tcb{std::move(name), TaskState::kReady, 0, std::move(fn)};
}

void Kernel::tick(workloads::Services& svc) {
  svc.exec(rg_tick_);
  ++stats_.ticks;
  for (u8 p = 0; p < kIdlePrio; ++p) {
    if (tcbs_[p].state == TaskState::kDelayed && --tcbs_[p].delay == 0)
      tcbs_[p].state = TaskState::kReady;
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
