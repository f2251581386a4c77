// uC/OS-II-style real-time kernel (the guest OS of the paper's evaluation,
// §V.A).
//
// Faithful to the uC/OS-II model: up to 64 tasks with unique fixed
// priorities (0 = highest), strictly preemptive highest-priority-ready
// scheduling driven by a periodic tick, counting semaphores, single-slot
// mailboxes and message queues, and time delays. Task bodies are run-once
// work units: a blocking call (pend/delay) marks the task not-ready and the
// unit returns — the scheduling decisions and their costs match the real
// kernel at unit granularity.
//
// The kernel is environment-agnostic: it runs identically inside a
// paravirtualized Mini-NOVA guest (port_paravirt -> hypercalls) and
// natively on the platform (port_native -> direct access). The environment
// drives it through `tick()` and `run_one_unit()`.
#pragma once

#include <array>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "cpu/code_region.hpp"
#include "util/types.hpp"
#include "workloads/services.hpp"

namespace minova::ucos {

class Kernel;

inline constexpr u8 kMaxTasks = 64;
inline constexpr u8 kIdlePrio = kMaxTasks - 1;  // OS idle task

/// Handle to kernel objects.
using SemId = u32;
using MboxId = u32;
using QueueId = u32;

/// Per-unit context handed to task bodies. Blocking calls take effect when
/// the unit returns (uC/OS-II would context-switch inside the call; at unit
/// granularity the next `run_one_unit` simply picks the new highest-ready).
class TaskCtx {
 public:
  TaskCtx(Kernel& os, workloads::Services& svc, u8 prio)
      : os_(os), svc_(svc), prio_(prio) {}

  workloads::Services& svc() { return svc_; }
  u8 priority() const { return prio_; }

  /// OSTimeDly: sleep for `ticks` timer ticks.
  void dly(u32 ticks);
  /// OSSemPend with zero timeout semantics: returns true when the count was
  /// available; otherwise blocks the task and returns false.
  bool sem_pend(SemId sem);
  void sem_post(SemId sem);
  /// OSMboxPend: receive into `out`; blocks (returns false) when empty.
  bool mbox_pend(MboxId mbox, u32& out);
  bool mbox_post(MboxId mbox, u32 msg);  // false when full (slot occupied)
  bool q_pend(QueueId q, u32& out);
  bool q_post(QueueId q, u32 msg);

 private:
  Kernel& os_;
  workloads::Services& svc_;
  u8 prio_;
};

using TaskFn = std::function<void(TaskCtx&)>;

struct KernelStats {
  u64 ticks = 0;
  u64 context_switches = 0;
  u64 units_run = 0;
  u64 sem_posts = 0;
  u64 sem_pends_blocked = 0;
};

class Kernel {
 public:
  /// `code` lays the OS's own text into the hosting image so scheduler and
  /// tick handler fetches hit the I-cache realistically.
  Kernel(std::string name, cpu::CodeLayout& code);

  /// OSTaskCreate. Priority must be unused and < kIdlePrio.
  void create_task(std::string name, u8 prio, TaskFn fn);

  SemId sem_create(u32 initial);
  MboxId mbox_create();
  QueueId q_create(u32 capacity);

  /// ISR-safe post operations (used by interrupt handlers).
  void sem_post(SemId sem);
  bool mbox_post(MboxId mbox, u32 msg);

  /// OSTimeTick: advance delays, wake expired tasks. Charges the tick
  /// handler's footprint.
  void tick(workloads::Services& svc);

  /// Run one unit of the highest-priority ready task. Returns false when
  /// only the idle task is ready (the environment may sleep).
  bool run_one_unit(workloads::Services& svc);

  const KernelStats& stats() const { return stats_; }
  const std::string& name() const { return name_; }
  u64 tick_count() const { return stats_.ticks; }

 private:
  friend class TaskCtx;

  enum class TaskState : u8 { kUnused, kReady, kDelayed, kPendSem, kPendMbox,
                              kPendQueue };

  struct Tcb {
    std::string name;
    TaskState state = TaskState::kUnused;
    u32 delay = 0;
    u32 wait_obj = 0;  // sem/mbox/queue id while pending
    TaskFn fn;
  };

  struct Sem {
    u32 count = 0;
  };
  struct Mbox {
    bool full = false;
    u32 msg = 0;
  };
  struct Queue {
    u32 capacity;
    std::deque<u32> msgs;
  };

  void make_ready(u8 prio);
  int highest_ready() const;
  void wake_pending_on(TaskState kind, u32 obj);

  std::string name_;
  std::array<Tcb, kMaxTasks> tcbs_;
  std::vector<Sem> sems_;
  std::vector<Mbox> mboxes_;
  std::vector<Queue> queues_;
  int last_ran_ = -1;
  KernelStats stats_;

  cpu::CodeRegion rg_sched_, rg_tick_, rg_switch_, rg_services_;
};

}  // namespace minova::ucos
