// uC/OS-II-style real-time kernel (the guest OS of the paper's evaluation,
// §V.A).
//
// The part of the uC/OS-II model the guests use: up to 64 tasks with unique
// fixed priorities (0 = highest), strictly preemptive highest-priority-ready
// scheduling driven by a periodic tick, and time delays. Task bodies are
// run-once work units: a delay marks the task not-ready and the unit
// returns — the scheduling decisions and their costs match the real kernel
// at unit granularity. The guests' tasks never communicate, so the model
// has no semaphores, mailboxes or queues; it still lays out the text of
// those OS services, which shapes every guest image's I-cache footprint.
//
// The kernel is environment-agnostic: it runs identically inside a
// paravirtualized Mini-NOVA guest (port_paravirt -> hypercalls) and
// natively on the platform (port_native -> direct access). The environment
// drives it through `tick()` and `run_one_unit()`.
#pragma once

#include <array>
#include <functional>
#include <string>

#include "cpu/code_region.hpp"
#include "util/types.hpp"
#include "workloads/services.hpp"

namespace minova::ucos {

class Kernel;

inline constexpr u8 kMaxTasks = 64;
inline constexpr u8 kIdlePrio = kMaxTasks - 1;  // OS idle task

/// Per-unit context handed to task bodies. A delay takes effect when the
/// unit returns (uC/OS-II would context-switch inside the call; at unit
/// granularity the next `run_one_unit` simply picks the new highest-ready).
class TaskCtx {
 public:
  TaskCtx(Kernel& os, workloads::Services& svc, u8 prio)
      : os_(os), svc_(svc), prio_(prio) {}

  workloads::Services& svc() { return svc_; }
  u8 priority() const { return prio_; }

  /// OSTimeDly: sleep for `ticks` timer ticks.
  void dly(u32 ticks);

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
};

class Kernel {
 public:
  /// `code` lays the OS's own text into the hosting image so scheduler and
  /// tick handler fetches hit the I-cache realistically.
  Kernel(std::string name, cpu::CodeLayout& code);

  /// OSTaskCreate. Priority must be unused and < kIdlePrio.
  void create_task(std::string name, u8 prio, TaskFn fn);

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

  enum class TaskState : u8 { kUnused, kReady, kDelayed };

  struct Tcb {
    std::string name;
    TaskState state = TaskState::kUnused;
    u32 delay = 0;
    TaskFn fn;
  };

  int highest_ready() const;

  std::string name_;
  std::array<Tcb, kMaxTasks> tcbs_;
  int last_ran_ = -1;
  KernelStats stats_;

  cpu::CodeRegion rg_sched_, rg_tick_, rg_switch_;
};

}  // namespace minova::ucos
