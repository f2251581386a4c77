// Native hardware-task allocator — the baseline of Table III.
//
// The paper's native measurement implements the hardware task management
// service "as a uCOS-II function": same table lookups, PRR selection,
// hwMMU programming and PCAP launches as the Mini-NOVA manager service,
// but called directly (no hypercall, no memory-space switch) and with no
// page-table updates, since all tasks execute in one unified memory space.
#pragma once

#include <vector>

#include "core/platform.hpp"
#include "hwmgr/manager.hpp"
#include "sim/stats.hpp"
#include "workloads/services.hpp"

namespace minova::hwmgr {

struct NativeGrant {
  workloads::HwReqStatus status = workloads::HwReqStatus::kError;
  u32 prr = 0;         // granted region (valid on kGranted*)
  u32 pl_irq = 0;      // GIC SPI of the completion interrupt
};

class NativeAllocator {
 public:
  /// `code` places the allocator's text in the native image. It charges
  /// the virtualized manager's instruction-count model — the allocation
  /// work is identical; only the virtualization plumbing (hypercall, space
  /// switch, page-table updates) disappears.
  NativeAllocator(Platform& platform, cpu::CodeLayout& code);

  /// One allocation (the native equivalent of §IV.E stages 2/4/5): selects
  /// a PRR, programs the hwMMU window, launches PCAP when the task is not
  /// resident. Duration is recorded into `exec_us` ("HW Manager execution",
  /// Table III native column).
  NativeGrant request(u32 task_id, paddr_t data_pa, u32 data_size);

  bool release(u32 task_id);

  sim::LatencyStat& exec_us() { return exec_us_; }
  u64 pcap_launches() const { return pcap_launches_; }

 private:
  struct Entry {
    u32 task = 0;
    bool owned = false;
    u32 irq_index = 0xFFFF'FFFFu;
  };

  void touch_tables(u32 task);
  u32 ensure_irq(u32 prr);

  Platform& platform_;
  std::vector<Entry> prr_table_;
  cpu::CodeRegion rg_alloc_, rg_tables_;
  paddr_t table_pa_;  // allocator tables live in native memory
  sim::LatencyStat exec_us_;
  u64 pcap_launches_ = 0;
};

}  // namespace minova::hwmgr
