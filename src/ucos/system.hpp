// Whole-system assembly: the paper's evaluation setup in one object
// (Fig. 8) — Mini-NOVA on the platform, the Hardware Task Manager service
// at elevated priority, and N paravirtualized uC/OS-II guests at equal
// priority sharing the CPU round-robin, each running GSM/ADPCM load plus
// the T_hw hardware-task requester.
#pragma once

#include <memory>
#include <vector>

#include "core/platform.hpp"
#include "hwmgr/manager.hpp"
#include "nova/kernel.hpp"
#include "ucos/guest.hpp"

namespace minova::ucos {

struct SystemConfig {
  u32 num_guests = 2;
  u64 seed = 42;
  PlatformConfig platform{};
  nova::KernelConfig kernel{};
  GuestConfig guest_template{};  // vm_index/seed are overridden per guest
};

class VirtualizedSystem {
 public:
  explicit VirtualizedSystem(const SystemConfig& cfg = {});

  void run_for_us(double us) { kernel_.run_for_us(us); }

  Platform& platform() { return platform_; }
  nova::Kernel& kernel() { return kernel_; }
  hwmgr::ManagerService& manager() { return manager_; }
  UcosGuest& guest(u32 i) { return *guests_.at(i); }
  u32 num_guests() const { return u32(guests_.size()); }

  /// Aggregated T_hw statistics across guests.
  workloads::ThwStats total_thw_stats() const;

 private:
  Platform platform_;
  nova::Kernel kernel_;
  hwmgr::ManagerService manager_;
  std::vector<UcosGuest*> guests_;  // owned by their protection domains
};

}  // namespace minova::ucos
