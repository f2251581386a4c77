// Environment services a workload runs against.
//
// Workloads are written once and run in two worlds: inside a
// paravirtualized uC/OS-II guest (all sensitive operations become
// hypercalls) and natively on the platform (direct access). The `Services`
// interface is the seam: memory traffic, code-footprint execution, time,
// and the hardware-task client operations of §IV.E.
#pragma once

#include <span>

#include "cpu/code_region.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"

namespace minova::workloads {

/// Status of a hardware-task request as seen by the client.
enum class HwReqStatus : u8 {
  kGranted = 0,        // interface mapped, task resident
  kGrantedReconfig,    // interface mapped, PCAP transfer in flight
  kBusy,               // no PRR available: retry later
  kError,
  kSoftwareFallback,   // manager granted the task as a software run
};

/// Outcome of a pending reconfiguration, as the client sees it.
enum class ReconfigStatus : u8 {
  kInFlight = 0,  // transfer (or manager-side retries) still pending
  kReady,         // task configured; start the job
  kFailed,        // retries exhausted; run the software equivalent
};

class Services {
 public:
  virtual ~Services() = default;

  // ---- compute/memory model ----
  virtual void exec(const cpu::CodeRegion& region, double fraction = 1.0) = 0;
  virtual void spend_insns(u64 instructions) = 0;
  virtual bool read32(vaddr_t va, u32& out) = 0;
  virtual bool write32(vaddr_t va, u32 value) = 0;
  virtual bool read_block(vaddr_t va, std::span<u8> out) = 0;
  virtual bool write_block(vaddr_t va, std::span<const u8> in) = 0;
  virtual void use_vfp() {}

  virtual double now_us() = 0;

  // ---- hardware-task client (§IV.E) ----
  virtual HwReqStatus hw_request(u32 task_id, vaddr_t iface_va,
                                 vaddr_t data_va) = 0;
  virtual bool hw_release(u32 task_id) = 0;
  /// Outcome of a previously reported reconfiguration.
  virtual ReconfigStatus hw_reconfig_status() = 0;
  /// Consume a hardware-task completion notification (IRQ-driven): true
  /// once the accelerator's completion interrupt has been delivered since
  /// the last call.
  virtual bool hw_take_completion() = 0;

  // ---- layout facts the environment provides (boot parameters) ----
  virtual vaddr_t hw_iface_va() const = 0;
  virtual vaddr_t hw_data_va() const = 0;
  /// Bus (physical) address of the hardware task data section: what the
  /// client programs into the accelerator's DMA registers.
  virtual paddr_t hw_data_pa() const = 0;
  virtual u32 hw_data_size() const = 0;
};

}  // namespace minova::workloads
