// StreamComputeGuest — a pure-computation workload for the SMP host-
// parallel engine (DESIGN.md §14).
//
// After boot, every step is compute-only by contract: the guest streams
// reads and writes over its own hardware-task data section, mixes the
// values into a running checksum and burns pipeline cycles, tracking its
// budget through `core_now()`. It never hypercalls, never touches the VFP
// or devices and never takes a fault — so `next_step_is_compute()` is true
// and the kernel may run its steps on host worker threads against the
// core's private lane. The checksum gives differential tests and the
// benchmark a guest-visible value that must be bit-identical at any host
// thread count.
#pragma once

#include "nova/guest_iface.hpp"
#include "util/types.hpp"

namespace minova::workloads {

struct StreamComputeConfig {
  u64 seed = 1;             // perturbs the stride/checksum start per guest
  u32 working_set_bytes = 16 * 1024;  // window into the data section
};

class StreamComputeGuest final : public nova::GuestOs {
 public:
  explicit StreamComputeGuest(StreamComputeConfig cfg = {});

  const char* guest_name() const override { return "stream-compute"; }
  void boot(nova::GuestContext& ctx) override;
  nova::StepExit step(nova::GuestContext& ctx, cycles_t budget) override;
  void on_virq(nova::GuestContext&, u32) override {}
  bool next_step_is_compute() const override { return booted_; }

  /// Order- and thread-count-invariant digest of everything the guest
  /// computed and observed (values read, positions visited).
  u64 checksum() const { return checksum_; }
  u64 steps() const { return steps_; }

 private:
  StreamComputeConfig cfg_;
  u64 checksum_;
  u64 pos_ = 0;
  bool booted_ = false;
  u64 steps_ = 0;
};

}  // namespace minova::workloads
