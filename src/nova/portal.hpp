// Capability portals: the PD's exception-dispatch table (paper §III.C).
//
// Every hypercall number resolves through the caller's portal table to a
// `Portal`: the handler function and whether the caller is denied it. The
// gate charges the kernel text region indexed by the hypercall number. One
// table is built per capability set and shared by every PD holding that
// set, so authorization at the hypercall gate is a single table lookup (the
// denied bit is precomputed) instead of ad-hoc `has_cap` checks scattered
// through handler bodies, and every denial is counted uniformly in
// `kernel.portal_denied`.
//
// Handlers receive a narrow `KernelOps&` window onto the kernel rather
// than friend access to the whole `Kernel` object; they live in the
// cohesive units hc_mem.cpp / hc_irq.cpp / hc_io.cpp / hc_hwtask.cpp.
#pragma once

#include <array>

#include "nova/hypercall.hpp"
#include "util/types.hpp"

namespace minova::nova {

class KernelOps;
class ProtectionDomain;

/// Handler text-footprint class: selects which configured code size the
/// kernel places for the portal's cost region at boot.
enum class PortalCost : u8 {
  kSmall = 0,  // register/IRQ/cache one-liners
  kMm,         // memory-management handlers
  kHw,         // hardware-task request path
};

struct Portal {
  using Handler = HypercallResult (*)(KernelOps&, ProtectionDomain&,
                                      const HypercallArgs&);
  Handler handler = nullptr;
  /// Precomputed at table build: the owning PD lacks a required capability;
  /// the gate rejects the call with kDenied without invoking the handler.
  bool denied = false;
};

/// Immutable dispatch table, one portal per hypercall number. Every PD with
/// the same capability set shares one table.
class PortalTable {
 public:
  /// Build the table for a PD holding `caps` (a PdCaps mask): installs the
  /// handler for every hypercall and precomputes each portal's denied bit.
  static PortalTable build(u32 caps);
  /// The process-wide table for `caps`, built on first use: one per
  /// capability mask, so creating a PD copies no table.
  static const PortalTable& for_caps(u32 caps);

  const Portal& operator[](Hypercall h) const { return portals_[u32(h)]; }
  const Portal& at(u32 number) const { return portals_[number]; }

 private:
  std::array<Portal, kNumHypercalls> portals_{};
};

/// Text-footprint class of a hypercall's handler (drives the boot-time
/// code-layout placement; identical for every PD).
PortalCost portal_cost_class(Hypercall h);

/// Capability mask a caller must hold to traverse the portal for `h`.
u32 portal_required_caps(Hypercall h);

}  // namespace minova::nova
