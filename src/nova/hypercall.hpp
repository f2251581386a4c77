// Mini-NOVA hypercall ABI.
//
// The paper states Mini-NOVA provides exactly 25 hypercalls to
// paravirtualized operating systems (§V.B), grouped as in §III.A:
// (1) general cache/TLB operations, (2) IRQ operations, (3) memory
// management, (4) privileged-register access, (5) shared-device access
// (DMA, FPGA, I/O), (6) inter-VM communication. Arguments travel in
// r0-r3 like a real SVC-based ABI; the hypercall number rides in r12.
#pragma once

#include <array>

#include "util/types.hpp"

namespace minova::nova {

enum class Hypercall : u8 {
  // -- (1) cache / TLB operations --
  kCacheFlushAll = 0,
  kCacheCleanRange,
  kIcacheInvalidate,
  kTlbFlushAll,
  kTlbFlushVa,
  // -- (2) IRQ operations --
  kIrqEnable,
  kIrqDisable,
  kIrqComplete,
  kIrqSetEntry,
  // -- (3) memory management --
  kMapInsert,
  kMapRemove,
  kPtCreate,
  kMemProtect,
  kSetGuestMode,
  // -- (4) privileged register access --
  kRegRead,
  kRegWrite,
  kVtimerConfig,
  // -- (5) shared devices --
  kUartWrite,
  kSdTransfer,
  kDmaRequest,
  kHwTaskRequest,
  kHwTaskRelease,
  kHwTaskQuery,
  // -- (6) inter-VM communication --
  kIvcSend,
  kIvcRecv,

  kCount,
};

inline constexpr u32 kNumHypercalls = u32(Hypercall::kCount);
static_assert(kNumHypercalls == 25, "paper specifies 25 hypercalls");

constexpr const char* hypercall_name(Hypercall h) {
  switch (h) {
    case Hypercall::kCacheFlushAll: return "cache_flush_all";
    case Hypercall::kCacheCleanRange: return "cache_clean_range";
    case Hypercall::kIcacheInvalidate: return "icache_invalidate";
    case Hypercall::kTlbFlushAll: return "tlb_flush_all";
    case Hypercall::kTlbFlushVa: return "tlb_flush_va";
    case Hypercall::kIrqEnable: return "irq_enable";
    case Hypercall::kIrqDisable: return "irq_disable";
    case Hypercall::kIrqComplete: return "irq_complete";
    case Hypercall::kIrqSetEntry: return "irq_set_entry";
    case Hypercall::kMapInsert: return "map_insert";
    case Hypercall::kMapRemove: return "map_remove";
    case Hypercall::kPtCreate: return "pt_create";
    case Hypercall::kMemProtect: return "mem_protect";
    case Hypercall::kSetGuestMode: return "set_guest_mode";
    case Hypercall::kRegRead: return "reg_read";
    case Hypercall::kRegWrite: return "reg_write";
    case Hypercall::kVtimerConfig: return "vtimer_config";
    case Hypercall::kUartWrite: return "uart_write";
    case Hypercall::kSdTransfer: return "sd_transfer";
    case Hypercall::kDmaRequest: return "dma_request";
    case Hypercall::kHwTaskRequest: return "hwtask_request";
    case Hypercall::kHwTaskRelease: return "hwtask_release";
    case Hypercall::kHwTaskQuery: return "hwtask_query";
    case Hypercall::kIvcSend: return "ivc_send";
    case Hypercall::kIvcRecv: return "ivc_recv";
    case Hypercall::kCount: break;
  }
  return "?";
}

/// Hypercall status codes returned in r0 (negative values are errors).
enum class HcStatus : i32 {
  kSuccess = 0,
  /// Hardware task was dispatched but a PCAP reconfiguration is in flight;
  /// poll or wait for the PCAP completion IRQ (paper §IV.E stage 6).
  kReconfig = 1,
  /// No idle compatible PRR: try again later (§IV.E stage 2).
  kBusy = 2,
  /// Transient kernel-path failure (EAGAIN): nothing was dispatched; the
  /// caller may simply reissue the same hypercall.
  kAgain = 3,

  kInvalidArg = -1,
  kDenied = -2,
  kNotFound = -3,
  kNoMemory = -4,
  kNotSupported = -5,
  /// IVC: the channel's other endpoint was destroyed (a hangup virq was
  /// latched when it died). Queued messages remain drainable via kIvcRecv;
  /// sends fail with this status until a supervisor restart re-binds the
  /// peer (DESIGN.md §16).
  kPeerDead = -6,
};

// kHwTaskQuery(0) reconfiguration-state results (returned in r1).
inline constexpr u32 kReconfigInFlight = 0;  // PCAP transfer/retries pending
inline constexpr u32 kReconfigReady = 1;     // task configured, region usable
inline constexpr u32 kReconfigFallback = 2;  // retries exhausted: run in SW
inline constexpr u32 kReconfigQueued = 3;    // parked on the PRR wait queue

// kHwTaskRequest grant flags (returned in r1 on kSuccess).
inline constexpr u32 kHwGrantReady = 0;      // task already resident
inline constexpr u32 kHwGrantReconfig = 1;   // PCAP reconfiguration launched
inline constexpr u32 kHwGrantSoftware = 2;   // no usable PRR: run in SW
inline constexpr u32 kHwGrantQueued = 3;     // admission-queued: poll query(0)

// kHwTaskQuery sub-operations (selected by r0). The 25-hypercall ABI is
// frozen (§V.B), so scheduler control rides on the existing query call.
inline constexpr u32 kHwQueryReconfig = 0;  // poll reconfig/queue state
inline constexpr u32 kHwQuerySetPrio = 1;   // set hw-task priority (r1)
inline constexpr u32 kHwQueryQuota = 2;     // r1 = (quota << 16) | in_use

// kRegRead(kSvcHealthQuery, target) — supervisor health query (the frozen
// 25-hypercall ABI means supervisor introspection rides the existing
// register-read call, like the kHwQuery* sub-ops above). r1 selects the
// target PdId (kSvcHealthSelf = the caller). Returns kNotSupported when no
// supervisor is configured, kNotFound for an unwatched PD; on success r1
// carries the packed health word below.
inline constexpr u32 kSvcHealthQuery = 0x48454C54u;  // 'HELT'
inline constexpr u32 kSvcHealthSelf = 0xFFFF'FFFFu;
// Packed health reply: [31:28] VmHealth, [27:20] incarnation (saturated),
// [19:16] restarts_in_window (saturated), [15:0] forwarded faults
// (saturated).
constexpr u32 pack_vm_health(u32 health, u32 incarnation, u32 in_window,
                             u32 faults) {
  return (health << 28) | ((incarnation > 0xFFu ? 0xFFu : incarnation) << 20) |
         ((in_window > 0xFu ? 0xFu : in_window) << 16) |
         (faults > 0xFFFFu ? 0xFFFFu : faults);
}

struct HypercallArgs {
  Hypercall number = Hypercall::kCount;
  std::array<u32, 4> r{};  // r0-r3
};

struct HypercallResult {
  HcStatus status = HcStatus::kSuccess;
  u32 r1 = 0;  // secondary return value

  bool ok() const { return i32(status) >= 0; }
};

}  // namespace minova::nova
