// Shared-device hypercall handlers (§III.A item 5 + 6): supervised UART
// output, SD block transfer, PS DMA copies and inter-VM communication.
#include <algorithm>
#include <array>
#include <vector>

#include "core/platform.hpp"
#include "nova/handlers.hpp"
#include "nova/ivc.hpp"
#include "nova/kernel.hpp"

namespace minova::nova::hc {

HypercallResult uart_write(KernelOps& ops, ProtectionDomain&,
                           const HypercallArgs& args) {
  // Shared-device supervision (§III.A item 5): the kernel owns the UART
  // and serializes guest output through it.
  HypercallResult res;
  auto& core = ops.core();
  u32 status = 0;
  (void)ops.platform().bus().read32(mem::kUart0Base + 0x0C, status);
  core.spend(core.caches().access_device());
  if (status & 1u /*TXFULL*/) {
    res.status = HcStatus::kBusy;
    return res;
  }
  (void)ops.platform().bus().write32(mem::kUart0Base + 0x10,
                                     args.r[1] & 0xFF);
  core.spend(core.caches().access_device());
  return res;
}

HypercallResult sd_transfer(KernelOps& ops, ProtectionDomain& caller,
                            const HypercallArgs& args) {
  // 512-byte block to/from the guest at SD-card speed (~25 MB/s).
  HypercallResult res;
  std::vector<u8>& sd = ops.sd_image();
  if (sd.empty()) sd.resize(2 * kMiB, 0);
  const u32 block = args.r[1];
  if (u64(block) * 512 + 512 > sd.size()) {
    res.status = HcStatus::kInvalidArg;
    return res;
  }
  std::array<u8, 512> buf{};
  GuestContext ctx = ops.make_ctx(caller);
  if (args.r[0] == 0) {  // read
    std::copy_n(sd.begin() + block * 512, 512, buf.begin());
    if (!ctx.write_block(args.r[2], buf).ok) res.status = HcStatus::kInvalidArg;
  } else {  // write
    if (!ctx.read_block(args.r[2], buf).ok) {
      res.status = HcStatus::kInvalidArg;
      return res;
    }
    std::copy_n(buf.begin(), 512, sd.begin() + block * 512);
  }
  ops.core().spend(13'000);  // 512 B at ~25 MB/s against 660 MHz
  return res;
}

HypercallResult dma_request(KernelOps& ops, ProtectionDomain&,
                            const HypercallArgs& args) {
  // PS DMA: guest-virtual to guest-virtual copy within the caller. The
  // handler runs under the host-kernel DACR, so a bare probe would happily
  // translate kernel VAs: reject any range touching them before probing.
  HypercallResult res;
  auto& core = ops.core();
  const vaddr_t dst = args.r[1];
  const vaddr_t src = args.r[2];
  const u32 len = args.r[3];
  if (len == 0 || len > kGuestUserSize || dst >= kKernelVa ||
      src >= kKernelVa || kKernelVa - dst < len || kKernelVa - src < len) {
    res.status = HcStatus::kInvalidArg;
    return res;
  }
  // Guest mappings are page-granular with no contiguity guarantee: walk
  // both ranges page-by-page and translate every page. The whole range is
  // validated before the first byte moves, so a hole mid-range fails the
  // request without a partial copy.
  struct Segment {
    paddr_t src_pa, dst_pa;
    u32 bytes;
  };
  std::vector<Segment> segments;
  for (u32 done = 0; done < len;) {
    const vaddr_t s = src + done;
    const vaddr_t d = dst + done;
    const u32 chunk = std::min(
        {len - done, u32(mmu::kPageSize - (s & (mmu::kPageSize - 1))),
         u32(mmu::kPageSize - (d & (mmu::kPageSize - 1)))});
    const auto st = core.probe(s, mmu::AccessKind::kRead);
    const auto dt = core.probe(d, mmu::AccessKind::kWrite);
    if (!st.ok() || !dt.ok()) {
      res.status = HcStatus::kInvalidArg;
      return res;
    }
    segments.push_back({st.pa, dt.pa, chunk});
    done += chunk;
  }
  std::vector<u8> tmp;
  auto& dram = ops.platform().dram();
  for (const Segment& seg : segments) {
    tmp.resize(seg.bytes);
    dram.read_block(seg.src_pa, tmp);
    dram.write_block(seg.dst_pa, tmp);
  }
  core.spend(300 + len / 4);  // DMA engine setup + streaming
  return res;
}

namespace {
HypercallResult ivc_transfer(KernelOps& ops, ProtectionDomain& caller,
                             const HypercallArgs& args, bool send) {
  HypercallResult res;
  IvcChannel* ch = ops.channel(args.r[0]);
  // A dead endpoint keeps its PdId on the channel until a supervisor
  // restart re-binds it; a recycled id matching it must not inherit the
  // membership — treat it as a stranger.
  if (ch == nullptr || !ch->connects(caller.id()) ||
      ch->endpoint_dead(caller.id())) {
    res.status = HcStatus::kNotFound;
    return res;
  }
  auto& core = ops.core();
  if (send) {
    if (ch->peer_dead(caller.id())) {
      // Peer-death semantics (DESIGN.md §16): the destroyed peer can never
      // drain the queue — fail the send instead of filling it. The hangup
      // virq was latched when the peer died.
      res.status = HcStatus::kPeerDead;
      return res;
    }
    if (!ch->send(core, caller.id(), {args.r[1], args.r[2]})) {
      res.status = HcStatus::kBusy;  // queue full
      return res;
    }
    if (ProtectionDomain* peer = ops.pd_by_id(ch->peer_of(caller.id())))
      peer->vgic().set_pending(ch->virq());
  } else {
    IvcMessage msg;
    if (!ch->recv(core, caller.id(), msg)) {
      // Empty queue: distinguish "peer is gone for good" from "nothing
      // yet". In-flight messages from a now-dead peer stay drainable above.
      res.status = ch->peer_dead(caller.id()) ? HcStatus::kPeerDead
                                              : HcStatus::kNotFound;
      return res;
    }
    res.r1 = msg.words.empty() ? 0 : msg.words[0];
  }
  return res;
}
}  // namespace

HypercallResult ivc_send(KernelOps& ops, ProtectionDomain& caller,
                         const HypercallArgs& args) {
  return ivc_transfer(ops, caller, args, /*send=*/true);
}

HypercallResult ivc_recv(KernelOps& ops, ProtectionDomain& caller,
                         const HypercallArgs& args) {
  return ivc_transfer(ops, caller, args, /*send=*/false);
}

}  // namespace minova::nova::hc
