#include "pl/pcap.hpp"

#include "mem/address_map.hpp"
#include "sim/fault.hpp"

namespace minova::pl {

Pcap::Pcap(sim::Clock& clock, sim::EventQueue& events, irq::Gic& gic,
           PrrController& controller)
    : clock_(clock), events_(events), gic_(gic), controller_(controller) {}

u32 Pcap::mmio_read(u32 offset) {
  switch (offset) {
    case kPcapStatus: {
      u32 s = 0;
      if (busy_) s |= kPcapStatusBusy;
      if (done_) s |= kPcapStatusDone;
      if (error_) s |= kPcapStatusError;
      return s;
    }
    case kPcapSrcAddr: return src_addr_;
    case kPcapLen: return len_;
    case kPcapTarget: return target_;
    case kPcapTaskId: return task_id_;
    default: return 0;
  }
}

void Pcap::mmio_write(u32 offset, u32 value) {
  switch (offset) {
    case kPcapCtrl:
      if (value & 1u) start();
      break;
    case kPcapStatus:
      if (value & kPcapStatusDone) done_ = false;
      if (value & kPcapStatusError) error_ = false;
      break;
    case kPcapSrcAddr: src_addr_ = value; break;
    case kPcapLen: len_ = value; break;
    case kPcapTarget: target_ = value; break;
    case kPcapTaskId: task_id_ = value; break;
    default: break;
  }
}

void Pcap::start() {
  if (busy_ || len_ == 0 || target_ >= controller_.num_prrs()) {
    error_ = true;
    return;
  }
  if (controller_.prr(target_).busy) {
    // Refuse to reconfigure a region with a job in flight.
    error_ = true;
    return;
  }
  busy_ = true;
  done_ = false;
  error_ = false;
  if (fault_ != nullptr &&
      fault_->should_fail(sim::FaultSite::kPrrRegionBusy)) {
    // Static logic spuriously NAKs the handshake: the abort surfaces after
    // the DevC setup time, before any frame reaches the region.
    ++region_busy_errors_;
    events_.schedule_at(clock_.now() + kPcapSetupCycles,
                        [this] { fail(/*begun=*/false, "region-busy NAK"); });
    return;
  }
  controller_.begin_reconfigure(target_);
  log_.debug("PCAP transfer start: task %u -> PRR%u (%u bytes)", task_id_,
             target_, len_);
  cycles_t latency = transfer_cycles(len_);
  if (fault_ != nullptr && fault_->should_fail(sim::FaultSite::kPcapStall)) {
    ++stalls_;
    latency += fault_->stall_cycles();
  }
  events_.schedule_at(clock_.now() + latency, [this] { complete(); });
}

void Pcap::complete() {
  if (fault_ != nullptr) {
    // Both sites are probed in a fixed order every transfer so each stream
    // position stays a pure function of that site's own attempt index.
    const bool crc = fault_->should_fail(sim::FaultSite::kPcapCrc);
    const bool xfer = fault_->should_fail(sim::FaultSite::kPcapTransfer);
    if (crc || xfer) {
      if (crc) ++crc_errors_;
      if (xfer && !crc) ++transfer_errors_;
      fail(/*begun=*/true, crc ? "bitstream CRC mismatch" : "DMA abort");
      return;
    }
  }
  if (!controller_.load_task(target_, task_id_)) {
    // Reconfiguration timeout: the region stayed dark. No devcfg IRQ — the
    // manager's completion observer is the failure path.
    busy_ = false;
    done_ = false;
    error_ = true;
    if (observer_) observer_(target_, task_id_, false);
    return;
  }
  busy_ = false;
  done_ = true;
  ++transfers_completed_;
  gic_.raise(mem::kIrqDevcfg);
  if (observer_) observer_(target_, task_id_, true);
}

void Pcap::fail(bool begun, const char* why) {
  busy_ = false;
  done_ = false;
  error_ = true;
  log_.debug("PCAP transfer failed: task %u -> PRR%u (%s)", task_id_, target_,
             why);
  if (begun) controller_.abort_reconfigure(target_);
  if (observer_) observer_(target_, task_id_, false);
}

}  // namespace minova::pl
