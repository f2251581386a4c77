#include "pl/prr_controller.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <set>

#include "hwtask/qam_core.hpp"
#include "mem/address_map.hpp"
#include "pl/pcap.hpp"

namespace minova::pl {
namespace {

class PlTest : public ::testing::Test {
 protected:
  PlTest()
      : dram_(0, 32 * kMiB),
        library_(hwtask::TaskLibrary::paper_evaluation_set()),
        ctl_(clock_, events_, gic_, bus_, library_, /*num_prrs=*/4),
        pcap_(clock_, events_, gic_, ctl_) {
    bus_.add_ram(&dram_);
    bus_.add_device(mem::kPrrCtrlBase,
                    (mem::kPrrMaxRegions + 1) * mem::kPrrRegGroupStride, &ctl_);
    bus_.add_device(mem::kDevcfgBase, mem::kDevcfgSize, &pcap_);
  }

  // Direct MMIO helpers (bus-level, as the CPU would issue them).
  u32 rd(paddr_t a) {
    u32 v = 0;
    EXPECT_EQ(bus_.read32(a, v), mem::Bus::Result::kOk);
    return v;
  }
  void wr(paddr_t a, u32 v) {
    EXPECT_EQ(bus_.write32(a, v), mem::Bus::Result::kOk);
  }

  void pump() { events_.run_due(clock_.now()); }
  void run_until_idle() {
    cycles_t deadline;
    while (events_.next_deadline(deadline)) {
      clock_.advance_to(deadline);
      events_.run_due(clock_.now());
    }
  }

  // Configure task `id` into PRR `prr` via a full PCAP transfer.
  void configure(u32 prr, hwtask::TaskId id) {
    const auto* info = library_.find(id);
    ASSERT_NE(info, nullptr);
    wr(mem::kDevcfgBase + kPcapSrcAddr, 0x0100'0000u);
    wr(mem::kDevcfgBase + kPcapLen, info->bitstream_bytes);
    wr(mem::kDevcfgBase + kPcapTarget, prr);
    wr(mem::kDevcfgBase + kPcapTaskId, id);
    wr(mem::kDevcfgBase + kPcapCtrl, 1);
    run_until_idle();
    ASSERT_TRUE(rd(mem::kDevcfgBase + kPcapStatus) & kPcapStatusDone);
  }

  // Program the hwMMU window of `prr` through the global page.
  void set_hwmmu(u32 prr, paddr_t base, u32 size) {
    const paddr_t glob = mem::kPrrGlobalRegsBase;
    wr(glob + kGlobPrrSelect, prr);
    wr(glob + kGlobHwmmuBase, base);
    wr(glob + kGlobHwmmuSize, size);
  }

  paddr_t reg(u32 prr, u32 off) { return ctl_.reg_group_pa(prr) + off; }

  sim::Clock clock_;
  sim::EventQueue events_;
  irq::Gic gic_;
  mem::PhysMem dram_;
  mem::Bus bus_;
  hwtask::TaskLibrary library_;
  PrrController ctl_;
  Pcap pcap_;
};

TEST_F(PlTest, RegGroupsOnSeparatePages) {
  EXPECT_EQ(ctl_.reg_group_pa(0), mem::kPrrCtrlBase);
  EXPECT_EQ(ctl_.reg_group_pa(1), mem::kPrrCtrlBase + 4096);
  EXPECT_TRUE(is_aligned(ctl_.reg_group_pa(3), 4096));
}

TEST_F(PlTest, PcapLoadSetsLoadedStatus) {
  EXPECT_EQ(rd(reg(0, kRegStatus)) & kStatusLoaded, 0u);
  configure(0, hwtask::TaskLibrary::kFft256);
  EXPECT_TRUE(rd(reg(0, kRegStatus)) & kStatusLoaded);
  EXPECT_EQ(rd(reg(0, kRegTaskId)), hwtask::TaskLibrary::kFft256);
}

TEST_F(PlTest, PcapLatencyProportionalToBitstreamSize) {
  const auto* small = library_.find(hwtask::TaskLibrary::kQam4);
  const auto* big = library_.find(hwtask::TaskLibrary::kFft8192);
  const cycles_t t_small = pcap_.transfer_cycles(small->bitstream_bytes);
  const cycles_t t_big = pcap_.transfer_cycles(big->bitstream_bytes);
  const double ratio = double(t_big) / double(t_small);
  const double size_ratio =
      double(big->bitstream_bytes) / double(small->bitstream_bytes);
  EXPECT_NEAR(ratio, size_ratio, size_ratio * 0.05);  // ~linear
}

TEST_F(PlTest, PcapBusyWhileStreaming) {
  const auto* info = library_.find(hwtask::TaskLibrary::kFft8192);
  wr(mem::kDevcfgBase + kPcapSrcAddr, 0x0100'0000u);
  wr(mem::kDevcfgBase + kPcapLen, info->bitstream_bytes);
  wr(mem::kDevcfgBase + kPcapTarget, 0);
  wr(mem::kDevcfgBase + kPcapTaskId, hwtask::TaskLibrary::kFft8192);
  wr(mem::kDevcfgBase + kPcapCtrl, 1);
  EXPECT_TRUE(rd(mem::kDevcfgBase + kPcapStatus) & kPcapStatusBusy);
  EXPECT_TRUE(rd(reg(0, kRegStatus)) & kStatusReconfiguring);
  // A second start while busy errors out.
  wr(mem::kDevcfgBase + kPcapCtrl, 1);
  EXPECT_TRUE(rd(mem::kDevcfgBase + kPcapStatus) & kPcapStatusError);
  run_until_idle();
  EXPECT_FALSE(rd(mem::kDevcfgBase + kPcapStatus) & kPcapStatusBusy);
}

TEST_F(PlTest, PcapCompletionRaisesDevcfgIrq) {
  gic_.enable_irq(mem::kIrqDevcfg);
  configure(2, hwtask::TaskLibrary::kQam16);
  EXPECT_TRUE(gic_.is_pending(mem::kIrqDevcfg));
}

TEST_F(PlTest, LoadIncompatibleTaskRejected) {
  // FFT into a small PRR (index 2) violates the floorplan.
  wr(mem::kDevcfgBase + kPcapSrcAddr, 0x0100'0000u);
  wr(mem::kDevcfgBase + kPcapLen, 1000);
  wr(mem::kDevcfgBase + kPcapTarget, 2);
  wr(mem::kDevcfgBase + kPcapTaskId, hwtask::TaskLibrary::kFft256);
  wr(mem::kDevcfgBase + kPcapCtrl, 1);
  EXPECT_DEATH(run_until_idle(), "does not fit");
}

TEST_F(PlTest, QamJobEndToEnd) {
  configure(2, hwtask::TaskLibrary::kQam4);
  // Data section: input at 2 MB, output right after.
  const paddr_t sect = 0x0020'0000u;
  set_hwmmu(2, sect, 64 * kKiB);
  const u32 in_len = 64;  // 512 bits -> 256 QAM-4 symbols
  std::vector<u8> in(in_len, 0b01010101);
  dram_.write_block(sect, in);

  wr(reg(2, kRegSrcAddr), sect);
  wr(reg(2, kRegSrcLen), in_len);
  wr(reg(2, kRegDstAddr), sect + 0x1000);
  wr(reg(2, kRegCtrl), kCtrlStart);
  EXPECT_TRUE(rd(reg(2, kRegStatus)) & kStatusBusy);
  run_until_idle();
  EXPECT_TRUE(rd(reg(2, kRegStatus)) & kStatusDone);
  EXPECT_FALSE(rd(reg(2, kRegStatus)) & kStatusError);
  EXPECT_EQ(rd(reg(2, kRegDstLen)), 256u * 8);

  // Validate against the behavioral core directly.
  hwtask::QamCore ref(4);
  const auto expect = ref.process(in);
  std::vector<u8> got(expect.size());
  dram_.read_block(sect + 0x1000, got);
  EXPECT_EQ(got, expect);
}

TEST_F(PlTest, FftJobComputesRealTransform) {
  configure(0, hwtask::TaskLibrary::kFft256);
  const paddr_t sect = 0x0030'0000u;
  set_hwmmu(0, sect, 64 * kKiB);
  std::vector<u8> in(256 * 8, 0);
  const float one = 1.0f;
  std::memcpy(in.data(), &one, 4);  // impulse
  dram_.write_block(sect, in);

  wr(reg(0, kRegSrcAddr), sect);
  wr(reg(0, kRegSrcLen), u32(in.size()));
  wr(reg(0, kRegDstAddr), sect + 0x2000);
  wr(reg(0, kRegCtrl), kCtrlStart);
  run_until_idle();
  EXPECT_TRUE(rd(reg(0, kRegStatus)) & kStatusDone);
  // Impulse -> flat spectrum of 1+0j.
  for (u32 k = 0; k < 256; k += 37) {
    float re;
    std::vector<u8> word(4);
    dram_.read_block(sect + 0x2000 + k * 8, word);
    std::memcpy(&re, word.data(), 4);
    EXPECT_NEAR(re, 1.0f, 1e-4f);
  }
}

TEST_F(PlTest, HwMmuBlocksOutOfSectionInput) {
  configure(2, hwtask::TaskLibrary::kQam4);
  set_hwmmu(2, 0x0020'0000u, 4 * kKiB);
  // Source outside the window.
  wr(reg(2, kRegSrcAddr), 0x0040'0000u);
  wr(reg(2, kRegSrcLen), 64);
  wr(reg(2, kRegDstAddr), 0x0020'0000u);
  wr(reg(2, kRegCtrl), kCtrlStart);
  EXPECT_TRUE(rd(reg(2, kRegStatus)) & kStatusError);
  EXPECT_FALSE(rd(reg(2, kRegStatus)) & kStatusBusy);  // never started
  wr(mem::kPrrGlobalRegsBase + kGlobPrrSelect, 2);
  EXPECT_EQ(rd(mem::kPrrGlobalRegsBase + kGlobViolations), 1u);
}

TEST_F(PlTest, HwMmuBlocksOutOfSectionOutput) {
  configure(2, hwtask::TaskLibrary::kQam4);
  const paddr_t sect = 0x0020'0000u;
  set_hwmmu(2, sect, 4 * kKiB);  // too small for the output
  wr(reg(2, kRegSrcAddr), sect);
  wr(reg(2, kRegSrcLen), 1024);  // -> 4096 symbols * 8 B out: overflows
  wr(reg(2, kRegDstAddr), sect + 0x800);
  wr(reg(2, kRegCtrl), kCtrlStart);
  run_until_idle();
  EXPECT_TRUE(rd(reg(2, kRegStatus)) & kStatusError);
  EXPECT_TRUE(rd(reg(2, kRegStatus)) & kStatusDone);
  EXPECT_EQ(ctl_.total_violations(), 1u);
  EXPECT_EQ(ctl_.total_jobs(), 0u);  // blocked write is not a completion
}

TEST_F(PlTest, StartWithoutLoadedTaskErrors) {
  wr(reg(1, kRegCtrl), kCtrlStart);
  EXPECT_TRUE(rd(reg(1, kRegStatus)) & kStatusError);
}

TEST_F(PlTest, IrqAllocationAndCompletionIrq) {
  configure(3, hwtask::TaskLibrary::kQam64);
  const paddr_t glob = mem::kPrrGlobalRegsBase;
  wr(glob + kGlobPrrSelect, 3);
  wr(glob + kGlobIrqAlloc, 1);
  const u32 irq_idx = rd(glob + kGlobIrqAlloc);
  ASSERT_LT(irq_idx, mem::kNumPlIrqs);
  EXPECT_EQ(rd(reg(3, kRegIrqNum)), irq_idx);

  const u32 gic_irq = mem::pl_irq_to_gic(irq_idx);
  gic_.enable_irq(gic_irq);

  const paddr_t sect = 0x0050'0000u;
  set_hwmmu(3, sect, 64 * kKiB);
  dram_.write_block(sect, std::vector<u8>(96, 0xFF));
  wr(reg(3, kRegSrcAddr), sect);
  wr(reg(3, kRegSrcLen), 96);
  wr(reg(3, kRegDstAddr), sect + 0x4000);
  wr(reg(3, kRegCtrl), kCtrlStart | kCtrlIrqEn);
  run_until_idle();
  EXPECT_TRUE(gic_.is_pending(gic_irq));
}

TEST_F(PlTest, IrqAllocationIsIdempotentPerPrr) {
  const paddr_t glob = mem::kPrrGlobalRegsBase;
  wr(glob + kGlobPrrSelect, 0);
  wr(glob + kGlobIrqAlloc, 1);
  const u32 first = rd(glob + kGlobIrqAlloc);
  wr(glob + kGlobIrqAlloc, 1);
  EXPECT_EQ(rd(glob + kGlobIrqAlloc), first);
  // Free then re-alloc may hand out the same slot again.
  wr(glob + kGlobIrqFree, 1);
  EXPECT_EQ(rd(reg(0, kRegIrqNum)), PrrState::kNoIrq);
}

TEST_F(PlTest, AllSixteenPlIrqsAllocatable) {
  const paddr_t glob = mem::kPrrGlobalRegsBase;
  // Alternate alloc/free across PRRs to cycle through slots.
  std::set<u32> seen;
  for (u32 i = 0; i < mem::kNumPlIrqs; ++i) {
    wr(glob + kGlobPrrSelect, i % 4);
    wr(glob + kGlobIrqAlloc, 1);
    const u32 idx = rd(glob + kGlobIrqAlloc);
    ASSERT_LT(idx, mem::kNumPlIrqs);
    seen.insert(idx);
    wr(glob + kGlobIrqFree, 1);
  }
  // Freed every time, so the same slot may recur; allocate 4 without free:
  for (u32 p = 0; p < 4; ++p) {
    wr(glob + kGlobPrrSelect, p);
    wr(glob + kGlobIrqAlloc, 1);
  }
  std::set<u32> held;
  for (u32 p = 0; p < 4; ++p) held.insert(rd(reg(p, kRegIrqNum)));
  EXPECT_EQ(held.size(), 4u);  // distinct sources
}

TEST_F(PlTest, ReconfigureSwapsTasks) {
  configure(0, hwtask::TaskLibrary::kFft256);
  EXPECT_EQ(rd(reg(0, kRegTaskId)), hwtask::TaskLibrary::kFft256);
  configure(0, hwtask::TaskLibrary::kQam4);  // QAM also fits large PRRs
  EXPECT_EQ(rd(reg(0, kRegTaskId)), hwtask::TaskLibrary::kQam4);
}

TEST_F(PlTest, UnloadClearsRegion) {
  configure(1, hwtask::TaskLibrary::kFft512);
  const paddr_t glob = mem::kPrrGlobalRegsBase;
  wr(glob + kGlobPrrSelect, 1);
  wr(glob + kGlobUnload, 1);
  EXPECT_EQ(rd(reg(1, kRegStatus)) & kStatusLoaded, 0u);
  EXPECT_EQ(rd(reg(1, kRegTaskId)), hwtask::kInvalidTask);
}

}  // namespace
}  // namespace minova::pl
