#include "mem/bus.hpp"

#include <gtest/gtest.h>

#include "mem/address_map.hpp"

namespace minova::mem {
namespace {

class FakeDevice : public MmioDevice {
 public:
  u32 mmio_read(u32 offset) override {
    last_read_off = offset;
    return regs[offset / 4];
  }
  void mmio_write(u32 offset, u32 value) override {
    last_write_off = offset;
    regs[offset / 4] = value;
  }

  u32 regs[16]{};
  u32 last_read_off = ~0u;
  u32 last_write_off = ~0u;
};

class BusTest : public ::testing::Test {
 protected:
  BusTest() : ram_(0, 1 * kMiB) {
    bus_.add_ram(&ram_);
    bus_.add_device(0x4000'0000u, 64, &dev_);
  }
  PhysMem ram_;
  FakeDevice dev_;
  Bus bus_;
};

TEST_F(BusTest, RoutesRamAccesses) {
  EXPECT_EQ(bus_.write32(0x100, 0xCAFE), Bus::Result::kOk);
  u32 v = 0;
  EXPECT_EQ(bus_.read32(0x100, v), Bus::Result::kOk);
  EXPECT_EQ(v, 0xCAFEu);
}

TEST_F(BusTest, RoutesDeviceAccessesWithWindowRelativeOffset) {
  EXPECT_EQ(bus_.write32(0x4000'0008u, 77), Bus::Result::kOk);
  EXPECT_EQ(dev_.last_write_off, 8u);
  u32 v = 0;
  EXPECT_EQ(bus_.read32(0x4000'0008u, v), Bus::Result::kOk);
  EXPECT_EQ(v, 77u);
}

TEST_F(BusTest, UnmappedAddressIsBusError) {
  u32 v = 0;
  EXPECT_EQ(bus_.read32(0x9000'0000u, v), Bus::Result::kBusError);
  EXPECT_EQ(bus_.write32(0x9000'0000u, 1), Bus::Result::kBusError);
}

TEST_F(BusTest, IsDeviceClassification) {
  EXPECT_TRUE(bus_.is_device(0x4000'0000u));
  EXPECT_TRUE(bus_.is_device(0x4000'003Fu));
  EXPECT_FALSE(bus_.is_device(0x4000'0040u));
  EXPECT_FALSE(bus_.is_device(0x100));
}

TEST_F(BusTest, RamAtChecksLength) {
  EXPECT_NE(bus_.ram_at(0x0, 1 * kMiB), nullptr);
  EXPECT_EQ(bus_.ram_at(0x0, 1 * kMiB + 1), nullptr);
  EXPECT_EQ(bus_.ram_at(0x4000'0000u), nullptr);
}

TEST_F(BusTest, OverlappingDeviceWindowsRejected) {
  FakeDevice other;
  EXPECT_DEATH(bus_.add_device(0x4000'0020u, 64, &other),
               "overlapping MMIO windows");
}

TEST(PlIrqMapping, MatchesZynqSpiBanks) {
  EXPECT_EQ(pl_irq_to_gic(0), 61u);
  EXPECT_EQ(pl_irq_to_gic(7), 68u);
  EXPECT_EQ(pl_irq_to_gic(8), 84u);
  EXPECT_EQ(pl_irq_to_gic(15), 91u);
}

}  // namespace
}  // namespace minova::mem
