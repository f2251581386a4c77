#include "workloads/softdsp.hpp"

#include <gtest/gtest.h>

#include <complex>
#include <cstring>

#include "core/platform.hpp"
#include "hwtask/fft_core.hpp"

namespace minova::workloads {
namespace {

/// Flat-memory Services over a bare platform (MMU off).
class FlatSvc final : public Services {
 public:
  explicit FlatSvc(Platform& p) : p_(p) {}
  void exec(const cpu::CodeRegion& r, double f) override {
    p_.cpu().exec_code(r, f);
  }
  void spend_insns(u64 n) override { p_.cpu().spend_insns(n); }
  bool read32(vaddr_t va, u32& out) override {
    auto r = p_.cpu().vread32(va);
    out = r.value;
    return r.ok;
  }
  bool write32(vaddr_t va, u32 v) override { return p_.cpu().vwrite32(va, v).ok; }
  bool read_block(vaddr_t va, std::span<u8> o) override {
    return p_.cpu().vread_block(va, o).ok;
  }
  bool write_block(vaddr_t va, std::span<const u8> i) override {
    return p_.cpu().vwrite_block(va, i).ok;
  }
  double now_us() override { return p_.clock().now_us(); }
  HwReqStatus hw_request(u32, vaddr_t, vaddr_t) override {
    return HwReqStatus::kError;
  }
  bool hw_release(u32) override { return false; }
  ReconfigStatus hw_reconfig_status() override {
    return ReconfigStatus::kReady;
  }
  bool hw_take_completion() override { return false; }
  vaddr_t hw_iface_va() const override { return 0; }
  vaddr_t hw_data_va() const override { return 0; }
  paddr_t hw_data_pa() const override { return 0; }
  u32 hw_data_size() const override { return 0; }

 private:
  Platform& p_;
};

TEST(SoftDsp, FftMatchesHardwareCore) {
  Platform platform;
  FlatSvc svc(platform);
  // An impulse frame.
  std::vector<u8> frame(256 * 8, 0);
  const float one = 1.0f;
  std::memcpy(frame.data(), &one, 4);
  ASSERT_TRUE(svc.write_block(0x10000, frame));

  soft_fft(svc, 0x10000, 256);

  std::vector<u8> out(frame.size());
  ASSERT_TRUE(svc.read_block(0x10000, out));
  hwtask::FftCore core(256);
  EXPECT_EQ(out, core.process(frame));  // bit-identical to the accelerator
}

TEST(SoftDsp, FftCostScalesSuperlinearly) {
  Platform platform;
  FlatSvc svc(platform);
  std::vector<u8> small(1024 * 8, 1), big(8192 * 8, 1);
  ASSERT_TRUE(svc.write_block(0x10000, small));
  const double t0 = platform.clock().now_us();
  soft_fft(svc, 0x10000, 1024);
  const double small_us = platform.clock().now_us() - t0;

  ASSERT_TRUE(svc.write_block(0x80000, big));
  const double t1 = platform.clock().now_us();
  soft_fft(svc, 0x80000, 8192);
  const double big_us = platform.clock().now_us() - t1;
  // 8x points, 13/10 stage ratio -> > 8x cost (N log N).
  EXPECT_GT(big_us, small_us * 8.0);
}

TEST(SoftDsp, SoftTaskEquivalentBitIdenticalForEveryLibraryTask) {
  // The graceful-degradation path (DESIGN.md §8): whatever the accelerator
  // would have produced, the software equivalent must produce byte for
  // byte, for every task in the library.
  Platform platform;
  FlatSvc svc(platform);
  auto& lib = platform.task_library();
  for (hwtask::TaskId id : lib.ids()) {
    const hwtask::TaskInfo* info = lib.find(id);
    ASSERT_NE(info, nullptr);
    // Input sized like T_hw's: an FFT frame of bounded floats, or a bit
    // block for the QAM mappers.
    u32 bytes = 512;
    if (info->name.rfind("FFT-", 0) == 0)
      bytes = std::min(u32(std::stoul(info->name.substr(4))), 2048u) * 8;
    std::vector<u8> in(bytes);
    for (u32 i = 0; i < bytes; ++i) in[i] = u8(i * 37 + id);
    if (info->name.rfind("FFT-", 0) == 0) {
      for (u32 i = 0; i < bytes / 4; ++i) {
        const float v = float(int(i % 2000) - 1000) / 1000.0f;
        std::memcpy(in.data() + i * 4, &v, 4);
      }
    }
    ASSERT_TRUE(svc.write_block(0x10000, in));

    const std::vector<u8> expected = lib.instantiate(id)->process(in);
    const u32 produced = soft_task_equivalent(svc, lib, id, 0x10000,
                                              u32(in.size()), 0x100000);
    ASSERT_EQ(produced, u32(expected.size())) << info->name;
    std::vector<u8> out(produced);
    ASSERT_TRUE(svc.read_block(0x100000, out));
    EXPECT_EQ(out, expected) << info->name;
  }
}

TEST(SoftDsp, SoftTaskEquivalentRejectsUnknownTask) {
  Platform platform;
  FlatSvc svc(platform);
  EXPECT_EQ(soft_task_equivalent(svc, platform.task_library(), 999, 0x10000,
                                 64, 0x20000),
            0u);
}

}  // namespace
}  // namespace minova::workloads
