// Pins the bytes the Fig. 8 guests compute, not only their timing: the
// Table III rows, fuzz digests and perfbench digests cover cycles and
// counters, so a host-side change to a workload's data path (synthesis,
// encoders, block copies) could alter guest memory without moving any of
// them. The golden is PhysMem::content_digest() of the DRAM after a
// 4-guest run; it changes only if what the guests store changes. It was
// recorded with the per-sample std::sin synthesis and the branchy ADPCM
// encoder, and their fast paths leave it unchanged.
#include <gtest/gtest.h>

#include "ucos/system.hpp"

namespace minova {
namespace {

TEST(GuestDataGolden, FourGuestDramAfter200Ms) {
  ucos::SystemConfig cfg;
  cfg.num_guests = 4;
  cfg.seed = 42;
  ucos::VirtualizedSystem sys(cfg);
  sys.run_for_us(200'000);
  EXPECT_EQ(sys.platform().dram().content_digest(), 0x8EA6'499F'3F0A'A07Cull)
      << std::hex << sys.platform().dram().content_digest();
}

}  // namespace
}  // namespace minova
