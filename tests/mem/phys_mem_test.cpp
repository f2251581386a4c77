#include "mem/phys_mem.hpp"

#include <gtest/gtest.h>

#include <array>
#include <numeric>

namespace minova::mem {
namespace {

TEST(PhysMem, ZeroInitialized) {
  PhysMem m(0, 64 * kKiB);
  EXPECT_EQ(m.read32(0x1000), 0u);
  EXPECT_EQ(m.read32(0xFFFC), 0u);
}

TEST(PhysMem, ScalarRoundTrips) {
  PhysMem m(0, 64 * kKiB);
  m.write32(100, 0xDEADBEEF);
  m.write32(PhysMem::kFrameSize - 4, 0x01234567);  // last word of a frame
  EXPECT_EQ(m.read32(100), 0xDEADBEEFu);
  EXPECT_EQ(m.read32(PhysMem::kFrameSize - 4), 0x01234567u);
  EXPECT_EQ(m.read32(PhysMem::kFrameSize), 0u);
}

TEST(PhysMem, NonZeroBaseWindow) {
  PhysMem m(0xFFFC'0000u, 256 * kKiB);  // OCM-style high window
  m.write32(0xFFFC'0010u, 42);
  EXPECT_EQ(m.read32(0xFFFC'0010u), 42u);
  EXPECT_TRUE(m.contains(0xFFFC'0000u));
  EXPECT_FALSE(m.contains(0x0));
}

TEST(PhysMem, BlockCopyCrossesFrames) {
  PhysMem m(0, 64 * kKiB);
  std::array<u8, 8192> src{};
  std::iota(src.begin(), src.end(), 0);
  // Start 100 bytes before a frame boundary.
  m.write_block(PhysMem::kFrameSize - 100, src);
  std::array<u8, 8192> dst{};
  m.read_block(PhysMem::kFrameSize - 100, dst);
  EXPECT_EQ(src, dst);
}

TEST(PhysMem, ResidentFramesGrowOnDemand) {
  PhysMem m(0, 1 * kMiB);
  EXPECT_EQ(m.resident_frames(), 0u);
  m.write32(0, 1);
  m.write32(512 * kKiB, 1);
  EXPECT_EQ(m.resident_frames(), 2u);
  (void)m.read32(4);  // same frame, no growth
  EXPECT_EQ(m.resident_frames(), 2u);
}

TEST(PhysMem, ContentDigestSeesBytesNotResidency) {
  PhysMem m(0x1000'0000u, 64 * kKiB);
  const u64 empty = m.content_digest();
  EXPECT_EQ(m.resident_frames(), 0u);  // the digest materializes nothing

  (void)m.read32(0x1000'2000u);  // materializes an all-zero frame
  EXPECT_EQ(m.resident_frames(), 1u);
  EXPECT_EQ(m.content_digest(), empty);

  m.write32(0x1000'3FFCu, 1);
  const u64 one = m.content_digest();
  EXPECT_NE(one, empty);
  m.write32(0x1000'3FFCu, 0);
  EXPECT_EQ(m.content_digest(), empty);

  // Same bytes in another frame is different content.
  m.write32(0x1000'4FFCu, 1);
  EXPECT_NE(m.content_digest(), one);
  EXPECT_NE(m.content_digest(), empty);
}

TEST(PhysMem, DiscardZeroesTheRangeAndReleasesWholeFrames) {
  constexpr u32 kF = PhysMem::kFrameSize;
  PhysMem m(0, 64 * kKiB);
  std::array<u8, 4 * kF> ones{};
  ones.fill(0xFF);
  m.write_block(0, ones);  // frames 0..3
  ASSERT_EQ(m.resident_frames(), 4u);

  // [kF - 8, 3 kF + 8): the tail of frame 0, frames 1 and 2 whole, the
  // head of frame 3.
  m.discard(kF - 8, 2 * kF + 16);
  EXPECT_EQ(m.resident_frames(), 2u);  // frames 1 and 2 released
  EXPECT_EQ(m.read32(kF - 12), 0xFFFF'FFFFu);  // words outside stay
  EXPECT_EQ(m.read32(3 * kF + 8), 0xFFFF'FFFFu);
  EXPECT_EQ(m.read32(kF - 8), 0u);     // partial edges zeroed
  EXPECT_EQ(m.read32(kF - 4), 0u);
  EXPECT_EQ(m.read32(3 * kF), 0u);
  EXPECT_EQ(m.read32(3 * kF + 4), 0u);
  EXPECT_EQ(m.read32(2 * kF + 100), 0u);  // released frames read as zero

  // A never-touched range stays sparse.
  m.discard(8 * kF, 4 * kF);
  EXPECT_EQ(m.resident_frames(), 3u);  // 0, 3 and 2 (re-read above)
}

TEST(PhysMemDeath, OutOfWindowAborts) {
  PhysMem m(0, 64 * kKiB);
  EXPECT_DEATH(m.read32(64 * kKiB), "outside RAM window");
}

TEST(PhysMemDeath, MisalignedScalarAborts) {
  PhysMem m(0, 64 * kKiB);
  EXPECT_DEATH(m.read32(2), "");
  EXPECT_DEATH(m.write32(6, 0), "");
}

}  // namespace
}  // namespace minova::mem
