#include "cache/hierarchy.hpp"

#include <gtest/gtest.h>

namespace minova::cache {
namespace {

TEST(MemHierarchy, ColdAccessPaysFullPath) {
  MemHierarchy h;
  const cycles_t cold = h.access_data(0x1000, false);
  EXPECT_EQ(cold,
            kL1dGeometry.hit_cycles + kL2Geometry.hit_cycles + kDramCycles);
}

TEST(MemHierarchy, WarmAccessPaysL1Only) {
  MemHierarchy h;
  h.access_data(0x1000, false);
  EXPECT_EQ(h.access_data(0x1000, false), kL1dGeometry.hit_cycles);
}

TEST(MemHierarchy, L2HitAfterL1Eviction) {
  MemHierarchy h;
  h.access_data(0x1000, false);
  // Evict 0x1000 from L1D by conflicting in its set until it leaves.
  // L1D: 32 KB / 32 B / 4 ways = 256 sets; set stride = 256*32 = 8 KB.
  // The line and its first seven conflicts sit in eight different L2 sets,
  // so L2 keeps the line.
  u32 conflicts = 0;
  while (h.l1d().contains(0x1000)) {
    ASSERT_LT(++conflicts, 8u);
    h.access_data(0x1000 + conflicts * 8 * 1024, false);
  }
  EXPECT_TRUE(h.l2().contains(0x1000));
  EXPECT_EQ(h.access_data(0x1000, false),
            kL1dGeometry.hit_cycles + kL2Geometry.hit_cycles);
}

TEST(MemHierarchy, IfetchUsesSeparateL1) {
  MemHierarchy h;
  h.access_data(0x1000, false);
  EXPECT_TRUE(h.l1d().contains(0x1000));
  EXPECT_FALSE(h.l1i().contains(0x1000));
  // I-fetch of the same line hits L2 (unified), not L1I.
  const cycles_t c = h.access_ifetch(0x1000);
  EXPECT_EQ(c, kL1iGeometry.hit_cycles + kL2Geometry.hit_cycles);
  EXPECT_TRUE(h.l1i().contains(0x1000));
}

TEST(MemHierarchy, WalkAccessBypassesL1) {
  MemHierarchy h;
  const cycles_t cold = h.access_walk(0x5000);
  EXPECT_EQ(cold, kL2Geometry.hit_cycles + kDramCycles);
  EXPECT_FALSE(h.l1d().contains(0x5000));
  EXPECT_EQ(h.access_walk(0x5000), kL2Geometry.hit_cycles);
}

TEST(MemHierarchy, FlushAllChargesDirtyWritebacks) {
  MemHierarchy h;
  h.access_data(0x1000, true);
  h.access_data(0x2000, true);
  const cycles_t with_dirty = h.flush_all();

  MemHierarchy h2;
  h2.access_data(0x1000, false);
  const cycles_t clean = h2.flush_all();
  EXPECT_GT(with_dirty, clean);
}

TEST(MemHierarchy, StatsResetWorks) {
  MemHierarchy h;
  h.access_data(0x1000, false);
  EXPECT_GT(h.l1d().stats().misses, 0u);
  h.reset_stats();
  EXPECT_EQ(h.l1d().stats().misses, 0u);
}

}  // namespace
}  // namespace minova::cache
