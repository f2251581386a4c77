#include "cache/hierarchy.hpp"

#include <gtest/gtest.h>

namespace minova::cache {
namespace {

TEST(MemHierarchy, ColdAccessPaysFullPath) {
  MemHierarchy h;
  const auto& cfg = h.config();
  const cycles_t cold = h.access_data(0x1000, false);
  EXPECT_EQ(cold, cfg.l1d.hit_cycles + cfg.l2.hit_cycles + kDramCycles);
}

TEST(MemHierarchy, WarmAccessPaysL1Only) {
  MemHierarchy h;
  h.access_data(0x1000, false);
  EXPECT_EQ(h.access_data(0x1000, false), h.config().l1d.hit_cycles);
}

HierarchyConfig lru_config() {
  HierarchyConfig cfg;
  cfg.l1i.policy = ReplacementPolicy::kLru;
  cfg.l1d.policy = ReplacementPolicy::kLru;
  cfg.l2.policy = ReplacementPolicy::kLru;
  return cfg;
}

TEST(MemHierarchy, L2HitAfterL1Eviction) {
  MemHierarchy h(lru_config());
  const auto& cfg = h.config();
  h.access_data(0x1000, false);
  // Evict 0x1000 from L1D by filling its set (4 ways + original).
  // L1D: 32 KB / 32 B / 4 ways = 256 sets; set stride = 256*32 = 8 KB.
  for (u32 i = 1; i <= 4; ++i) h.access_data(0x1000 + i * 8 * 1024, false);
  EXPECT_FALSE(h.l1d().contains(0x1000));
  EXPECT_TRUE(h.l2().contains(0x1000));
  EXPECT_EQ(h.access_data(0x1000, false),
            cfg.l1d.hit_cycles + cfg.l2.hit_cycles);
}

TEST(MemHierarchy, IfetchUsesSeparateL1) {
  MemHierarchy h;
  h.access_data(0x1000, false);
  EXPECT_TRUE(h.l1d().contains(0x1000));
  EXPECT_FALSE(h.l1i().contains(0x1000));
  // I-fetch of the same line hits L2 (unified), not L1I.
  const cycles_t c = h.access_ifetch(0x1000);
  EXPECT_EQ(c, h.config().l1i.hit_cycles + h.config().l2.hit_cycles);
  EXPECT_TRUE(h.l1i().contains(0x1000));
}

TEST(MemHierarchy, WalkAccessBypassesL1) {
  MemHierarchy h;
  const cycles_t cold = h.access_walk(0x5000);
  EXPECT_EQ(cold, h.config().l2.hit_cycles + kDramCycles);
  EXPECT_FALSE(h.l1d().contains(0x5000));
  EXPECT_EQ(h.access_walk(0x5000), h.config().l2.hit_cycles);
}

TEST(MemHierarchy, DisabledCachesPayDramAlways) {
  HierarchyConfig cfg;
  cfg.enabled = false;
  MemHierarchy h(cfg);
  EXPECT_EQ(h.access_data(0x1000, false), kDramCycles);
  EXPECT_EQ(h.access_data(0x1000, false), kDramCycles);  // no warming
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
