#include "cache/cache.hpp"

#include <gtest/gtest.h>

namespace minova::cache {
namespace {

CacheConfig small_cfg() {
  // 4 sets x 2 ways x 32 B lines = 256 B: easy to reason about.
  return CacheConfig{.name = "t", .size_bytes = 256, .line_bytes = 32,
                     .ways = 2, .hit_cycles = 1};
}

CacheConfig direct_mapped_cfg() {
  // 4 sets x 1 way x 32 B lines = 128 B. A miss in a full set evicts its
  // one line whatever the victim choice, so eviction order is fixed.
  return CacheConfig{.name = "dm", .size_bytes = 128, .line_bytes = 32,
                     .ways = 1, .hit_cycles = 1};
}

TEST(Cache, ColdMissThenHit) {
  Cache c(small_cfg());
  EXPECT_FALSE(c.access(0x100, false).hit);
  EXPECT_TRUE(c.access(0x100, false).hit);
  EXPECT_TRUE(c.access(0x11F, false).hit);   // same line
  EXPECT_FALSE(c.access(0x120, false).hit);  // next line
  EXPECT_EQ(c.stats().hits, 2u);
  EXPECT_EQ(c.stats().misses, 2u);
}

TEST(Cache, DirtyEvictionReportsWriteback) {
  // Set index = (addr >> 5) & 3: 0x000 and 0x080 both map to set 0.
  Cache c(direct_mapped_cfg());
  c.access(0x000, true);  // dirty
  const auto r = c.access(0x080, false);  // evicts 0x000
  EXPECT_TRUE(r.writeback);
  EXPECT_EQ(r.victim_line, 0x000u);
  EXPECT_EQ(c.stats().writebacks, 1u);
}

TEST(Cache, CleanEvictionNoWriteback) {
  Cache c(direct_mapped_cfg());
  c.access(0x000, false);
  const auto r = c.access(0x080, false);
  EXPECT_TRUE(r.evicted_valid);
  EXPECT_FALSE(r.writeback);
}

TEST(Cache, WriteHitMarksLineDirty) {
  Cache c(direct_mapped_cfg());
  c.access(0x000, false);  // clean fill
  c.access(0x000, true);   // dirty it via hit
  EXPECT_TRUE(c.access(0x080, false).writeback);
}

TEST(Cache, FlushAllCountsDirtyLines) {
  Cache c(small_cfg());
  c.access(0x000, true);
  c.access(0x020, true);
  c.access(0x040, false);
  EXPECT_EQ(c.flush_all(), 2u);
  EXPECT_FALSE(c.contains(0x000));
  EXPECT_EQ(c.stats().flushes, 1u);
}

TEST(Cache, InvalidateLine) {
  Cache c(small_cfg());
  c.access(0x000, true);
  EXPECT_TRUE(c.invalidate_line(0x000));   // dirty
  EXPECT_FALSE(c.contains(0x000));
  c.access(0x020, false);
  EXPECT_FALSE(c.invalidate_line(0x020));  // clean
  EXPECT_FALSE(c.invalidate_line(0x500));  // absent
}

TEST(Cache, DirtyWritebackSurvivesTagWordEncoding) {
  // The dirty bit shares a word with the line address. Lines at the top of
  // the physical space keep their address and their dirty state through
  // eviction, flush_all and invalidate_line.
  Cache c(direct_mapped_cfg());
  const paddr_t top = 0xFFFF'FFE0u;  // set 3, largest line address
  const paddr_t high = 0x8000'0060u;  // set 3, bit 31 of the address set
  c.access(top, true);
  EXPECT_TRUE(c.contains(top));
  EXPECT_FALSE(c.contains(top & 0x7FFF'FFFFu));  // the address bit is kept
  auto r = c.access(high, false);  // evicts `top`
  EXPECT_TRUE(r.writeback);
  EXPECT_EQ(r.victim_line, top);
  EXPECT_TRUE(c.contains(high));

  c.access(high, true);
  r = c.access(top, false);  // evicts `high`, dirty
  EXPECT_TRUE(r.writeback);
  EXPECT_EQ(r.victim_line, high);
  c.access(top, true);
  EXPECT_EQ(c.flush_all(), 1u);
  EXPECT_FALSE(c.contains(top));

  c.access(high, true);
  EXPECT_TRUE(c.invalidate_line(high));  // dirty
  c.access(top, false);
  EXPECT_FALSE(c.invalidate_line(top));  // clean
  EXPECT_EQ(c.stats().writebacks, 4u);
}

TEST(Cache, CreditHitsMatchesRepeatedAccess) {
  // Credit k hits after an access vs k + 1 real accesses: the same stats
  // and dirty bits, hence the same later victims and writebacks.
  Cache credited(small_cfg()), looped(small_cfg());
  u64 seed = 0x9E37'79B9'7F4A'7C15ull;
  for (u32 step = 0; step < 2000; ++step) {
    seed = seed * 6364136223846793005ull + 1442695040888963407ull;
    const paddr_t pa = paddr_t((seed >> 33) % 0x400) & ~3u;
    const bool write = (seed >> 20) & 1;
    const bool credit_write = (seed >> 21) & 1;  // may differ from `write`
    const u32 k = u32((seed >> 24) % 6);
    const auto a = credited.access(pa, write);
    credited.credit_hits(pa, k, credit_write);  // k = 0 leaves nothing
    const auto b = looped.access(pa, write);
    for (u32 i = 0; i < k; ++i)
      ASSERT_TRUE(looped.access(pa, credit_write).hit);
    ASSERT_EQ(a.hit, b.hit) << "step " << step;
    ASSERT_EQ(a.writeback, b.writeback) << "step " << step;
    ASSERT_EQ(a.evicted_valid, b.evicted_valid) << "step " << step;
    ASSERT_EQ(a.victim_line, b.victim_line) << "step " << step;
  }
  EXPECT_EQ(credited.stats().hits, looped.stats().hits);
  EXPECT_EQ(credited.stats().misses, looped.stats().misses);
  EXPECT_EQ(credited.stats().evictions, looped.stats().evictions);
  EXPECT_EQ(credited.stats().writebacks, looped.stats().writebacks);
  for (paddr_t pa = 0; pa < 0x400; pa += 32)
    EXPECT_EQ(credited.contains(pa), looped.contains(pa));
  EXPECT_EQ(credited.flush_all(), looped.flush_all());  // same dirty lines
}

TEST(Cache, FillEpochMovesOnlyWhenALineCanLeave) {
  Cache c(small_cfg());
  u64 epoch = c.fill_epoch();
  const auto moved = [&] {
    const bool m = c.fill_epoch() != epoch;
    epoch = c.fill_epoch();
    return m;
  };
  EXPECT_FALSE(c.access(0x100, false).hit);  // a miss fills
  EXPECT_TRUE(moved());
  EXPECT_TRUE(c.access(0x104, true).hit);
  c.credit_hits(0x100, 3, true);
  c.credit_hits(0x100, 0, false);
  c.credit_read_hits(5);
  EXPECT_FALSE(moved());
  EXPECT_FALSE(c.invalidate_line(0x300));  // absent: nothing leaves
  EXPECT_FALSE(moved());
  EXPECT_TRUE(c.invalidate_line(0x100));  // present and dirty
  EXPECT_TRUE(moved());
  c.access(0x100, false);
  EXPECT_TRUE(moved());
  c.invalidate_all();
  EXPECT_TRUE(moved());
  c.flush_all();  // even with nothing resident
  EXPECT_TRUE(moved());
  EXPECT_FALSE(c.contains(0x100));
}

TEST(CacheRandomPolicy, EvictsSomeWayDeterministically) {
  Cache a(small_cfg()), b(small_cfg());
  // Same access sequence twice -> identical eviction decisions (the LFSR
  // is deterministic), and exactly one of the two resident lines survives.
  for (Cache* c : {&a, &b}) {
    c->access(0x000, false);
    c->access(0x080, false);
    c->access(0x100, false);  // forces an eviction in set 0
  }
  EXPECT_EQ(a.contains(0x000), b.contains(0x000));
  EXPECT_EQ(a.contains(0x080), b.contains(0x080));
  EXPECT_NE(a.contains(0x000), a.contains(0x080));  // one victim
  EXPECT_TRUE(a.contains(0x100));
}

TEST(Cache, GeometryDerivedCorrectly) {
  Cache c(CacheConfig{.name = "l1", .size_bytes = 32 * kKiB,
                      .line_bytes = 32, .ways = 4, .hit_cycles = 1});
  EXPECT_EQ(c.num_sets(), 256u);
}

TEST(Cache, MissRateComputation) {
  Cache c(small_cfg());
  c.access(0x000, false);
  c.access(0x000, false);
  c.access(0x000, false);
  c.access(0x020, false);
  EXPECT_DOUBLE_EQ(c.stats().miss_rate(), 0.5);
}

}  // namespace
}  // namespace minova::cache
