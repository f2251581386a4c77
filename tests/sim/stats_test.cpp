#include "sim/stats.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace minova::sim {
namespace {

TEST(LatencyStat, MeanMinMax) {
  LatencyStat s;
  s.add(1.0);
  s.add(3.0);
  s.add(2.0);
  EXPECT_DOUBLE_EQ(s.mean(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 3.0);
  EXPECT_EQ(s.count(), 3u);
}

TEST(LatencyStat, PercentileInterpolates) {
  LatencyStat s;
  for (int i = 1; i <= 5; ++i) s.add(double(i));
  EXPECT_DOUBLE_EQ(s.percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.percentile(100), 5.0);
  EXPECT_DOUBLE_EQ(s.percentile(50), 3.0);
  EXPECT_DOUBLE_EQ(s.percentile(25), 2.0);
}

TEST(LatencyStat, AddAfterSortedQueryStillCorrect) {
  LatencyStat s;
  s.add(5.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  s.add(10.0);  // must invalidate cached sort
  EXPECT_DOUBLE_EQ(s.max(), 10.0);
  EXPECT_DOUBLE_EQ(s.min(), 5.0);
}

TEST(StatsRegistry, CountersDefaultZeroAndIncrement) {
  StatsRegistry reg;
  EXPECT_EQ(reg.counter_value("x"), 0u);
  reg.counter("x") += 3;
  reg.counter("x") += 2;
  EXPECT_EQ(reg.counter_value("x"), 5u);
}

TEST(StatsRegistry, ResetClearsEverything) {
  StatsRegistry reg;
  reg.counter("c") = 7;
  reg.reset();
  EXPECT_EQ(reg.counter_value("c"), 0u);
}

TEST(StatsRegistry, CounterHandleAliasesNamedCounter) {
  StatsRegistry reg;
  CounterHandle h = reg.handle("events");
  h.inc();
  h += 4;
  ++h;
  EXPECT_EQ(h.value(), 6u);
  EXPECT_EQ(reg.counter_value("events"), 6u);
  reg.counter("events") += 1;  // string path and handle share the slot
  EXPECT_EQ(h.value(), 7u);
}

TEST(StatsRegistry, CounterHandleSurvivesResetAndNewCounters) {
  StatsRegistry reg;
  CounterHandle h = reg.handle("stable");
  h += 3;
  // Creating many more counters must not move the handled slot (node-based
  // map), and reset zeroes in place instead of invalidating the handle.
  for (int i = 0; i < 256; ++i) reg.counter("other." + std::to_string(i));
  EXPECT_EQ(h.value(), 3u);
  reg.reset();
  EXPECT_EQ(h.value(), 0u);
  h.inc();
  EXPECT_EQ(reg.counter_value("stable"), 1u);
}

// The incremental min/max and cached-sort percentile path must agree with
// a naive re-sort-on-every-query implementation under interleaved adds and
// queries.
TEST(LatencyStat, MatchesNaiveImplementationUnderInterleavedQueries) {
  struct Naive {
    std::vector<double> v;
    double min() const { return *std::min_element(v.begin(), v.end()); }
    double max() const { return *std::max_element(v.begin(), v.end()); }
    double mean() const {
      double s = 0;
      for (double x : v) s += x;
      return s / double(v.size());
    }
    double percentile(double p) const {
      std::vector<double> c = v;
      std::sort(c.begin(), c.end());
      const double idx = p / 100.0 * double(c.size() - 1);
      const std::size_t lo = std::size_t(idx);
      const std::size_t hi = std::min(lo + 1, c.size() - 1);
      const double frac = idx - double(lo);
      return c[lo] * (1.0 - frac) + c[hi] * frac;
    }
  };

  LatencyStat s;
  Naive n;
  u64 x = 0x1234'5678'9ABC'DEF0ull;
  const auto rnd = [&]() {  // xorshift: deterministic, no <random> needed
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return double(x % 100'000) / 7.0;
  };
  for (int i = 0; i < 2000; ++i) {
    const double v = rnd();
    s.add(v);
    n.v.push_back(v);
    if (i % 37 == 0) {  // interleave queries with adds
      EXPECT_DOUBLE_EQ(s.min(), n.min());
      EXPECT_DOUBLE_EQ(s.max(), n.max());
      // Percentile queries sort the sample vector in place, so summation
      // order (and the last few ulps of the mean) may legitimately differ
      // from insertion order.
      EXPECT_NEAR(s.mean(), n.mean(), 1e-9 * std::abs(n.mean()));
      for (double p : {0.0, 10.0, 50.0, 90.0, 99.0, 100.0})
        EXPECT_DOUBLE_EQ(s.percentile(p), n.percentile(p)) << "p=" << p;
    }
  }
  EXPECT_EQ(s.count(), n.v.size());
}

TEST(LatencyStat, MonotoneStreamKeepsSortedCacheValid) {
  LatencyStat s;
  for (int i = 0; i < 100; ++i) s.add(double(i));
  EXPECT_DOUBLE_EQ(s.percentile(50), 49.5);
  s.add(1000.0);  // still >= back(): cache stays valid
  EXPECT_DOUBLE_EQ(s.max(), 1000.0);
  s.add(-1.0);  // out of order: cache invalidated, query still right
  EXPECT_DOUBLE_EQ(s.percentile(0), -1.0);
  EXPECT_DOUBLE_EQ(s.min(), -1.0);
}

}  // namespace
}  // namespace minova::sim
