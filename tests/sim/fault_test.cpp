// Unit tests for the deterministic fault injector (DESIGN.md §8): replay
// determinism, per-site stream independence, explicit schedules, and the
// stats/record bookkeeping every other fault test builds on.
#include "sim/fault.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "sim/clock.hpp"
#include "sim/stats.hpp"

namespace minova::sim {
namespace {

FaultConfig config_with(FaultSite site, double p, u64 seed = 0x1234) {
  FaultConfig cfg;
  cfg.enabled = true;
  cfg.seed = seed;
  cfg.sites[u32(site)].probability = p;
  return cfg;
}

TEST(FaultInjectorTest, DisabledNeverFiresAndLeavesNoTrace) {
  Clock clock;
  StatsRegistry stats;
  FaultConfig cfg;  // enabled = false
  cfg.sites[u32(FaultSite::kPcapCrc)].probability = 1.0;
  cfg.sites[u32(FaultSite::kPcapCrc)].schedule = {0, 1, 2};
  FaultInjector fault(clock, stats, cfg);

  for (int i = 0; i < 100; ++i)
    EXPECT_FALSE(fault.should_fail(FaultSite::kPcapCrc));

  EXPECT_EQ(fault.attempts(), 0u);
  EXPECT_EQ(fault.injected(), 0u);
  EXPECT_TRUE(fault.records().empty());
  EXPECT_EQ(stats.counter_value("fault.pcap_crc.attempts"), 0u);
}

TEST(FaultInjectorTest, ProbabilityZeroNeverFiresButCountsAttempts) {
  Clock clock;
  StatsRegistry stats;
  FaultInjector fault(clock, stats, config_with(FaultSite::kPcapCrc, 0.0));

  for (int i = 0; i < 50; ++i)
    EXPECT_FALSE(fault.should_fail(FaultSite::kPcapCrc));
  EXPECT_EQ(fault.attempts(FaultSite::kPcapCrc), 50u);
  EXPECT_EQ(stats.counter_value("fault.pcap_crc.attempts"), 50u);
}

TEST(FaultInjectorTest, ProbabilityOneAlwaysFires) {
  Clock clock;
  StatsRegistry stats;
  FaultInjector fault(clock, stats, config_with(FaultSite::kPcapTransfer, 1.0));

  for (int i = 0; i < 20; ++i)
    EXPECT_TRUE(fault.should_fail(FaultSite::kPcapTransfer));
  EXPECT_EQ(fault.injected(FaultSite::kPcapTransfer), 20u);
  EXPECT_EQ(stats.counter_value("fault.pcap_transfer.injected"), 20u);
}

TEST(FaultInjectorTest, SameSeedReplaysIdenticalDecisionSequence) {
  Clock c1, c2;
  StatsRegistry s1, s2;
  FaultInjector a(c1, s1, config_with(FaultSite::kPcapCrc, 0.3, 77));
  FaultInjector b(c2, s2, config_with(FaultSite::kPcapCrc, 0.3, 77));

  bool any = false;
  for (int i = 0; i < 1000; ++i) {
    const bool fa = a.should_fail(FaultSite::kPcapCrc);
    EXPECT_EQ(fa, b.should_fail(FaultSite::kPcapCrc)) << "attempt " << i;
    any |= fa;
  }
  EXPECT_TRUE(any);  // p=0.3 over 1000 draws fires with near-certainty
  EXPECT_EQ(a.injected(), b.injected());
}

TEST(FaultInjectorTest, DifferentSeedsDiverge) {
  Clock c1, c2;
  StatsRegistry s1, s2;
  FaultInjector a(c1, s1, config_with(FaultSite::kPcapCrc, 0.5, 1));
  FaultInjector b(c2, s2, config_with(FaultSite::kPcapCrc, 0.5, 2));

  int differ = 0;
  for (int i = 0; i < 500; ++i)
    differ += a.should_fail(FaultSite::kPcapCrc) !=
              b.should_fail(FaultSite::kPcapCrc);
  EXPECT_GT(differ, 0);
}

TEST(FaultInjectorTest, ResetReplaysFromAttemptZero) {
  Clock clock;
  StatsRegistry stats;
  FaultInjector fault(clock, stats, config_with(FaultSite::kPcapCrc, 0.4, 9));

  std::vector<bool> first;
  for (int i = 0; i < 200; ++i)
    first.push_back(fault.should_fail(FaultSite::kPcapCrc));

  fault.reset();
  EXPECT_EQ(fault.attempts(), 0u);
  EXPECT_TRUE(fault.records().empty());
  for (int i = 0; i < 200; ++i)
    EXPECT_EQ(first[std::size_t(i)], fault.should_fail(FaultSite::kPcapCrc))
        << "attempt " << i;
}

TEST(FaultInjectorTest, ScheduleFiresExactlyTheListedAttempts) {
  Clock clock;
  StatsRegistry stats;
  FaultConfig cfg;
  cfg.enabled = true;
  cfg.sites[u32(FaultSite::kPrrReconfigTimeout)].schedule = {0, 2, 5};
  FaultInjector fault(clock, stats, cfg);

  std::vector<u64> fired;
  for (u64 i = 0; i < 8; ++i)
    if (fault.should_fail(FaultSite::kPrrReconfigTimeout)) fired.push_back(i);
  EXPECT_EQ(fired, (std::vector<u64>{0, 2, 5}));
}

TEST(FaultInjectorTest, ScheduleDoesNotPerturbRandomDecisions) {
  // Adding an explicit schedule must not shift the probabilistic stream:
  // attempts NOT on the schedule keep the decisions they had without one.
  Clock c1, c2;
  StatsRegistry s1, s2;
  FaultConfig plain = config_with(FaultSite::kPcapCrc, 0.25, 42);
  FaultConfig sched = plain;
  sched.sites[u32(FaultSite::kPcapCrc)].schedule = {3, 7};
  FaultInjector a(c1, s1, plain);
  FaultInjector b(c2, s2, sched);

  for (u64 i = 0; i < 100; ++i) {
    const bool fa = a.should_fail(FaultSite::kPcapCrc);
    const bool fb = b.should_fail(FaultSite::kPcapCrc);
    if (i == 3 || i == 7)
      EXPECT_TRUE(fb) << "scheduled attempt " << i;
    else
      EXPECT_EQ(fa, fb) << "attempt " << i;
  }
}

TEST(FaultInjectorTest, SitesDrawFromIndependentStreams) {
  // Probing one site must not change another site's decision sequence,
  // regardless of interleaving.
  Clock c1, c2;
  StatsRegistry s1, s2;
  FaultConfig cfg;
  cfg.enabled = true;
  cfg.seed = 2024;
  cfg.sites[u32(FaultSite::kPcapCrc)].probability = 0.5;
  cfg.sites[u32(FaultSite::kHypercallTransient)].probability = 0.5;

  FaultInjector pure(c1, s1, cfg);
  FaultInjector mixed(c2, s2, cfg);

  std::vector<bool> expected;
  for (int i = 0; i < 300; ++i)
    expected.push_back(pure.should_fail(FaultSite::kPcapCrc));

  for (int i = 0; i < 300; ++i) {
    // Interleave heavy traffic on an unrelated site.
    (void)mixed.should_fail(FaultSite::kHypercallTransient);
    (void)mixed.should_fail(FaultSite::kHypercallTransient);
    EXPECT_EQ(expected[std::size_t(i)],
              mixed.should_fail(FaultSite::kPcapCrc))
        << "attempt " << i;
  }
}

TEST(FaultInjectorTest, RecordsCaptureSiteAttemptAndTime) {
  Clock clock;
  StatsRegistry stats;
  FaultConfig cfg;
  cfg.enabled = true;
  cfg.sites[u32(FaultSite::kPcapCrc)].schedule = {1};
  FaultInjector fault(clock, stats, cfg);

  EXPECT_FALSE(fault.should_fail(FaultSite::kPcapCrc));
  clock.advance(12'345);
  EXPECT_TRUE(fault.should_fail(FaultSite::kPcapCrc));

  ASSERT_EQ(fault.records().size(), 1u);
  const FaultRecord& r = fault.records().front();
  EXPECT_EQ(r.site, FaultSite::kPcapCrc);
  EXPECT_EQ(r.attempt, 1u);
  EXPECT_EQ(r.at, 12'345u);
}

TEST(FaultInjectorTest, SiteNamesAreStableAndDistinct) {
  for (u32 i = 0; i < kNumFaultSites; ++i) {
    const char* name = fault_site_name(FaultSite(i));
    EXPECT_STRNE(name, "?");
    for (u32 j = i + 1; j < kNumFaultSites; ++j)
      EXPECT_STRNE(name, fault_site_name(FaultSite(j)));
  }
  EXPECT_STREQ(fault_site_name(FaultSite::kCount), "?");
}

}  // namespace
}  // namespace minova::sim
