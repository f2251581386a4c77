// PRR-scheduler fuzzing properties: hw-sched scenarios replay
// bit-identically, the clean digest actually covers the scheduler state,
// and each of the four hw-task oracles demonstrably fires on its seeded
// manager-state mutant (mutation checks — an oracle that cannot catch its
// own sabotage is dead weight). The sabotage hooks live behind
// ManagerService::sabotage_for_test and never run in production paths.
#include <gtest/gtest.h>

#include "fuzz/scenario.hpp"

namespace minova::fuzz {
namespace {

ScenarioOptions hw_opts(u64 seed, u64 steps = 5000) {
  ScenarioOptions o;
  o.seed = seed;
  o.max_steps = steps;
  o.hw_sched = true;
  return o;
}

bool saw(const FuzzResult& r, Oracle o) {
  for (const auto& v : r.violations)
    if (v.oracle == o) return true;
  return false;
}

TEST(HwFuzz, CleanRunReplaysBitIdentically) {
  const ScenarioOptions opts = hw_opts(5003);
  const FuzzResult a = run_scenario(opts);
  const FuzzResult b = run_scenario(opts);
  ASSERT_FALSE(a.failed) << a.report;
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.steps, b.steps);
}

TEST(HwFuzz, SchedulerChangesTheDigest) {
  // hw_sched mixes the manager's scheduler counters (preemptions, queue,
  // cache traffic) into the digest and widens the chaos op set: a digest
  // blind to the new state would collide with the legacy run.
  ScenarioOptions off = hw_opts(5003);
  off.hw_sched = false;
  const FuzzResult legacy = run_scenario(off);
  const FuzzResult sched = run_scenario(hw_opts(5003));
  ASSERT_FALSE(legacy.failed) << legacy.report;
  ASSERT_FALSE(sched.failed) << sched.report;
  EXPECT_NE(legacy.digest, sched.digest);
}

TEST(HwFuzz, LedgerOracleCatchesForgedLedgerMutant) {
  ScenarioOptions opts = hw_opts(5003);
  opts.sabotage_step = 1500;
  // ledger row contradicts the PRR table
  opts.sabotage_oracle = Oracle::kHwLaunchLedger;
  const FuzzResult r = run_scenario(opts);
  ASSERT_TRUE(r.failed) << "launch-ledger mutant survived";
  EXPECT_TRUE(saw(r, Oracle::kHwLaunchLedger)) << r.report;
}

TEST(HwFuzz, SaveRestoreOracleCatchesCorruptSaveMutant) {
  ScenarioOptions opts = hw_opts(5003);
  opts.sabotage_step = 1500;
  // saved regs diverge from the §IV.C record
  opts.sabotage_oracle = Oracle::kHwSaveRestore;
  const FuzzResult r = run_scenario(opts);
  ASSERT_TRUE(r.failed) << "save-restore mutant survived";
  EXPECT_TRUE(saw(r, Oracle::kHwSaveRestore)) << r.report;
}

TEST(HwFuzz, QuotaOracleCatchesOverCommitMutant) {
  ScenarioOptions opts = hw_opts(5003);
  opts.sabotage_step = 1500;
  // a client holds more regions than its quota
  opts.sabotage_oracle = Oracle::kHwQuota;
  const FuzzResult r = run_scenario(opts);
  ASSERT_TRUE(r.failed) << "quota mutant survived";
  EXPECT_TRUE(saw(r, Oracle::kHwQuota)) << r.report;
}

TEST(HwFuzz, CacheOracleCatchesPhantomEntryMutant) {
  ScenarioOptions opts = hw_opts(5003);
  opts.sabotage_step = 1500;
  // cache entry for a task the library lacks
  opts.sabotage_oracle = Oracle::kHwCacheValid;
  const FuzzResult r = run_scenario(opts);
  ASSERT_TRUE(r.failed) << "cache-validity mutant survived";
  EXPECT_TRUE(saw(r, Oracle::kHwCacheValid)) << r.report;
}

TEST(HwFuzz, MutantsAreInertWithoutSabotageStep) {
  // The same seeds with sabotage disabled stay clean: the failures above
  // are the mutants' doing, not the scheduler's.
  for (u64 seed : {5003ull, 5005ull, 5014ull}) {
    SCOPED_TRACE(seed);
    const FuzzResult r = run_scenario(hw_opts(seed));
    EXPECT_FALSE(r.failed) << r.report;
  }
}

}  // namespace
}  // namespace minova::fuzz
