// SMP fuzzing properties: multi-core scenarios replay bit-identically, and
// each SMP oracle demonstrably fires on its seeded kernel-state mutant
// (mutation checks — an oracle that cannot catch its own sabotage is dead
// weight). The sabotage hooks live behind Kernel::smp_sabotage_for_test and
// are vacuous on a unicore kernel, which is itself pinned here.
#include <gtest/gtest.h>

#include "fuzz/scenario.hpp"

namespace minova::fuzz {
namespace {

ScenarioOptions smp_opts(u64 seed, u32 cores, u64 steps = 1500) {
  ScenarioOptions o;
  o.seed = seed;
  o.max_steps = steps;
  o.num_cores = cores;
  return o;
}

bool saw(const FuzzResult& r, Oracle o) {
  for (const auto& v : r.violations)
    if (v.oracle == o) return true;
  return false;
}

TEST(SmpFuzz, MultiCoreCleanRunReplaysBitIdentically) {
  for (u32 cores : {2u, 4u}) {
    SCOPED_TRACE(cores);
    const ScenarioOptions opts = smp_opts(42, cores);
    const FuzzResult a = run_scenario(opts);
    const FuzzResult b = run_scenario(opts);
    ASSERT_FALSE(a.failed) << a.report;
    EXPECT_EQ(a.digest, b.digest);
  }
}

TEST(SmpFuzz, CoreCountChangesTheDigest) {
  // The clean digest mixes per-core counters under SMP: runs at different
  // widths must not collide (a digest blind to SMP state would).
  const FuzzResult one = run_scenario(smp_opts(42, 1));
  const FuzzResult two = run_scenario(smp_opts(42, 2));
  ASSERT_FALSE(one.failed);
  ASSERT_FALSE(two.failed);
  EXPECT_NE(one.digest, two.digest);
}

TEST(SmpFuzz, CorePartitionOracleCatchesCrossQueueMutant) {
  ScenarioOptions opts = smp_opts(77, 2);
  opts.sabotage_step = 300;
  // enqueue a PD on the wrong core's queue
  opts.sabotage_oracle = Oracle::kCorePartition;
  const FuzzResult r = run_scenario(opts);
  ASSERT_TRUE(r.failed) << "core-partition mutant survived";
  EXPECT_EQ(r.step, 300u);
  EXPECT_TRUE(saw(r, Oracle::kCorePartition)) << r.report;
}

TEST(SmpFuzz, ShootdownOracleCatchesLostAckMutant) {
  ScenarioOptions opts = smp_opts(77, 2);
  opts.sabotage_step = 300;
  // forge shootdown completion accounting
  opts.sabotage_oracle = Oracle::kShootdownComplete;
  const FuzzResult r = run_scenario(opts);
  ASSERT_TRUE(r.failed) << "shootdown-accounting mutant survived";
  EXPECT_EQ(r.step, 300u);
  EXPECT_TRUE(saw(r, Oracle::kShootdownComplete)) << r.report;
}

TEST(SmpFuzz, ExclusivityOracleCatchesDoubleCurrentMutant) {
  ScenarioOptions opts = smp_opts(77, 2);
  opts.sabotage_step = 300;
  // make one PD current on two cores at once
  opts.sabotage_oracle = Oracle::kCoreExclusivity;
  const FuzzResult r = run_scenario(opts);
  ASSERT_TRUE(r.failed) << "double-current mutant survived";
  EXPECT_EQ(r.step, 300u);
  EXPECT_TRUE(saw(r, Oracle::kCoreExclusivity)) << r.report;
}

TEST(SmpFuzz, SmpSabotageIsVacuousOnUnicore) {
  // The SMP oracles guard multi-core structure; on one core the hooks are
  // no-ops and the run must stay clean *and* keep the pre-SMP digest
  // (sabotage options are not mixed into clean digests).
  ScenarioOptions opts = smp_opts(42, 1);
  ScenarioOptions sab = opts;
  sab.sabotage_step = 300;
  sab.sabotage_oracle = Oracle::kShootdownComplete;
  const FuzzResult clean = run_scenario(opts);
  const FuzzResult mutant = run_scenario(sab);
  ASSERT_FALSE(clean.failed);
  ASSERT_FALSE(mutant.failed) << mutant.report;
  EXPECT_EQ(clean.digest, mutant.digest);
}

}  // namespace
}  // namespace minova::fuzz
