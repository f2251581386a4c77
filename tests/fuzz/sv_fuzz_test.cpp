// Supervisor fuzzing properties: supervisor scenarios — where the chaos
// guests deliberately take fatal traps, hang in no-yield spin bursts and
// crash-loop into quarantine — replay bit-identically, the digest covers the
// supervisor's ledger, and each of the three supervisor oracles demonstrably
// fires on its seeded state mutant (mutation checks — an oracle that cannot
// catch its own sabotage is dead weight). The sabotage hooks live behind
// Supervisor::sabotage_for_test and never run in production paths.
#include <gtest/gtest.h>

#include "fuzz/scenario.hpp"

namespace minova::fuzz {
namespace {

ScenarioOptions sv_opts(u64 seed, u64 steps = 5000) {
  ScenarioOptions o;
  o.seed = seed;
  o.max_steps = steps;
  o.supervisor = true;
  return o;
}

bool saw(const FuzzResult& r, Oracle o) {
  for (const auto& v : r.violations)
    if (v.oracle == o) return true;
  return false;
}

TEST(SvFuzz, CleanRunReplaysBitIdentically) {
  const ScenarioOptions opts = sv_opts(6003);
  const FuzzResult a = run_scenario(opts);
  const FuzzResult b = run_scenario(opts);
  ASSERT_FALSE(a.failed) << a.report;
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.steps, b.steps);
}

TEST(SvFuzz, SupervisorChangesTheDigest) {
  // The supervisor lane arms crash behaviours and mixes the restart ledger,
  // incarnations and crash stats into the digest: a digest blind to the new
  // state would collide with the legacy run.
  ScenarioOptions off = sv_opts(6003);
  off.supervisor = false;
  const FuzzResult legacy = run_scenario(off);
  const FuzzResult sup = run_scenario(sv_opts(6003));
  ASSERT_FALSE(legacy.failed) << legacy.report;
  ASSERT_FALSE(sup.failed) << sup.report;
  EXPECT_NE(legacy.digest, sup.digest);
}

TEST(SvFuzz, ContainmentOracleCatchesDanglingPdMutant) {
  ScenarioOptions opts = sv_opts(6003);
  opts.sabotage_step = 1500;
  // live health record names a bogus pd id
  opts.sabotage_oracle = Oracle::kSvContainment;
  const FuzzResult r = run_scenario(opts);
  ASSERT_TRUE(r.failed) << "containment mutant survived";
  EXPECT_TRUE(saw(r, Oracle::kSvContainment)) << r.report;
}

TEST(SvFuzz, RestartLedgerOracleCatchesForgedCounterMutant) {
  ScenarioOptions opts = sv_opts(6003);
  opts.sabotage_step = 1500;
  // restarts counter contradicts incarnations
  opts.sabotage_oracle = Oracle::kSvRestartLedger;
  const FuzzResult r = run_scenario(opts);
  ASSERT_TRUE(r.failed) << "restart-ledger mutant survived";
  EXPECT_TRUE(saw(r, Oracle::kSvRestartLedger)) << r.report;
}

TEST(SvFuzz, QuarantineOracleCatchesLiveQuarantinedMutant) {
  ScenarioOptions opts = sv_opts(6003);
  opts.sabotage_step = 1500;
  // a watched-live slot claims kQuarantined
  opts.sabotage_oracle = Oracle::kSvQuarantine;
  const FuzzResult r = run_scenario(opts);
  ASSERT_TRUE(r.failed) << "quarantine mutant survived";
  EXPECT_TRUE(saw(r, Oracle::kSvQuarantine)) << r.report;
}

TEST(SvFuzz, MutantsAreInertWithoutSabotageStep) {
  // The same seeds with sabotage disabled stay clean: the failures above
  // are the mutants' doing, not the supervisor's.
  for (u64 seed : {6003ull, 6005ull, 6014ull}) {
    SCOPED_TRACE(seed);
    const FuzzResult r = run_scenario(sv_opts(seed));
    EXPECT_FALSE(r.failed) << r.report;
  }
}

TEST(SvFuzz, LegacyLaneIsUntouchedBySupervisorCode) {
  // supervisor=false never constructs a Supervisor: the sv-* oracles are
  // vacuous and the digest matches what the lane produced before the
  // subsystem existed (the seed-level bit-identity gate; the cross-commit
  // check lives in CI's digest-pin job).
  const FuzzResult legacy = run_scenario([] {
    ScenarioOptions o;
    o.seed = 1000;
    o.max_steps = 2000;
    return o;
  }());
  ASSERT_FALSE(legacy.failed) << legacy.report;
  const FuzzResult again = run_scenario([] {
    ScenarioOptions o;
    o.seed = 1000;
    o.max_steps = 2000;
    return o;
  }());
  EXPECT_EQ(legacy.digest, again.digest);
}

}  // namespace
}  // namespace minova::fuzz
