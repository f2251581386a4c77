// Pinned fuzz digests: a table of {lane, seed, digest} for six feature
// lanes. Replay tests elsewhere only prove that a run repeats within one
// build; this table holds digests fixed across commits, so a change that
// claims to preserve behaviour (a refactor, a host-speed optimisation)
// must leave every simulated decision, charge and counter of these
// scenarios where it was. A deliberate behaviour change re-records the
// table (`mininova_fuzz --seed-base S --seeds 4 --steps 2000 --verbose
// <lane flags>` prints the digests) and says so.
#include <gtest/gtest.h>

#include <ostream>
#include <string>

#include "fuzz/scenario.hpp"

namespace minova::fuzz {
namespace {

enum class Lane { kLegacy, kLifecycle, kCores2, kHwSched, kSupervisor, kMt };

struct Golden {
  Lane lane;
  u64 seed;
  u64 digest;
};

const char* lane_name(Lane lane) {
  static constexpr const char* kNames[] = {"legacy",  "lifecycle",  "cores2",
                                           "hwsched", "supervisor", "mt"};
  return kNames[int(lane)];
}

// Names the parameter in test output and ctest names.
void PrintTo(const Golden& g, std::ostream* os) {
  *os << lane_name(g.lane) << " seed " << g.seed;
}

// Seeds are the first four of each lane's CI smoke shard.
constexpr Golden kGolden[] = {
    {Lane::kLegacy, 1000, 0x14d0cbb61f341a75ull},
    {Lane::kLegacy, 1001, 0x95f19a80933409b1ull},
    {Lane::kLegacy, 1002, 0xa4dd4bca1debd3b7ull},
    {Lane::kLegacy, 1003, 0x2cd3967a16226a4eull},
    {Lane::kLifecycle, 2000, 0x8ed3a1b606055cb5ull},
    {Lane::kLifecycle, 2001, 0x1078145046b06d98ull},
    {Lane::kLifecycle, 2002, 0xe3abb6c77e46ed76ull},
    {Lane::kLifecycle, 2003, 0x7982465e939a2384ull},
    {Lane::kCores2, 3000, 0x9272692654d38a2bull},
    {Lane::kCores2, 3001, 0xf284fdd86e443ac6ull},
    {Lane::kCores2, 3002, 0x30f7ba5ba5e056c6ull},
    {Lane::kCores2, 3003, 0x59b3e61683c99ff2ull},
    {Lane::kHwSched, 5000, 0xeb21ae624585829aull},
    {Lane::kHwSched, 5001, 0xc295e36abfb0cd68ull},
    {Lane::kHwSched, 5002, 0xd1e7fe94be3149caull},
    {Lane::kHwSched, 5003, 0xd8b7ad73c6c5cda1ull},
    {Lane::kSupervisor, 6000, 0x84f832105d4d0589ull},
    {Lane::kSupervisor, 6001, 0xb0420ea73675d4c1ull},
    {Lane::kSupervisor, 6002, 0xe68ef2164e25a49cull},
    {Lane::kSupervisor, 6003, 0x33b085b13b40ff79ull},
    {Lane::kMt, 4000, 0x4b778c897623f08aull},
    {Lane::kMt, 4001, 0x92b2f39a28035ef9ull},
    {Lane::kMt, 4002, 0x2cd6085c8b676743ull},
    {Lane::kMt, 4003, 0xf602047ce61b2298ull},
};

// The same options `mininova_fuzz` builds for the lane's flags.
ScenarioOptions lane_opts(const Golden& g) {
  ScenarioOptions o;
  o.seed = g.seed;
  o.max_steps = 2000;
  switch (g.lane) {
    case Lane::kLegacy: break;
    case Lane::kLifecycle: o.lifecycle = true; break;
    case Lane::kCores2: o.num_cores = 2; break;
    case Lane::kHwSched: o.hw_sched = true; break;
    case Lane::kSupervisor: o.supervisor = true; break;
    case Lane::kMt:  // --cores 2 --threads 2 --compute
      o.num_cores = 2;
      o.host_threads = 2;
      o.compute = true;
      break;
  }
  return o;
}

class DigestGolden : public ::testing::TestWithParam<Golden> {};

TEST_P(DigestGolden, MatchesPinnedDigest) {
  const Golden& g = GetParam();
  const FuzzResult r = run_scenario(lane_opts(g));
  ASSERT_FALSE(r.failed) << r.report;
  EXPECT_EQ(r.digest, g.digest) << describe(lane_opts(g));
}

INSTANTIATE_TEST_SUITE_P(
    Lanes, DigestGolden, ::testing::ValuesIn(kGolden),
    [](const ::testing::TestParamInfo<Golden>& info) {
      return std::string(lane_name(info.param.lane)) + "_" +
             std::to_string(info.param.seed);
    });

}  // namespace
}  // namespace minova::fuzz
