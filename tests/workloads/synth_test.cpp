// Exactness of the workloads' audio synthesis: the rotation fast path
// (workloads/tone.hpp) must give the same i16 samples as the per-sample
// std::sin formulas below, which are the workloads' original definitions
// kept verbatim as the reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/rng.hpp"
#include "workloads/adpcm.hpp"
#include "workloads/gsm.hpp"

namespace minova::workloads {
namespace {

void adpcm_reference(u32 phase_, util::Xoshiro256& rng_, std::span<i16> pcm) {
  for (u32 i = 0; i < pcm.size(); ++i, ++phase_) {
    const double t = double(phase_);
    const double v = 8000.0 * std::sin(t * 0.031) +
                     4000.0 * std::sin(t * 0.0072) +
                     double(i64(rng_.next_below(1200)) - 600);
    pcm[i] = i16(std::clamp(v, -32000.0, 32000.0));
  }
}

void gsm_reference(u32 phase_, util::Xoshiro256& rng_, std::span<i16> pcm) {
  for (u32 i = 0; i < pcm.size(); ++i, ++phase_) {
    const double t = double(phase_);
    double v = 5000.0 * std::sin(t * 0.08) * std::sin(t * 0.009);
    if (phase_ % 64 < 4) v += 9000.0;  // glottal pulse
    v += double(i64(rng_.next_below(900)) - 450);
    pcm[i] = i16(std::clamp(v, -32000.0, 32000.0));
  }
}

using SynthFn = void (*)(u32, util::Xoshiro256&, std::span<i16>);

struct Feed {
  const char* name;
  SynthFn fast;
  SynthFn reference;
  u32 block;  // samples per call, as the workload synthesizes them
};

const Feed kFeeds[] = {
    {"adpcm", &AdpcmWorkload::synthesize, &adpcm_reference, 1024},
    {"gsm", &GsmWorkload::synthesize, &gsm_reference, 160},
};

/// Synthesizes `blocks` consecutive blocks from `phase` both ways, with one
/// rng each seeded alike, and returns the index of the first differing
/// sample (or -1). The rng streams must also end in the same state.
i64 first_mismatch(const Feed& f, u32 phase, u32 blocks, u64 seed) {
  util::Xoshiro256 rng_fast(seed), rng_ref(seed);
  std::vector<i16> fast(f.block), ref(f.block);
  for (u32 b = 0; b < blocks; ++b, phase += f.block) {
    f.fast(phase, rng_fast, fast);
    f.reference(phase, rng_ref, ref);
    const auto [a, _] = std::mismatch(fast.begin(), fast.end(), ref.begin());
    if (a != fast.end()) return i64(b) * f.block + (a - fast.begin());
  }
  return rng_fast.next() == rng_ref.next() ? -1 : i64(blocks) * f.block;
}

TEST(SynthExact, ContiguousRangeMatchesReference) {
  // 2^21 consecutive samples per feed at three seeds, starting at phase 0,
  // mid-range, and ending exactly at the u32 wrap (largest arguments).
  for (const Feed& f : kFeeds) {
    const u32 blocks = ((1u << 21) + f.block - 1) / f.block;
    const struct {
      u64 seed;
      u32 phase;
    } kRuns[] = {{1, 0}, {42, 0x8000'0123u}, {7, 0u - blocks * f.block}};
    for (const auto& r : kRuns)
      EXPECT_EQ(first_mismatch(f, r.phase, blocks, r.seed), -1)
          << f.name << " seed " << r.seed << " from phase " << r.phase;
  }
}

TEST(SynthExact, SparseBlocksUpToTwoToTheThirtyTwo) {
  for (const Feed& f : kFeeds) {
    util::Xoshiro256 pick(99);
    for (u32 i = 0; i < 512; ++i) {
      // One block in each 2^23-phase stripe, at a random offset in it.
      const u32 phase = (i << 23) | u32(pick.next_below(1u << 23));
      EXPECT_EQ(first_mismatch(f, phase, 1, 1000 + i), -1)
          << f.name << " block at phase " << phase;
    }
  }
}

TEST(SynthExact, BlockStraddlingThePhaseWrapMatchesReference) {
  for (const Feed& f : kFeeds) {
    for (u32 before : {1u, 80u, 256u, f.block - 1}) {
      const u32 phase = 0u - before;  // `before` samples, then the wrap to 0
      EXPECT_EQ(first_mismatch(f, phase, 2, 5), -1)
          << f.name << " block at phase " << phase;
    }
    EXPECT_EQ(first_mismatch(f, 0xFFFF'FF00u, 1, 3), -1) << f.name;
  }
}

}  // namespace
}  // namespace minova::workloads
