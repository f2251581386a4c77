#include "workloads/adpcm.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numbers>

#include "util/rng.hpp"

namespace minova::workloads {
namespace {

std::vector<i16> sine_wave(std::size_t n, double freq, double amp) {
  std::vector<i16> pcm(n);
  for (std::size_t i = 0; i < n; ++i)
    pcm[i] = i16(amp * std::sin(2.0 * std::numbers::pi * freq * double(i)));
  return pcm;
}

double snr_db(std::span<const i16> ref, std::span<const i16> test) {
  double sig = 0, noise = 0;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    sig += double(ref[i]) * ref[i];
    const double d = double(ref[i]) - double(test[i]);
    noise += d * d;
  }
  return 10.0 * std::log10(sig / (noise + 1e-9));
}

TEST(AdpcmCodec, FourToOneCompression) {
  AdpcmCodec::State st;
  const auto pcm = sine_wave(1024, 0.01, 10000);
  const auto enc = AdpcmCodec::encode(pcm, st);
  EXPECT_EQ(enc.size(), pcm.size() / 2);  // 16-bit -> 4-bit
}

TEST(AdpcmCodec, RoundTripSnrOnSine) {
  AdpcmCodec::State enc_st, dec_st;
  const auto pcm = sine_wave(4096, 0.01, 12000);
  const auto enc = AdpcmCodec::encode(pcm, enc_st);
  const auto dec = AdpcmCodec::decode(enc, dec_st, pcm.size());
  // IMA ADPCM delivers ~20+ dB on smooth tonal content.
  EXPECT_GT(snr_db(pcm, dec), 18.0);
}

TEST(AdpcmCodec, RoundTripTracksNoisySpeechLikeSignal) {
  util::Xoshiro256 rng(5);
  std::vector<i16> pcm(2048);
  double phase = 0;
  for (auto& s : pcm) {
    phase += 0.05 + 0.01 * rng.next_double();
    s = i16(8000.0 * std::sin(phase) + double(i64(rng.next_below(2000)) - 1000));
  }
  AdpcmCodec::State enc_st, dec_st;
  const auto dec =
      AdpcmCodec::decode(AdpcmCodec::encode(pcm, enc_st), dec_st, pcm.size());
  EXPECT_GT(snr_db(pcm, dec), 8.0);
}

TEST(AdpcmCodec, DecoderStaysInRangeOnExtremes) {
  AdpcmCodec::State enc_st, dec_st;
  std::vector<i16> pcm(256);
  for (std::size_t i = 0; i < pcm.size(); ++i)
    pcm[i] = (i % 2) ? i16(32767) : i16(-32768);  // worst-case slew
  const auto dec =
      AdpcmCodec::decode(AdpcmCodec::encode(pcm, enc_st), dec_st, pcm.size());
  EXPECT_EQ(dec.size(), pcm.size());  // no crash, outputs clamped by design
}

TEST(AdpcmCodec, EncoderDeterministic) {
  AdpcmCodec::State a, b;
  const auto pcm = sine_wave(512, 0.02, 9000);
  EXPECT_EQ(AdpcmCodec::encode(pcm, a), AdpcmCodec::encode(pcm, b));
}

// Property: encode/decode state machines stay synchronized sample-by-sample.
class AdpcmStepProperty : public ::testing::TestWithParam<u64> {};

TEST_P(AdpcmStepProperty, PredictorsMatchBetweenEncodeAndDecode) {
  util::Xoshiro256 rng(GetParam());
  AdpcmCodec::State enc_st, dec_st;
  for (int i = 0; i < 2000; ++i) {
    const i16 s = i16(i64(rng.next_below(65536)) - 32768);
    const u8 nib = AdpcmCodec::encode_sample(s, enc_st);
    (void)AdpcmCodec::decode_sample(nib, dec_st);
    EXPECT_EQ(enc_st.predictor, dec_st.predictor);
    EXPECT_EQ(enc_st.step_index, dec_st.step_index);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AdpcmStepProperty,
                         ::testing::Values(1u, 2u, 3u, 42u));

// The IMA encoder step as first written (three branches), kept verbatim as
// the reference for the branchless encoder.
constexpr int kRefIndexTable[16] = {-1, -1, -1, -1, 2, 4, 6, 8,
                                    -1, -1, -1, -1, 2, 4, 6, 8};
constexpr int kRefStepTable[89] = {
    7,     8,     9,     10,    11,    12,    13,    14,    16,    17,
    19,    21,    23,    25,    28,    31,    34,    37,    41,    45,
    50,    55,    60,    66,    73,    80,    88,    97,    107,   118,
    130,   143,   157,   173,   190,   209,   230,   253,   279,   307,
    337,   371,   408,   449,   494,   544,   598,   658,   724,   796,
    876,   963,   1060,  1166,  1282,  1411,  1552,  1707,  1878,  2066,
    2272,  2499,  2749,  3024,  3327,  3660,  4026,  4428,  4871,  5358,
    5894,  6484,  7132,  7845,  8630,  9493,  10442, 11487, 12635, 13899,
    15289, 16818, 18500, 20350, 22385, 24623, 27086, 29794, 32767};

u8 reference_encode_sample(i16 sample, AdpcmCodec::State& state) {
  const int step = kRefStepTable[state.step_index];
  int diff = int(sample) - state.predictor;
  u8 nibble = 0;
  if (diff < 0) {
    nibble = 8;
    diff = -diff;
  }
  int delta = step >> 3;
  if (diff >= step) {
    nibble |= 4;
    diff -= step;
    delta += step;
  }
  if (diff >= step >> 1) {
    nibble |= 2;
    diff -= step >> 1;
    delta += step >> 1;
  }
  if (diff >= step >> 2) {
    nibble |= 1;
    delta += step >> 2;
  }
  state.predictor += (nibble & 8) ? -delta : delta;
  state.predictor = std::clamp(state.predictor, -32768, 32767);
  state.step_index =
      std::clamp(state.step_index + kRefIndexTable[nibble], 0, 88);
  return nibble;
}

TEST(AdpcmCodec, EncoderMatchesBranchyReferenceExhaustively) {
  // Every step index x every i16 sample x a predictor grid that includes
  // both rails and the sign boundary.
  constexpr i32 kPredictors[] = {-32768, -12345, -1, 0, 1, 12345, 32767};
  u64 mismatches = 0;
  for (int index = 0; index < 89; ++index) {
    for (const i32 predictor : kPredictors) {
      for (int s = -32768; s <= 32767; ++s) {
        AdpcmCodec::State got{predictor, index}, want{predictor, index};
        const u8 g = AdpcmCodec::encode_sample(i16(s), got);
        const u8 w = reference_encode_sample(i16(s), want);
        if (g != w || got.predictor != want.predictor ||
            got.step_index != want.step_index) {
          if (++mismatches <= 5)
            ADD_FAILURE() << "index " << index << " predictor " << predictor
                          << " sample " << s << ": nibble " << int(g)
                          << " vs " << int(w);
        }
      }
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(AdpcmCodec, BlockEncodeMatchesReferenceStream) {
  // The block encoder carries state across samples and packs low nibble
  // first; an odd length leaves the last high nibble zero.
  util::Xoshiro256 rng(11);
  std::vector<i16> pcm(1001);
  for (auto& s : pcm) s = i16(i64(rng.next_below(65536)) - 32768);
  AdpcmCodec::State st, ref;
  const auto enc = AdpcmCodec::encode(pcm, st);
  ASSERT_EQ(enc.size(), 501u);
  for (std::size_t i = 0; i < pcm.size(); ++i) {
    const u8 nib = (i % 2 == 0) ? (enc[i / 2] & 0xF) : (enc[i / 2] >> 4);
    ASSERT_EQ(nib, reference_encode_sample(pcm[i], ref)) << "sample " << i;
  }
  EXPECT_EQ(enc.back() >> 4, 0);
  EXPECT_EQ(st.predictor, ref.predictor);
  EXPECT_EQ(st.step_index, ref.step_index);
}

}  // namespace
}  // namespace minova::workloads
