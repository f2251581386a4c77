#include "workloads/adpcm.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "util/assert.hpp"
#include "workloads/tone.hpp"

namespace minova::workloads {

namespace {
constexpr int kStepTable[89] = {
    7,     8,     9,     10,    11,    12,    13,    14,    16,    17,
    19,    21,    23,    25,    28,    31,    34,    37,    41,    45,
    50,    55,    60,    66,    73,    80,    88,    97,    107,   118,
    130,   143,   157,   173,   190,   209,   230,   253,   279,   307,
    337,   371,   408,   449,   494,   544,   598,   658,   724,   796,
    876,   963,   1060,  1166,  1282,  1411,  1552,  1707,  1878,  2066,
    2272,  2499,  2749,  3024,  3327,  3660,  4026,  4428,  4871,  5358,
    5894,  6484,  7132,  7845,  8630,  9493,  10442, 11487, 12635, 13899,
    15289, 16818, 18500, 20350, 22385, 24623, 27086, 29794, 32767};

// kNextIndex[i][m]: the step index that follows index i after a nibble
// with magnitude bits m, i.e. clamp(i + IMA index adjustment, 0, 88).
constexpr auto kNextIndex = [] {
  constexpr int kIndexAdjust[8] = {-1, -1, -1, -1, 2, 4, 6, 8};
  std::array<std::array<u8, 8>, 89> t{};
  for (int i = 0; i < 89; ++i)
    for (int m = 0; m < 8; ++m)
      t[i][m] = u8(std::clamp(i + kIndexAdjust[m], 0, 88));
  return t;
}();
}  // namespace

u8 AdpcmCodec::encode_sample(i16 sample, State& state) {
  u8 byte = 0;
  encode({&sample, 1}, state, {&byte, 1});
  return byte;
}

i16 AdpcmCodec::decode_sample(u8 nibble, State& state) {
  const int step = kStepTable[state.step_index];
  int delta = step >> 3;
  if (nibble & 4) delta += step;
  if (nibble & 2) delta += step >> 1;
  if (nibble & 1) delta += step >> 2;
  state.predictor += (nibble & 8) ? -delta : delta;
  state.predictor = std::clamp(state.predictor, -32768, 32767);
  state.step_index = kNextIndex[state.step_index][nibble & 7];
  return i16(state.predictor);
}

void AdpcmCodec::encode(std::span<const i16> pcm, State& state,
                        std::span<u8> out) {
  MINOVA_CHECK(out.size() >= (pcm.size() + 1) / 2);
  // The IMA reference encoder with its three magnitude tests as masks
  // (all ones when the test holds) instead of branches: the samples are
  // data, so the branches mispredicted. Same integer arithmetic.
  i32 predictor = state.predictor;
  int index = state.step_index;
  for (std::size_t i = 0; i < pcm.size(); ++i) {
    const int step = kStepTable[index];
    int diff = int(pcm[i]) - predictor;
    const int neg = diff >> 31;  // -1 when diff < 0
    diff = (diff ^ neg) - neg;
    int delta = step >> 3;
    const int b2 = -int(diff >= step);
    diff -= step & b2;
    delta += step & b2;
    const int b1 = -int(diff >= step >> 1);
    diff -= (step >> 1) & b1;
    delta += (step >> 1) & b1;
    const int b0 = -int(diff >= step >> 2);
    delta += (step >> 2) & b0;
    const int mag = (b2 & 4) | (b1 & 2) | (b0 & 1);
    predictor = std::clamp(predictor + ((delta ^ neg) - neg), -32768, 32767);
    index = kNextIndex[index][mag];
    const u8 nib = u8((neg & 8) | mag);
    if (i % 2 == 0)
      out[i / 2] = nib;
    else
      out[i / 2] |= u8(nib << 4);
  }
  state.predictor = predictor;
  state.step_index = index;
}

std::vector<u8> AdpcmCodec::encode(std::span<const i16> pcm, State& state) {
  std::vector<u8> out((pcm.size() + 1) / 2);
  encode(pcm, state, out);
  return out;
}

std::vector<i16> AdpcmCodec::decode(std::span<const u8> adpcm, State& state,
                                    std::size_t sample_count) {
  std::vector<i16> out(sample_count);
  for (std::size_t i = 0; i < sample_count; ++i) {
    const u8 byte = adpcm[i / 2];
    const u8 nib = (i % 2 == 0) ? (byte & 0xF) : (byte >> 4);
    out[i] = decode_sample(nib, state);
  }
  return out;
}

AdpcmWorkload::AdpcmWorkload(cpu::CodeRegion code, vaddr_t buffer_va,
                             u32 block_samples, u64 seed)
    : code_(code),
      buffer_va_(buffer_va),
      block_samples_(block_samples),
      rng_(seed),
      pcm_(block_samples),
      encoded_((block_samples + 1) / 2) {}

namespace {
constexpr double kHiW = 0.031, kLoW = 0.0072;
}  // namespace

void AdpcmWorkload::synthesize(u32 phase, util::Xoshiro256& rng,
                               std::span<i16> out) {
  auto mix = [](double hi, double lo, double noise) {
    return 8000.0 * hi + 4000.0 * lo + noise;
  };
  // Built on first use, so processes that never synthesize never run libm.
  static const Tone kHiTone(kHiW), kLoTone(kLoW);
  for_each_phase_run(phase, out.size(), [&](u32 p0, u64 off, u64 n) {
    Tone hi = kHiTone, lo = kLoTone;
    hi.anchor(p0);
    lo.anchor(p0);
    const double guard =
        8000.0 * hi.bound(p0, n) + 4000.0 * lo.bound(p0, n) + kSynthSlack;
    for (u64 k = 0; k < n; ++k) {
      const double noise = double(i64(rng.next_below(1200)) - 600);
      const double v = mix(hi.next(), lo.next(), noise);
      const i16 s = to_pcm(v - guard);
      if (s == to_pcm(v + guard)) {
        out[off + k] = s;
      } else {
        const double t = double(p0 + u32(k));
        out[off + k] =
            to_pcm(mix(std::sin(t * kHiW), std::sin(t * kLoW), noise));
      }
    }
  });
}

u32 AdpcmWorkload::run_unit(Services& svc) {
  // Synthesize a block of audio (two tones + noise) into the guest buffer.
  synthesize(phase_, rng_, pcm_);
  phase_ += block_samples_;
  const std::span<u8> raw(reinterpret_cast<u8*>(pcm_.data()),
                          pcm_.size() * sizeof(i16));
  if (!svc.write_block(buffer_va_, raw)) return 0;

  // "Run" the encoder: code footprint + per-sample ALU cost, then real
  // encoding over the data read back from guest memory.
  svc.exec(code_);
  if (!svc.read_block(buffer_va_, raw)) return 0;
  AdpcmCodec::encode(pcm_, state_, encoded_);
  svc.spend_insns(u64(block_samples_) * 22);  // ~22 insns/sample on A9

  if (!svc.write_block(buffer_va_ + u32(raw.size()), encoded_)) return 0;
  ++blocks_;
  return u32(encoded_.size());
}

}  // namespace minova::workloads
