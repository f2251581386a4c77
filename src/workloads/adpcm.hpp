// IMA-ADPCM codec (the "ADPCM compression" guest workload of §V.B).
//
// A real, bit-exact IMA ADPCM encoder/decoder over 16-bit PCM, plus a
// workload wrapper that streams synthetic audio through guest memory:
// each unit reads a block of samples from the guest buffer, encodes it,
// writes the compressed stream back, and charges per-sample compute.
#pragma once

#include <span>
#include <vector>

#include "cpu/code_region.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"
#include "workloads/services.hpp"

namespace minova::workloads {

class AdpcmCodec {
 public:
  struct State {
    i32 predictor = 0;
    int step_index = 0;
  };

  /// Encode 16-bit PCM into 4-bit IMA ADPCM nibbles (two per byte, low
  /// nibble first) in `out`, which holds at least (pcm.size() + 1) / 2 B.
  static void encode(std::span<const i16> pcm, State& state,
                     std::span<u8> out);
  static std::vector<u8> encode(std::span<const i16> pcm, State& state);
  /// Decode back to PCM.
  static std::vector<i16> decode(std::span<const u8> adpcm, State& state,
                                 std::size_t sample_count);

  /// Encode one sample; exposed for property tests.
  static u8 encode_sample(i16 sample, State& state);
  static i16 decode_sample(u8 nibble, State& state);
};

/// Guest workload: continuous ADPCM compression of a synthetic audio feed.
class AdpcmWorkload {
 public:
  /// `buffer_va` points at a guest region of at least 2.5 * block_samples
  /// bytes: the PCM block (2 B per sample), then its ADPCM encoding.
  AdpcmWorkload(cpu::CodeRegion code, vaddr_t buffer_va,
                u32 block_samples = 1024, u64 seed = 1);

  /// Process one block; returns encoded bytes produced.
  u32 run_unit(Services& svc);

  u64 blocks_done() const { return blocks_; }

  /// The synthetic audio feed (two tones plus noise) for the phases phase,
  /// phase + 1, ... (mod 2^32), one noise draw from `rng` per sample.
  static void synthesize(u32 phase, util::Xoshiro256& rng, std::span<i16> out);

 private:
  cpu::CodeRegion code_;
  vaddr_t buffer_va_;
  u32 block_samples_;
  util::Xoshiro256 rng_;
  AdpcmCodec::State state_;
  u64 blocks_ = 0;
  u32 phase_ = 0;  // synthetic audio phase accumulator
  std::vector<i16> pcm_;     // one block, reused
  std::vector<u8> encoded_;  // its encoding, reused
};

}  // namespace minova::workloads
