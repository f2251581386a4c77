// GSM-style speech frame encoder (the "GSM encoding" guest workload of
// §V.B).
//
// Implements the front half of a GSM 06.10 full-rate encoder over 160-
// sample frames: preprocessing (offset compensation + pre-emphasis),
// autocorrelation, Schur recursion to reflection coefficients, and LAR
// quantization. This is the computation that dominates the codec's cost
// and gives the workload a realistic mixed ALU/memory profile.
#pragma once

#include <array>
#include <span>

#include "cpu/code_region.hpp"
#include "util/rng.hpp"
#include "util/types.hpp"
#include "workloads/services.hpp"

namespace minova::workloads {

class GsmEncoder {
 public:
  static constexpr u32 kFrameSamples = 160;

  struct Frame {
    std::array<i8, 8> lar;   // quantized log-area ratios
    std::array<double, 9> autocorr;
  };

  /// Encode one frame of 16-bit PCM. Stateless across frames except for
  /// the preprocessing filters.
  Frame encode_frame(std::span<const i16, kFrameSamples> pcm);

 private:
  double z1_ = 0.0;   // offset-compensation state
  double l_z2_ = 0.0;
  double mp_ = 0.0;   // pre-emphasis memory
};

/// Guest workload: continuous GSM encoding of synthetic speech.
class GsmWorkload {
 public:
  GsmWorkload(cpu::CodeRegion code, vaddr_t buffer_va, u64 seed = 2);

  /// Encode a few frames; returns frames processed.
  u32 run_unit(Services& svc);

  u64 frames_done() const { return frames_; }

  /// The synthetic voiced speech (pitch pulses, formant-ish tones, noise)
  /// for the phases phase, phase + 1, ... (mod 2^32), one noise draw from
  /// `rng` per sample.
  static void synthesize(u32 phase, util::Xoshiro256& rng, std::span<i16> out);

 private:
  cpu::CodeRegion code_;
  vaddr_t buffer_va_;
  util::Xoshiro256 rng_;
  GsmEncoder enc_;
  u64 frames_ = 0;
  u32 phase_ = 0;
};

}  // namespace minova::workloads
