#include "workloads/gsm.hpp"

#include <algorithm>
#include <cmath>

#include "workloads/tone.hpp"

namespace minova::workloads {

GsmEncoder::Frame GsmEncoder::encode_frame(
    std::span<const i16, kFrameSamples> pcm) {
  // 1) Preprocessing: offset compensation + pre-emphasis (GSM 06.10 §4.2.1).
  std::array<double, kFrameSamples> s{};
  for (u32 k = 0; k < kFrameSamples; ++k) {
    const double so = double(pcm[k]);
    const double s1 = so - z1_;
    z1_ = so;
    l_z2_ = 0.999 * l_z2_ + s1;  // high-pass accumulator
    const double sof = l_z2_;
    s[k] = sof - 0.86 * mp_;     // pre-emphasis
    mp_ = sof;
  }

  // 2) Autocorrelation, lags 0..8 (§4.2.4).
  Frame f{};
  for (u32 lag = 0; lag <= 8; ++lag) {
    double acc = 0;
    for (u32 k = lag; k < kFrameSamples; ++k) acc += s[k] * s[k - lag];
    f.autocorr[lag] = acc;
  }

  // 3) Schur recursion -> 8 reflection coefficients (§4.2.5).
  std::array<double, 9> p{}, kk{};
  std::array<double, 9> acf = f.autocorr;
  if (acf[0] == 0.0) acf[0] = 1.0;  // silence guard
  std::array<double, 9> K{}, P{};
  for (u32 i = 0; i <= 8; ++i) P[i] = acf[i];
  for (u32 i = 1; i <= 8; ++i) K[i - 1] = acf[i];
  std::array<double, 8> r{};
  for (u32 n = 0; n < 8; ++n) {
    if (std::abs(P[0]) < 1e-12) break;
    r[n] = -K[0] / P[0];
    // Update recursions.
    for (u32 m = 0; m < 8 - n; ++m) {
      const double Pm = P[m + 1] + r[n] * K[m];
      const double Km = K[m] + r[n] * P[m + 1];
      P[m] = Pm;
      K[m] = Km;
    }
    P[8 - n] = 0;  // shrink window
  }
  (void)p;
  (void)kk;

  // 4) Reflection coefficients -> log-area ratios, quantized to 6 bits
  // (§4.2.6/4.2.7, simplified uniform quantizer).
  for (u32 i = 0; i < 8; ++i) {
    const double rc = std::clamp(r[i], -0.9999, 0.9999);
    const double lar = std::log10((1.0 + rc) / (1.0 - rc));
    f.lar[i] = i8(std::clamp(lar * 16.0, -32.0, 31.0));
  }
  return f;
}

GsmWorkload::GsmWorkload(cpu::CodeRegion code, vaddr_t buffer_va, u64 seed)
    : code_(code), buffer_va_(buffer_va), rng_(seed) {}

namespace {
constexpr double kFormantW = 0.08, kEnvelopeW = 0.009;
}  // namespace

void GsmWorkload::synthesize(u32 phase, util::Xoshiro256& rng,
                             std::span<i16> out) {
  auto mix = [](u32 p, double formant, double envelope, double noise) {
    double v = 5000.0 * formant * envelope;
    if (p % 64 < 4) v += 9000.0;  // glottal pulse
    return v + noise;
  };
  // Built on first use, so processes that never synthesize never run libm.
  static const Tone kFormantTone(kFormantW), kEnvelopeTone(kEnvelopeW);
  for_each_phase_run(phase, out.size(), [&](u32 p0, u64 off, u64 n) {
    Tone formant = kFormantTone, envelope = kEnvelopeTone;
    formant.anchor(p0);
    envelope.anchor(p0);
    // |a'b' - ab| <= |a' - a| + |b' - b| + |a' - a||b' - b| for |a|, |b| <= 1;
    // the last term is far below the slack.
    const double guard =
        5000.0 * (formant.bound(p0, n) + envelope.bound(p0, n)) + kSynthSlack;
    for (u64 k = 0; k < n; ++k) {
      const u32 p = p0 + u32(k);
      const double noise = double(i64(rng.next_below(900)) - 450);
      const double v = mix(p, formant.next(), envelope.next(), noise);
      const i16 s = to_pcm(v - guard);
      if (s == to_pcm(v + guard)) {
        out[off + k] = s;
      } else {
        const double t = double(p);
        out[off + k] = to_pcm(
            mix(p, std::sin(t * kFormantW), std::sin(t * kEnvelopeW), noise));
      }
    }
  });
}

u32 GsmWorkload::run_unit(Services& svc) {
  constexpr u32 kFramesPerUnit = 4;
  for (u32 fr = 0; fr < kFramesPerUnit; ++fr) {
    std::array<i16, GsmEncoder::kFrameSamples> pcm{};
    synthesize(phase_, rng_, pcm);
    phase_ += u32(pcm.size());
    const std::span<u8> raw(reinterpret_cast<u8*>(pcm.data()),
                            pcm.size() * sizeof(i16));
    if (!svc.write_block(buffer_va_, raw)) return fr;

    svc.exec(code_);
    if (!svc.read_block(buffer_va_, raw)) return fr;
    const auto encoded = enc_.encode_frame(pcm);
    // Autocorrelation dominates: ~9 lags x 160 MACs + filters.
    svc.spend_insns(9 * 160 * 2 + 160 * 8);
    svc.use_vfp();  // the Schur recursion runs on the VFP

    // Store the LARs back into guest memory (the "bitstream").
    const std::span<const u8> lar_bytes(
        reinterpret_cast<const u8*>(encoded.lar.data()), encoded.lar.size());
    if (!svc.write_block(buffer_va_ + u32(raw.size()), lar_bytes)) return fr;
    ++frames_;
  }
  return kFramesPerUnit;
}

}  // namespace minova::workloads
