// Sinusoid generator for the synthetic audio feeds (ADPCM, GSM).
//
// The workloads define their audio with `std::sin(double(p) * w)` at each
// u32 phase p. Calling libm per sample took over a third of the Fig. 8
// set-up's host time, so a Tone anchors sin/cos once at the first phase of
// a run of consecutive phases and rotates by (sin w, cos w) from there.
// The rotated value is close to libm's but not bit-identical; `bound()`
// states how close, and callers keep a sample only when every value that
// close rounds to the same PCM sample, recomputing it with libm otherwise
// (DESIGN.md §10.5).
#pragma once

#include <algorithm>
#include <cmath>

#include "util/types.hpp"

namespace minova::workloads {

class Tone {
 public:
  explicit Tone(double w) : w_(w), step_s_(std::sin(w)), step_c_(std::cos(w)) {}

  /// Start at phase `p`: the next `next()` is exactly std::sin(double(p) * w).
  void anchor(u32 p) {
    const double x = double(p) * w_;
    s_ = std::sin(x);
    c_ = std::cos(x);
  }

  /// The value at the current phase; moves on to the following phase.
  double next() {
    const double v = s_;
    s_ = v * step_c_ + c_ * step_s_;
    c_ = c_ * step_c_ - v * step_s_;
    return v;
  }

  /// Bound on |next() - std::sin(double(p) * w)| over the `n` values after
  /// anchor(p0), i.e. phases p0 .. p0 + n - 1, which must not wrap.
  ///
  /// Two terms. (1) The reference rounds its argument: fl(p * w) is within
  /// half an ulp of p * w, and so is the anchor's, so the rotated angle
  /// x0 + k * w and the reference's fl((p0 + k) * w) differ by at most one
  /// ulp of the run's largest argument; sin is 1-Lipschitz. (2) Drift: each rotation step
  /// rounds two products and a sum per component and uses (sin w, cos w)
  /// rounded by libm (<= 1 ulp), about 2.5 * 2^-53 in total; libm's own
  /// error in the anchor and in the reference is below 2^-53 each. kDrift
  /// charges 2^-48 for each step and once more for the libm terms.
  double bound(u32 p0, u64 n) const {
    constexpr double kDrift = 0x1p-48;
    const double x_max = std::max(double(p0 + (n - 1)) * w_, 1.0);
    const double arg_ulp = std::ldexp(1.0, std::ilogb(x_max) - 52);
    return arg_ulp + (double(n) + 1.0) * kDrift;
  }

 private:
  double w_;
  double step_s_, step_c_;  // sin(w), cos(w)
  double s_ = 0.0, c_ = 1.0;
};

/// Calls f(p0, offset, n) for each run of the `count` phases phase,
/// phase + 1, ... (mod 2^32) that does not wrap: a wrap restarts at phase 0,
/// whose argument is nowhere near the rotated one, so it re-anchors.
template <class F>
void for_each_phase_run(u32 phase, u64 count, F&& f) {
  for (u64 done = 0; done < count;) {
    const u64 n = std::min(count - done, (u64(1) << 32) - phase);
    f(phase, done, n);
    phase += u32(n);
    done += n;
  }
}

/// The workloads' sample conversion: saturate, then truncate toward zero.
/// Monotonic, so if `v - e` and `v + e` convert alike, every value in
/// between does too.
inline i16 to_pcm(double v) { return i16(std::clamp(v, -32000.0, 32000.0)); }

/// Bound on the rounding the fast path adds after the tones: the amplitude
/// products, the pulse/noise sums and `v +- e` itself, each within half an
/// ulp of a value below 2^15 (<= 2^-38), with a wide margin.
inline constexpr double kSynthSlack = 0x1p-20;

}  // namespace minova::workloads
