#include "sim/stats.hpp"

#include <algorithm>
#include <numeric>

#include "util/assert.hpp"

namespace minova::sim {

void LatencyStat::ensure_sorted() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

double LatencyStat::mean() const {
  if (samples_.empty()) return 0.0;
  return std::accumulate(samples_.begin(), samples_.end(), 0.0) /
         double(samples_.size());
}

double LatencyStat::min() const {
  MINOVA_CHECK(!samples_.empty());
  return min_;
}

double LatencyStat::max() const {
  MINOVA_CHECK(!samples_.empty());
  return max_;
}

double LatencyStat::percentile(double p) const {
  MINOVA_CHECK(!samples_.empty());
  MINOVA_CHECK(p >= 0.0 && p <= 100.0);
  ensure_sorted();
  const double idx = p / 100.0 * double(samples_.size() - 1);
  const std::size_t lo = std::size_t(idx);
  const std::size_t hi = std::min(lo + 1, samples_.size() - 1);
  const double frac = idx - double(lo);
  return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
}

void StatsRegistry::reset() {
  // Keep the counter nodes: CounterHandles point into them.
  for (auto& [name, value] : counters_) value = 0;
}

}  // namespace minova::sim
