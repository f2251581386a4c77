// Lightweight statistics registry.
//
// Components register named counters and latency accumulators; benches and
// tests read them back to validate behaviour (e.g. cache miss growth with
// guest count) without plumbing bespoke probes through every layer.
//
// Hot paths must not pay a string hash per event: components resolve a
// name once (usually at construction) into a `CounterHandle` — a stable
// pointer to the counter's slot — and bump through it. Handles stay valid
// for the registry's lifetime: counter nodes are never erased, and
// `reset()` zeroes values in place instead of clearing the map.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "util/types.hpp"

namespace minova::sim {

/// Interned reference to one named counter. Cheap to copy; bumping is a
/// single pointer-indirect increment (no hashing, no lookup).
class CounterHandle {
 public:
  CounterHandle() = default;

  void inc(u64 n = 1) { *slot_ += n; }
  CounterHandle& operator+=(u64 n) {
    *slot_ += n;
    return *this;
  }
  CounterHandle& operator++() {
    ++*slot_;
    return *this;
  }
  u64 value() const { return slot_ == nullptr ? 0 : *slot_; }
  explicit operator bool() const { return slot_ != nullptr; }

 private:
  friend class StatsRegistry;
  explicit CounterHandle(u64* slot) : slot_(slot) {}
  u64* slot_ = nullptr;
};

/// Accumulates samples of a latency (or any scalar) and exposes summary
/// statistics. Deliberately keeps all samples: experiment runs are bounded
/// and exact percentiles beat streaming approximations for reproducibility.
///
/// min/max are tracked incrementally so querying them never sorts; the
/// sample vector is only sorted (once, cached via `sorted_`) when a
/// percentile is requested, and `add` keeps the cache valid for monotone
/// streams instead of unconditionally invalidating it.
class LatencyStat {
 public:
  void add(double v) {
    if (samples_.empty()) {
      if (samples_.capacity() == 0) samples_.reserve(kInitialCapacity);
      min_ = max_ = v;
    } else {
      if (v < min_) min_ = v;
      if (v > max_) max_ = v;
      if (sorted_ && v < samples_.back()) sorted_ = false;
    }
    samples_.push_back(v);
  }
  std::size_t count() const { return samples_.size(); }
  double mean() const;
  double min() const;
  double max() const;
  double percentile(double p) const;  // p in [0,100]
  void clear() {
    samples_.clear();
    sorted_ = true;
    min_ = 0.0;
    max_ = 0.0;
  }
  /// Fold another accumulator into this one. Samples are appended in
  /// `other`'s insertion order, so merging per-core accumulators in core-id
  /// order yields the same vector on every run regardless of host threading.
  void merge(const LatencyStat& other);
  const std::vector<double>& samples() const { return samples_; }

 private:
  static constexpr std::size_t kInitialCapacity = 1024;
  mutable std::vector<double> samples_;
  mutable bool sorted_ = true;  // empty vector is trivially sorted
  double min_ = 0.0;
  double max_ = 0.0;
  void ensure_sorted() const;
};

class StatsRegistry {
 public:
  u64& counter(const std::string& name) { return counters_[name]; }
  u64 counter_value(const std::string& name) const {
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
  }

  /// Resolve `name` once into a stable handle. Valid for the registry's
  /// lifetime (survives `reset()`).
  CounterHandle handle(const std::string& name) {
    return CounterHandle(&counters_[name]);
  }

  LatencyStat& latency(const std::string& name) { return latencies_[name]; }
  const LatencyStat* find_latency(const std::string& name) const {
    auto it = latencies_.find(name);
    return it == latencies_.end() ? nullptr : &it->second;
  }

  /// Zero every counter in place (interned handles stay valid) and drop
  /// all latency accumulators.
  void reset();

  /// Key-wise accumulate another registry into this one: counter values add,
  /// latency stats merge. Keys live in std::map, so the resulting iteration
  /// (and thus any JSON emit) order is lexicographic and independent of the
  /// merge order — golden diffs stay byte-stable.
  void merge_from(const StatsRegistry& other);

  const std::map<std::string, u64>& counters() const { return counters_; }

 private:
  std::map<std::string, u64> counters_;
  std::map<std::string, LatencyStat> latencies_;
};

}  // namespace minova::sim
