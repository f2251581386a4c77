// In-memory span tracer for the benchmark's traced run.
//
// A span is one timed call into a layer's public function, recorded from the
// benchmark's own code: name, host start/end (steady_clock ns), the span that
// caused it, and the run id. Each host thread appends to its own buffer; the
// buffers are separate cache-line-aligned allocations, so the host-parallel
// workload's worker threads never share a line through the tracer.
//
// Whenever a top-level span (a run chunk or a round) closes, the spans
// recorded since the previous one are folded into per-name totals and the
// self-time bookkeeping. The first spans of each thread stay in memory for
// the Chrome trace-event JSON file (opens in Perfetto / chrome://tracing);
// later ones are dropped once folded, which bounds memory on workloads that
// record millions of spans.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

enum class SpanName : std::uint16_t {
  kRun = 0,     // Kernel::run_for_us chunk
  kStep,        // GuestOs::step (benchmark-owned decorator)
  kRegRead,     // GuestContext::hypercall(kRegRead)
  kHwRequest,   // GuestContext::hypercall(kHwTaskRequest)
  kHwRelease,   // GuestContext::hypercall(kHwTaskRelease)
  kHwQuery,     // GuestContext::hypercall(kHwTaskQuery)
  kPump,        // Platform::pump in the drain loop
  kCreateVm,    // Kernel::create_vm
  kDestroyVm,   // Kernel::destroy_vm
  kRound,       // one contention round / churn block (parent of the above)
  kCount,
};

const char* span_name(SpanName n);

struct Span {
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint32_t parent = 0;  // index into the main thread's buffer
  SpanName name = SpanName::kRun;
  std::uint16_t run = 0;
};

class Tracer {
 public:
  static constexpr std::uint32_t kNoParent = 0xFFFF'FFFFu;

  struct Totals {
    std::uint64_t n = 0;
    double ns = 0;
    double mean_ns() const { return n == 0 ? 0.0 : ns / double(n); }
  };

  /// Registers the calling thread as thread 0, the owner of parent spans.
  /// At most `keep_per_thread` spans per thread are kept for the JSON file.
  Tracer(std::uint16_t run_id, std::size_t keep_per_thread);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  static std::uint64_t now_ns() {
    return std::uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                             std::chrono::steady_clock::now().time_since_epoch())
                             .count());
  }

  /// Open a span on the calling thread; returns its index in that thread's
  /// buffer (a valid parent id when called on thread 0). Top-level spans
  /// (no parent) must be opened on thread 0 while no worker is mid-span.
  std::uint32_t open(SpanName name, std::uint32_t parent);
  void close(std::uint32_t index);

  /// Parent for spans opened on worker threads (the chunk being run).
  void set_current_parent(std::uint32_t p) {
    current_parent_.store(p, std::memory_order_relaxed);
  }
  std::uint32_t current_parent() const {
    return current_parent_.load(std::memory_order_relaxed);
  }

  /// Count and summed duration of every folded span of one name.
  const Totals& totals(SpanName n) const { return totals_[std::size_t(n)]; }
  /// Host ns during which at least one guest step ran, summed over the run
  /// chunks that caused the steps (steps of one chunk may overlap in time
  /// when they run on several host threads).
  double step_cover_ns() const { return step_cover_ns_; }
  std::uint64_t span_count() const;

  /// Write the kept spans as Chrome trace-event JSON.
  bool write_chrome_json(const std::string& path) const;

  struct alignas(64) Buffer {
    std::vector<Span> spans;
    std::size_t folded = 0;  // spans[0, folded) are kept and already folded
    std::uint32_t thread = 0;
  };

 private:
  Buffer& local();
  void fold();  // only while every worker thread is idle

  std::uint16_t run_;
  std::size_t keep_;
  std::uint64_t epoch_;  // thread-local registrations belong to one tracer
  std::atomic<std::uint32_t> current_parent_{kNoParent};
  std::mutex mu_;  // guards bufs_ growth (first span of each thread)
  std::vector<std::unique_ptr<Buffer>> bufs_;
  std::array<Totals, std::size_t(SpanName::kCount)> totals_{};
  double step_cover_ns_ = 0;
};

/// The tracer of the traced pass, or nullptr when tracing is off.
Tracer* tracer();
void set_tracer(Tracer* t);

/// RAII span; does nothing when tracing is off.
class SpanScope {
 public:
  SpanScope(SpanName name, std::uint32_t parent = Tracer::kNoParent)
      : t_(tracer()) {
    if (t_ != nullptr) idx_ = t_->open(name, parent);
  }
  ~SpanScope() {
    if (t_ != nullptr) t_->close(idx_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  std::uint32_t index() const { return idx_; }

 private:
  Tracer* t_;
  std::uint32_t idx_ = Tracer::kNoParent;
};

}  // namespace perfbench
