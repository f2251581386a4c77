#include "tracer.hpp"

#include <algorithm>
#include <cstdio>

namespace perfbench {

namespace {

std::atomic<Tracer*> g_tracer{nullptr};
std::atomic<std::uint64_t> g_epoch{0};

struct LocalSlot {
  Tracer::Buffer* buf = nullptr;
  std::uint64_t epoch = 0;
};
thread_local LocalSlot tl_slot;

}  // namespace

const char* span_name(SpanName n) {
  switch (n) {
    case SpanName::kRun: return "nova.run_for_us";
    case SpanName::kStep: return "guest.step";
    case SpanName::kRegRead: return "hc.reg_read";
    case SpanName::kHwRequest: return "hc.hw_task_request";
    case SpanName::kHwRelease: return "hc.hw_task_release";
    case SpanName::kHwQuery: return "hc.hw_task_query";
    case SpanName::kPump: return "pl.pump";
    case SpanName::kCreateVm: return "nova.create_vm";
    case SpanName::kDestroyVm: return "nova.destroy_vm";
    case SpanName::kRound: return "bench.round";
    case SpanName::kCount: break;
  }
  return "?";
}

Tracer* tracer() { return g_tracer.load(std::memory_order_relaxed); }
void set_tracer(Tracer* t) { g_tracer.store(t, std::memory_order_release); }

Tracer::Tracer(std::uint16_t run_id, std::size_t keep_per_thread)
    : run_(run_id), keep_(keep_per_thread), epoch_(g_epoch.fetch_add(1) + 1) {
  local();  // the constructing thread is thread 0
}

Tracer::Buffer& Tracer::local() {
  if (tl_slot.epoch != epoch_ || tl_slot.buf == nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    auto b = std::make_unique<Buffer>();
    b->thread = std::uint32_t(bufs_.size());
    b->spans.reserve(1u << 16);
    tl_slot.buf = b.get();
    tl_slot.epoch = epoch_;
    bufs_.push_back(std::move(b));
  }
  return *tl_slot.buf;
}

std::uint32_t Tracer::open(SpanName name, std::uint32_t parent) {
  Buffer& b = local();
  Span s;
  s.parent = parent;
  s.name = name;
  s.run = run_;
  s.start_ns = now_ns();
  b.spans.push_back(s);
  return std::uint32_t(b.spans.size() - 1);
}

void Tracer::close(std::uint32_t index) {
  Span& s = local().spans[index];
  s.end_ns = now_ns();
  if (s.parent == kNoParent) fold();
}

void Tracer::fold() {
  struct Step {
    std::uint32_t parent;
    std::uint64_t start, end;
  };
  std::vector<Step> steps;
  for (const auto& bp : bufs_) {
    Buffer& b = *bp;
    for (std::size_t i = b.folded; i < b.spans.size(); ++i) {
      const Span& s = b.spans[i];
      Totals& t = totals_[std::size_t(s.name)];
      ++t.n;
      t.ns += double(s.end_ns - s.start_ns);
      if (s.name == SpanName::kStep && s.parent != kNoParent)
        steps.push_back({s.parent, s.start_ns, s.end_ns});
    }
    if (b.spans.size() <= keep_)
      b.folded = b.spans.size();
    else
      b.spans.resize(b.folded);
  }
  // Union of each chunk's step intervals.
  std::sort(steps.begin(), steps.end(), [](const Step& a, const Step& b) {
    return a.parent != b.parent ? a.parent < b.parent : a.start < b.start;
  });
  for (std::size_t i = 0; i < steps.size();) {
    std::uint64_t lo = steps[i].start, hi = steps[i].end;
    std::size_t j = i + 1;
    for (; j < steps.size() && steps[j].parent == steps[i].parent; ++j) {
      if (steps[j].start > hi) {
        step_cover_ns_ += double(hi - lo);
        lo = steps[j].start;
        hi = steps[j].end;
      } else if (steps[j].end > hi) {
        hi = steps[j].end;
      }
    }
    step_cover_ns_ += double(hi - lo);
    i = j;
  }
}

std::uint64_t Tracer::span_count() const {
  std::uint64_t n = 0;
  for (const Totals& t : totals_) n += t.n;
  return n;
}

bool Tracer::write_chrome_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::uint64_t t0 = ~0ull;
  for (const auto& b : bufs_)
    for (std::size_t i = 0; i < b->folded; ++i)
      t0 = std::min(t0, b->spans[i].start_ns);
  std::fprintf(f, "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
  bool first = true;
  for (const auto& b : bufs_) {
    for (std::size_t i = 0; i < b->folded; ++i) {
      const Span& s = b->spans[i];
      std::fprintf(f,
                   "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                   "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                   "{\"run\": %u, \"id\": %zu, \"parent\": %d}}\n",
                   first ? "" : ",", span_name(s.name), b->thread,
                   double(s.start_ns - t0) / 1e3,
                   double(s.end_ns - s.start_ns) / 1e3, unsigned(s.run), i,
                   s.parent == kNoParent ? -1 : int(s.parent));
      first = false;
    }
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
