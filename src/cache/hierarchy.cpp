#include "cache/hierarchy.hpp"

namespace minova::cache {

namespace {
constexpr u32 kWritebackCycles = 8;  // posted write charged to the evictor
}  // namespace

cycles_t MemHierarchy::access_through(Cache& l1, paddr_t pa, bool write) {
  cycles_t cost = l1.config().hit_cycles;
  const auto r1 = l1.access(pa, write);
  if (r1.hit) return cost;
  if (r1.writeback) {
    // Dirty L1 victim is written back into L2.
    cost += kWritebackCycles;
    l2_.access(r1.victim_line, /*write=*/true);
  }
  cost += l2_.config().hit_cycles;
  const auto r2 = l2_.access(pa, /*write=*/false);  // fill, dirtied on wb only
  if (r2.hit) return cost;
  if (r2.writeback) cost += kWritebackCycles;
  cost += kDramCycles;
  return cost;
}

cycles_t MemHierarchy::access_data(paddr_t pa, bool write) {
  return access_through(l1d_, pa, write);
}

cycles_t MemHierarchy::access_ifetch(paddr_t pa) {
  return access_through(l1i_, pa, /*write=*/false);
}

cycles_t MemHierarchy::access_walk(paddr_t pa) {
  cycles_t cost = l2_.config().hit_cycles;
  const auto r = l2_.access(pa, /*write=*/false);
  if (!r.hit) {
    if (r.writeback) cost += kWritebackCycles;
    cost += kDramCycles;
  }
  return cost;
}

cycles_t MemHierarchy::flush_all() {
  const u32 d1 = l1d_.flush_all();
  l1i_.flush_all();
  const u32 d2 = l2_.flush_all();
  // Each dirty line pays a posted writeback; walking the tags costs roughly
  // one cycle per L1 line + per L2 line (set/way iteration).
  const u32 tag_walk = l1d_.config().size_bytes / l1d_.config().line_bytes +
                       l1i_.config().size_bytes / l1i_.config().line_bytes +
                       l2_.config().size_bytes / l2_.config().line_bytes;
  return cycles_t(tag_walk) / 8 + cycles_t(d1 + d2) * kWritebackCycles;
}

cycles_t MemHierarchy::invalidate_icache() {
  l1i_.invalidate_all();
  return l1i_.config().size_bytes / l1i_.config().line_bytes / 8;
}

void MemHierarchy::reset_stats() {
  l1i_.reset_stats();
  l1d_.reset_stats();
  l2_.reset_stats();
}

}  // namespace minova::cache
