#include "cache/cache.hpp"

#include <algorithm>
#include <bit>

namespace minova::cache {

Cache::Cache(const CacheConfig& cfg) : cfg_(cfg) {
  MINOVA_CHECK(is_pow2(cfg.line_bytes));
  MINOVA_CHECK(cfg.line_bytes >= 4);  // keeps bit 31 of a tag word free
  MINOVA_CHECK(cfg.ways > 0);
  MINOVA_CHECK(cfg.size_bytes % (cfg.line_bytes * cfg.ways) == 0);
  sets_ = cfg.size_bytes / (cfg.line_bytes * cfg.ways);
  MINOVA_CHECK(is_pow2(sets_));
  line_shift_ = u32(std::countr_zero(cfg.line_bytes));
  tags_.assign(std::size_t(sets_) * cfg.ways, kInvalidTag);
  if (cfg.policy == ReplacementPolicy::kLru) lru_.assign(tags_.size(), 0);
}

Cache::AccessResult Cache::access(paddr_t pa, bool write) {
  const u32 tag = line_addr(pa);
  const std::size_t base = set_base(pa);
  u32* tagp = &tags_[base];
  const u32 ways = cfg_.ways;
  const u32 dirty = write ? kDirtyBit : 0u;

  // Hit path: branchless scan over the tag row. A tag lives in at most one
  // way, so order of assignment doesn't matter and the loop vectorizes.
  const u32 hit_way = way_of(base, tag);
  if (hit_way != ways) {
    // Under pseudo-random replacement there are no use stamps at all.
    if (!lru_.empty()) lru_[base + hit_way] = ++use_clock_;
    tagp[hit_way] |= dirty;
    ++stats_.hits;
    return AccessResult{.hit = true};
  }

  // Miss: pick the first invalid way, else the policy's victim.
  ++stats_.misses;
  ++fill_epoch_;
  u32 victim_way = ways;
  for (u32 w = 0; w < ways; ++w) {
    if (tagp[w] == kInvalidTag) {
      victim_way = w;
      break;
    }
  }
  AccessResult res{};
  if (victim_way == ways) {
    if (!lru_.empty()) {
      victim_way = 0;
      for (u32 w = 1; w < ways; ++w)
        if (lru_[base + w] < lru_[base + victim_way]) victim_way = w;
    } else {
      // 16-bit Galois LFSR, as in the A9/PL310 pseudo-random generators.
      lfsr_ = (lfsr_ >> 1) ^ ((lfsr_ & 1u) ? 0xB400u : 0u);
      victim_way = lfsr_ % ways;
    }
    ++stats_.evictions;
    res.evicted_valid = true;
    res.victim_line = paddr_t(tagp[victim_way] & ~kDirtyBit) << line_shift_;
    if (tagp[victim_way] & kDirtyBit) {
      res.writeback = true;
      ++stats_.writebacks;
    }
  }
  tagp[victim_way] = tag | dirty;
  if (!lru_.empty()) lru_[base + victim_way] = ++use_clock_;
  return res;
}

void Cache::credit_hits(paddr_t pa, u64 n, bool write) {
  if (n == 0) return;
  const std::size_t base = set_base(pa);
  const u32 way = way_of(base, line_addr(pa));
  MINOVA_CHECK_MSG(way != cfg_.ways, "credited hits on an absent line");
  if (!lru_.empty()) {
    use_clock_ += n;
    lru_[base + way] = use_clock_;
  }
  if (write) tags_[base + way] |= kDirtyBit;
  stats_.hits += n;
}

bool Cache::contains(paddr_t pa) const {
  return way_of(set_base(pa), line_addr(pa)) != cfg_.ways;
}

void Cache::invalidate_all() {
  ++fill_epoch_;
  std::fill(tags_.begin(), tags_.end(), kInvalidTag);
  std::fill(lru_.begin(), lru_.end(), 0);
}

u32 Cache::flush_all() {
  ++fill_epoch_;
  u32 dirty = 0;
  for (u32& t : tags_) {
    if (t != kInvalidTag && (t & kDirtyBit)) ++dirty;
    t = kInvalidTag;
  }
  std::fill(lru_.begin(), lru_.end(), 0);
  stats_.writebacks += dirty;
  ++stats_.flushes;
  return dirty;
}

bool Cache::invalidate_line(paddr_t pa) {
  const std::size_t base = set_base(pa);
  const u32 way = way_of(base, line_addr(pa));
  if (way == cfg_.ways) return false;
  ++fill_epoch_;
  const bool was_dirty = (tags_[base + way] & kDirtyBit) != 0;
  tags_[base + way] = kInvalidTag;
  if (!lru_.empty()) lru_[base + way] = 0;
  if (was_dirty) ++stats_.writebacks;
  return was_dirty;
}

}  // namespace minova::cache
