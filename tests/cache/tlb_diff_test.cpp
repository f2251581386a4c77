// Differential test: the chain-indexed `Tlb` must be bit-identical to the
// linear-scan `RefTlb` golden model — same hit/miss sequence, same winning
// entry, same replacement decisions (slot-for-slot entry arrays, including
// LRU stamps) and same statistics — under randomized traces mixing ASIDs,
// small pages and sections, global and non-global entries, and interleaved
// flush_all / flush_asid / flush_va maintenance. This is the invariant
// that makes host-side TLB speedups invisible to every simulated number
// (DESIGN.md §10).
#include <gtest/gtest.h>

#include "cache/tlb.hpp"
#include "ref/ref_tlb.hpp"
#include "util/rng.hpp"

namespace minova::cache {
namespace {

void expect_same_entry_arrays(const Tlb& t, const RefTlb& r, u64 step) {
  const auto& a = t.entry_array();
  const auto& b = r.entry_array();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t s = 0; s < a.size(); ++s) {
    ASSERT_EQ(a[s].valid, b[s].valid) << "slot " << s << " step " << step;
    if (!a[s].valid) continue;
    ASSERT_EQ(a[s].asid, b[s].asid) << "slot " << s << " step " << step;
    ASSERT_EQ(a[s].vpage, b[s].vpage) << "slot " << s << " step " << step;
    ASSERT_EQ(a[s].ppage, b[s].ppage) << "slot " << s << " step " << step;
    ASSERT_EQ(a[s].attrs, b[s].attrs) << "slot " << s << " step " << step;
    ASSERT_EQ(a[s].global, b[s].global) << "slot " << s << " step " << step;
    ASSERT_EQ(a[s].large, b[s].large) << "slot " << s << " step " << step;
    ASSERT_EQ(a[s].lru, b[s].lru) << "slot " << s << " step " << step;
  }
}

void expect_same_stats(const Tlb& t, const RefTlb& r) {
  EXPECT_EQ(t.stats().hits, r.stats().hits);
  EXPECT_EQ(t.stats().misses, r.stats().misses);
  EXPECT_EQ(t.stats().flushes, r.stats().flushes);
  EXPECT_EQ(t.stats().asid_flushes, r.stats().asid_flushes);
  EXPECT_EQ(t.stats().va_flushes, r.stats().va_flushes);
  EXPECT_EQ(t.valid_count(), r.valid_count());
}

// One randomized campaign over both implementations. `capacity` small
// enough that replacement and flush interleavings are exercised hard.
void run_campaign(u64 seed, u32 capacity, u64 steps) {
  Tlb tlb(capacity);
  RefTlb ref(capacity);
  util::Xoshiro256 rng(seed);

  // Bounded page universe so lookups re-hit inserted translations while
  // sections and small pages overlap the same VA ranges.
  const auto rand_va = [&]() -> vaddr_t {
    return vaddr_t((rng.next() % 512) * 0x1000u + (rng.next() % 0x1000u));
  };
  const auto rand_asid = [&]() -> u32 { return u32(rng.next() % 5); };

  for (u64 step = 0; step < steps; ++step) {
    const u64 op = rng.next() % 100;
    if (op < 55) {
      // Lookup: identical outcome and identical winning translation.
      const u32 asid = rand_asid();
      const vaddr_t va = rand_va();
      const TlbEntry* a = tlb.lookup(asid, va);
      const TlbEntry* b = ref.lookup(asid, va);
      ASSERT_EQ(a != nullptr, b != nullptr)
          << "hit/miss divergence at step " << step;
      if (a != nullptr) {
        ASSERT_EQ(a->ppage, b->ppage) << "step " << step;
        ASSERT_EQ(a->attrs, b->attrs) << "step " << step;
        ASSERT_EQ(a->lru, b->lru) << "step " << step;
      }
    } else if (op < 85) {
      // Insert: small page or section, global or ASID-tagged.
      TlbEntry e;
      e.valid = true;
      e.asid = rand_asid();
      e.global = (rng.next() % 8) == 0;
      e.large = (rng.next() % 4) == 0;
      const vaddr_t va = rand_va();
      e.vpage = e.large ? (vaddr_t(va >> 20) << 8) : (va >> 12);
      e.ppage = paddr_t(rng.next() % 0x10000);
      e.attrs = u32(rng.next() % 256);
      const TlbEntry* a = tlb.insert(e);
      const TlbEntry* b = ref.insert(e);
      // Same slot chosen by both replacement policies.
      ASSERT_EQ(a - tlb.entry_array().data(), b - ref.entry_array().data())
          << "replacement divergence at step " << step;
    } else if (op < 90) {
      const vaddr_t va = rand_va();
      tlb.flush_va(va);
      ref.flush_va(va);
    } else if (op < 97) {
      const u32 asid = rand_asid();
      tlb.flush_asid(asid);
      ref.flush_asid(asid);
    } else {
      tlb.flush_all();
      ref.flush_all();
    }
    if (step % 4096 == 0) expect_same_entry_arrays(tlb, ref, step);
  }
  expect_same_entry_arrays(tlb, ref, steps);
  expect_same_stats(tlb, ref);
}

TEST(TlbDifferential, RandomTrace100kAccessesFullSize) {
  run_campaign(/*seed=*/0x5EED'0001ull, /*capacity=*/128, /*steps=*/120'000);
}

TEST(TlbDifferential, RandomTraceSmallTlbHighPressure) {
  // 8 entries: every insert evicts; LRU decisions dominate.
  run_campaign(/*seed=*/0x5EED'0002ull, /*capacity=*/8, /*steps=*/120'000);
}

TEST(TlbDifferential, RandomTraceMediumTlb) {
  run_campaign(/*seed=*/0x5EED'0003ull, /*capacity=*/32, /*steps=*/120'000);
}

// 4 and 5 entries hash into 8 and 16 buckets per size class: with the
// 512-page universe most chains hold entries of other keys.
TEST(TlbDifferential, RandomTraceCollidingChains) {
  run_campaign(/*seed=*/0x5EED'0004ull, /*capacity=*/4, /*steps=*/120'000);
  run_campaign(/*seed=*/0x5EED'0005ull, /*capacity=*/5, /*steps=*/120'000);
}

TlbEntry page_entry(u32 asid, vaddr_t vpage, paddr_t ppage) {
  return TlbEntry{.asid = asid, .vpage = vpage, .ppage = ppage, .attrs = 0,
                  .global = false, .large = false, .valid = true, .lru = 0};
}

TlbEntry section_entry(u32 asid, u32 section, paddr_t ppage) {
  TlbEntry e = page_entry(asid, section << 8, ppage);
  e.large = true;
  return e;
}

// The 9 keys below per size class share the 8 buckets of a 4-entry TLB,
// so in each class some pair (a, b) shares a chain. Whatever the hash,
// flush_va(a) must drop page a and section a and keep page b and section b.
TEST(TlbDifferential, VaFlushSparesCollidingPageAndSection) {
  const auto va = [](u32 k) { return vaddr_t((k << 20) | (k << 12)); };
  for (u32 a = 0; a <= 8; ++a) {
    for (u32 b = 0; b <= 8; ++b) {
      if (a == b) continue;
      SCOPED_TRACE(testing::Message() << "a " << a << " b " << b);
      Tlb t(4);
      RefTlb r(4);
      for (const TlbEntry& e :
           {page_entry(1, va(a) >> 12, 0x100 + a),
            page_entry(1, va(b) >> 12, 0x100 + b),
            section_entry(1, a, 0x200 + a), section_entry(1, b, 0x200 + b)}) {
        t.insert(e);
        r.insert(e);
      }
      t.flush_va(va(a));
      r.flush_va(va(a));
      expect_same_entry_arrays(t, r, 0);
      expect_same_stats(t, r);
      EXPECT_EQ(t.valid_count(), 2u);
      const TlbEntry* page_b = t.lookup(1, va(b));
      ASSERT_NE(page_b, nullptr);
      EXPECT_EQ(page_b->ppage, 0x100 + b);  // the page wins: it is in slot 1
      EXPECT_EQ(t.lookup(1, va(a)), nullptr);
      // Halfway into each section: no page covers that VA.
      const TlbEntry* sect_b = t.lookup(1, (b << 20) | 0x8'0000);
      ASSERT_NE(sect_b, nullptr);
      EXPECT_EQ(sect_b->ppage, 0x200 + b);
      EXPECT_EQ(t.lookup(1, (a << 20) | 0x8'0000), nullptr);
    }
  }
}

// Re-inserting page a (a permission update) must replace a's slot even
// when the chain holds a colliding entry ahead of it, in a lower slot.
TEST(TlbDifferential, ReinsertBehindCollidingEntry) {
  for (u32 a = 0; a <= 8; ++a) {
    for (u32 b = 0; b <= 8; ++b) {
      if (a == b) continue;
      SCOPED_TRACE(testing::Message() << "a " << a << " b " << b);
      for (const bool large : {false, true}) {
        Tlb t(4);
        RefTlb r(4);
        const auto make = [&](u32 k, paddr_t ppage) {
          return large ? section_entry(1, k, ppage) : page_entry(1, k, ppage);
        };
        for (const TlbEntry& e : {make(b, 1), make(a, 2), make(a, 3)}) {
          const TlbEntry* x = t.insert(e);
          const TlbEntry* y = r.insert(e);
          ASSERT_EQ(x - t.entry_array().data(), y - r.entry_array().data());
        }
        expect_same_entry_arrays(t, r, 0);
        EXPECT_EQ(t.valid_count(), 2u);
        const vaddr_t va_a = large ? a << 20 : a << 12;
        const TlbEntry* hit = t.lookup(1, va_a);
        ASSERT_NE(hit, nullptr);
        EXPECT_EQ(hit - t.entry_array().data(), 1);
        EXPECT_EQ(hit->ppage, 3u);
      }
    }
  }
}

TEST(TlbDifferential, VaFlushCountsAndInvalidates) {
  Tlb t(8);
  t.insert(TlbEntry{.asid = 1, .vpage = 0x10, .ppage = 0x99, .attrs = 0,
                    .global = false, .large = false, .valid = true,
                    .lru = 0});
  EXPECT_EQ(t.stats().va_flushes, 0u);
  t.flush_va(0x10'000);
  EXPECT_EQ(t.stats().va_flushes, 1u);
  EXPECT_EQ(t.lookup(1, 0x10'000), nullptr);
  t.flush_va(0x10'000);  // flushing nothing still counts the operation
  EXPECT_EQ(t.stats().va_flushes, 2u);
}

}  // namespace
}  // namespace minova::cache
