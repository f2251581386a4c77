// Differential test: `Mmu::translate` with its micro-TLB in front of the
// hash-indexed main TLB must be indistinguishable from a micro-TLB-less
// translation path — pinned against the linear-scan `RefTlb` golden model
// driven in lockstep. The storms here stress exactly what the cache-level
// differential (tlb_diff_test.cpp) cannot: the micro-TLB's clear-on-TTBR /
// clear-on-ASID path and its generation-based invalidation against main-TLB
// inserts and flushes. A stale cached entry pointer surviving any of those
// would translate through the *wrong address space* — the cross-VM leak the
// fuzzer's tlb-coherence oracle watches for at system level.
//
// Every lockstep translation also checks the walk's exact charge against a
// second `MemHierarchy` fed the same descriptor addresses: nothing on a
// hit, one L2-side `access_walk` for a section or an L1 fault, two for a
// page behind a page table.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "mmu/mmu.hpp"
#include "mmu/page_table.hpp"
#include "ref/ref_tlb.hpp"
#include "util/rng.hpp"

namespace minova::mmu {
namespace {

/// Four "VMs": distinct address spaces with distinct ASIDs over one RAM.
class UtlbDifferentialTest : public ::testing::Test {
 protected:
  static constexpr u32 kNumSpaces = 4;
  static constexpr u32 kTlbEntries = 16;  // small: evictions are constant

  UtlbDifferentialTest()
      : ram_(0, 32 * kMiB),
        tlb_(kTlbEntries),
        ref_(kTlbEntries),
        mmu_(ram_, hierarchy_, tlb_),
        alloc_(ram_, 1 * kMiB, 8 * kMiB) {
    for (u32 s = 0; s < kNumSpaces; ++s) {
      spaces_.push_back(std::make_unique<AddressSpace>(ram_, alloc_));
      // Per-space layout over a shared VA universe: pages at 16 MiB with
      // space-dependent frames, one section per space, a global page, and
      // deliberate holes (translation faults are part of the storm).
      for (u32 p = 0; p < 24; ++p) {
        if ((p ^ s) % 5 == 0) continue;  // hole
        spaces_[s]->map_page(kPageBase + p * kPageSize,
                             0x0100'0000u + (s * 64 + p) * kPageSize,
                             MapAttrs{.ap = Ap::kFullAccess,
                                      .domain = 0,
                                      .ng = true,
                                      .xn = false});
      }
      spaces_[s]->map_section(kSectBase, 0x0140'0000u + s * kSectionSize,
                              MapAttrs{});
      spaces_[s]->map_page(kGlobalVa, 0x01A0'0000u,
                           MapAttrs{.ap = Ap::kFullAccess,
                                    .domain = 0,
                                    .ng = false,  // global: any ASID
                                    .xn = false});
    }
    switch_to(0);
    mmu_.set_dacr(dacr_set(0, 0, DomainMode::kClient));
    mmu_.set_enabled(true);
  }

  void switch_to(u32 s) {
    cur_ = s;
    mmu_.set_ttbr0(spaces_[s]->root());  // clears the micro-TLB
    mmu_.set_asid(asid(s));
  }

  static u32 asid(u32 s) { return s + 1; }

  /// What walking `va` in the current space charges: one descriptor fetch
  /// for the L1 entry, and one more when it points at a page table.
  cycles_t ref_walk_cost(vaddr_t va) {
    const paddr_t l1_slot = spaces_[cur_]->root() + l1_index(va) * 4;
    cycles_t cost = ref_hierarchy_.access_walk(l1_slot);
    const L1Desc l1 = L1Desc::decode(ram_.read32(l1_slot));
    if (l1.type == L1Type::kPageTable)
      cost += ref_hierarchy_.access_walk(l1.l2_base + l2_index(va) * 4);
    return cost;
  }

  /// One lockstep translation: the real fast path vs the RefTlb golden
  /// model fed with identical lookups, inserts and maintenance. As in a
  /// data access, the inline bound hit goes first and `translate` runs
  /// only when it declines.
  void translate_checked(vaddr_t va, u64 step) {
    const cache::TlbEntry* gold = ref_.lookup(asid(cur_), va);
    const paddr_t want =
        gold == nullptr ? 0
        : gold->large   ? (gold->ppage << 12) | (va & (kSectionSize - 1))
                        : (gold->ppage << 12) | (va & (kPageSize - 1));
    const HostWord w = mmu_.bound_hit(va, AccessKind::kRead, true);
    last_host_ = w.ptr;
    if (w.ptr != nullptr) {
      // A host pointer always names the current translation's frame: a
      // binding that outlived its space, its TLB entry or its frame would
      // point elsewhere (or at a frame that is no longer resident).
      ASSERT_NE(gold, nullptr) << "bound hit on a TLB miss, step " << step;
      ASSERT_EQ(w.pa, want) << "step " << step << " va=" << std::hex << va;
      ASSERT_NE(ram_.resident_frame(w.pa), nullptr) << "step " << step;
      ASSERT_EQ(w.ptr, ram_.resident_frame(w.pa) + (w.pa & (kPageSize - 1)))
          << "stale host binding at step " << step << " va=" << std::hex << va;
      last_ = TranslateResult{.pa = w.pa, .fault = {}, .cost = 0, .tlb_hit = true};
      return;
    }
    const auto r = mmu_.translate(va, AccessKind::kRead, true);
    last_ = r;
    ASSERT_EQ(r.cost, gold != nullptr ? 0 : ref_walk_cost(va))
        << "walk cost at step " << step << " va=" << std::hex << va;
    ASSERT_EQ(r.tlb_hit, gold != nullptr)
        << "hit/miss divergence at step " << step << " va=" << std::hex << va;
    if (gold != nullptr) {
      // The golden entry must agree with the fast path's physical result.
      ASSERT_TRUE(r.ok()) << "step " << step;
      ASSERT_EQ(r.pa, want) << "step " << step << " va=" << std::hex << va;
      return;
    }
    // Miss: the fast path walked. Unless the walk faulted, it inserted the
    // walked entry — mirror it into the golden model. The entry is read
    // back from the main TLB (the slot `matches` resolves for this access),
    // so the mirror sees exactly what the walker produced.
    if (r.fault.type == FaultType::kTranslationL1 ||
        r.fault.type == FaultType::kTranslationL2)
      return;
    const cache::TlbEntry* inserted = nullptr;
    for (const auto& e : tlb_.entry_array()) {
      if (!e.valid) continue;
      if (!e.global && e.asid != asid(cur_)) continue;
      const bool match = e.large ? (e.vpage >> 8) == (va >> 20)
                                 : e.vpage == (va >> 12);
      if (match) {
        inserted = &e;
        break;
      }
    }
    ASSERT_NE(inserted, nullptr) << "walked entry missing at step " << step;
    const cache::TlbEntry* slot = ref_.insert(*inserted);
    // Same replacement decision, slot for slot.
    ASSERT_EQ(slot - ref_.entry_array().data(),
              inserted - tlb_.entry_array().data())
        << "replacement divergence at step " << step;
  }

  void expect_arrays_equal(u64 step) {
    const auto& a = tlb_.entry_array();
    const auto& b = ref_.entry_array();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t s = 0; s < a.size(); ++s) {
      ASSERT_EQ(a[s].valid, b[s].valid) << "slot " << s << " step " << step;
      if (!a[s].valid) continue;
      ASSERT_EQ(a[s].asid, b[s].asid) << "slot " << s << " step " << step;
      ASSERT_EQ(a[s].vpage, b[s].vpage) << "slot " << s << " step " << step;
      ASSERT_EQ(a[s].ppage, b[s].ppage) << "slot " << s << " step " << step;
      ASSERT_EQ(a[s].lru, b[s].lru) << "slot " << s << " step " << step;
    }
  }

  static constexpr vaddr_t kPageBase = 16 * kMiB;
  static constexpr vaddr_t kSectBase = 24 * kMiB;
  static constexpr vaddr_t kGlobalVa = 28 * kMiB;

  mem::PhysMem ram_;
  cache::MemHierarchy hierarchy_;
  cache::MemHierarchy ref_hierarchy_;  // sees only translate_checked's walks
  cache::Tlb tlb_;
  cache::RefTlb ref_;
  Mmu mmu_;
  PageTableAllocator alloc_;
  std::vector<std::unique_ptr<AddressSpace>> spaces_;
  u32 cur_ = 0;
  TranslateResult last_;  // the latest translate_checked result
  u8* last_host_ = nullptr;  // its bound host address, when it had one
};

TEST_F(UtlbDifferentialTest, RandomStormWithTtbrAndAsidRewrites) {
  util::Xoshiro256 rng(0x07B5'EED1ull);
  const auto rand_va = [&]() -> vaddr_t {
    switch (rng.next_below(4)) {
      case 0: return kPageBase + u32(rng.next_below(24)) * kPageSize +
                     u32(rng.next_below(kPageSize));
      case 1: return kSectBase + u32(rng.next_below(kSectionSize));
      case 2: return kGlobalVa + u32(rng.next_below(kPageSize));
      default: return 30 * kMiB + u32(rng.next_below(kMiB));  // unmapped
    }
  };

  for (u64 step = 0; step < 120'000; ++step) {
    const u64 op = rng.next_below(100);
    if (op < 78) {
      ASSERT_NO_FATAL_FAILURE(translate_checked(rand_va(), step));
    } else if (op < 90) {
      // The path PR 3's campaigns never stressed: TTBR+ASID rewrite storms.
      // Only the micro-TLB reacts (outright clear); the main TLB and the
      // golden model carry their contents across untouched.
      switch_to(u32(rng.next_below(kNumSpaces)));
    } else if (op < 94) {
      const vaddr_t va = rand_va();
      mmu_.tlb_flush_va(va);
      ref_.flush_va(va);
    } else if (op < 97) {
      const u32 a = asid(u32(rng.next_below(kNumSpaces)));
      mmu_.tlb_flush_asid(a);
      ref_.flush_asid(a);
    } else {
      mmu_.tlb_flush_all();
      ref_.flush_all();
    }
    if (step % 4096 == 0) {
      ASSERT_NO_FATAL_FAILURE(expect_arrays_equal(step));
    }
  }
  ASSERT_NO_FATAL_FAILURE(expect_arrays_equal(120'000));
  // The micro-TLB must have been live (otherwise this tested nothing) and
  // every micro hit replayed main-TLB hit bookkeeping (stats equality).
  EXPECT_GT(mmu_.micro_stats().hits, 5'000u);
  EXPECT_EQ(tlb_.stats().hits, ref_.stats().hits);
  EXPECT_EQ(tlb_.stats().misses, ref_.stats().misses);
  // Walks missed L2 as well as hit it, so the cost check saw both charges.
  EXPECT_GT(hierarchy_.l2().stats().hits, 0u);
  EXPECT_GT(hierarchy_.l2().stats().misses, 0u);
  EXPECT_EQ(hierarchy_.l2().stats().hits, ref_hierarchy_.l2().stats().hits);
}

TEST_F(UtlbDifferentialTest, HostBindingsDieWithTheirTranslation) {
  // The RAM host pointer rides on a micro-TLB entry. Storm binds against
  // TTBR/ASID switches, TLB inserts and flushes, and frame discards:
  // translate_checked asserts every returned pointer is the current
  // translation's frame, and a bound page must serve its pointer on the
  // very next translation.
  util::Xoshiro256 rng(0xB1ED'0057ull);
  const auto rand_va = [&]() -> vaddr_t {
    switch (rng.next_below(3)) {
      case 0: return kPageBase + u32(rng.next_below(24)) * kPageSize +
                     u32(rng.next_below(kPageSize));
      case 1: return kSectBase + u32(rng.next_below(kSectionSize));
      default: return kGlobalVa + u32(rng.next_below(kPageSize));
    }
  };
  u64 binds = 0, served = 0;
  for (u64 step = 0; step < 60'000; ++step) {
    const u64 op = rng.next_below(100);
    const vaddr_t va = rand_va();
    if (op < 55) {
      ASSERT_NO_FATAL_FAILURE(translate_checked(va, step));
      if (last_host_ != nullptr) ++served;
    } else if (op < 75) {
      ASSERT_NO_FATAL_FAILURE(translate_checked(va, step));
      if (!last_.ok()) continue;
      const paddr_t pa = last_.pa;
      ram_.write32(pa & ~3u, u32(step));  // materialize the frame
      u8* host = mmu_.bind_host(va, pa);
      ASSERT_EQ(host, ram_.resident_frame(pa) + (pa & (kPageSize - 1)));
      ++binds;
      ASSERT_NO_FATAL_FAILURE(translate_checked(va, step));
      ASSERT_EQ(last_host_, host) << "bound page not served, step " << step;
      ++served;
    } else if (op < 85) {
      switch_to(u32(rng.next_below(kNumSpaces)));
    } else if (op < 90) {
      // A discard frees frames: every binding must die, the live page's
      // included.
      ASSERT_NO_FATAL_FAILURE(translate_checked(va, step));
      if (!last_.ok()) continue;
      ram_.discard(last_.pa & ~(kPageSize - 1), kPageSize);
      ASSERT_NO_FATAL_FAILURE(translate_checked(va, step));
      ASSERT_EQ(last_host_, nullptr) << "binding survived discard";
    } else if (op < 95) {
      mmu_.tlb_flush_va(va);
      ref_.flush_va(va);
    } else if (op < 98) {
      const u32 a = asid(u32(rng.next_below(kNumSpaces)));
      mmu_.tlb_flush_asid(a);
      ref_.flush_asid(a);
    } else {
      mmu_.tlb_flush_all();
      ref_.flush_all();
    }
  }
  ASSERT_NO_FATAL_FAILURE(expect_arrays_equal(60'000));
  EXPECT_EQ(tlb_.stats().hits, ref_.stats().hits);
  EXPECT_GT(binds, 1'000u);
  EXPECT_GT(served, binds);  // bindings are served beyond the bind itself
}

TEST_F(UtlbDifferentialTest, TtbrSwitchNeverServesStaleSpace) {
  // Directed clear-on-TTBR check: the same VA maps to different frames in
  // every space; hammer one VA across switches and assert per-space PAs.
  const vaddr_t va = kSectBase + 0x1234;
  for (u32 round = 0; round < 64; ++round) {
    const u32 s = round % kNumSpaces;
    switch_to(s);
    for (int rep = 0; rep < 3; ++rep) {  // rep > 0 hits the micro-TLB
      const auto r = mmu_.translate(va, AccessKind::kRead, true);
      ASSERT_TRUE(r.ok());
      ASSERT_EQ(r.pa, 0x0140'0000u + s * kSectionSize + 0x1234u)
          << "stale translation after switch to space " << s;
    }
  }
  EXPECT_GT(mmu_.micro_stats().hits, 0u);
}

TEST_F(UtlbDifferentialTest, GenerationInvalidatesCachedEntryOnRemap) {
  // Fill the micro-TLB with a translation, change the tables, flush the
  // main TLB (generation bump) — the cached pointer must not survive.
  const vaddr_t va = kPageBase + 1 * kPageSize;
  auto r = mmu_.translate(va, AccessKind::kRead, true);
  ASSERT_TRUE(r.ok());
  const paddr_t before = r.pa;
  r = mmu_.translate(va, AccessKind::kRead, true);  // micro-TLB hit
  ASSERT_TRUE(r.tlb_hit);

  ASSERT_TRUE(spaces_[0]->unmap_page(va));
  spaces_[0]->map_page(va, 0x01F0'0000u, MapAttrs{});
  mmu_.tlb_flush_va(va);

  r = mmu_.translate(va, AccessKind::kRead, true);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.pa, 0x01F0'0000u | (va & (kPageSize - 1)));
  EXPECT_NE(r.pa, before);
}

TEST_F(UtlbDifferentialTest, GenerationInvalidatesAcrossEvictionReuse) {
  // Nastier than a flush: enough *inserts* to evict and reuse the cached
  // entry's slot for a different page. The generation check is the only
  // thing preventing the stale pointer from serving the new slot contents.
  const vaddr_t va = kGlobalVa;
  auto r = mmu_.translate(va, AccessKind::kRead, true);
  ASSERT_TRUE(r.ok());
  const paddr_t want = r.pa;

  // Storm of distinct translations > TLB capacity evicts kGlobalVa's entry.
  for (u32 p = 0; p < 24; ++p)
    (void)mmu_.translate(kPageBase + p * kPageSize, AccessKind::kRead, true);
  (void)mmu_.translate(kSectBase, AccessKind::kRead, true);

  r = mmu_.translate(va, AccessKind::kRead, true);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.pa, want);
}

}  // namespace
}  // namespace minova::mmu
