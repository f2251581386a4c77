// Differential test: the slot-indexed kernel heap against the ordered-map
// registry it replaced, kept here as the reference.
//
// Both heaps see the same seeded storm of object and control allocations
// and frees over both regions (alignments 64, 128 and 4096, small windows
// so both regions run into each other). Every returned address, every
// exhaustion and every accounting getter must agree after every operation.
// The death cases pin the ownership checks the slot lookup must keep.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <ostream>
#include <vector>

#include "core/platform.hpp"
#include "nova/kheap.hpp"
#include "util/rng.hpp"

namespace minova::nova {
namespace {

/// The ordered-map registry and per-class map of free lists, with the same
/// bump, LIFO-recycle and accounting rules. Poison and scrub are left out
/// (they move no address); exhaustion of the control region returns 0
/// instead of aborting so the storm can probe it.
class RefHeap {
 public:
  RefHeap(paddr_t base, u32 size)
      : base_(base), size_(size), next_(base), ctrl_next_(base + size) {}

  paddr_t try_alloc(u32 bytes, u32 align) {
    const u32 cls = KernelHeap::size_class(bytes);
    const paddr_t recycled = recycle_from(free_lists_, blocks_, cls, align);
    if (recycled != 0) {
      bytes_live_ += cls;
      ++live_blocks_;
      ++alloc_count_;
      return recycled;
    }
    const paddr_t start = paddr_t(align_up(next_, align));
    if (u64(start) + bytes > u64(ctrl_next_)) return 0;
    next_ = start + bytes;
    blocks_[start] = Block{bytes, cls, true};
    bytes_live_ += cls;
    ++live_blocks_;
    ++alloc_count_;
    return start;
  }

  void free(paddr_t pa) {
    release_into(free_lists_, blocks_, pa);
    bytes_live_ -= blocks_.at(pa).class_bytes;
    --live_blocks_;
    ++free_count_;
  }

  paddr_t alloc_ctrl(u32 bytes) {
    const u32 cls = KernelHeap::size_class(bytes);
    const paddr_t recycled = recycle_from(ctrl_free_, ctrl_blocks_, cls, 0);
    if (recycled != 0) {
      ctrl_bytes_live_ += cls;
      ++ctrl_live_;
      ++alloc_count_;
      return recycled;
    }
    if (u64(next_) + cls > u64(ctrl_next_)) return 0;
    ctrl_next_ -= cls;
    ctrl_blocks_[ctrl_next_] = Block{bytes, cls, true};
    ctrl_bytes_live_ += cls;
    ++ctrl_live_;
    ++alloc_count_;
    return ctrl_next_;
  }

  void free_ctrl(paddr_t pa) {
    release_into(ctrl_free_, ctrl_blocks_, pa);
    ctrl_bytes_live_ -= ctrl_blocks_.at(pa).class_bytes;
    --ctrl_live_;
    ++free_count_;
  }

  u32 bytes_used() const { return u32(next_ - base_); }
  u32 bytes_free() const { return u32(ctrl_next_ - next_); }
  u32 bytes_live() const { return bytes_live_ + ctrl_bytes_live_; }
  u32 live_blocks() const { return live_blocks_; }
  u32 ctrl_live() const { return ctrl_live_; }
  u32 high_water() const { return bytes_used(); }
  u32 ctrl_high_water() const { return u32(base_ + size_ - ctrl_next_); }
  u64 alloc_count() const { return alloc_count_; }
  u64 free_count() const { return free_count_; }
  u64 recycle_count() const { return recycle_count_; }

 private:
  struct Block {
    u32 bytes = 0;
    u32 class_bytes = 0;
    bool live = false;
  };
  using Registry = std::map<paddr_t, Block>;
  using FreeLists = std::map<u32, std::vector<paddr_t>>;

  paddr_t recycle_from(FreeLists& lists, Registry& blocks, u32 cls,
                       u32 align) {
    auto it = lists.find(cls);
    if (it == lists.end()) return 0;
    auto& list = it->second;
    for (std::size_t i = list.size(); i-- > 0;) {
      const paddr_t pa = list[i];
      if (align != 0 && !is_aligned(pa, align)) continue;
      list.erase(list.begin() + std::ptrdiff_t(i));
      if (list.empty()) lists.erase(it);
      blocks.at(pa).live = true;
      ++recycle_count_;
      return pa;
    }
    return 0;
  }

  static void release_into(FreeLists& lists, Registry& blocks, paddr_t pa) {
    auto it = blocks.find(pa);
    ASSERT_NE(it, blocks.end());
    ASSERT_TRUE(it->second.live);
    it->second.live = false;
    lists[it->second.class_bytes].push_back(pa);
  }

  paddr_t base_;
  u32 size_;
  paddr_t next_;
  paddr_t ctrl_next_;
  Registry blocks_, ctrl_blocks_;
  FreeLists free_lists_, ctrl_free_;
  u32 bytes_live_ = 0, ctrl_bytes_live_ = 0;
  u32 live_blocks_ = 0, ctrl_live_ = 0;
  u64 alloc_count_ = 0, free_count_ = 0, recycle_count_ = 0;
};

struct StormCase {
  u64 seed;
  u32 window;  // heap bytes: small windows exhaust, large ones churn
};

void PrintTo(const StormCase& c, std::ostream* os) {
  *os << "seed " << c.seed << ", " << c.window << "-byte window";
}

class KernelHeapDiffTest : public ::testing::TestWithParam<StormCase> {
 protected:
  static constexpr paddr_t kBase = kKernelHeapBase + 3 * kMiB;
};

void expect_same_accounting(const KernelHeap& h, const RefHeap& r, int step) {
  ASSERT_EQ(h.bytes_used(), r.bytes_used()) << "step " << step;
  ASSERT_EQ(h.bytes_free(), r.bytes_free()) << "step " << step;
  ASSERT_EQ(h.bytes_live(), r.bytes_live()) << "step " << step;
  ASSERT_EQ(h.live_blocks(), r.live_blocks()) << "step " << step;
  ASSERT_EQ(h.ctrl_live(), r.ctrl_live()) << "step " << step;
  ASSERT_EQ(h.high_water(), r.high_water()) << "step " << step;
  ASSERT_EQ(h.ctrl_high_water(), r.ctrl_high_water()) << "step " << step;
  ASSERT_EQ(h.alloc_count(), r.alloc_count()) << "step " << step;
  ASSERT_EQ(h.free_count(), r.free_count()) << "step " << step;
  ASSERT_EQ(h.recycle_count(), r.recycle_count()) << "step " << step;
}

TEST_P(KernelHeapDiffTest, SeededStormMatchesMapRegistry) {
  const StormCase c = GetParam();
  Platform platform;
  KernelHeap heap(kBase, c.window);
  heap.attach_ram(&platform.dram());  // poison + scrub run on every recycle
  RefHeap ref(kBase, c.window);

  constexpr u32 kSizes[] = {8, 64, 100, 128, 256, 320, 1024, 4096};
  constexpr u32 kAligns[] = {64, 64, 64, 64, 128, 128, 4096};
  constexpr u32 kCtrlSizes[] = {64, 256, 256, 512};
  util::Xoshiro256 rng(c.seed);
  std::vector<paddr_t> objects, ctrl;
  u32 exhaustions = 0, ctrl_exhaustions = 0;

  auto pop_random = [&rng](std::vector<paddr_t>& v) {
    const std::size_t i = std::size_t(rng.next_below(v.size()));
    const paddr_t pa = v[i];
    v[i] = v.back();
    v.pop_back();
    return pa;
  };

  for (int step = 0; step < 6000; ++step) {
    const u64 op = rng.next_below(10);
    if (op < 4) {
      const u32 bytes = kSizes[rng.next_below(std::size(kSizes))];
      const u32 align = kAligns[rng.next_below(std::size(kAligns))];
      const paddr_t want = ref.try_alloc(bytes, align);
      // The aborting variant only where the reference says it fits.
      const paddr_t got = want != 0 && rng.next_bool(0.5)
                              ? heap.alloc(bytes, align)
                              : heap.try_alloc(bytes, align);
      ASSERT_EQ(got, want) << "alloc(" << bytes << ", " << align
                           << ") at step " << step;
      if (got != 0)
        objects.push_back(got);
      else
        ++exhaustions;
    } else if (op < 7) {
      if (objects.empty()) continue;
      const paddr_t pa = pop_random(objects);
      heap.free(pa);
      ref.free(pa);
    } else if (op < 9) {
      const u32 bytes = kCtrlSizes[rng.next_below(std::size(kCtrlSizes))];
      const paddr_t want = ref.alloc_ctrl(bytes);
      if (want == 0) {
        ++ctrl_exhaustions;  // the real heap aborts here (death test below)
      } else {
        ASSERT_EQ(heap.alloc_ctrl(bytes), want) << "step " << step;
        ctrl.push_back(want);
      }
    } else {
      if (ctrl.empty()) continue;
      const paddr_t pa = pop_random(ctrl);
      heap.free_ctrl(pa);
      ref.free_ctrl(pa);
    }
    ASSERT_NO_FATAL_FAILURE(expect_same_accounting(heap, ref, step));
  }
  if (c.window <= 64 * kKiB) {
    EXPECT_GT(exhaustions, 0u) << "the small window must run out";
    EXPECT_GT(ctrl_exhaustions, 0u);
  }
  EXPECT_GT(heap.recycle_count(), 0u);

  // Drain both regions: the accounting returns to zero on both sides.
  for (paddr_t pa : objects) {
    heap.free(pa);
    ref.free(pa);
  }
  for (paddr_t pa : ctrl) {
    heap.free_ctrl(pa);
    ref.free_ctrl(pa);
  }
  expect_same_accounting(heap, ref, -1);
  EXPECT_EQ(heap.bytes_live(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Storms, KernelHeapDiffTest,
    ::testing::Values(StormCase{1, 32 * u32(kKiB)},
                      StormCase{2, 64 * u32(kKiB)},
                      StormCase{3, 256 * u32(kKiB)},
                      StormCase{4, 2 * u32(kMiB)}),
    [](const auto& info) {
      return "seed" + std::to_string(info.param.seed) + "_" +
             std::to_string(info.param.window / u32(kKiB)) + "KiB";
    });

// ---- ownership checks ----------------------------------------------------

class KernelHeapOwnershipDeathTest : public ::testing::Test {
 protected:
  KernelHeapOwnershipDeathTest() : heap_(kKernelHeapBase, 256 * u32(kKiB)) {}
  KernelHeap heap_;
};

TEST_F(KernelHeapOwnershipDeathTest, FreeInsideALiveBlock) {
  const paddr_t a = heap_.alloc(256);
  EXPECT_DEATH(heap_.free(a + 64), "not owned");
}

TEST_F(KernelHeapOwnershipDeathTest, FreeAboveTheWatermark) {
  heap_.alloc(256);
  const paddr_t above = paddr_t(align_up(heap_.base() + heap_.bytes_used(),
                                         KernelHeap::kClassAlign)) +
                        4 * KernelHeap::kClassAlign;
  EXPECT_DEATH(heap_.free(above), "not owned");
}

TEST_F(KernelHeapOwnershipDeathTest, FreeOfAMisalignedAddress) {
  const paddr_t a = heap_.alloc(256);
  EXPECT_DEATH(heap_.free(a + 4), "not owned");
}

TEST_F(KernelHeapOwnershipDeathTest, ControlBlockPassedToObjectFree) {
  heap_.alloc(64);
  const paddr_t c = heap_.alloc_ctrl(256);
  EXPECT_DEATH(heap_.free(c), "not owned");
}

TEST_F(KernelHeapOwnershipDeathTest, ObjectPassedToControlFree) {
  const paddr_t a = heap_.alloc(256);
  heap_.alloc_ctrl(256);
  EXPECT_DEATH(heap_.free_ctrl(a), "not in control region");
}

TEST_F(KernelHeapOwnershipDeathTest, ControlRegionExhaustionAborts) {
  KernelHeap small(kKernelHeapBase, 1024);
  small.alloc_ctrl(512);
  small.alloc_ctrl(512);
  EXPECT_DEATH(small.alloc_ctrl(64), "exhausted");
}

TEST_F(KernelHeapOwnershipDeathTest, AlignmentBelowTheClassIsRejected) {
  EXPECT_DEATH(heap_.alloc(64, 16), "alignment");
}

}  // namespace
}  // namespace minova::nova
