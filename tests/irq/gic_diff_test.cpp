// Differential test: `Gic`, which keeps its enabled-pending-not-active
// candidate set as a bitmap and visits only the set bits, must answer every
// query exactly like `RefGic`, a linear scan over all interrupts that lives
// only here. After every operation of seeded random traces (enable/disable,
// raise/clear, acknowledge under several CPU masks, EOI, priority, target
// and priority-mask writes) both must agree on the acknowledged ID, the
// per-CPU assertion, the line state and the sequence of line edges. This is
// what keeps the candidate set invisible to every simulated number
// (DESIGN.md §10.6).
#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "irq/gic.hpp"
#include "util/rng.hpp"

namespace minova::irq {
namespace {

class RefGic {
 public:
  explicit RefGic(u32 n) : state_(n) {}

  void enable(u32 id) { state_[id].enabled = true; update_line(); }
  void disable(u32 id) { state_[id].enabled = false; update_line(); }
  void raise(u32 id) { state_[id].pending = true; update_line(); }
  void clear_pending(u32 id) { state_[id].pending = false; update_line(); }
  void eoi(u32 id) { state_[id].active = false; update_line(); }
  void set_priority(u32 id, u8 p) { state_[id].prio = p; update_line(); }
  void set_target_mask(u32 id, u8 m) { state_[id].targets = m; update_line(); }
  void set_priority_mask(u8 m) { priority_mask_ = m; update_line(); }

  u32 acknowledge_for(u8 cpu_mask) {
    const int id = highest_pending(cpu_mask);
    if (id < 0) return kSpuriousIrq;
    state_[u32(id)].pending = false;
    state_[u32(id)].active = true;
    update_line();
    return u32(id);
  }

  bool asserted_for(u8 cpu_mask) const { return highest_pending(cpu_mask) >= 0; }
  bool line() const { return line_; }
  const std::vector<bool>& edges() const { return edges_; }

 private:
  struct S {
    bool enabled = false;
    bool pending = false;
    bool active = false;
    u8 prio = 0xA0;
    u8 targets = 0x01;
  };

  int highest_pending(u8 cpu_mask) const {
    int best = -1;
    for (u32 i = 0; i < state_.size(); ++i) {
      const S& s = state_[i];
      if (!s.enabled || !s.pending || s.active) continue;
      if ((s.targets & cpu_mask) == 0) continue;
      if (s.prio >= priority_mask_) continue;
      if (best < 0 || s.prio < state_[u32(best)].prio) best = int(i);
    }
    return best;
  }

  void update_line() {
    const bool asserted = asserted_for(0xFFu);
    if (asserted != line_) {
      line_ = asserted;
      edges_.push_back(asserted);
    }
  }

  std::vector<S> state_;
  u8 priority_mask_ = 0xFF;
  bool line_ = false;
  std::vector<bool> edges_;
};

constexpr std::array<u8, 5> kCpuMasks = {0x1, 0x2, 0x4, 0x8, 0xFF};
// Few distinct priorities so ties (lowest ID wins) are frequent.
constexpr std::array<u8, 6> kPrios = {0x00, 0x20, 0x40, 0x40, 0xA0, 0xF0};
constexpr std::array<u8, 6> kPrioMasks = {0xFF, 0xFF, 0xA0, 0x41, 0x40, 0x00};

void run_campaign(u64 seed, u32 num_irqs, u64 steps) {
  Gic gic(num_irqs);
  RefGic ref(num_irqs);
  std::vector<bool> edges;
  gic.set_irq_line([&edges](bool asserted) { edges.push_back(asserted); });
  util::Xoshiro256 rng(seed);
  std::vector<u32> active;  // acknowledged, not yet EOI'd

  const auto pick = [&](auto& arr) { return arr[rng.next() % arr.size()]; };
  for (u64 step = 0; step < steps; ++step) {
    const u32 id = u32(rng.next() % num_irqs);
    const u64 op = rng.next() % 100;
    if (op < 16) {
      gic.enable_irq(id);
      ref.enable(id);
    } else if (op < 24) {
      gic.disable_irq(id);
      ref.disable(id);
    } else if (op < 44) {
      gic.raise(id);
      ref.raise(id);
    } else if (op < 50) {
      gic.clear_pending(id);
      ref.clear_pending(id);
    } else if (op < 70) {
      const u8 mask = pick(kCpuMasks);
      const u32 got = gic.acknowledge_for(mask);
      ASSERT_EQ(got, ref.acknowledge_for(mask))
          << "ack divergence at step " << step << " mask " << u32(mask);
      if (got != kSpuriousIrq) active.push_back(got);
    } else if (op < 82) {
      // Mostly retire an acknowledged interrupt; sometimes a stray EOI.
      u32 target = id;
      if (!active.empty() && rng.next() % 8 != 0) {
        const std::size_t k = rng.next() % active.size();
        target = active[k];
        active[k] = active.back();
        active.pop_back();
      }
      gic.eoi(target);
      ref.eoi(target);
    } else if (op < 90) {
      const u8 prio = pick(kPrios);
      gic.set_priority(id, prio);
      ref.set_priority(id, prio);
    } else if (op < 97) {
      const u8 targets = u8(rng.next());
      gic.set_target_mask(id, targets);
      ref.set_target_mask(id, targets);
    } else {
      const u8 pmask = pick(kPrioMasks);
      gic.set_priority_mask(pmask);
      ref.set_priority_mask(pmask);
    }

    for (u8 mask : kCpuMasks)
      ASSERT_EQ(gic.irq_asserted_for(mask), ref.asserted_for(mask))
          << "assertion divergence at step " << step << " mask " << u32(mask);
    ASSERT_EQ(gic.irq_asserted(), ref.line()) << "step " << step;
    ASSERT_EQ(edges, ref.edges()) << "line edge divergence at step " << step;
  }
  // The traces must actually reach the interesting states.
  EXPECT_GT(gic.acked_count(), steps / 20);
  EXPECT_GT(ref.edges().size(), steps / 100);
}

TEST(GicDifferential, RandomTraceZynqIrqCount) {
  run_campaign(/*seed=*/0x61C0'0001ull, /*num_irqs=*/96, /*steps=*/40'000);
}

TEST(GicDifferential, RandomTraceSecondSeed) {
  run_campaign(/*seed=*/0x61C0'0002ull, /*num_irqs=*/96, /*steps=*/40'000);
}

TEST(GicDifferential, RandomTraceIrqCountNotMultipleOf64) {
  run_campaign(/*seed=*/0x61C0'0003ull, /*num_irqs=*/70, /*steps=*/40'000);
}

TEST(GicDifferential, RandomTraceFewIrqsDenseCandidates) {
  // Eight interrupts: most are pending at once, so ties and masking
  // decide nearly every acknowledge.
  run_campaign(/*seed=*/0x61C0'0004ull, /*num_irqs=*/8, /*steps=*/40'000);
}

}  // namespace
}  // namespace minova::irq
