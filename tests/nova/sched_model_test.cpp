// Model check: random scheduler operation sequences against a trivially
// correct reference model of the paper's §III.D semantics.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <memory>
#include <vector>

#include "core/platform.hpp"
#include "nova/sched.hpp"
#include "util/rng.hpp"

namespace minova::nova {
namespace {

/// Reference: per-priority FIFOs of runnable PDs plus a FIFO suspend
/// queue, all plain vectors; pick = front of highest non-empty level.
struct RefModel {
  using Queue = std::vector<ProtectionDomain*>;
  std::array<Queue, Scheduler::kNumPriorities> level;
  Queue suspended;

  static bool contains(const Queue& q, const ProtectionDomain* pd) {
    return std::find(q.begin(), q.end(), pd) != q.end();
  }
  static void erase(Queue& q, const ProtectionDomain* pd) {
    q.erase(std::remove(q.begin(), q.end(), pd), q.end());
  }

  void enqueue(ProtectionDomain* pd) {
    auto& l = level[pd->priority()];
    if (contains(l, pd)) return;
    erase(suspended, pd);
    l.push_back(pd);
  }
  void suspend(ProtectionDomain* pd) {
    if (contains(suspended, pd)) return;
    erase(level[pd->priority()], pd);
    suspended.push_back(pd);
  }
  void take(ProtectionDomain* pd) {
    erase(level[pd->priority()], pd);
    erase(suspended, pd);
  }
  void rotate(ProtectionDomain* pd) {
    auto& l = level[pd->priority()];
    if (!l.empty() && l.front() == pd) {
      l.erase(l.begin());
      l.push_back(pd);
    }
  }
  ProtectionDomain* pick() const {
    for (u32 p = Scheduler::kNumPriorities; p-- > 0;)
      if (!level[p].empty()) return level[p].front();
    return nullptr;
  }
  /// Highest level first, front to back within a level.
  ProtectionDomain* pick_unparked() const {
    for (u32 p = Scheduler::kNumPriorities; p-- > 0;)
      for (ProtectionDomain* pd : level[p])
        if (!pd->parked) return pd;
    return nullptr;
  }
  /// Highest level first, back to front within a level.
  ProtectionDomain* steal_unparked() const {
    for (u32 p = Scheduler::kNumPriorities; p-- > 0;)
      for (auto it = level[p].rbegin(); it != level[p].rend(); ++it)
        if (!(*it)->parked) return *it;
    return nullptr;
  }
  std::size_t runnable() const {
    std::size_t n = 0;
    for (const auto& l : level) n += l.size();
    return n;
  }
};

/// The highest-priority runnable PD: `pick_eligible` with no filter.
ProtectionDomain* pick(const Scheduler& s) {
  return s.pick_eligible([](const ProtectionDomain*) { return true; });
}

std::vector<ProtectionDomain*> to_vector(Scheduler::QueueView q) {
  std::vector<ProtectionDomain*> v;
  for (ProtectionDomain* pd : q) v.push_back(pd);
  return v;
}

/// Everything observable about one scheduler must match its reference: the
/// full order of every level and of the suspend queue, the picks with and
/// without a parked set, the steal candidate and the membership queries.
void expect_matches(const Scheduler& s, const RefModel& ref,
                    const std::vector<std::unique_ptr<ProtectionDomain>>& pds,
                    int step) {
  for (u32 p = 0; p < Scheduler::kNumPriorities; ++p) {
    ASSERT_EQ(to_vector(s.level_queue(p)), ref.level[p])
        << "level " << p << " order diverged at step " << step;
    if (!ref.level[p].empty()) {
      ASSERT_EQ(s.level_queue(p).back(), ref.level[p].back()) << step;
    }
  }
  ASSERT_EQ(to_vector(s.suspended_queue()), ref.suspended)
      << "suspend queue diverged at step " << step;
  ASSERT_EQ(pick(s), ref.pick()) << "diverged at step " << step;
  auto unparked = [](const ProtectionDomain* p) { return !p->parked; };
  ASSERT_EQ(s.pick_eligible(unparked), ref.pick_unparked()) << step;
  ASSERT_EQ(s.steal_candidate(unparked), ref.steal_unparked()) << step;
  ASSERT_EQ(s.runnable_count(), ref.runnable()) << step;
  for (const auto& pd : pds) {
    ASSERT_EQ(s.is_runnable(pd.get()),
              RefModel::contains(ref.level[pd->priority()], pd.get()))
        << pd->name() << " at step " << step;
    ASSERT_EQ(s.is_suspended(pd.get()),
              RefModel::contains(ref.suspended, pd.get()))
        << pd->name() << " at step " << step;
  }
}

class SchedModelTest : public ::testing::TestWithParam<u64> {
 protected:
  SchedModelTest()
      : heap_(kKernelHeapBase + 3 * kMiB, 2 * kMiB),
        alloc_(platform_.dram(), kKernelHeapBase, 3 * kMiB),
        builder_(platform_.dram(), alloc_),
        sched_{Scheduler(1000), Scheduler(1000)} {
    for (u32 i = 0; i < 8; ++i) {
      pds_.push_back(std::make_unique<ProtectionDomain>(
          PdId(i), "pd" + std::to_string(i), i % 4, heap_, platform_.gic(),
          i + 1, builder_.build_kernel_space(), kCapNone));
    }
  }

  Platform platform_;
  KernelHeap heap_;
  mmu::PageTableAllocator alloc_;
  VmSpaceBuilder builder_;
  std::array<Scheduler, 2> sched_;
  std::vector<std::unique_ptr<ProtectionDomain>> pds_;
};

// Every PD lives on one of two schedulers (two cores). Operations go to the
// PD's home scheduler; a re-home takes it off there and enqueues or
// suspends it on the other, which adopts it under its own stamp — the
// steal/migrate sequence. A seeded parked set exercises the filtered picks.
TEST_P(SchedModelTest, AgreesWithReferenceOverRandomOps) {
  util::Xoshiro256 rng(GetParam());
  std::array<RefModel, 2> ref;
  std::vector<u32> home(pds_.size(), 0);
  for (int step = 0; step < 1500; ++step) {
    const std::size_t i = std::size_t(rng.next_below(pds_.size()));
    ProtectionDomain* pd = pds_[i].get();
    Scheduler& s = sched_[home[i]];
    RefModel& r = ref[home[i]];
    switch (rng.next_below(7)) {
      case 0:
        s.enqueue(pd);
        r.enqueue(pd);
        break;
      case 1:
        s.suspend(pd);
        r.suspend(pd);
        break;
      case 2:
        // rotate is only meaningful for the head of its level; both models
        // apply the same conditional.
        s.rotate(pd);
        r.rotate(pd);
        break;
      case 3:
        s.remove(pd);
        r.take(pd);
        break;
      case 4: {
        // take() keeps the run state and the remaining quantum.
        const PdState state = pd->state();
        const cycles_t left = pd->quantum_left;
        s.take(pd);
        r.take(pd);
        ASSERT_EQ(pd->state(), state);
        ASSERT_EQ(pd->quantum_left, left);
        break;
      }
      case 5: {
        const u32 to = 1 - home[i];
        s.take(pd);
        r.take(pd);
        if (rng.next_bool(0.7)) {
          sched_[to].enqueue(pd);
          ref[to].enqueue(pd);
        } else {
          sched_[to].suspend(pd);
          ref[to].suspend(pd);
        }
        ASSERT_FALSE(s.is_runnable(pd) || s.is_suspended(pd));
        home[i] = to;
        break;
      }
      case 6:
        pd->parked = !pd->parked;
        break;
    }
    for (u32 c = 0; c < 2; ++c) {
      ASSERT_NO_FATAL_FAILURE(expect_matches(sched_[c], ref[c], pds_, step))
          << "scheduler " << c;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedModelTest,
                         ::testing::Values(3u, 17u, 2024u, 424242u));

// ---- §III.D scheduling properties -------------------------------------------

/// Six equal-priority PDs under a 1000-cycle quantum.
class SchedPropertyTest : public ::testing::Test {
 protected:
  static constexpr cycles_t kQuantum = 1000;

  SchedPropertyTest()
      : heap_(kKernelHeapBase + 3 * kMiB, 2 * kMiB),
        alloc_(platform_.dram(), kKernelHeapBase, 3 * kMiB),
        builder_(platform_.dram(), alloc_),
        sched_(kQuantum) {
    for (u32 i = 0; i < 6; ++i) {
      pds_.push_back(std::make_unique<ProtectionDomain>(
          PdId(i), "pd" + std::to_string(i), /*priority=*/2, heap_,
          platform_.gic(), i + 1, builder_.build_kernel_space(), kCapNone));
    }
  }

  Platform platform_;
  KernelHeap heap_;
  mmu::PageTableAllocator alloc_;
  VmSpaceBuilder builder_;
  Scheduler sched_;
  std::vector<std::unique_ptr<ProtectionDomain>> pds_;
};

TEST_F(SchedPropertyTest, QuantumPreservedAcrossPreemption) {
  // §III.D: a preempted PD keeps its remaining quantum so its total slice
  // stays constant; only quantum *expiry* re-arms the full slice.
  ProtectionDomain* pd = pds_[0].get();
  sched_.enqueue(pd);
  ASSERT_EQ(pd->quantum_left, kQuantum);  // fresh arm on first enqueue

  // The kernel burns part of the slice, then the PD is preempted
  // (suspended) and later resumed: the remainder must survive both hops.
  pd->quantum_left = 400;
  sched_.suspend(pd);
  EXPECT_EQ(pd->quantum_left, 400u);
  sched_.enqueue(pd);
  EXPECT_EQ(pd->quantum_left, 400u);  // NOT re-armed: slice preserved

  // Several preemption round-trips never manufacture extra budget.
  for (int i = 0; i < 10; ++i) {
    sched_.suspend(pd);
    sched_.enqueue(pd);
  }
  EXPECT_EQ(pd->quantum_left, 400u);

  // Expiry is the only re-arm point.
  pd->quantum_left = 0;
  sched_.rotate(pd);
  EXPECT_EQ(pd->quantum_left, kQuantum);
}

TEST_F(SchedPropertyTest, PreemptionByHigherPriorityKeepsVictimSlice) {
  ProtectionDomain* low = pds_[0].get();
  auto high_space = builder_.build_kernel_space();
  ProtectionDomain high(PdId(99), "high", /*priority=*/5, heap_,
                        platform_.gic(), 42, std::move(high_space), kCapNone);
  sched_.enqueue(low);
  low->quantum_left = 250;  // mid-slice

  sched_.enqueue(&high);
  ASSERT_EQ(pick(sched_), &high);  // low is preempted, stays runnable
  EXPECT_EQ(low->quantum_left, 250u);

  sched_.remove(&high);
  ASSERT_EQ(pick(sched_), low);
  EXPECT_EQ(low->quantum_left, 250u);  // resumes exactly where it left off
}

TEST_F(SchedPropertyTest, QuantumPreservedAtEveryCycleOffset) {
  // Exhaustive preemption-offset sweep (§III.D): preempt the PD after every
  // possible number c of consumed cycles, 0..kQuantum. At every offset the
  // remainder must survive both preemption mechanisms — suspension and a
  // higher-priority arrival — so consumed + remaining == kQuantum holds
  // throughout; only c == kQuantum (expiry) re-arms the slice.
  auto high_space = builder_.build_kernel_space();
  ProtectionDomain high(PdId(99), "high", /*priority=*/5, heap_,
                        platform_.gic(), 42, std::move(high_space), kCapNone);
  for (cycles_t c = 0; c <= kQuantum; ++c) {
    Scheduler sched(kQuantum);
    ProtectionDomain* pd = pds_[0].get();
    pd->quantum_left = 0;  // no slice pending from the previous offset
    sched.enqueue(pd);
    ASSERT_EQ(pd->quantum_left, kQuantum);

    pd->quantum_left -= c;  // the kernel charged c cycles of the slice
    if (c == kQuantum) {
      // Expiry: the one re-arm point.
      sched.rotate(pd);
      ASSERT_EQ(pd->quantum_left, kQuantum) << "offset " << c;
      continue;
    }
    // Preemption by suspension (yield/park) and resume.
    sched.suspend(pd);
    sched.enqueue(pd);
    ASSERT_EQ(c + pd->quantum_left, kQuantum) << "offset " << c;
    // Preemption by a higher-priority arrival; the victim stays queued.
    sched.enqueue(&high);
    ASSERT_EQ(pick(sched), &high);
    ASSERT_EQ(c + pd->quantum_left, kQuantum) << "offset " << c;
    sched.remove(&high);
    ASSERT_EQ(pick(sched), pd);
    ASSERT_EQ(c + pd->quantum_left, kQuantum) << "offset " << c;
  }
}

TEST_F(SchedPropertyTest, ExpiryReArmsFullQuantumAtBackOfLevel) {
  // The rotate contract, checked against the queue structure itself: an
  // expired PD leaves the head, re-arms the *full* quantum, and re-enters
  // at the back of its own level — behind every peer, never mid-queue.
  constexpr u32 kPrio = 2;  // all fixture PDs share this level
  for (auto& pd : pds_) {
    pd->quantum_left = 0;
    sched_.enqueue(pd.get());
  }
  for (u32 round = 0; round < 4 * u32(pds_.size()); ++round) {
    ProtectionDomain* head = pick(sched_);
    ASSERT_NE(head, nullptr);
    ASSERT_EQ(head, sched_.level_queue(kPrio).front());
    head->quantum_left = 0;
    sched_.rotate(head);
    EXPECT_EQ(head->quantum_left, kQuantum) << "round " << round;
    EXPECT_EQ(sched_.level_queue(kPrio).back(), head) << "round " << round;
    EXPECT_NE(pick(sched_), head);  // the other five are all ahead now
  }
}

TEST_F(SchedPropertyTest, NoStarvationWithinNQuantaAtOneLevel) {
  // Round-robin fairness: with N runnable equal-priority PDs, every PD must
  // be dispatched at least once within any window of N quantum expiries.
  const u32 n = u32(pds_.size());
  for (auto& pd : pds_) sched_.enqueue(pd.get());

  std::vector<u32> last_seen(n, 0);
  std::vector<u32> dispatches(n, 0);
  for (u32 round = 1; round <= 10 * n; ++round) {
    ProtectionDomain* pd = pick(sched_);
    ASSERT_NE(pd, nullptr);
    const u32 idx = u32(pd->id());
    EXPECT_LE(round - last_seen[idx], n) << "pd" << idx << " starved";
    last_seen[idx] = round;
    ++dispatches[idx];
    pd->quantum_left = 0;  // quantum expired
    sched_.rotate(pd);
  }
  // Perfect rotation: each PD got exactly its 1/N share.
  for (u32 i = 0; i < n; ++i) EXPECT_EQ(dispatches[i], 10u) << "pd" << i;
}

TEST_F(SchedPropertyTest, NoStarvationUnderRandomSuspendResumeChurn) {
  // Stronger property: even with random suspend/resume churn, a PD that
  // stays continuously runnable is dispatched within N quanta of becoming
  // head-eligible (N = number of runnable PDs, bounded above by all PDs).
  util::Xoshiro256 rng(0xC0FFEEu);
  const u32 n = u32(pds_.size());
  for (auto& pd : pds_) sched_.enqueue(pd.get());

  // pds_[0] is the watched PD: never suspended by the churn.
  u32 since_dispatch = 0;
  for (u32 round = 0; round < 600; ++round) {
    // Random churn on the other PDs.
    ProtectionDomain* victim = pds_[1 + rng.next_below(n - 1)].get();
    if (rng.next_bool(0.5))
      sched_.suspend(victim);
    else
      sched_.enqueue(victim);

    ProtectionDomain* pd = pick(sched_);
    ASSERT_NE(pd, nullptr);  // pds_[0] is always runnable
    if (pd == pds_[0].get()) {
      since_dispatch = 0;
    } else {
      ++since_dispatch;
      EXPECT_LE(since_dispatch, n) << "watched PD starved at round " << round;
    }
    pd->quantum_left = 0;
    sched_.rotate(pd);
  }
}

}  // namespace
}  // namespace minova::nova
