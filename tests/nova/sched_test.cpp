#include "nova/sched.hpp"

#include <gtest/gtest.h>

#include <latch>
#include <set>
#include <thread>
#include <vector>

#include "core/platform.hpp"
#include "nova/inspector.hpp"
#include "nova/kernel.hpp"
#include "nova/kmem.hpp"

namespace minova::nova {
namespace {

class SchedTest : public ::testing::Test {
 protected:
  SchedTest()
      : heap_(kKernelHeapBase + 3 * kMiB, 2 * kMiB),
        alloc_(platform_.dram(), kKernelHeapBase, 3 * kMiB),
        builder_(platform_.dram(), alloc_),
        sched_(1000) {}

  ProtectionDomain* make_pd(const std::string& name, u32 prio) {
    pds_.push_back(std::make_unique<ProtectionDomain>(
        PdId(pds_.size()), name, prio, heap_, platform_.gic(),
        u32(pds_.size() + 1), builder_.build_kernel_space(), kCapNone));
    return pds_.back().get();
  }

  Platform platform_;
  KernelHeap heap_;
  mmu::PageTableAllocator alloc_;
  VmSpaceBuilder builder_;
  Scheduler sched_;
  std::vector<std::unique_ptr<ProtectionDomain>> pds_;
};

TEST_F(SchedTest, EmptySchedulerPicksNothing) {
  EXPECT_EQ(sched_.pick(), nullptr);
  EXPECT_EQ(sched_.runnable_count(), 0u);
}

TEST_F(SchedTest, HighestPriorityWins) {
  auto* low = make_pd("low", 1);
  auto* high = make_pd("high", 2);
  sched_.enqueue(low);
  sched_.enqueue(high);
  EXPECT_EQ(sched_.pick(), high);
  sched_.remove(high);
  EXPECT_EQ(sched_.pick(), low);
}

TEST_F(SchedTest, RoundRobinWithinPriorityLevel) {
  auto* a = make_pd("a", 1);
  auto* b = make_pd("b", 1);
  auto* c = make_pd("c", 1);
  for (auto* pd : {a, b, c}) sched_.enqueue(pd);
  EXPECT_EQ(sched_.pick(), a);
  sched_.rotate(a);
  EXPECT_EQ(sched_.pick(), b);
  sched_.rotate(b);
  EXPECT_EQ(sched_.pick(), c);
  sched_.rotate(c);
  EXPECT_EQ(sched_.pick(), a);  // full circle
}

TEST_F(SchedTest, EnqueueArmsFullQuantumOnlyWhenExhausted) {
  auto* a = make_pd("a", 1);
  sched_.enqueue(a);
  EXPECT_EQ(a->quantum_left, 1000u);
  // Preemption scenario: partially consumed, suspended, re-enqueued.
  a->quantum_left = 400;
  sched_.suspend(a);
  sched_.enqueue(a);
  EXPECT_EQ(a->quantum_left, 400u);  // remaining slice preserved (§III.D)
  a->quantum_left = 0;
  sched_.suspend(a);
  sched_.enqueue(a);
  EXPECT_EQ(a->quantum_left, 1000u);  // fresh slice after exhaustion
}

TEST_F(SchedTest, RotateReArmsQuantum) {
  auto* a = make_pd("a", 1);
  sched_.enqueue(a);
  a->quantum_left = 0;
  sched_.rotate(a);
  EXPECT_EQ(a->quantum_left, 1000u);
}

TEST_F(SchedTest, SuspendRemovesFromRunQueue) {
  auto* a = make_pd("a", 1);
  sched_.enqueue(a);
  sched_.suspend(a);
  EXPECT_EQ(sched_.pick(), nullptr);
  EXPECT_TRUE(sched_.is_suspended(a));
  EXPECT_FALSE(sched_.is_runnable(a));
  EXPECT_EQ(a->state(), PdState::kSuspended);
}

TEST_F(SchedTest, EnqueueFromSuspendQueue) {
  auto* a = make_pd("a", 1);
  sched_.suspend(a);
  sched_.enqueue(a);
  EXPECT_EQ(sched_.pick(), a);
  EXPECT_FALSE(sched_.is_suspended(a));
  EXPECT_EQ(a->state(), PdState::kReady);
}

TEST_F(SchedTest, DoubleEnqueueIsIdempotent) {
  auto* a = make_pd("a", 1);
  sched_.enqueue(a);
  sched_.enqueue(a);
  EXPECT_EQ(sched_.runnable_count(), 1u);
}

TEST_F(SchedTest, HigherPriorityReadyDetection) {
  auto* guest = make_pd("guest", 1);
  auto* manager = make_pd("manager", 2);
  sched_.enqueue(guest);
  EXPECT_FALSE(sched_.higher_priority_ready(guest));
  sched_.enqueue(manager);
  EXPECT_TRUE(sched_.higher_priority_ready(guest));
  EXPECT_FALSE(sched_.higher_priority_ready(manager));
}

TEST_F(SchedTest, RemoveHaltsPd) {
  auto* a = make_pd("a", 1);
  sched_.enqueue(a);
  sched_.remove(a);
  EXPECT_EQ(sched_.pick(), nullptr);
  EXPECT_EQ(a->state(), PdState::kHalted);
}

// Fig. 3 scenario: bootloader/service at P=2 preempts round-robin guests at
// P=1; after it leaves the run queue the guests continue.
TEST_F(SchedTest, ServicePreemptionScenario) {
  auto* os1 = make_pd("os1", 1);
  auto* os2 = make_pd("os2", 1);
  auto* service = make_pd("bootloader", 2);
  sched_.enqueue(os1);
  sched_.enqueue(os2);
  sched_.suspend(service);  // services idle in the suspend queue
  EXPECT_EQ(sched_.pick(), os1);
  sched_.enqueue(service);  // invoked
  EXPECT_EQ(sched_.pick(), service);
  sched_.suspend(service);  // removes itself after handling
  EXPECT_EQ(sched_.pick(), os1);
}

// Kernels may be built on any host thread (run_all's claim pool builds one
// per claim): every scheduler must still draw a process-unique stamp, or one
// kernel's scheduler would read another's membership flags as its own. Under
// TSan an unsynchronized stamp counter is reported here.
TEST(SchedStampTest, KernelsBuiltOnFourHostThreadsGetDistinctStamps) {
  constexpr u32 kThreads = 4;
  constexpr u32 kKernelsPerThread = 4;
  KernelConfig cfg;
  cfg.num_cores = 2;
  std::vector<std::vector<u64>> stamps(kThreads);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (u32 t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      for (u32 k = 0; k < kKernelsPerThread; ++k) {
        Platform platform;
        Kernel kernel(platform, cfg);
        const KernelInspector insp(kernel);
        for (u32 c = 0; c < insp.num_cores(); ++c)
          stamps[t].push_back(insp.core(c).runqueue().stamp());
      }
    });
  for (auto& th : threads) th.join();

  std::set<u64> distinct;
  std::size_t total = 0;
  for (const auto& v : stamps) {
    distinct.insert(v.begin(), v.end());
    total += v.size();
  }
  EXPECT_EQ(total, std::size_t(kThreads * kKernelsPerThread * cfg.num_cores));
  EXPECT_EQ(distinct.size(), total);
}

}  // namespace
}  // namespace minova::nova
