// nova::HostPool on its own (DESIGN.md §14.1): over many consecutive
// rounds, every index runs exactly once per round and always on its home
// thread (index i on thread i mod T, the caller being thread 0). Items do
// uneven work, so threads reach the finish phase at different times.
#include <gtest/gtest.h>

#include <cstddef>
#include <functional>
#include <thread>
#include <vector>

#include "nova/host_pool.hpp"

namespace minova::nova {
namespace {

TEST(HostPoolTest, EveryIndexRunsOncePerRoundOnItsHomeThread) {
  constexpr int kRounds = 1000;
  for (u32 workers = 1; workers <= 3; ++workers) {
    HostPool pool(workers);
    const std::size_t threads = workers + 1;
    for (std::size_t n : {std::size_t(1), threads - 1, threads,
                          2 * threads + 1}) {
      std::vector<u32> runs(n, 0);
      std::vector<std::thread::id> ran_on(n);
      std::vector<u64> sink(n, 0);
      const std::function<void(std::size_t)> item = [&](std::size_t i) {
        ++runs[i];
        ran_on[i] = std::this_thread::get_id();
        u64 x = i + 1;
        for (std::size_t k = 0; k < 64 * (i % 5); ++k) x = x * 33 + k;
        sink[i] += x;
      };
      for (int r = 1; r <= kRounds; ++r) {
        pool.run(n, item);
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(runs[i], u32(r))
              << "workers=" << workers << " n=" << n << " i=" << i;
          ASSERT_EQ(ran_on[i], ran_on[i % threads])
              << "workers=" << workers << " n=" << n << " i=" << i;
        }
        ASSERT_EQ(ran_on[0], std::this_thread::get_id());
      }
    }
  }
}

TEST(HostPoolTest, PoolThatNeverRanShutsDown) {
  for (u32 workers = 0; workers <= 3; ++workers) HostPool pool(workers);
}

}  // namespace
}  // namespace minova::nova
