#include "nova/host_pool.hpp"

namespace minova::nova {

HostPool::HostPool(u32 workers) : phase_(std::ptrdiff_t(workers) + 1) {
  threads_.reserve(workers);
  for (u32 t = 1; t <= workers; ++t) {
    threads_.emplace_back([this, t] {
      for (;;) {
        phase_.arrive_and_wait();  // start
        if (stop_) return;
        run_home(t);
        phase_.arrive_and_wait();  // finish
      }
    });
  }
}

HostPool::~HostPool() {
  stop_ = true;
  phase_.arrive_and_wait();  // a start phase that sends the workers home
  for (auto& t : threads_) t.join();
}

void HostPool::run_home(std::size_t thread) {
  for (std::size_t i = thread; i < n_; i += threads_.size() + 1) (*fn_)(i);
}

void HostPool::run(std::size_t n,
                   const std::function<void(std::size_t)>& fn) {
  fn_ = &fn;
  n_ = n;
  phase_.arrive_and_wait();  // start
  run_home(0);
  phase_.arrive_and_wait();  // finish
}

}  // namespace minova::nova
