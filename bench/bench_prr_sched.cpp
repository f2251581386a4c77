// Standalone PRR-scheduler contention sweep: runs the preempt/park/resume
// script of bench/prr_sched.hpp under the legacy, sched and sched_cache
// manager configurations and prints one row per configuration. The
// scheduler's claims (priority-blind legacy leg, one preempt/resume per
// round, cache hit rate and latency win) are gated once, by
// check_table3.py on run_all's `prr_sched` section.
//
// Usage: bench_prr_sched [iterations]       (default 40)
#include <cstdio>
#include <cstdlib>
#include <string>

#include "prr_sched.hpp"
#include "util/table.hpp"

using namespace minova;

int main(int argc, char** argv) {
  u32 iterations = 40;
  if (argc > 1) iterations = u32(std::strtoul(argv[1], nullptr, 10));
  if (iterations == 0) {
    std::fprintf(stderr, "Usage: bench_prr_sched [iterations]\n");
    return 2;
  }

  std::printf("PRR scheduler contention sweep: %u rounds x 3 configs ...\n",
              iterations);
  const auto sweep = bench::run_prr_sched_sweep(iterations);

  util::TextTable t({"config", "preempt", "resume", "reclaim", "wait-grant",
                     "reconfig", "cache hit%", "grant us", "host s"});
  for (const auto& p : sweep) {
    const auto& s = p.stats;
    t.add_row({p.name, std::to_string(s.preemptions),
               std::to_string(s.resumes), std::to_string(s.reclaims),
               std::to_string(s.wait_grants),
               std::to_string(s.grants_with_reconfig),
               util::TextTable::fmt_double(p.hit_rate * 100.0, 1),
               util::TextTable::fmt_double(p.avg_grant_us, 2),
               util::TextTable::fmt_double(p.host_seconds, 3)});
  }
  std::printf("%s\n", t.to_string().c_str());
  return 0;
}
