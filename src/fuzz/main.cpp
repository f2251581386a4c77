// mininova_fuzz — scenario-fuzzing driver.
//
// Campaign mode (default): run `--seeds` scenarios starting at
// `--seed-base`, checking the invariant suite after every kernel event.
// Replay mode: `--seed N` runs exactly one scenario and prints its report.
// `--shrink` reduces any failure to a minimal reproducer and verifies
// bit-identical replay; `--out DIR` writes failing reports + shrunk
// reproducers as files (CI artifact upload).
//
// Exit status: 0 when every scenario held all invariants, 1 otherwise; 2 on
// a bad command line, before any scenario runs.
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>

#include "fuzz/shrink.hpp"
#include "util/log.hpp"

namespace {

using minova::fuzz::FuzzResult;
using minova::fuzz::Oracle;
using minova::fuzz::ScenarioOptions;

struct Args {
  minova::u64 seed_base = 1000;
  minova::u32 seeds = 20;
  bool single = false;  // --seed given: replay exactly one scenario
  minova::u64 seed = 0;
  minova::u64 steps = 5000;
  minova::u64 heavy = 64;
  minova::u64 sabotage = 0;
  Oracle sabotage_oracle = Oracle::kQuantumBound;
  bool hw_sched = false;
  bool supervisor = false;
  minova::u32 cores = 1;
  minova::u32 threads = 1;
  bool compute = false;
  bool mt_check = false;
  bool lifecycle = false;
  bool do_shrink = false;
  bool verbose = false;
  bool help = false;
  std::string out_dir;
};

constexpr const char* kUsage =
    "usage: mininova_fuzz [--seed-base N] [--seeds N] [--seed N] [--steps N]\n"
    "                     [--heavy N] [--sabotage STEP]\n"
    "                     [--sabotage-oracle NAME] [--hw-sched]\n"
    "                     [--supervisor] [--cores N] [--threads N]\n"
    "                     [--compute] [--mt-check] [--lifecycle] [--shrink]\n"
    "                     [--out DIR] [--verbose]\n";

// A whole non-negative integer (decimal, or 0x-prefixed hex) that fits `T`.
template <typename T>
bool parse_num(const char* v, T& out) {
  if (v == nullptr || !(*v >= '0' && *v <= '9')) return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long n = std::strtoull(v, &end, 0);
  if (*end != '\0' || errno == ERANGE || n > std::numeric_limits<T>::max())
    return false;
  out = T(n);
  return true;
}

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto val = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    // A numeric flag's value; a missing or malformed one fails the parse.
    auto num = [&](auto& out) {
      const char* v = val();
      if (parse_num(v, out)) return true;
      std::fprintf(stderr, "%s needs a non-negative integer, got %s\n",
                   arg.c_str(), v != nullptr ? v : "nothing");
      return false;
    };
    if (arg == "--seed-base") {
      if (!num(a.seed_base)) return false;
    } else if (arg == "--seeds") {
      if (!num(a.seeds)) return false;
    } else if (arg == "--seed") {
      if (!num(a.seed)) return false;
      a.single = true;
    } else if (arg == "--steps") {
      if (!num(a.steps)) return false;
    } else if (arg == "--heavy") {
      if (!num(a.heavy)) return false;
    } else if (arg == "--sabotage") {
      // Corrupt state at the given step: a self-test hook that demonstrates
      // detection, replay, and shrinking on a known-bad run.
      if (!num(a.sabotage)) return false;
    } else if (arg == "--sabotage-oracle") {
      // The oracle --sabotage's mutant must trip, by its report name
      // (default quantum-bound; the sv-* mutants need --supervisor, the
      // SMP ones --cores 2 or more).
      const char* v = val();
      a.sabotage_oracle = Oracle::kCount;
      for (minova::u32 o = 0; v != nullptr && o < minova::fuzz::kNumOracles;
           ++o)
        if (std::strcmp(v, oracle_name(Oracle(o))) == 0)
          a.sabotage_oracle = Oracle(o);
      if (a.sabotage_oracle == Oracle::kCount) {
        std::fprintf(stderr, "unknown oracle: %s\n", v != nullptr ? v : "");
        return false;
      }
    } else if (arg == "--supervisor") {
      // Supervisor shards: the VM supervisor watches every static chaos VM
      // (watchdog, fatal-trap containment, restart/quarantine policy) while
      // the guests deliberately crash, spin and poll their own health.
      a.supervisor = true;
    } else if (arg == "--hw-sched") {
      // PRR-scheduler shards: priorities + preemptive reclaim, bitstream
      // cache, per-VM quotas and the admission queue, with the chaos guests
      // driving setprio/quota/queued-poll traffic.
      a.hw_sched = true;
    } else if (arg == "--cores") {
      // Simulated cores: SMP shards run work stealing, IPIs and cross-core
      // TLB shootdown under the three SMP oracles.
      if (!num(a.cores)) return false;
    } else if (arg == "--threads") {
      // Host threads executing the SMP compute batch. Never changes any
      // simulated number — see --mt-check.
      if (!num(a.threads)) return false;
    } else if (arg == "--compute") {
      // Chaos guests mix in pure-compute burst steps so SMP runs exercise
      // the host-parallel batch path.
      a.compute = true;
    } else if (arg == "--mt-check") {
      // Differential mode: run every scenario at 1, 2 and 4 host threads
      // and fail unless all three produce the identical digest.
      a.mt_check = true;
    } else if (arg == "--lifecycle") {
      // VM create/destroy churn between time slices (lazy boot, slab
      // recycling, ASID generations) on top of the usual chaos traffic.
      a.lifecycle = true;
    } else if (arg == "--shrink") {
      a.do_shrink = true;
    } else if (arg == "--verbose" || arg == "-v") {
      a.verbose = true;
    } else if (arg == "--out") {
      const char* v = val();
      if (v == nullptr) {
        std::fputs("--out needs a directory\n", stderr);
        return false;
      }
      a.out_dir = v;
    } else if (arg == "--help" || arg == "-h") {
      a.help = true;
      return false;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return false;
    }
  }
  return true;
}

void write_artifact(const std::string& dir, const std::string& name,
                    const std::string& body) {
  if (dir.empty()) return;
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  std::ofstream f(dir + "/" + name);
  f << body;
}

int handle_failure(const Args& a, const ScenarioOptions& opts,
                   const FuzzResult& res) {
  std::fputs(res.report.c_str(), stdout);
  std::string body = res.report;
  if (a.do_shrink) {
    const auto sh = minova::fuzz::shrink(opts, res);
    std::printf(
        "shrunk after %u runs -> %s\n  step=%llu digest=%016llx "
        "bit_identical=%s\n",
        sh.runs, describe(sh.minimal).c_str(),
        (unsigned long long)sh.repro.step, (unsigned long long)sh.repro.digest,
        sh.bit_identical ? "yes" : "NO");
    body += "\nshrunk reproducer (" + std::to_string(sh.runs) +
            " runs):\n  " + describe(sh.minimal) + "\n" + sh.repro.report;
  }
  write_artifact(a.out_dir, "seed-" + std::to_string(opts.seed) + ".txt", body);
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse(argc, argv, a)) {
    std::fputs(kUsage, a.help ? stdout : stderr);
    return 2;
  }
  if (a.verbose && a.single) {
    // Replay debugging: surface the manager's decision log alongside the
    // scenario report (grants, preemptions, retries, cache traffic).
    minova::util::set_global_log_level(minova::util::LogLevel::kDebug);
    minova::util::set_log_component_filter("hwmgr");
  }

  int rc = 0;
  const minova::u64 first = a.single ? a.seed : a.seed_base;
  const minova::u32 count = a.single ? 1 : a.seeds;
  minova::u32 failures = 0;
  for (minova::u32 i = 0; i < count; ++i) {
    ScenarioOptions opts;
    opts.seed = first + i;
    opts.max_steps = a.steps;
    opts.heavy_interval = a.heavy;
    opts.sabotage_step = a.sabotage;
    opts.sabotage_oracle = a.sabotage_oracle;
    opts.hw_sched = a.hw_sched;
    opts.supervisor = a.supervisor;
    opts.num_cores = a.cores;
    opts.host_threads = a.threads;
    opts.compute = a.compute;
    opts.lifecycle = a.lifecycle;
    const FuzzResult res = minova::fuzz::run_scenario(opts);
    if (res.failed) {
      ++failures;
      rc = handle_failure(a, opts, res);
      continue;
    }
    if (a.verbose || a.single) std::fputs(res.report.c_str(), stdout);
    if (a.mt_check) {
      // Host-thread invariance: the same scenario must land on the same
      // digest (and step/switch counts) at every thread count.
      for (minova::u32 t : {2u, 4u}) {
        ScenarioOptions mt = opts;
        mt.host_threads = t;
        const FuzzResult r2 = minova::fuzz::run_scenario(mt);
        if (r2.failed || r2.digest != res.digest || r2.steps != res.steps) {
          std::printf(
              "MT-DIVERGENCE seed=%llu threads=%u digest=%016llx vs "
              "%016llx steps=%llu vs %llu\n",
              (unsigned long long)opts.seed, t,
              (unsigned long long)r2.digest, (unsigned long long)res.digest,
              (unsigned long long)r2.steps, (unsigned long long)res.steps);
          write_artifact(a.out_dir,
                         "mt-seed-" + std::to_string(opts.seed) + ".txt",
                         res.report + "\n" + r2.report);
          ++failures;
          rc = 1;
          break;
        }
      }
    }
  }
  std::printf("fuzz: %u scenario(s), %u failure(s)\n", count, failures);
  return rc;
}
