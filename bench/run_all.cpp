// Bench driver: runs the Table III configurations, the SMP and host-parallel
// sweeps, the VM-density sweep, the PRR-scheduler contention sweep and the
// paper's design claims (claims.hpp), then writes one machine-readable
// BENCH_results.json. bench/render.py prints it as tables.
//
// The JSON separates two kinds of numbers:
//   * simulated quantities (latency rows, trap counts, hit rates) — these
//     are deterministic; bench/check_table3.py diffs the Table III rows
//     against bench/golden_table3.json and checks every claim's rule;
//   * host quantities (wall-clock seconds, ns/op, speedups, sim-rate) —
//     machine-dependent, reported but never golden-diffed.
//
// The window applies to the Table III, SMP and host-parallel runs; the
// claims run at their own fixed windows and seeds.
//
// Usage: run_all [sim_ms_per_config] [output.json]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "claims.hpp"
#include "density.hpp"
#include "harness.hpp"
#include "mt.hpp"
#include "prr_sched.hpp"
#include "smp.hpp"

using namespace minova;

namespace {

template <typename T>
constexpr bool kIsVector = false;
template <typename T>
constexpr bool kIsVector<std::vector<T>> = true;

/// One JSON value: a full-precision double, an integer, a quoted string or
/// an array of these.
template <typename V>
std::string jv(const V& v) {
  if constexpr (kIsVector<V>) {
    std::string out = "[";
    for (std::size_t i = 0; i < v.size(); ++i)
      out += (i ? ", " : "") + jv(v[i]);
    return out + "]";
  } else if constexpr (std::is_floating_point_v<V>) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
  } else if constexpr (std::is_integral_v<V>) {
    return std::to_string(v);
  } else {
    std::string quoted = "\"";
    quoted += v;
    quoted += '"';
    return quoted;
  }
}

/// `[get(xs[0]), get(xs[1]), ...]`. `get` is a data or function member
/// pointer, or a callable taking an element.
template <typename T, typename Get>
auto col(const std::vector<T>& xs, Get get) {
  std::vector<std::decay_t<std::invoke_result_t<Get, const T&>>> out;
  for (const auto& x : xs) out.push_back(std::invoke(get, x));
  return out;
}

/// One array row, `"name": col(xs, get)`, indented by `indent` spaces.
template <typename T, typename Get>
void row(FILE* f, int indent, const char* name, const std::vector<T>& xs,
         Get get, bool last = false) {
  std::fprintf(f, "%*s\"%s\": %s%s\n", indent, "", name,
               jv(col(xs, get)).c_str(), last ? "" : ",");
}

/// The claims section: per seeded claim `"metric": [[config...] per seed]`,
/// per seedless sweep `"metric": [config...]`.
void claims_section(FILE* f, const bench::Claims& c) {
  using M = bench::Measurement;
  const std::vector<u64> seeds(std::begin(bench::kClaimSeeds),
                               std::end(bench::kClaimSeeds));
  std::fprintf(f, "  \"claims\": {\n    \"seeds\": %s,\n",
               jv(seeds).c_str());
  std::fprintf(f, "    \"fig9\": {\n      \"sim_ms\": %s,\n",
               jv(bench::kFig9SimMs).c_str());
  std::fprintf(f, "      \"configs\": [\"native\", \"1\", \"2\", \"3\", \"4\"],\n");
  const std::pair<const char*, double M::*> fig9_rows[] = {
      {"entry", &M::entry}, {"exit", &M::exit}, {"irq_entry", &M::irq_entry},
      {"exec", &M::exec},   {"total", &M::total}};
  for (const auto& r : fig9_rows)
    row(f, 6, r.first, c.fig9,
        [&](const auto& ms) { return col(ms, r.second); },
        &r == std::end(fig9_rows) - 1);
  std::fprintf(f, "    },\n");
  const auto abl = bench::ablations();
  for (std::size_t a = 0; a < abl.size(); ++a) {
    std::fprintf(f, "    \"%s\": {\n      \"sim_ms\": %s,\n", abl[a].name,
                 jv(abl[a].sim_ms).c_str());
    row(f, 6, "configs", abl[a].configs,
        [](const auto& cfg) { return std::string(cfg.first); });
    for (std::size_t i = 0; i < std::size(bench::kAblationMetrics); ++i) {
      const auto& m = bench::kAblationMetrics[i];
      row(f, 6, m.first, c.runs[a],
          [&](const auto& runs) { return col(runs, m.second); },
          i + 1 == std::size(bench::kAblationMetrics));
    }
    std::fprintf(f, "    },\n");
  }
  using P = bench::PcapSizeRow;
  std::fprintf(f, "    \"pcap_size\": {\n");
  row(f, 6, "tasks", c.pcap_sizes, &P::task);
  row(f, 6, "kib", c.pcap_sizes, &P::kib);
  row(f, 6, "model_us", c.pcap_sizes, &P::model_us);
  row(f, 6, "measured_us", c.pcap_sizes, &P::measured_us);
  row(f, 6, "kib_per_ms", c.pcap_sizes, &P::kib_per_ms, true);
  using H = bench::HwSwRow;
  std::fprintf(f, "    },\n    \"hw_vs_sw\": {\n");
  row(f, 6, "fft_points", c.hw_vs_sw, &H::points);
  row(f, 6, "sw_us", c.hw_vs_sw, &H::sw_us);
  row(f, 6, "hw_cold_us", c.hw_vs_sw, &H::hw_cold_us);
  row(f, 6, "hw_warm_us", c.hw_vs_sw, &H::hw_warm_us, true);
  std::fprintf(f, "    }\n  }\n");
}

/// The latency and trap rows table3 and smp share.
void latency_rows(FILE* f, int indent,
                  const std::vector<bench::Measurement>& ms) {
  using M = bench::Measurement;
  row(f, indent, "entry", ms, &M::entry);
  row(f, indent, "exit", ms, &M::exit);
  row(f, indent, "irq_entry", ms, &M::irq_entry);
  row(f, indent, "exec", ms, &M::exec);
  row(f, indent, "total", ms, &M::total);
  row(f, indent, "samples", ms, &M::samples);
  row(f, indent, "hypercalls", ms, &M::hypercalls);
  row(f, indent, "irq_traps", ms, &M::irq_traps);
}

}  // namespace

int main(int argc, char** argv) {
  // Keeps the window's cycle count far from overflow; 1e6 ms already takes
  // minutes of host time per configuration.
  constexpr double kMaxSimMs = 1e6;
  double sim_ms = 50.0;
  const char* out_path = "BENCH_results.json";
  if (argc > 1) {
    char* end = nullptr;
    sim_ms = std::strtod(argv[1], &end);
    if (argc > 3 || end == argv[1] || *end != '\0' || !(sim_ms > 0) ||
        sim_ms > kMaxSimMs) {
      std::fprintf(stderr,
                   "usage: run_all [sim_ms_per_config] [output.json]\n"
                   "  sim_ms_per_config: a number of milliseconds in "
                   "(0, %g], default 50\n",
                   kMaxSimMs);
      return 2;
    }
  }
  if (argc > 2) out_path = argv[2];

  std::printf("run_all: Table III (%g ms/config) ...\n", sim_ms);
  std::vector<bench::Measurement> rows{bench::run_native(sim_ms, 42)};
  for (u32 g = 1; g <= 4; ++g)
    rows.push_back(bench::run_virtualized(g, sim_ms, 42));

  std::printf("run_all: SMP scaling 1/2/4/8 cores ...\n");
  std::vector<bench::SmpPoint> smp;
  std::vector<bench::Measurement> smp_rows;
  for (u32 c : {1u, 2u, 4u, 8u}) {
    smp.push_back(bench::run_smp_point(c, sim_ms));
    smp_rows.push_back(smp.back().m);
  }

  std::printf("run_all: host-parallel 4 cores x 1/2/4 threads ...\n");
  std::vector<bench::MtPoint> mt;
  for (u32 t : {1u, 2u, 4u}) mt.push_back(bench::run_mt_point(4, t, sim_ms));

  std::printf("run_all: density sweep 8 -> 1024 VMs ...\n");
  std::vector<bench::DensityPoint> density;
  for (u32 n : bench::density_sweep())
    density.push_back(bench::measure_density(n));
  const bench::ChurnResult churn = bench::run_churn(1024, 3);

  std::printf("run_all: PRR scheduler contention sweep (40 rounds) ...\n");
  const u32 prr_iters = 40;  // fixed so the simulated counters are diffable
  const auto prr = bench::run_prr_sched_sweep(prr_iters);
  std::vector<hwmgr::ManagerStats> prr_stats;
  for (const auto& p : prr) prr_stats.push_back(p.stats);

  const unsigned claim_threads =
      std::max(1u, std::thread::hardware_concurrency());
  std::printf("run_all: claims over %zu seeds on %u host thread(s) ...\n",
              std::size(bench::kClaimSeeds), claim_threads);
  const bench::Claims claims = bench::run_claims(claim_threads);

  FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "run_all: cannot open %s\n", out_path);
    return 1;
  }

  using M = bench::Measurement;
  std::fprintf(f, "{\n  \"schema\": \"minova-bench-1\",\n");
  std::fprintf(f, "  \"table3\": {\n    \"sim_ms\": %s,\n", jv(sim_ms).c_str());
  std::fprintf(f, "    \"configs\": [\"native\", \"1\", \"2\", \"3\", \"4\"],\n");
  std::fprintf(f, "    \"sim_rows\": {\n");
  latency_rows(f, 6, rows);
  row(f, 6, "utlb_hit_rate", rows, &M::utlb_hit_rate);
  row(f, 6, "tlb_hit_rate", rows, &M::tlb_hit_rate);
  row(f, 6, "l1d_hit_rate", rows, &M::l1d_hit_rate);
  row(f, 6, "l2_hit_rate", rows, &M::l2_hit_rate);
  row(f, 6, "tlb_va_flushes", rows, &M::tlb_va_flushes, true);
  std::fprintf(f, "    },\n");
  {
    double host_s = 0, sim_us = 0;
    for (const auto& r : rows) {
      host_s += r.host_seconds;
      sim_us += r.sim_us;
    }
    std::fprintf(f, "    \"host\": {\"seconds\": %s, \"sim_us_per_host_s\": %s}\n",
                 jv(host_s).c_str(),
                 jv(host_s > 0 ? sim_us / host_s : 0.0).c_str());
  }
  // SMP section: the same 4-guest configuration at 1/2/4/8 cores. The
  // cores=1 column is golden-gated: check_table3.py asserts it is
  // bit-identical to the table3 4-guest column above (the unicore kernel
  // takes none of the SMP paths).
  std::fprintf(f, "  },\n  \"smp\": {\n");
  row(f, 4, "cores", smp, &bench::SmpPoint::cores);
  latency_rows(f, 4, smp_rows);
  row(f, 4, "ipis_sent", smp, &bench::SmpPoint::ipis_sent);
  row(f, 4, "steals", smp, &bench::SmpPoint::steals);
  row(f, 4, "shootdowns_sent", smp, &bench::SmpPoint::shootdowns_sent);
  row(f, 4, "shootdown_acks", smp, &bench::SmpPoint::shootdown_acks);
  row(f, 4, "cross_core_irqs", smp, &bench::SmpPoint::cross_core_irqs);
  row(f, 4, "vm_switches", smp, &bench::SmpPoint::vm_switches, true);
  // Host-parallel section (DESIGN.md §14): the compute-saturated 4-core
  // configuration at 1/2/4 host threads. sim_digest is a simulated
  // quantity and must be identical across the thread sweep (check_table3.py
  // fails on divergence); host_seconds / host_speedup are machine numbers —
  // the speedup floor is only gated when the host has >= 4 CPUs.
  std::fprintf(f, "  },\n  \"mt\": {\n    \"cores\": %u,\n",
               mt.empty() ? 0 : mt[0].cores);
  row(f, 4, "threads", mt, &bench::MtPoint::threads);
  row(f, 4, "host_seconds", mt, &bench::MtPoint::host_seconds);
  row(f, 4, "host_speedup", mt, [&](const bench::MtPoint& p) {
    return p.host_seconds > 0 ? mt[0].host_seconds / p.host_seconds : 0.0;
  });
  row(f, 4, "sim_us_per_host_s", mt, &bench::MtPoint::sim_us_per_host_s);
  row(f, 4, "sim_digest", mt, [](const bench::MtPoint& p) {
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  (unsigned long long)p.sim_digest);
    return std::string(hex);
  });
  std::fprintf(f, "    \"host_cpus\": %u\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  },\n  \"density\": {\n");
  using D = bench::DensityPoint;
  row(f, 4, "vms", density, &D::vms);
  row(f, 4, "switches", density, &D::switches);
  row(f, 4, "sim_cycles_per_switch", density, &D::sim_cycles_per_switch);
  row(f, 4, "heap_bytes_per_vm", density, &D::heap_bytes_per_vm);
  row(f, 4, "asid_generation", density, &D::asid_generation);
  row(f, 4, "host_ns_per_switch", density, &D::host_ns_per_switch);
  std::fprintf(f,
               "    \"churn\": {\"vms\": %u, \"cycles\": %u, "
               "\"heap_flat\": %s, \"vms_destroyed\": %llu, "
               "\"asid_generation\": %u}\n",
               churn.vms, churn.cycles, churn.heap_flat ? "true" : "false",
               (unsigned long long)churn.vms_destroyed, churn.asid_generation);
  // PRR scheduler section (DESIGN.md §15): the legacy/sched/sched_cache
  // contention sweep. Counters and grant latency are simulated and gated by
  // check_table3.py acceptance thresholds; host seconds are reported only.
  std::fprintf(f, "  },\n  \"prr_sched\": {\n    \"iterations\": %u,\n",
               prr_iters);
  using S = hwmgr::ManagerStats;
  row(f, 4, "configs", prr, &bench::PrrSchedPoint::name);
  row(f, 4, "preemptions", prr_stats, &S::preemptions);
  row(f, 4, "resumes", prr_stats, &S::resumes);
  row(f, 4, "wait_grants", prr_stats, &S::wait_grants);
  row(f, 4, "reclaims", prr_stats, &S::reclaims);
  row(f, 4, "grants_with_reconfig", prr_stats, &S::grants_with_reconfig);
  row(f, 4, "cache_hits", prr_stats, &S::cache_hits);
  row(f, 4, "cache_misses", prr_stats, &S::cache_misses);
  row(f, 4, "cache_evictions", prr_stats, &S::cache_evictions);
  row(f, 4, "hit_rate", prr, &bench::PrrSchedPoint::hit_rate);
  row(f, 4, "avg_grant_us", prr, &bench::PrrSchedPoint::avg_grant_us);
  row(f, 4, "host_seconds", prr, &bench::PrrSchedPoint::host_seconds, true);
  std::fprintf(f, "  },\n");
  claims_section(f, claims);
  std::fprintf(f, "}\n");
  std::fclose(f);

  std::printf("run_all: wrote %s\n", out_path);
  for (const auto& p : mt)
    std::printf("  mt %u cores x %u thread(s): %.3fs host (%.2fx), digest %016llx\n",
                p.cores, p.threads, p.host_seconds,
                p.host_seconds > 0 ? mt[0].host_seconds / p.host_seconds : 0.0,
                (unsigned long long)p.sim_digest);
  for (const auto& p : prr)
    std::printf("  prr_sched %-11s preempt %llu reclaim %llu hit %.1f%% "
                "grant %.2f us\n",
                p.name.c_str(), (unsigned long long)p.stats.preemptions,
                (unsigned long long)p.stats.reclaims, p.hit_rate * 100.0,
                p.avg_grant_us);
  return 0;
}
