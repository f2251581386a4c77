// perfbench: host-speed and hardware-task-latency benchmark of the simulator.
//
//   perfbench --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
//             [--expect-digest HEX] [--trace-json PATH]
//
// --trace 0 prints the end-to-end metrics: set-up is repeated and its median
// reported, then the timed phase runs blocks of simulated work for S host
// seconds (at least the workload's fixed simulated window).
// --trace 1 prints the per-layer metrics: an untraced pass and a traced pass
// of S/2 seconds each from identical set-ups; their digests must agree and
// the rate difference is reported as tracing overhead.
//
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics}. Any correctness-gate failure makes the run incorrect and the exit
// status 1.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common.hpp"
#include "nova/trap.hpp"

using namespace perfbench;
using minova::nova::KernelEvent;
using minova::nova::TrapKind;

namespace {

constexpr u64 kDefaultSeed = 42;
// Spans per host thread kept for the Chrome trace file.
constexpr std::size_t kKeepSpans = 100'000;

const char* const kWorkloads[] = {"fig8_4vm", "smp_compute", "density_churn",
                                  "prr_contention"};

struct MetricDef {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json ("end_to_end").
constexpr MetricDef kEndToEnd[] = {
    {"sim_us_per_host_s", "sim_us/s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

// Must match BENCHMARK.json ("per_layer").
constexpr MetricDef kPerLayer[] = {
    {"nova.run_s", "s"},
    {"nova.loop_self_s", "s"},
    {"nova.host_ns_per_switch", "ns"},
    {"nova.vm_switches", "count"},
    {"nova.create_vm_ns", "ns"},
    {"nova.destroy_vm_ns", "ns"},
    {"nova.trap.hypercall", "count"},
    {"nova.trap.irq", "count"},
    {"nova.trap.guest_fault", "count"},
    {"nova.trap.vfp_switch", "count"},
    {"nova.trap.service_call", "count"},
    {"nova.trap.hook_mismatches", "count"},
    {"nova.virq_injected", "count"},
    {"nova.hypercall_ns.reg_read", "ns"},
    {"nova.hypercall_ns.hw_task_request", "ns"},
    {"nova.hypercall_ns.hw_task_release", "ns"},
    {"nova.hypercall_ns.hw_task_query", "ns"},
    {"nova.smp.ipis", "count"},
    {"nova.smp.steals", "count"},
    {"nova.smp.shootdowns", "count"},
    {"nova.pool.busy_ratio", "ratio"},
    {"nova.pool.host_threads", "count"},
    {"nova.pool.speedup_vs_1_thread", "ratio"},
    {"nova.heap_bytes_per_vm", "bytes"},
    {"nova.asid_rollovers", "count"},
    {"guest.steps", "count"},
    {"guest.step_ns", "ns"},
    {"ucos.thw_requests", "count"},
    {"ucos.thw_busy_retries", "count"},
    {"ucos.thw_jobs", "count"},
    {"hwmgr.requests", "count"},
    {"hwmgr.grants_reconfig", "count"},
    {"hwmgr.busy_rejections", "count"},
    {"hwmgr.reclaims", "count"},
    {"hwmgr.preemptions", "count"},
    {"hwmgr.resumes", "count"},
    {"hwmgr.wait_grants", "count"},
    {"hwmgr.cache_hit_ratio", "ratio"},
    {"hwmgr.cache_lookups", "count"},
    {"pl.pcap_transfers", "count"},
    {"pl.pcap_errors", "count"},
    {"pl.pumps", "count"},
    {"pl.pump_ns", "ns"},
    {"pl.irq_entry_sim_us_p50", "sim_us"},
    {"mmu.utlb_hit_ratio", "ratio"},
    {"mmu.utlb_lookups", "count"},
    {"mmu.walks", "count"},
    {"cache.tlb_hit_ratio", "ratio"},
    {"cache.tlb_lookups", "count"},
    {"cache.l1i_hit_ratio", "ratio"},
    {"cache.l1i_accesses", "count"},
    {"cache.l1d_hit_ratio", "ratio"},
    {"cache.l1d_accesses", "count"},
    {"cache.l2_hit_ratio", "ratio"},
    {"cache.l2_accesses", "count"},
    {"cache.l2_writebacks", "count"},
    {"access.guest_read32_ns", "ns"},
    {"access.core_vread32_ns", "ns"},
    {"access.translate_ns", "ns"},
    {"access.tlb_lookup_ns", "ns"},
    {"access.cache_ns", "ns"},
    {"access.phys_read32_ns", "ns"},
    {"access.probe_faults", "count"},
    {"sim.op_p50_us", "sim_us"},
    {"sim.op_p98_us", "sim_us"},
    {"sim.op_samples", "count"},
    {"sim.vm_switch_cycles", "sim_cycles"},
    {"trace.overhead_ratio", "ratio"},
    {"trace.spans", "count"},
    {"trace.untraced_sim_us_per_host_s", "sim_us/s"},
    {"trace.traced_sim_us_per_host_s", "sim_us/s"},
};

struct Options {
  std::string workload;
  u64 seed = kDefaultSeed;
  double seconds = 10;
  bool trace = false;
  std::optional<u64> expect_digest;
  std::string trace_json;
};

std::unique_ptr<Workload> make(const std::string& name) {
  if (name == "fig8_4vm") return make_fig8();
  if (name == "smp_compute") return make_smp();
  if (name == "density_churn") return make_density();
  if (name == "prr_contention") return make_prr();
  return nullptr;
}

using Counters = std::map<std::string, u64>;

// Peak resident set of this process image. VmHWM, unlike getrusage's
// ru_maxrss, restarts at exec, so a launcher's own memory is not counted.
double peak_rss_mb() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    unsigned long kb = 0;
    bool found = false;
    while (!found && std::fgets(line, sizeof line, f) != nullptr)
      found = std::sscanf(line, "VmHWM: %lu kB", &kb) == 1;
    std::fclose(f);
    if (found) return double(kb) / 1024.0;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;
}

// Host-speed estimators. Other tenants of the host only ever slow a block
// down, and on a shared machine the contention comes and goes in bursts of
// seconds, so the fastest decile of blocks estimates the program's own speed
// far more steadily than their median does.
constexpr double kRatePercentile = 90;
// Set-up is measured many times across the run for the same reason, and its
// fastest decile is reported.
constexpr double kSetupPercentile = 10;
constexpr int kMinSetups = 15;

struct Pass {
  std::vector<Block> blocks;
  Counters c0, c_window, c1;
  u64 digest = 0;
  double host_s = 0;
  // Taken at the window's end, so a faster host running more blocks does
  // not report more memory.
  double rss_mb = 0;

  std::vector<double> sim_rates() const {
    std::vector<double> r;
    for (const Block& b : blocks) r.push_back(b.sim_us / b.host_s);
    return r;
  }
  double sim_rate() const { return percentile(sim_rates(), kRatePercentile); }
  double ops_rate() const {
    std::vector<double> r;
    for (const Block& b : blocks) r.push_back(b.ops / b.ops_host_s);
    return percentile(r, kRatePercentile);
  }
};

// Run blocks until the window is complete and `seconds` have elapsed. After
// the window, `between` runs every `interval` seconds (spreading extra
// set-ups over the rest of the run).
Pass timed_pass(Workload& w, double seconds,
                const std::function<void()>& between = {},
                double interval = 0) {
  Pass p;
  p.c0 = snapshot_counters(w.kernel());
  w.begin_timed();
  const u64 t0 = Tracer::now_ns();
  double next_between = 0;
  bool in_window = true;
  for (u32 i = 1;; ++i) {
    p.blocks.push_back(w.run_block());
    if (in_window && w.window_complete(i)) {
      in_window = false;
      w.end_window();
      p.digest = w.digest();
      p.c_window = snapshot_counters(w.kernel());
      p.rss_mb = peak_rss_mb();
    }
    p.host_s = double(Tracer::now_ns() - t0) / 1e9;
    if (in_window) continue;
    if (p.host_s >= seconds) break;
    if (between && p.host_s >= next_between) {
      between();
      next_between = p.host_s + interval;
    }
  }
  p.c1 = snapshot_counters(w.kernel());
  return p;
}

double delta(const Counters& a, const Counters& b, const std::string& k) {
  return double(b.at(k) - a.at(k));
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

void check_digest(Gate& g, const Workload& w, const Options& o, u64 digest) {
  std::optional<u64> want = o.expect_digest;
  if (!want && o.seed == kDefaultSeed) want = w.pinned_digest();
  if (want) g.check("digest_matches_pinned", digest == *want);
}

// The simulated end-to-end numbers: bit-identical at a fixed seed (the
// pinned digest covers them), so they are gated exactly instead of bounded.
void sim_report(const Workload& w, const Pass& p, Metrics& m) {
  const std::vector<double> lat = w.op_latency_us();
  m["sim.op_p50_us"] = percentile(lat, 50);
  m["sim.op_p98_us"] = percentile(lat, 98);
  m["sim.op_samples"] = double(lat.size());
  m["sim.vm_switch_cycles"] =
      ratio(delta(p.c0, p.c_window, "nova.vm_switch_cycles"),
            delta(p.c0, p.c_window, "nova.vm_switches"));
}

struct Result {
  bool correct = true;
  u64 attempted = 0;
  u64 failed = 0;
  Metrics metrics;  // the contract's metrics (end-to-end or per-layer)
  Metrics human;    // extra numbers, printed but not in the JSON
  std::vector<std::pair<std::string, bool>> checks;
  u64 digest = 0;
};

void finish(Result& r, Workload& w, Gate& g) {
  w.gate(g);
  r.attempted = w.attempted();
  r.failed = w.failed() + g.failures();
  r.correct = g.failures() == 0;
  r.checks = g.checks;
  r.human["error_rate"] = ratio(double(r.failed), double(r.attempted));
  r.human["attempted"] = double(r.attempted);
}

Result run_untraced(Workload& w, const Options& o) {
  Result r;
  std::vector<double> setup;
  // Extra set-ups build and drop a second, independent system.
  auto aux = make(w.name());
  const auto time_setup = [&](Workload& x) {
    const u64 t0 = Tracer::now_ns();
    x.setup(o.seed);
    setup.push_back(double(Tracer::now_ns() - t0) / 1e9);
  };
  time_setup(w);
  const Pass p = timed_pass(
      w, o.seconds,
      [&] {
        time_setup(*aux);
        aux->teardown();
      },
      o.seconds / (kMinSetups + 2));
  while (setup.size() < std::size_t(kMinSetups)) {
    time_setup(*aux);
    aux->teardown();
  }
  r.digest = p.digest;

  Gate g;
  check_digest(g, w, o, p.digest);
  g.check("op_latency_sampled", !w.op_latency_us().empty());
  finish(r, w, g);

  auto& m = r.metrics;
  m["sim_us_per_host_s"] = p.sim_rate();
  m["setup_s"] = percentile(setup, kSetupPercentile);
  m["peak_rss_mb"] = p.rss_mb;
  sim_report(w, p, r.human);
  r.human["ops_per_host_s"] = p.ops_rate();
  r.human["timed_host_s"] = p.host_s;
  r.human["setups"] = double(setup.size());
  r.human["setup_s_median"] = median(setup);
  r.human["block_sim_us_per_host_s_p10"] = percentile(p.sim_rates(), 10);
  r.human["block_sim_us_per_host_s_p50"] = percentile(p.sim_rates(), 50);
  r.human["blocks"] = double(p.blocks.size());
  Metrics unused;
  w.report(r.human, unused);
  return r;
}

// Per-layer numbers from the traced pass's spans.
void span_report(const Tracer& t, u32 threads, double switches, Metrics& m) {
  const auto mean = [&](SpanName n) { return t.totals(n).mean_ns(); };
  const double run_ns = t.totals(SpanName::kRun).ns;
  const double step_ns = t.totals(SpanName::kStep).ns;
  // Self time of the run chunks: their duration minus the part of it during
  // which some guest step ran.
  const double self_ns = run_ns > 0 ? run_ns - t.step_cover_ns() : 0.0;
  m["nova.run_s"] = run_ns / 1e9;
  m["nova.loop_self_s"] = self_ns / 1e9;
  m["nova.host_ns_per_switch"] = ratio(self_ns, switches);
  m["nova.pool.busy_ratio"] = ratio(step_ns, double(threads) * run_ns);
  m["nova.create_vm_ns"] = mean(SpanName::kCreateVm);
  m["nova.destroy_vm_ns"] = mean(SpanName::kDestroyVm);
  m["nova.hypercall_ns.hw_task_request"] = mean(SpanName::kHwRequest);
  m["nova.hypercall_ns.hw_task_release"] = mean(SpanName::kHwRelease);
  m["nova.hypercall_ns.hw_task_query"] = mean(SpanName::kHwQuery);
  m["guest.steps"] = double(t.totals(SpanName::kStep).n);
  m["guest.step_ns"] = mean(SpanName::kStep);
  m["pl.pumps"] = double(t.totals(SpanName::kPump).n);
  m["pl.pump_ns"] = mean(SpanName::kPump);
  m["trace.spans"] = double(t.span_count());
}

void counter_report(const Counters& a, const Counters& b, Metrics& m) {
  const auto d = [&](const std::string& k) { return delta(a, b, k); };
  for (const char* k :
       {"nova.vm_switches", "nova.trap.hypercall", "nova.trap.irq",
        "nova.trap.guest_fault", "nova.trap.vfp_switch",
        "nova.trap.service_call", "nova.virq_injected", "nova.smp.ipis",
        "nova.smp.steals", "nova.smp.shootdowns", "nova.asid_rollovers",
        "cache.l2_writebacks", "pl.pcap_transfers", "pl.pcap_errors"})
    m[k] = d(k);
  const auto hit_ratio = [&](const std::string& level, const char* base_name,
                             const char* ratio_name) {
    const double hits = d(level + "_hits");
    const double total = hits + d(level + "_misses");
    m[base_name] = total;
    m[ratio_name] = ratio(hits, total);
  };
  hit_ratio("mmu.utlb", "mmu.utlb_lookups", "mmu.utlb_hit_ratio");
  hit_ratio("cache.tlb", "cache.tlb_lookups", "cache.tlb_hit_ratio");
  hit_ratio("cache.l1i", "cache.l1i_accesses", "cache.l1i_hit_ratio");
  hit_ratio("cache.l1d", "cache.l1d_accesses", "cache.l1d_hit_ratio");
  hit_ratio("cache.l2", "cache.l2_accesses", "cache.l2_hit_ratio");
  m["mmu.walks"] = d("cache.tlb_misses");
}

Result run_traced(Workload& w, const Options& o) {
  Result r;
  const double half = o.seconds / 2;
  w.setup(o.seed);
  const Pass plain = timed_pass(w, half);
  w.teardown();

  w.setup(o.seed);
  std::array<u64, std::size_t(TrapKind::kCount)> hook{};
  w.kernel().set_introspection_hook([&hook](KernelEvent ev, TrapKind k) {
    if (ev == KernelEvent::kTrapExit && k < TrapKind::kCount) ++hook[std::size_t(k)];
  });
  Tracer tracer(/*run_id=*/1, kKeepSpans);
  set_tracer(&tracer);
  const Pass traced = timed_pass(w, half);
  set_tracer(nullptr);
  w.kernel().set_introspection_hook({});
  r.digest = traced.digest;

  Gate g;
  check_digest(g, w, o, traced.digest);
  g.check("traced_digest_equals_untraced", traced.digest == plain.digest);
  u64 mismatches = 0;
  for (u32 k = 0; k < u32(TrapKind::kCount); ++k) {
    const std::string name =
        std::string("nova.trap.") + minova::nova::trap_kind_name(TrapKind(k));
    const u64 counted = u64(delta(traced.c0, traced.c1, name));
    mismatches += counted > hook[k] ? counted - hook[k] : hook[k] - counted;
  }
  g.check("trap_counters_match_introspection_hook", mismatches == 0);

  auto& m = r.metrics;
  sim_report(w, traced, m);
  m["nova.trap.hook_mismatches"] = double(mismatches);
  counter_report(traced.c0, traced.c1, m);
  span_report(tracer, w.host_threads(), m["nova.vm_switches"], m);
  m["nova.pool.host_threads"] = w.host_threads();
  m["trace.untraced_sim_us_per_host_s"] = plain.sim_rate();
  m["trace.traced_sim_us_per_host_s"] = traced.sim_rate();
  m["trace.overhead_ratio"] = ratio(plain.sim_rate(), traced.sim_rate()) - 1.0;
  // Probes first: a workload's gate may tear its system down.
  run_probes(w, o.seed, m);
  g.check("probe_accesses_succeed", m["access.probe_faults"] == 0);
  finish(r, w, g);
  w.report(r.human, m);
  if (!o.trace_json.empty() &&
      !tracer.write_chrome_json(o.trace_json))
    std::fprintf(stderr, "perfbench: cannot write %s\n", o.trace_json.c_str());

  for (const MetricDef& d : kPerLayer) m.emplace(d.name, 0.0);
  return r;
}

const char* unit_of(const std::string& name) {
  for (const MetricDef& d : kEndToEnd)
    if (name == d.name) return d.unit;
  for (const MetricDef& d : kPerLayer)
    if (name == d.name) return d.unit;
  const auto has = [&](const char* part) {
    return name.find(part) != std::string::npos;
  };
  if (name == "ops_per_host_s") return "1/s";
  if (has("per_host_s")) return "sim_us/s";
  if (has("_us")) return "sim_us";
  if (has("_cycles")) return "sim_cycles";
  if (has("rate") || has("speedup")) return "ratio";
  if (name.ends_with("_s") || name.ends_with("_s_median")) return "s";
  return "count";
}

void print_human(const char* workload, const Options& o, const Result& r) {
  std::printf("== %s  seed=%" PRIu64 "  trace=%d  digest=%016" PRIx64 "\n",
              workload, o.seed, o.trace ? 1 : 0, r.digest);
  for (const auto& [name, ok] : r.checks)
    std::printf("  check %-44s %s\n", name.c_str(), ok ? "ok" : "FAILED");
  for (const auto& [k, v] : r.metrics)
    std::printf("  %-36s %16.6g %s\n", k.c_str(), v, unit_of(k));
  for (const auto& [k, v] : r.human)
    std::printf("  %-36s %16.6g %s%s\n", k.c_str(), v, unit_of(k),
                k == "error_rate" ? "  (failed / attempted)" : "");
}

void print_json(bool correct, u64 attempted, u64 failed, const Metrics& m) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  bool first = true;
  for (const auto& [k, v] : m) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first ? "" : ", ",
                k.c_str(), v, unit_of(k.substr(k.find('/') + 1)));
    first = false;
  }
  std::printf("}}\n");
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <fig8_4vm|smp_compute|density_churn|"
               "prr_contention|all> [--seed N] [--seconds S] [--trace 0|1] "
               "[--expect-digest HEX] [--trace-json PATH]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage();
    const char* v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v, &end, 10);
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v, &end);
    } else if (a == "--trace") {
      o.trace = std::strcmp(v, "1") == 0;
    } else if (a == "--expect-digest") {
      o.expect_digest = std::strtoull(v, &end, 16);
    } else if (a == "--trace-json") {
      o.trace_json = v;
    } else {
      return usage();
    }
    if (end != nullptr && *end != '\0') return usage();
  }
  std::vector<std::string> names;
  if (o.workload == "all")
    names.assign(std::begin(kWorkloads), std::end(kWorkloads));
  else if (make(o.workload) != nullptr)
    names.push_back(o.workload);
  else
    return usage();
  if (!(o.seconds > 0)) return usage();

  bool correct = true;
  u64 attempted = 0, failed = 0;
  Metrics all;
  Result last;
  for (const std::string& name : names) {
    auto w = make(name);
    Result r = o.trace ? run_traced(*w, o) : run_untraced(*w, o);
    print_human(name.c_str(), o, r);
    correct = correct && r.correct;
    attempted += r.attempted;
    failed += r.failed;
    for (const auto& [k, v] : r.metrics)
      all[names.size() == 1 ? k : name + "/" + k] = v;
  }
  std::fflush(stdout);
  print_json(correct, attempted, failed, all);
  return correct ? 0 : 1;
}
