// Deterministic fault-injection subsystem (DESIGN.md §8).
//
// Real DPR deployments are not happy-path machines: PCAP transfers hit CRC
// errors and DMA aborts, reconfigurable regions wedge and miss their
// reconfiguration deadline, and kernel entry paths see transient failures.
// This module injects those faults *deterministically* so every failure
// scenario is replayable bit-for-bit:
//
//   * each injection site draws from its own RNG stream derived from the
//     experiment seed, so a decision at one site never perturbs another
//     site's sequence regardless of interleaving;
//   * a decision depends only on (seed, site, per-site attempt index) —
//     never on wall-clock, global call order, or other sites;
//   * on top of the probabilistic model, an explicit per-site schedule of
//     failing attempt indices supports exact fault-schedule replay in
//     tests ("fail the 1st and 3rd transfer");
//   * every probe and injection is counted in the stats registry
//     (`fault.<site>.attempts` / `fault.<site>.injected`) and appended to
//     an in-memory record list for post-run inspection.
//
// Disabled (the default), `should_fail` returns false without touching the
// RNG, the counters, or the record list — the simulation is bit-identical
// to a build without the subsystem.
#pragma once

#include <array>
#include <vector>

#include "sim/clock.hpp"
#include "sim/stats.hpp"
#include "util/rng.hpp"

namespace minova::sim {

/// Injection points wired into the platform. Keep `fault_site_name` and the
/// stats counter names in sync when extending.
enum class FaultSite : u8 {
  kPcapCrc = 0,         // bitstream CRC check fails at transfer end
  kPcapTransfer,        // DevC DMA aborts mid-stream
  kPcapStall,           // transfer stalls: extra latency, still succeeds
  kPrrReconfigTimeout,  // region misses its reconfiguration deadline
  kPrrRegionBusy,       // static logic spuriously NAKs the reconfig handshake
  kHypercallTransient,  // EAGAIN-style transient kernel-path failure
  kCount,
};

inline constexpr u32 kNumFaultSites = u32(FaultSite::kCount);

constexpr const char* fault_site_name(FaultSite s) {
  switch (s) {
    case FaultSite::kPcapCrc: return "pcap_crc";
    case FaultSite::kPcapTransfer: return "pcap_transfer";
    case FaultSite::kPcapStall: return "pcap_stall";
    case FaultSite::kPrrReconfigTimeout: return "prr_reconfig_timeout";
    case FaultSite::kPrrRegionBusy: return "prr_region_busy";
    case FaultSite::kHypercallTransient: return "hypercall_transient";
    case FaultSite::kCount: break;
  }
  return "?";
}

struct FaultSiteConfig {
  /// Per-probe injection probability in [0, 1].
  double probability = 0.0;
  /// Explicit failing attempt indices (0-based, per site), evaluated in
  /// addition to the probabilistic draw. The RNG stream advances on every
  /// probe either way, so adding a schedule never shifts the random
  /// decisions of later attempts.
  std::vector<u64> schedule;
};

struct FaultConfig {
  bool enabled = false;
  u64 seed = 0xFA17'DEEDull;
  /// Extra latency of a stalled PCAP transfer (kPcapStall).
  cycles_t stall_cycles = 250'000;
  std::array<FaultSiteConfig, kNumFaultSites> sites{};
};

/// One injected fault, for replay verification and debugging.
struct FaultRecord {
  FaultSite site = FaultSite::kCount;
  u64 attempt = 0;   // per-site attempt index the fault hit
  cycles_t at = 0;   // sim time of the decision
};

class FaultInjector {
 public:
  FaultInjector(Clock& clock, StatsRegistry& stats,
                const FaultConfig& cfg = {});

  bool enabled() const { return cfg_.enabled; }
  void set_enabled(bool on) { cfg_.enabled = on; }

  /// Probe the site: true when the fault fires for this attempt. Advances
  /// the site's attempt counter and RNG stream (only while enabled).
  bool should_fail(FaultSite site);

  cycles_t stall_cycles() const { return cfg_.stall_cycles; }

  void set_schedule(FaultSite site, std::vector<u64> attempts) {
    cfg_.sites[u32(site)].schedule = std::move(attempts);
  }

  u64 attempts(FaultSite site) const { return sites_[u32(site)].attempts; }
  u64 injected(FaultSite site) const { return sites_[u32(site)].injected; }
  /// Totals across all sites.
  u64 attempts() const {
    u64 n = 0;
    for (const auto& s : sites_) n += s.attempts;
    return n;
  }
  u64 injected() const {
    u64 n = 0;
    for (const auto& s : sites_) n += s.injected;
    return n;
  }
  const std::vector<FaultRecord>& records() const { return records_; }
  const FaultConfig& config() const { return cfg_; }

  /// Rewind every site to attempt 0 and re-derive the per-site streams from
  /// the configured seed: the next run replays identical decisions.
  void reset();

 private:
  struct SiteState {
    util::Xoshiro256 rng{0};
    u64 attempts = 0;
    u64 injected = 0;
    // `fault.<site>.attempts` / `.injected`, interned at construction so
    // the per-probe path never builds a string or hashes a name.
    CounterHandle c_attempts;
    CounterHandle c_injected;
  };

  void seed_streams();

  Clock& clock_;
  StatsRegistry& stats_;
  FaultConfig cfg_;
  std::array<SiteState, kNumFaultSites> sites_{};
  std::vector<FaultRecord> records_;
};

}  // namespace minova::sim
