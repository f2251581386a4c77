// Hardware Task Manager — the microkernel user service owning DPR
// hardware-task allocation (paper §IV.B/§IV.E, Fig. 7).
//
// Runs in its own protection domain with the map-other and PL-control
// capabilities. Owns two tables in its private memory:
//   * the hardware task table: per task, bitstream location/size and the
//     list of PRRs able to host it;
//   * the PRR table: per region, current client, configured task and
//     execution state.
//
// A request is handled in the six stages of Fig. 7:
//   (1) the guest's hypercall invokes the service;
//   (2) select a suitable PRR (idle, compatible; prefer one already
//       configured with the task) or return Busy;
//   (3) map the PRR's register-group page into the client's page table;
//   (4) load the hwMMU with the client's hardware task data section;
//   (5) launch a PCAP transfer when the task is not already configured;
//   (6) return Success or Reconfig without waiting for PCAP completion.
// Reclaiming a region from a previous client saves its interface registers
// into that client's data section with an *inconsistent* state flag and
// demaps the interface page (§IV.C).
//
// On top of the paper's allocator sits an opt-in scheduler (DESIGN.md §15):
// per-client priorities with preemptive reclaim (the §IV.C record doubles as
// the context-switch save area; preempted clients park on a wait queue and
// resume from their saved registers when a region frees), an LRU bitstream
// cache with prefetch-on-queue, and per-VM quotas with a bounded admission
// queue so kBusy is reserved for true saturation. Every scheduler feature
// defaults OFF, and the default configuration is bit-identical to the
// pre-scheduler manager.
#pragma once

#include <map>
#include <utility>
#include <vector>

#include "hwtask/consistency.hpp"
#include "nova/kernel.hpp"

namespace minova::hwmgr {

// Consistency-record layout (§IV.C) — canonical home is
// hwtask/consistency.hpp; re-exported here for the existing callers.
using hwtask::consistency_offset;
using hwtask::kConsistencyWords;
using hwtask::kStateConsistent;
using hwtask::kStateInconsistent;

/// PRR selection policy (stage 2 of Fig. 7). The paper's allocator prefers
/// a region already configured with the requested task; the alternatives
/// exist for the policy ablation bench.
enum class AllocPolicy : u8 {
  kResidentFirst = 0,  // paper: reuse a configured region when possible
  kFirstFit,           // ignore residency: first idle compatible region
  kLruRegion,          // least-recently-granted idle compatible region
};

// Instruction-count model of the manager's allocation work, calibrated so
// the native execution time lands near the paper's 15 µs (Table III). The
// counts stand for the table validation, bitstream header parsing, PRR
// state evaluation, devcfg/PCAP driver work and bookkeeping a real
// allocator performs per request. The native allocator charges the same
// counts.
inline constexpr u32 kInsnsValidate = 3000;      // argument + table checks
inline constexpr u32 kInsnsSelectPerPrr = 700;   // per-PRR state evaluation
inline constexpr u32 kInsnsHwmmu = 700;          // window compute + program
inline constexpr u32 kInsnsPcap = 1800;          // devcfg driver, descriptors
inline constexpr u32 kInsnsConsistency = 800;    // register save + record
inline constexpr u32 kInsnsTableUpdate = 2200;   // task/PRR table writeback
inline constexpr u32 kInsnsRelease = 700;

/// Retry-with-exponential-backoff policy for failed bitstream downloads,
/// plus per-PRR quarantine: a region whose downloads keep failing is pulled
/// from allocation for a cooldown instead of burning PCAP bandwidth.
struct RetryPolicy {
  u32 max_attempts = 4;            // total transfer attempts per grant
  double backoff_base_us = 100.0;  // delay before the first retry
  double backoff_factor = 2.0;     // delay multiplier per further retry
  u32 quarantine_threshold = 3;    // consecutive failures that quarantine
  double quarantine_us = 50'000.0; // cooldown before the region is retried
};

/// Scheduler configuration (DESIGN.md §15). All features default off: the
/// default-constructed config reproduces the pre-scheduler manager exactly
/// (bit-identical Table III / density / fuzz digests).
struct SchedConfig {
  /// Priority-aware allocation: a request may preempt a region owned by a
  /// strictly lower-priority client (park + resume via the §IV.C record).
  bool priorities = false;
  /// Bitstream cache capacity in entries (task bitstreams held in the
  /// manager's OCM staging buffers). 0 disables the cache entirely.
  u32 cache_capacity = 0;
  /// Prefetch a queued request's bitstream into the cache while it waits.
  bool prefetch = false;
  /// Per-VM cap on concurrent hardware-task grants (owned regions plus
  /// queued requests). 0 = unlimited.
  u32 default_quota = 0;
  /// Admission-queue depth. 0 = legacy behaviour (immediate kBusy when no
  /// region is available); >0 parks up to this many requests and answers
  /// kHwGrantQueued, reserving kBusy for true saturation.
  u32 queue_depth = 0;
};

/// Per-PRR health, driven by PCAP transfer outcomes.
enum class PrrHealth : u8 {
  kHealthy = 0,
  kSuspect,      // just left quarantine; one more failure re-quarantines
  kQuarantined,  // excluded from allocation until the cooldown expires
};

/// Reconfiguration state of a client's latest grant (kHwTaskQuery answer).
enum class ReconfigOutcome : u8 {
  kInFlight = 0,  // a transfer (or a scheduled retry) is pending
  kReady,         // the task is configured in the region
  kFallback,      // retries exhausted: client should run in software
  kQueued,        // admission-queued (or preempted): waiting for a region
};

struct PrrTableEntry {
  nova::PdId client = nova::kInvalidPd;
  hwtask::TaskId task = hwtask::kInvalidTask;      // configured (or loading)
  bool reconfiguring = false;
  vaddr_t client_iface_va = 0;
  u32 irq_index = 0xFFFF'FFFFu;  // allocated PL IRQ source
  u64 last_grant_seq = 0;        // recency stamp for the LRU policy
  PrrHealth health = PrrHealth::kHealthy;
  u32 fail_streak = 0;  // consecutive failed downloads into this region
};

struct ManagerStats {
  u64 requests = 0;
  u64 grants_no_reconfig = 0;
  u64 grants_with_reconfig = 0;
  u64 busy_rejections = 0;
  u64 reclaims = 0;  // region taken from another client
  u64 releases = 0;
  u64 pcap_failures = 0;   // failed transfer attempts observed
  u64 retries = 0;         // re-launched transfers after a failure
  u64 quarantines = 0;     // healthy/suspect -> quarantined transitions
  u64 unquarantines = 0;   // cooldown expirations
  u64 fallbacks = 0;       // grants degraded to software after failures
  u64 sw_grants = 0;       // requests granted as software up front
  // ---- scheduler (all zero when SchedConfig is default-off) ----
  u64 preemptions = 0;       // regions taken from a lower-priority client
  u64 resumes = 0;           // preempted grants resumed from saved registers
  u64 enqueued = 0;          // requests parked on the admission queue
  u64 wait_grants = 0;       // queued requests granted a region
  u64 quota_rejections = 0;  // requests bounced by the per-VM quota
  u64 cache_hits = 0;        // PCAP launches served from the bitstream cache
  u64 cache_misses = 0;      // PCAP launches that streamed the full image
  u64 cache_evictions = 0;   // LRU entries dropped at capacity
  u64 cache_prefetches = 0;  // bitstreams staged while the request queued
};

class ManagerService final : public nova::HwService {
 public:
  explicit ManagerService(nova::Kernel& kernel);
  ~ManagerService() override;

  /// Create the manager's protection domain and register this service.
  /// Priority defaults to one above the guests' (paper §IV.E).
  nova::ProtectionDomain& install(u32 priority = 2);

  // nova::HwService
  nova::HcStatus handle_request(nova::GuestContext& ctx,
                                const nova::HwTaskRequest& req,
                                u32& result_flags) override;
  nova::HcStatus handle_release(nova::GuestContext& ctx, nova::PdId client,
                                hwtask::TaskId task) override;
  u32 query_reconfig(nova::PdId client) override;
  /// Kernel notification: `client`'s PD was destroyed. Host-side cleanup
  /// only — the guest context is gone, so nothing is charged; regions held
  /// by the client are reclaimed (task stays resident for warm re-dispatch)
  /// and all per-client bookkeeping is dropped.
  void handle_client_destroyed(nova::PdId client) override;
  /// kHwTaskQuery(kHwQuerySetPrio): per-client hardware-task priority
  /// override (clamped to 1..15). Stored unconditionally; it only steers
  /// allocation when SchedConfig::priorities is on.
  nova::HcStatus set_client_priority(nova::PdId client, u32 prio) override;
  /// kHwTaskQuery(kHwQueryQuota): packed (quota << 16) | grants_in_use.
  u32 query_quota(nova::PdId client) override;
  /// With any scheduler feature on, queries run inside the manager's domain:
  /// the query path pumps the wait queue, and a re-grant's mapping/IRQ work
  /// must sit in the service window so the switch back to the caller replays
  /// the vGIC mask protocol. Default-off keeps the legacy in-place dispatch.
  bool query_wants_service_ctx() const override {
    return sched_.priorities || sched_.queue_depth > 0 ||
           sched_.cache_capacity > 0;
  }

  void set_policy(AllocPolicy p) { policy_ = p; }
  AllocPolicy policy() const { return policy_; }
  void set_retry_policy(const RetryPolicy& p) { retry_ = p; }
  const RetryPolicy& retry_policy() const { return retry_; }
  void set_sched_config(const SchedConfig& c) { sched_ = c; }
  const SchedConfig& sched_config() const { return sched_; }
  PrrHealth prr_health(u32 idx) const { return prr_table_[idx].health; }

  /// Ablation (§IV.E stage 6): when set, the service waits for PCAP
  /// completion before returning instead of overlapping the transfer with
  /// the client's execution.
  void set_blocking_reconfig(bool on) { blocking_reconfig_ = on; }

  const PrrTableEntry& prr_entry(u32 idx) const { return prr_table_[idx]; }
  u32 num_prrs() const { return u32(prr_table_.size()); }
  const ManagerStats& stats() const { return stats_; }

  /// True while an event-context wait-queue pump is mid-update (its kernel
  /// service calls fire trap-exit hooks between individual table writes).
  /// The fuzz oracles defer exactly as they do for the synchronous service
  /// window and re-check at the next quiescent event.
  bool in_service() const { return pumping_; }

  /// Live (client, interface VA) -> PRR bindings. A PRR table entry may keep
  /// a stale client/VA record after the same client re-grants through the
  /// same window (warm-region cache); this map is the authoritative view of
  /// which register-group page each client VA maps right now. Read-only —
  /// used by the fuzzer's ownership oracle.
  using IfaceBindings = std::map<std::pair<nova::PdId, vaddr_t>, u32>;
  const IfaceBindings& iface_bindings() const { return iface_map_; }

  // ---- scheduler state, exposed read-only for the fuzz oracles ----

  /// Independent launch ledger: who launched what into each PRR, written on
  /// every grant/regrant and cleared on every unbind. The ownership oracle
  /// cross-checks it against the PRR table and the fabric.
  struct LedgerEntry {
    nova::PdId client = nova::kInvalidPd;
    hwtask::TaskId task = hwtask::kInvalidTask;
  };
  const std::vector<LedgerEntry>& launch_ledger() const { return ledger_; }

  /// True while `client`'s reconfiguration of `prr` is undecided — a PCAP
  /// transfer in flight or a failed attempt awaiting its scheduled retry.
  /// Inside this window the fabric legitimately lags the ledger (the old
  /// task is still resident), so the ledger oracle defers its fabric check.
  bool reconfig_undecided(nova::PdId client, u32 prr) const;

  /// Outstanding preemption saves: one per client, mirroring the §IV.C
  /// record in the client's data section (the save/restore oracle checks
  /// the round trip).
  struct SavedContext {
    hwtask::TaskId task = hwtask::kInvalidTask;
    std::array<u32, 8> regs{};
  };
  const std::map<nova::PdId, SavedContext>& saved_contexts() const {
    return save_outstanding_;
  }

  /// Bitstream cache entries (task id + staged image location).
  struct CacheEntry {
    hwtask::TaskId task = hwtask::kInvalidTask;
    paddr_t pa = 0;
    u32 len = 0;
    u64 stamp = 0;  // LRU recency
    bool prefetched = false;
  };
  const std::vector<CacheEntry>& bitstream_cache() const { return cache_; }

  /// Admission/preemption wait queue (priority order, FIFO within a level).
  struct WaitEntry {
    nova::PdId client = nova::kInvalidPd;
    hwtask::TaskId task = hwtask::kInvalidTask;
    vaddr_t iface_va = 0;
    u32 prio = 0;
    bool resume = false;  // re-grant restores the saved register context
    u64 enq_seq = 0;
  };
  const std::vector<WaitEntry>& wait_queue() const { return wait_queue_; }

  /// Effective hardware-task priority of `client` (override, else PD
  /// scheduling priority, else 1).
  u32 client_priority(nova::PdId client) const;
  /// Effective quota for `client` (per-VM override, else the config
  /// default; 0 = unlimited) and the grants it currently consumes.
  u32 effective_quota(nova::PdId client) const;
  u32 grants_in_use(nova::PdId client) const;
  /// Per-VM quota override (tests / management plane).
  void set_vm_quota(nova::PdId client, u32 quota) {
    quota_override_[client] = quota;
  }

  /// Deliberately corrupt scheduler state so the fuzz oracles can prove
  /// they fire (mirrors Kernel::smp_sabotage_for_test). Kinds:
  ///   1 = launch ledger contradicts the PRR table (ownership oracle)
  ///   2 = saved register context diverges from the client's §IV.C record
  ///   3 = a client holds more regions than its quota admits
  ///   4 = a cache entry names a bitstream the task table doesn't have
  /// Robust at any step: kinds that need live state synthesize it.
  void sabotage_for_test(u32 kind);

 private:
  /// One in-flight (or decided) reconfiguration per client.
  struct PendingReconfig {
    hwtask::TaskId task = hwtask::kInvalidTask;
    u32 prr = 0xFFFF'FFFFu;
    u32 attempts = 0;  // transfer attempts launched so far
    ReconfigOutcome outcome = ReconfigOutcome::kInFlight;
  };

  // Where a Fig. 7 step runs. Inside a guest hypercall `ctx` is the
  // manager's context: every access goes through its virtual windows and is
  // charged. From event context (PCAP completion, retry timer, wait-queue
  // pump) `ctx` is null: device accesses go straight to the physical bus,
  // and code, instructions and table traffic cost nothing (DESIGN.md §15.5).
  class Sink {
   public:
    Sink(nova::GuestContext* ctx, mem::Bus& bus) : ctx_(ctx), bus_(bus) {}
    void exec(const cpu::CodeRegion& r) const {
      if (ctx_ != nullptr) ctx_->exec(r);
    }
    void insns(u64 n) const {
      if (ctx_ != nullptr) ctx_->spend_insns(n);
    }
    // PL global control page and devcfg/PCAP registers.
    u32 pl_read(u32 reg) const;
    void pl_write(u32 reg, u32 v) const;
    u32 pcap_read(u32 reg) const;
    void pcap_write(u32 reg, u32 v) const;
    // A PRR register read through the static logic: a physical bus read,
    // charged as one uncached device access in hypercall context.
    u32 fabric_read(paddr_t pa) const;
    // Read or write one 8-word row of the manager's task/PRR tables.
    void touch(vaddr_t row, bool write) const;

   private:
    u32 read(vaddr_t va, paddr_t pa) const;
    void write(vaddr_t va, paddr_t pa, u32 v) const;
    nova::GuestContext* ctx_;
    mem::Bus& bus_;
  };
  Sink sink(nova::GuestContext* ctx) {
    return Sink(ctx, kernel_.platform().bus());
  }

  // Stage 2: pick a PRR for `task`; returns index or -1 when all busy.
  // `quarantine_blocked` reports that at least one idle compatible region
  // existed but was quarantined (caller grants software instead of Busy).
  int select_prr(const Sink& s, const hwtask::TaskInfo& info,
                 nova::PdId requester, bool& needs_reconfig,
                 bool& quarantine_blocked);
  // Stages 3-5: map the interface page, load the hwMMU and PL IRQ, restore
  // `restore` into the region when given, launch PCAP when `needs_pcap`,
  // and replace the client's pending record. kBusy when the PCAP port is
  // busy (the fresh mapping is undone, nothing else changed); a failed map
  // returns its status.
  nova::HcStatus grant(const Sink& s, nova::ProtectionDomain& client,
                       u32 prr, hwtask::TaskId task, vaddr_t iface_va,
                       bool needs_pcap, const std::array<u32, 8>* restore);
  // Stage 6: the client's §IV.C record turns consistent (consuming any
  // outstanding preemption save) and the PRR table and ledger record the
  // grant.
  void commit(const Sink& s, nova::ProtectionDomain& client, u32 prr,
              hwtask::TaskId task, vaddr_t iface_va, bool reconfiguring);
  // Unmap `client`'s interface page at `va`, but only while it still
  // points at `prr` (a later grant may have retargeted it).
  void unmap_iface(nova::PdId client, vaddr_t va, u32 prr);
  // Clear `prr`'s owner (and its interface page and ledger entry); with
  // `forget_task` the row also stops claiming a configured task.
  void unbind(u32 prr, bool forget_task);
  // Retry/backoff/fallback machinery (observer-driven; see DESIGN.md §8).
  void on_pcap_complete(u32 prr, u32 task, bool ok);
  void retry_reconfig(nova::PdId client);
  void declare_fallback(nova::PdId client);
  // Erasing a client's pending record kills its scheduled retry — if that
  // retry was for a region other than `keep_prr`, the region's table row
  // still names a task the fabric never received. Unbind it first.
  void abandon_stale_reconfig(nova::PdId client, u32 keep_prr);
  void quarantine(u32 prr_idx);
  void unquarantine(u32 prr_idx);
  cycles_t backoff_cycles(u32 attempts_made) const;
  // §IV.C consistency protocol when reclaiming a region from its owner:
  // save the register group into the owner's record, unbind the region and
  // return the saved registers.
  std::array<u32, 8> reclaim_from(const Sink& s, u32 prr_idx);
  void program_hwmmu(const Sink& s, u32 prr_idx, paddr_t base, u32 size);
  u32 ensure_pl_irq(const Sink& s, u32 prr_idx);
  bool launch_pcap(const Sink& s, u32 prr_idx, hwtask::TaskId task);

  // ---- scheduler internals (DESIGN.md §15) ----
  bool sched_queueing() const { return sched_.queue_depth > 0; }
  // Preempt the region's owner: §IV.C save via reclaim_from, then park the
  // victim for a resumed re-grant.
  void preempt_and_park(const Sink& s, u32 prr_idx);
  void park_victim(nova::PdId victim, hwtask::TaskId task, vaddr_t iface_va,
                   const std::array<u32, 8>& regs);
  // Enqueue an admission-queued fresh request (no saved context).
  void enqueue_request(const nova::HwTaskRequest& req);
  // Remove `client`'s wait entry; when its preemption save is outstanding
  // and the client is live, rewrite the §IV.C record consistent (the save
  // is being abandoned, not resumed).
  void drop_wait_entry(nova::PdId client, bool write_record);
  // Grant regions to parked requests, highest priority first. Runs from
  // event/poll contexts; zero simulated charge.
  void pump_wait_queue();
  // Try to place one wait entry; true when it was granted (and removed).
  bool try_regrant(const WaitEntry& w);
  // Bitstream-cache lookup for a PCAP launch: returns the transfer length
  // (full image on miss, header-only on hit) and maintains the LRU state.
  u32 cache_transfer_len(hwtask::TaskId task);
  void cache_prefetch(hwtask::TaskId task);
  void cache_insert(hwtask::TaskId task, bool prefetched);

  nova::Kernel& kernel_;
  bool blocking_reconfig_ = false;
  AllocPolicy policy_ = AllocPolicy::kResidentFirst;
  RetryPolicy retry_;
  SchedConfig sched_;
  u64 grant_seq_ = 0;
  // Client whose transfer currently streams through the (single) PCAP port;
  // attributes completion-observer callbacks to the right grant.
  nova::PdId inflight_client_ = nova::kInvalidPd;
  std::map<nova::PdId, PendingReconfig> pending_;
  nova::ProtectionDomain* pd_ = nullptr;
  std::vector<PrrTableEntry> prr_table_;
  // Where each client's interface VA currently points. A VA can be remapped
  // across grants (same window, different PRR); unmap/skip decisions must
  // consult the *live* mapping, not the per-PRR history.
  std::map<std::pair<nova::PdId, vaddr_t>, u32> iface_map_;
  ManagerStats stats_;

  // ---- scheduler state ----
  std::vector<LedgerEntry> ledger_;  // one per PRR
  std::map<nova::PdId, SavedContext> save_outstanding_;
  std::vector<WaitEntry> wait_queue_;
  std::vector<CacheEntry> cache_;
  std::map<nova::PdId, u32> prio_override_;
  std::map<nova::PdId, u32> quota_override_;
  u64 wait_seq_ = 0;
  u64 cache_seq_ = 0;
  bool pumping_ = false;  // re-entrancy guard for pump_wait_queue

  // Manager text footprint (in the manager image).
  cpu::CodeLayout code_;
  cpu::CodeRegion rg_handle_, rg_select_, rg_consistency_, rg_pcap_,
      rg_release_;

  // Table locations in the manager's virtual space.
  static constexpr vaddr_t kTaskTableVa = 0x2000;
  static constexpr vaddr_t kPrrTableVa = 0x3000;
  static constexpr vaddr_t kMailboxVa = 0x1000;

  util::Logger log_{"hwmgr"};
};

}  // namespace minova::hwmgr
