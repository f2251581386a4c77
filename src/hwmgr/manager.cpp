#include "hwmgr/manager.hpp"

#include <algorithm>

#include "mem/address_map.hpp"
#include "pl/pcap.hpp"
#include "pl/prr_controller.hpp"

namespace minova::hwmgr {

using nova::GuestContext;
using nova::HcStatus;
using nova::HwTaskRequest;
using nova::PdId;

ManagerService::ManagerService(nova::Kernel& kernel)
    : kernel_(kernel),
      prr_table_(kernel.platform().prr_controller().num_prrs()),
      ledger_(kernel.platform().prr_controller().num_prrs()),
      code_(nova::kManagerBase + 0x10000 + 0x2c40, 64 * kKiB) {
  rg_handle_ = code_.place(768);
  rg_select_ = code_.place(384);
  rg_consistency_ = code_.place(512);
  rg_pcap_ = code_.place(320);
  rg_release_ = code_.place(384);
}

ManagerService::~ManagerService() {
  // The PCAP outlives this service (platform-owned): drop the observer so
  // completions after our death don't call into freed memory.
  if (pd_ != nullptr) kernel_.platform().pcap().set_completion_observer({});
}

nova::ProtectionDomain& ManagerService::install(u32 priority) {
  pd_ = &kernel_.create_manager("hw-task-manager", priority, *this);
  kernel_.platform().pcap().set_completion_observer(
      [this](u32 prr, u32 task, bool ok) { on_pcap_complete(prr, task, ok); });
  return *pd_;
}

// ---- charge sink ------------------------------------------------------------

u32 ManagerService::Sink::read(vaddr_t va, paddr_t pa) const {
  if (ctx_ != nullptr) return ctx_->read32(va).value;
  u32 v = 0;
  (void)bus_.read32(pa, v);
  return v;
}

void ManagerService::Sink::write(vaddr_t va, paddr_t pa, u32 v) const {
  if (ctx_ != nullptr)
    (void)ctx_->write32(va, v);
  else
    (void)bus_.write32(pa, v);
}

u32 ManagerService::Sink::pl_read(u32 reg) const {
  return read(nova::manager_pl_ctrl_va() + reg, mem::kPrrGlobalRegsBase + reg);
}

void ManagerService::Sink::pl_write(u32 reg, u32 v) const {
  write(nova::manager_pl_ctrl_va() + reg, mem::kPrrGlobalRegsBase + reg, v);
}

u32 ManagerService::Sink::pcap_read(u32 reg) const {
  return read(nova::manager_pcap_va() + reg, mem::kDevcfgBase + reg);
}

void ManagerService::Sink::pcap_write(u32 reg, u32 v) const {
  write(nova::manager_pcap_va() + reg, mem::kDevcfgBase + reg, v);
}

u32 ManagerService::Sink::fabric_read(paddr_t pa) const {
  u32 v = 0;
  (void)bus_.read32(pa, v);
  if (ctx_ != nullptr) {
    cpu::Core& core = ctx_->core();
    core.spend(core.caches().access_device());
  }
  return v;
}

void ManagerService::Sink::touch(vaddr_t row, bool write) const {
  if (ctx_ != nullptr) ctx_->touch_words(row, 8, write);
}

int ManagerService::select_prr(const Sink& s, const hwtask::TaskInfo& info,
                               PdId requester, bool& needs_reconfig,
                               bool& quarantine_blocked) {
  s.exec(rg_select_);
  const auto& prrctl = kernel_.platform().prr_controller();

  // Refresh the table's in-flight bits from the static logic first: a PRR
  // whose PCAP download has completed is available again.
  for (u32 prr : info.compatible_prrs)
    prr_table_[prr].reconfiguring = prrctl.prr(prr).reconfiguring;

  // First pass (kResidentFirst only): an idle compatible PRR already
  // configured with this task (no reconfiguration needed). Each candidate
  // is evaluated against its table row plus a live status read from the
  // static logic.
  for (u32 prr : info.compatible_prrs) {
    s.touch(kPrrTableVa + prr * 32, /*write=*/false);
    (void)s.fabric_read(prrctl.reg_group_pa(prr) + pl::kRegStatus);
    s.insns(kInsnsSelectPerPrr);
    const auto& hw = prrctl.prr(prr);
    if (hw.busy || hw.reconfiguring) continue;
    if (prr_table_[prr].health == PrrHealth::kQuarantined) continue;
    if (policy_ == AllocPolicy::kResidentFirst &&
        prr_table_[prr].task == info.id && hw.loaded_task == info.id) {
      needs_reconfig = false;
      return int(prr);
    }
  }
  // Second pass: an idle compatible PRR per the configured policy; prefer
  // unowned regions, then reclaim from other clients. A region owned by
  // the requester itself is fine too.
  needs_reconfig = true;
  // With priorities on, a region owned by another client is a takeover
  // candidate only when that owner ranks strictly below the requester.
  const u32 req_prio =
      sched_.priorities ? client_priority(requester) : 0;
  // Preference order for resident-first/first-fit: a dark (never
  // configured) cheap region spreads tasks across the fabric and maximizes
  // later residency hits; then any cheap region; reclaiming from another
  // client is the last resort.
  int dark = -1, cheap_used = -1, reclaimable = -1, lru = -1;
  for (u32 prr : info.compatible_prrs) {
    const auto& hw = prrctl.prr(prr);
    if (hw.busy || hw.reconfiguring) continue;
    if (prr_table_[prr].health == PrrHealth::kQuarantined) {
      quarantine_blocked = true;
      continue;
    }
    const bool cheap = prr_table_[prr].client == nova::kInvalidPd ||
                       prr_table_[prr].client == requester;
    if (!cheap && sched_.priorities &&
        client_priority(prr_table_[prr].client) >= req_prio)
      continue;  // not preemptible: owner outranks (or ties) the requester
    if (cheap && hw.loaded_task == hwtask::kInvalidTask && dark < 0)
      dark = int(prr);
    else if (cheap && cheap_used < 0)
      cheap_used = int(prr);
    else if (!cheap && reclaimable < 0)
      reclaimable = int(prr);
    if (lru < 0 || prr_table_[prr].last_grant_seq <
                       prr_table_[u32(lru)].last_grant_seq)
      lru = int(prr);
  }
  if (policy_ == AllocPolicy::kLruRegion) return lru;
  if (dark >= 0) return dark;
  if (cheap_used >= 0) return cheap_used;
  return reclaimable;
}

std::array<u32, 8> ManagerService::reclaim_from(const Sink& s, u32 prr_idx) {
  s.exec(rg_consistency_);
  s.insns(kInsnsConsistency);
  PrrTableEntry& entry = prr_table_[prr_idx];
  std::array<u32, 8> regs{};
  nova::ProtectionDomain* old_client = kernel_.pd_by_id(entry.client);
  if (old_client != nullptr) {
    ++stats_.reclaims;
    kernel_.platform().trace().emit(kernel_.platform().clock().now(),
                                    sim::TraceKind::kHwReclaim, prr_idx,
                                    entry.client);
    // Read the interface register group through the static logic (manager's
    // authority over the fabric) — 8 uncached device reads.
    const paddr_t group =
        kernel_.platform().prr_controller().reg_group_pa(prr_idx);
    for (u32 w = 0; w < 8; ++w) regs[w] = s.fabric_read(group + w * 4);

    // Save register contents + inconsistent flag into the old client's data
    // section (§IV.C / Fig. 5).
    std::array<u32, kConsistencyWords> record{};
    record[0] = kStateInconsistent;
    record[1] = entry.task;
    for (u32 w = 0; w < 8; ++w) record[2 + w] = regs[w];
    kernel_.svc_write_client_data(
        *pd_, entry.client, consistency_offset(old_client->hw_data_size),
        record);
  }
  unbind(prr_idx, /*forget_task=*/false);
  return regs;
}

void ManagerService::unmap_iface(PdId client, vaddr_t va, u32 prr) {
  auto it = iface_map_.find(std::make_pair(client, va));
  if (it == iface_map_.end() || it->second != prr) return;
  kernel_.svc_unmap_from(*pd_, client, va);
  iface_map_.erase(it);
}

void ManagerService::unbind(u32 prr, bool forget_task) {
  PrrTableEntry& entry = prr_table_[prr];
  if (entry.client_iface_va != 0)
    unmap_iface(entry.client, entry.client_iface_va, prr);
  entry.client = nova::kInvalidPd;
  entry.client_iface_va = 0;
  if (forget_task) {
    entry.task = hwtask::kInvalidTask;
    entry.reconfiguring = false;
  }
  ledger_[prr] = LedgerEntry{};
}

// ---- priority preemption / wait queue (DESIGN.md §15) -----------------------

u32 ManagerService::client_priority(PdId client) const {
  auto it = prio_override_.find(client);
  if (it != prio_override_.end()) return it->second;
  nova::ProtectionDomain* pd = kernel_.pd_by_id(client);
  return pd != nullptr ? pd->priority() : 1u;
}

HcStatus ManagerService::set_client_priority(PdId client, u32 prio) {
  prio = std::clamp<u32>(prio, 1, 15);
  prio_override_[client] = prio;
  // Parked requests follow the new priority immediately.
  for (auto& w : wait_queue_)
    if (w.client == client) w.prio = prio;
  return HcStatus::kSuccess;
}

u32 ManagerService::effective_quota(PdId client) const {
  auto it = quota_override_.find(client);
  if (it != quota_override_.end()) return it->second;
  return sched_.default_quota;
}

u32 ManagerService::grants_in_use(PdId client) const {
  u32 n = 0;
  for (const auto& e : prr_table_)
    if (e.client == client) ++n;
  for (const auto& w : wait_queue_)
    if (w.client == client) ++n;
  return n;
}

u32 ManagerService::query_quota(PdId client) {
  return (effective_quota(client) << 16) | (grants_in_use(client) & 0xFFFFu);
}

bool ManagerService::reconfig_undecided(PdId client, u32 prr) const {
  auto it = pending_.find(client);
  return it != pending_.end() && it->second.prr == prr &&
         it->second.outcome == ReconfigOutcome::kInFlight;
}

void ManagerService::park_victim(PdId victim, hwtask::TaskId task,
                                 vaddr_t iface_va,
                                 const std::array<u32, 8>& regs) {
  // One preemption save per client (the data section holds one record): a
  // newer save supersedes an older parked resume, which degrades to a
  // from-scratch re-grant.
  save_outstanding_[victim] = SavedContext{task, regs};
  for (auto& w : wait_queue_)
    if (w.client == victim) w.resume = false;
  wait_queue_.push_back(WaitEntry{victim, task, iface_va,
                                  client_priority(victim), /*resume=*/true,
                                  ++wait_seq_});
  // Overwriting the pending record kills any backoff retry the victim had
  // in flight on another region — unbind that region first.
  abandon_stale_reconfig(victim, 0xFFFF'FFFFu);
  pending_[victim] = PendingReconfig{task, 0xFFFF'FFFFu, 0,
                                     ReconfigOutcome::kQueued};
}

void ManagerService::preempt_and_park(const Sink& s, u32 prr_idx) {
  PrrTableEntry& entry = prr_table_[prr_idx];
  const PdId victim = entry.client;
  const hwtask::TaskId task = entry.task;
  const vaddr_t iface_va = entry.client_iface_va;
  const bool victim_live = kernel_.pd_by_id(victim) != nullptr;
  const auto regs = reclaim_from(s, prr_idx);
  if (!victim_live) return;
  ++stats_.preemptions;
  park_victim(victim, task, iface_va, regs);
  log_.debug("client %u preempted off PRR%u (task %u), parked for resume",
             victim, prr_idx, task);
}

void ManagerService::enqueue_request(const HwTaskRequest& req) {
  wait_queue_.push_back(WaitEntry{req.client, req.task, req.iface_va,
                                  client_priority(req.client),
                                  /*resume=*/false, ++wait_seq_});
  // Queuing supersedes any in-flight reconfig record (and its retry) for
  // this client; a region waiting on that retry must not stay bound.
  abandon_stale_reconfig(req.client, 0xFFFF'FFFFu);
  pending_[req.client] = PendingReconfig{req.task, 0xFFFF'FFFFu, 0,
                                         ReconfigOutcome::kQueued};
  ++stats_.enqueued;
  if (sched_.prefetch && sched_.cache_capacity > 0) cache_prefetch(req.task);
}

void ManagerService::drop_wait_entry(PdId client, bool write_record) {
  std::erase_if(wait_queue_,
                [&](const WaitEntry& w) { return w.client == client; });
  auto it = save_outstanding_.find(client);
  if (it == save_outstanding_.end()) return;
  nova::ProtectionDomain* pd = kernel_.pd_by_id(client);
  if (write_record && pd != nullptr) {
    // The save is being abandoned, not resumed: the record must say
    // consistent again or the save/restore oracle would see a phantom save.
    const std::array<u32, 2> rec{kStateConsistent, it->second.task};
    kernel_.svc_write_client_data(*pd_, client,
                                  consistency_offset(pd->hw_data_size), rec);
  }
  save_outstanding_.erase(it);
}

void ManagerService::pump_wait_queue() {
  if (pumping_ || wait_queue_.empty()) return;
  pumping_ = true;
  // Snapshot the queue order (priority desc, then FIFO): regrants mutate
  // the queue (preemption parks new victims), so entries are re-located by
  // their stable sequence number and each is attempted once per pump.
  std::vector<std::pair<u32, u64>> order;
  order.reserve(wait_queue_.size());
  for (const auto& w : wait_queue_) order.emplace_back(w.prio, w.enq_seq);
  std::sort(order.begin(), order.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  });
  for (const auto& [prio, seq] : order) {
    auto it = std::find_if(wait_queue_.begin(), wait_queue_.end(),
                           [&](const WaitEntry& w) { return w.enq_seq == seq; });
    if (it == wait_queue_.end()) continue;  // dropped meanwhile
    const WaitEntry w = *it;                // copy: regrant mutates the queue
    if (try_regrant(w))
      std::erase_if(wait_queue_,
                    [&](const WaitEntry& e) { return e.enq_seq == seq; });
  }
  pumping_ = false;
}

bool ManagerService::try_regrant(const WaitEntry& w) {
  nova::ProtectionDomain* client = kernel_.pd_by_id(w.client);
  if (client == nullptr) {  // died while parked: drop the entry
    save_outstanding_.erase(w.client);
    pending_.erase(w.client);
    return true;
  }
  const hwtask::TaskInfo* info =
      kernel_.platform().task_library().find(w.task);
  if (info == nullptr) return true;  // task vanished: drop
  auto& plat = kernel_.platform();
  auto& ctl = plat.prr_controller();

  // Region choice mirrors stage 2: resident first, then any free region,
  // then preempting a strictly lower-priority owner.
  int resident = -1, unowned = -1, preemptable = -1;
  for (u32 prr : info->compatible_prrs) {
    const auto& hw = ctl.prr(prr);
    const PrrTableEntry& e = prr_table_[prr];
    if (hw.busy || hw.reconfiguring) continue;
    if (e.health == PrrHealth::kQuarantined) continue;
    const bool unheld =
        e.client == nova::kInvalidPd || e.client == w.client;
    if (unheld && hw.loaded_task == w.task && resident < 0)
      resident = int(prr);
    else if (unheld && unowned < 0)
      unowned = int(prr);
    else if (!unheld && sched_.priorities &&
             client_priority(e.client) < w.prio && preemptable < 0)
      preemptable = int(prr);
  }
  const int chosen =
      resident >= 0 ? resident : (unowned >= 0 ? unowned : preemptable);
  if (chosen < 0) return false;  // still saturated: stay parked
  const u32 prr = u32(chosen);
  const bool needs_pcap = ctl.prr(prr).loaded_task != w.task;
  if (needs_pcap && plat.pcap().busy()) return false;  // port contended

  const Sink s = sink(nullptr);
  const PdId owner = prr_table_[prr].client;
  if (owner != nova::kInvalidPd && owner != w.client) preempt_and_park(s, prr);
  // Resume-from-record: the saved interface registers go back before any
  // reload (load_task preserves the programmable registers).
  auto sit = save_outstanding_.find(w.client);
  const bool resume =
      w.resume && sit != save_outstanding_.end() && sit->second.task == w.task;
  // A busy port after the check leaves the request parked; its queued
  // pending record survives, so the client still polls as queued.
  if (grant(s, *client, prr, w.task, w.iface_va, needs_pcap,
            resume ? &sit->second.regs : nullptr) != HcStatus::kSuccess)
    return false;
  // The re-grant completes the preempt/resume round trip.
  commit(s, *client, prr, w.task, w.iface_va, needs_pcap);
  if (resume) ++stats_.resumes;
  ++stats_.wait_grants;
  plat.trace().emit(plat.clock().now(), sim::TraceKind::kHwGrant, w.task,
                    w.client);
  log_.debug("queued client %u granted PRR%u (task %u%s)", w.client, prr,
             w.task, resume ? ", resumed" : "");
  return true;
}

// ---- bitstream cache (DESIGN.md §15) ----------------------------------------

void ManagerService::cache_insert(hwtask::TaskId task, bool prefetched) {
  for (auto& e : cache_) {
    if (e.task != task) continue;
    e.stamp = ++cache_seq_;
    return;  // already staged
  }
  const auto bits = kernel_.find_bitstream(task);
  cache_.push_back(CacheEntry{task, bits.pa, bits.len, ++cache_seq_,
                              prefetched});
  while (cache_.size() > sched_.cache_capacity) {
    auto victim = std::min_element(
        cache_.begin(), cache_.end(),
        [](const CacheEntry& a, const CacheEntry& b) {
          return a.stamp < b.stamp;
        });
    log_.debug("bitstream cache evicts task %u", victim->task);
    cache_.erase(victim);
    ++stats_.cache_evictions;
  }
}

void ManagerService::cache_prefetch(hwtask::TaskId task) {
  for (const auto& e : cache_)
    if (e.task == task) return;  // already hot
  cache_insert(task, /*prefetched=*/true);
  ++stats_.cache_prefetches;
}

u32 ManagerService::cache_transfer_len(hwtask::TaskId task) {
  // A cached bitstream only needs a header re-link + ICAP handoff, not the
  // full transfer.
  constexpr u32 kCacheHitLoadBytes = 1024;
  const auto bits = kernel_.find_bitstream(task);
  for (auto& e : cache_) {
    if (e.task != task) continue;
    e.stamp = ++cache_seq_;
    ++stats_.cache_hits;
    return std::min(kCacheHitLoadBytes, bits.len);
  }
  ++stats_.cache_misses;
  cache_insert(task, /*prefetched=*/false);
  return bits.len;
}

// ---- request path (Fig. 7) --------------------------------------------------

void ManagerService::program_hwmmu(const Sink& s, u32 prr_idx, paddr_t base,
                                   u32 size) {
  s.insns(kInsnsHwmmu);
  s.pl_write(pl::kGlobPrrSelect, prr_idx);
  s.pl_write(pl::kGlobHwmmuBase, base);
  s.pl_write(pl::kGlobHwmmuSize, size);
}

u32 ManagerService::ensure_pl_irq(const Sink& s, u32 prr_idx) {
  if (prr_table_[prr_idx].irq_index != 0xFFFF'FFFFu)
    return prr_table_[prr_idx].irq_index;
  s.pl_write(pl::kGlobPrrSelect, prr_idx);
  s.pl_write(pl::kGlobIrqAlloc, 1);
  prr_table_[prr_idx].irq_index = s.pl_read(pl::kGlobIrqAlloc);
  return prr_table_[prr_idx].irq_index;
}

bool ManagerService::launch_pcap(const Sink& s, u32 prr_idx,
                                 hwtask::TaskId task) {
  // From event context (retries, the pump) the DMA re-program is charged as
  // zero CPU time — the paper's overlap argument (§IV.E) applies doubly.
  s.exec(rg_pcap_);
  s.insns(kInsnsPcap);
  if (s.pcap_read(pl::kPcapStatus) & pl::kPcapStatusBusy) return false;
  const auto bits = kernel_.find_bitstream(task);
  u32 len = bits.len;
  if (sched_.cache_capacity > 0) len = cache_transfer_len(task);
  s.pcap_write(pl::kPcapSrcAddr, bits.pa);
  s.pcap_write(pl::kPcapLen, len);
  s.pcap_write(pl::kPcapTarget, prr_idx);
  s.pcap_write(pl::kPcapTaskId, task);
  s.pcap_write(pl::kPcapCtrl, 1);
  kernel_.platform().trace().emit(kernel_.platform().clock().now(),
                                  sim::TraceKind::kPcapStart, task, prr_idx);
  return true;
}

HcStatus ManagerService::grant(const Sink& s, nova::ProtectionDomain& client,
                               u32 prr, hwtask::TaskId task, vaddr_t iface_va,
                               bool needs_pcap,
                               const std::array<u32, 8>* restore) {
  const PdId id = client.id();
  // Stage 3: map the interface page into the client. The live (client, VA)
  // -> PRR map decides whether the page table actually needs an update.
  auto& ctl = kernel_.platform().prr_controller();
  const auto key = std::make_pair(id, iface_va);
  auto it = iface_map_.find(key);
  bool fresh_map = false;
  if (it == iface_map_.end() || it->second != prr) {
    const HcStatus map_status =
        kernel_.svc_map_into(*pd_, id, iface_va, ctl.reg_group_pa(prr));
    if (map_status != HcStatus::kSuccess) return map_status;
    iface_map_[key] = prr;
    fresh_map = true;
  }

  // Stage 4: load the hwMMU with the client's data section, then the PL
  // interrupt plumbing (§IV.D): allocate a source and register it in the
  // client's vGIC.
  program_hwmmu(s, prr, client.hw_data_pa, client.hw_data_size);
  const u32 irq_idx = ensure_pl_irq(s, prr);
  if (irq_idx < mem::kNumPlIrqs)
    kernel_.svc_assign_pl_irq(*pd_, id, mem::pl_irq_to_gic(irq_idx));
  if (restore != nullptr) ctl.restore_registers(prr, *restore);

  // Stage 5: reconfigure unless the task is already in the fabric.
  if (needs_pcap) {
    kernel_.svc_set_pcap_owner(*pd_, id);
    if (!launch_pcap(s, prr, task)) {
      // The grant dies here without reaching stage 6, so the PRR table never
      // records this client — the interface page mapped in stage 3 must not
      // survive, or a rejected applicant keeps reaching a register group the
      // table says is free. The client's old pending record is untouched: a
      // backoff retry it may have scheduled stays live.
      if (fresh_map) unmap_iface(id, iface_va, prr);
      return HcStatus::kBusy;
    }
  }
  // The grant is committed: only now may it supersede the old outcome record
  // (erasing earlier would kill a scheduled retry, stranding its region, on
  // the Busy path above).
  abandon_stale_reconfig(id, prr);
  if (needs_pcap) {
    pending_[id] = PendingReconfig{task, prr, 1, ReconfigOutcome::kInFlight};
    inflight_client_ = id;
    ++stats_.grants_with_reconfig;
  } else {
    pending_.erase(id);
    ++stats_.grants_no_reconfig;
  }
  return HcStatus::kSuccess;
}

void ManagerService::commit(const Sink& s, nova::ProtectionDomain& client,
                            u32 prr, hwtask::TaskId task, vaddr_t iface_va,
                            bool reconfiguring) {
  // Mark the client's own consistency record as consistent. Any outstanding
  // preemption save is consumed (a resume) or superseded (a fresh grant).
  const std::array<u32, 2> ok_record{kStateConsistent, task};
  kernel_.svc_write_client_data(*pd_, client.id(),
                                consistency_offset(client.hw_data_size),
                                ok_record);
  save_outstanding_.erase(client.id());

  PrrTableEntry& entry = prr_table_[prr];
  entry.client = client.id();
  entry.task = task;
  entry.client_iface_va = iface_va;
  entry.reconfiguring = reconfiguring;
  entry.last_grant_seq = ++grant_seq_;
  ledger_[prr] = LedgerEntry{client.id(), task};
  s.touch(kPrrTableVa + prr * 32, /*write=*/true);
  s.insns(kInsnsTableUpdate);
}

HcStatus ManagerService::handle_request(GuestContext& ctx,
                                        const HwTaskRequest& req,
                                        u32& result_flags) {
  ++stats_.requests;
  const Sink s = sink(&ctx);
  s.exec(rg_handle_);
  // Stage 1: read the request from the mailbox (written by the kernel).
  for (u32 w = 0; w < 4; ++w) (void)ctx.read32(kMailboxVa + w * 4);

  const hwtask::TaskInfo* info =
      kernel_.platform().task_library().find(req.task);
  if (info == nullptr) return HcStatus::kNotFound;
  // 8-word task-table row: bitstream addr/size, latency, PRR list (Fig. 7).
  s.touch(kTaskTableVa + (req.task % 64) * 32, /*write=*/false);
  s.insns(kInsnsValidate);

  nova::ProtectionDomain* client = kernel_.pd_by_id(req.client);
  if (client == nullptr) return HcStatus::kInvalidArg;

  // Scheduler admission (all default-off; DESIGN.md §15).
  if (!wait_queue_.empty()) {
    for (const auto& w : wait_queue_) {
      if (w.client != req.client) continue;
      if (w.task == req.task) {
        // Idempotent re-request of a parked task: still waiting.
        result_flags = nova::kHwGrantQueued;
        return HcStatus::kSuccess;
      }
      // A fresh request supersedes the parked one.
      drop_wait_entry(req.client, /*write_record=*/true);
      break;
    }
  }
  // Quota gate: a grant that would grow the client's holdings (owned
  // regions + queued requests) past its quota is bounced. Whether a grant
  // grows the count depends on the region chosen — re-granting a region the
  // client already holds replaces in place — so the check sits at each
  // growth point below, not before selection.
  const u32 quota = effective_quota(req.client);
  const bool at_quota = quota > 0 && grants_in_use(req.client) >= quota;
  // No grant now: park the request while the admission queue has room, else
  // Busy (true saturation: the applicant retries, §IV.E). Parking always
  // adds a wait entry on top of whatever the client owns, so the quota gate
  // is unconditional here.
  const auto park_or_busy = [&] {
    if (at_quota) {
      ++stats_.quota_rejections;
      return HcStatus::kBusy;
    }
    if (sched_queueing() && wait_queue_.size() < sched_.queue_depth) {
      enqueue_request(req);
      result_flags = nova::kHwGrantQueued;
      return HcStatus::kSuccess;
    }
    ++stats_.busy_rejections;
    return HcStatus::kBusy;
  };

  // Stage 2: PRR selection.
  bool needs_reconfig = false;
  bool quarantine_blocked = false;
  const int sel =
      select_prr(s, *info, req.client, needs_reconfig, quarantine_blocked);
  if (sel < 0) {
    if (!quarantine_blocked) return park_or_busy();
    // Every idle compatible region is quarantined: rather than stalling the
    // client behind the cooldown, grant the task in software.
    ++stats_.sw_grants;
    abandon_stale_reconfig(req.client, 0xFFFF'FFFFu);
    pending_[req.client] = PendingReconfig{req.task, 0xFFFF'FFFFu, 0,
                                           ReconfigOutcome::kFallback};
    result_flags = nova::kHwGrantSoftware;
    return HcStatus::kSuccess;
  }
  const u32 prr = u32(sel);
  PrrTableEntry& entry = prr_table_[prr];

  // The chosen region decides whether this grant is net-new: replacing a
  // region the client already owns never grows its count.
  if (at_quota && entry.client != req.client) {
    ++stats_.quota_rejections;
    return HcStatus::kBusy;
  }
  // When a PCAP transfer would be needed but the port is streaming another
  // bitstream, park the request or report Busy rather than blocking.
  if (needs_reconfig && entry.task != req.task &&
      kernel_.platform().pcap().busy())
    return park_or_busy();

  // Consistency protocol when another client owns the region (§IV.C). With
  // priorities on this is a preemption: the victim parks for a resume.
  if (entry.client != nova::kInvalidPd && entry.client != req.client) {
    if (sched_.priorities)
      preempt_and_park(s, prr);
    else
      (void)reclaim_from(s, prr);
  }

  // The table may claim the task is present while the fabric is still dark
  // (first use of a region): verify against the static logic too.
  const bool needs_pcap =
      entry.task != req.task ||
      kernel_.platform().prr_controller().prr(prr).loaded_task != req.task;
  const HcStatus st =
      grant(s, *client, prr, req.task, req.iface_va, needs_pcap, nullptr);
  if (st != HcStatus::kSuccess) {
    if (st == HcStatus::kBusy) ++stats_.busy_rejections;
    return st;
  }
  result_flags = needs_pcap ? nova::kHwGrantReconfig : nova::kHwGrantReady;
  if (needs_pcap && blocking_reconfig_) {
    // Ablation: poll the PCAP to completion inside the service. The paper's
    // design explicitly avoids this ("the manager service does not check
    // the completion of the PCAP transfer").
    auto& plat = kernel_.platform();
    while (query_reconfig(req.client) == nova::kReconfigInFlight) {
      (void)s.pcap_read(pl::kPcapStatus);
      plat.idle_until_next_event(plat.clock().now() +
                                 plat.clock().us_to_cycles(50));
    }
    // Configured (or degraded to software) before returning.
    if (query_reconfig(req.client) == nova::kReconfigFallback) {
      // declare_fallback already unbound the region; skip stage 6.
      result_flags = nova::kHwGrantSoftware;
      return HcStatus::kSuccess;
    }
    result_flags = nova::kHwGrantReady;
  }

  // Stage 6: update the PRR table and return without waiting for PCAP.
  commit(s, *client, prr, req.task, req.iface_va, result_flags != 0);
  return HcStatus::kSuccess;
}

// ---- retry / quarantine / fallback (DESIGN.md §8) ---------------------------

u32 ManagerService::query_reconfig(PdId client) {
  // Poll-driven progress for the admission queue: parked requests are
  // re-granted as soon as a region (or the PCAP port) frees up.
  if (!wait_queue_.empty()) pump_wait_queue();
  auto it = pending_.find(client);
  if (it == pending_.end()) return nova::kReconfigReady;
  switch (it->second.outcome) {
    case ReconfigOutcome::kInFlight: return nova::kReconfigInFlight;
    case ReconfigOutcome::kReady: return nova::kReconfigReady;
    case ReconfigOutcome::kFallback: return nova::kReconfigFallback;
    case ReconfigOutcome::kQueued: return nova::kReconfigQueued;
  }
  return nova::kReconfigReady;
}

cycles_t ManagerService::backoff_cycles(u32 attempts_made) const {
  double us = retry_.backoff_base_us;
  for (u32 i = 1; i < attempts_made; ++i) us *= retry_.backoff_factor;
  return kernel_.platform().clock().us_to_cycles(us);
}

void ManagerService::on_pcap_complete(u32 prr, u32 task, bool ok) {
  (void)task;
  const PdId client = inflight_client_;
  inflight_client_ = nova::kInvalidPd;
  if (client == nova::kInvalidPd) return;
  auto it = pending_.find(client);
  if (it == pending_.end()) return;
  PendingReconfig& p = it->second;
  if (p.outcome != ReconfigOutcome::kInFlight || p.prr != prr) return;
  PrrTableEntry& entry = prr_table_[prr];
  entry.reconfiguring = false;

  if (ok) {
    entry.health = PrrHealth::kHealthy;
    entry.fail_streak = 0;
    p.outcome = ReconfigOutcome::kReady;
    // The region is settled: parked requests may now preempt or reuse it.
    if (!wait_queue_.empty()) pump_wait_queue();
    return;
  }

  ++stats_.pcap_failures;
  ++entry.fail_streak;
  log_.debug("PCAP failure %u/%u for client %u on PRR%u (streak %u)",
             p.attempts, retry_.max_attempts, client, prr, entry.fail_streak);
  if (entry.fail_streak >= retry_.quarantine_threshold) quarantine(prr);
  if (entry.health == PrrHealth::kQuarantined ||
      p.attempts >= retry_.max_attempts) {
    declare_fallback(client);
    return;
  }
  auto& plat = kernel_.platform();
  plat.events().schedule_at(plat.clock().now() + backoff_cycles(p.attempts),
                            [this, client] { retry_reconfig(client); });
}

void ManagerService::retry_reconfig(PdId client) {
  auto it = pending_.find(client);
  if (it == pending_.end() || it->second.outcome != ReconfigOutcome::kInFlight)
    return;  // released, superseded, or already decided meanwhile
  PendingReconfig& p = it->second;
  auto& plat = kernel_.platform();
  PrrTableEntry& entry = prr_table_[p.prr];
  const auto& hw = plat.prr_controller().prr(p.prr);
  if (entry.health == PrrHealth::kQuarantined || hw.busy ||
      hw.reconfiguring) {
    // The region became unusable while we backed off; retries stay on the
    // originally granted region (the interface page points at it).
    declare_fallback(client);
    return;
  }
  if (entry.client != client) {
    // The region was reclaimed (or re-granted) during the backoff: a retry
    // now would stream our bitstream over the new owner's logic. The client
    // lost its region — degrade to software.
    declare_fallback(client);
    return;
  }
  if (plat.pcap().busy()) {
    // Another client's bitstream is streaming: push the retry out one more
    // backoff step rather than spinning.
    plat.events().schedule_at(plat.clock().now() + backoff_cycles(p.attempts),
                              [this, client] { retry_reconfig(client); });
    return;
  }
  if (kernel_.pd_by_id(client) == nullptr) {
    pending_.erase(it);
    return;
  }
  kernel_.svc_set_pcap_owner(*pd_, client);
  if (!launch_pcap(sink(nullptr), p.prr, p.task)) {
    declare_fallback(client);
    return;
  }
  ++p.attempts;
  ++stats_.retries;
  entry.reconfiguring = true;
  inflight_client_ = client;
}

void ManagerService::declare_fallback(PdId client) {
  auto it = pending_.find(client);
  if (it == pending_.end()) return;
  PendingReconfig& p = it->second;
  ++stats_.fallbacks;
  log_.debug("client %u degraded to software for task %u", client, p.task);
  // Unbind the dark region so other grants can use it after recovery; the
  // client's interface page goes away with it (it points at dead logic).
  if (p.prr < prr_table_.size() && prr_table_[p.prr].client == client)
    unbind(p.prr, /*forget_task=*/true);
  // The outcome flips only after the table row is unbound: the unmap above
  // runs introspection mid-call, and the stale binding must still be
  // covered by the in-flight record while it is visible.
  p.outcome = ReconfigOutcome::kFallback;
  // The region just freed: hand it to the highest-priority parked request.
  if (!wait_queue_.empty()) pump_wait_queue();
}

void ManagerService::abandon_stale_reconfig(PdId client, u32 keep_prr) {
  auto it = pending_.find(client);
  if (it == pending_.end()) return;
  const PendingReconfig& p = it->second;
  if (p.outcome != ReconfigOutcome::kInFlight) return;
  if (p.prr >= prr_table_.size() || p.prr == keep_prr) return;
  // The caller is about to erase this record, so the backoff retry for the
  // old region will never relaunch — its table row would claim a task the
  // fabric never received, forever. Unbind it like a fallback does.
  if (prr_table_[p.prr].client != client) return;
  unbind(p.prr, /*forget_task=*/true);
  log_.debug("client %u abandoned failed reconfig on PRR%u", client, p.prr);
}

void ManagerService::quarantine(u32 prr_idx) {
  PrrTableEntry& entry = prr_table_[prr_idx];
  if (entry.health == PrrHealth::kQuarantined) return;
  entry.health = PrrHealth::kQuarantined;
  ++stats_.quarantines;
  log_.info("PRR%u quarantined after %u consecutive PCAP failures", prr_idx,
            entry.fail_streak);
  auto& plat = kernel_.platform();
  plat.events().schedule_at(
      plat.clock().now() + plat.clock().us_to_cycles(retry_.quarantine_us),
      [this, prr_idx] { unquarantine(prr_idx); });
}

void ManagerService::unquarantine(u32 prr_idx) {
  PrrTableEntry& entry = prr_table_[prr_idx];
  if (entry.health != PrrHealth::kQuarantined) return;
  entry.health = PrrHealth::kSuspect;
  entry.fail_streak = 0;
  ++stats_.unquarantines;
  log_.info("PRR%u back from quarantine (suspect)", prr_idx);
  // A usable region reappeared: let parked requests at it.
  if (!wait_queue_.empty()) pump_wait_queue();
}

HcStatus ManagerService::handle_release(GuestContext& ctx, PdId client,
                                        hwtask::TaskId task) {
  const Sink s = sink(&ctx);
  s.exec(rg_release_);
  s.insns(kInsnsRelease);
  for (u32 prr = 0; prr < num_prrs(); ++prr) {
    PrrTableEntry& entry = prr_table_[prr];
    if (entry.client != client || entry.task != task) continue;
    if (kernel_.platform().prr_controller().prr(prr).busy)
      return HcStatus::kBusy;
    // The configured task stays resident for cheap re-dispatch.
    unbind(prr, /*forget_task=*/false);
    program_hwmmu(s, prr, 0, 0);
    s.touch(kPrrTableVa + prr * 32, /*write=*/true);
    ++stats_.releases;
    abandon_stale_reconfig(client, prr);
    pending_.erase(client);  // nothing left to report for this client
    // The freed region goes to the highest-priority parked request.
    if (!wait_queue_.empty()) pump_wait_queue();
    return HcStatus::kSuccess;
  }
  // A parked (queued or preempted) request can be released before it ever
  // re-gains a region.
  for (const auto& w : wait_queue_) {
    if (w.client != client || w.task != task) continue;
    drop_wait_entry(client, /*write_record=*/true);
    pending_.erase(client);
    ++stats_.releases;
    return HcStatus::kSuccess;
  }
  return HcStatus::kNotFound;
}

void ManagerService::handle_client_destroyed(PdId client) {
  // Interface-page mappings died with the client's address space; no unmap
  // hypercall is needed (or possible) — drop the records first, so unbind
  // below finds nothing to unmap.
  for (auto it = iface_map_.begin(); it != iface_map_.end();) {
    if (it->first.first == client)
      it = iface_map_.erase(it);
    else
      ++it;
  }
  for (u32 prr = 0; prr < num_prrs(); ++prr) {
    if (prr_table_[prr].client != client) continue;
    // Clear the hwMMU window at the device: the client's physical slab can
    // be handed to a future VM, and a stale window would let the region
    // keep scribbling into it.
    program_hwmmu(sink(nullptr), prr, 0, 0);
    // Like handle_release: the configured task stays resident so a future
    // grant of the same task re-dispatches without a PCAP transfer.
    unbind(prr, /*forget_task=*/false);
    log_.info("PRR%u reclaimed from destroyed client %u", prr, client);
  }
  pending_.erase(client);
  if (inflight_client_ == client) inflight_client_ = nova::kInvalidPd;
  // Scheduler bookkeeping dies with the client (no record write possible —
  // the data section is gone with the PD).
  std::erase_if(wait_queue_,
                [&](const WaitEntry& w) { return w.client == client; });
  save_outstanding_.erase(client);
  prio_override_.erase(client);
  quota_override_.erase(client);
  if (!wait_queue_.empty()) pump_wait_queue();
}

// ---- fuzz-oracle sabotage (tests only) --------------------------------------

void ManagerService::sabotage_for_test(u32 kind) {
  // Find a live client id to synthesize state around (the fuzzer always has
  // running VMs; fall back to id 1).
  PdId live = 1;
  for (PdId id = 0; id < 256; ++id) {
    nova::ProtectionDomain* pd = kernel_.pd_by_id(id);
    // The synthesized state must belong to a hw-task client: the oracles
    // read its §IV.C consistency record, which the manager PD (and any VM
    // without a data section) does not have.
    if (pd == nullptr || pd == pd_ || pd->hw_data_size == 0) continue;
    live = id;
    break;
  }
  switch (kind) {
    case 1: {  // launch ledger contradicts the PRR table
      for (u32 prr = 0; prr < num_prrs(); ++prr) {
        if (prr_table_[prr].client == nova::kInvalidPd) continue;
        ledger_[prr].task = prr_table_[prr].task + 1;
        return;
      }
      // No owned region: a ledger entry for an unowned one is just as wrong.
      ledger_[0] = LedgerEntry{live, 1};
      return;
    }
    case 2: {  // saved context diverges from the client's §IV.C record
      if (!save_outstanding_.empty()) {
        save_outstanding_.begin()->second.regs[0] ^= 0xDEAD'0001u;
        return;
      }
      // Synthesize a phantom save: the record in the client's data section
      // still says consistent, so the round-trip oracle must fire.
      SavedContext s;
      s.task = 1;
      s.regs.fill(0xDEAD'BEEFu);
      save_outstanding_[live] = s;
      return;
    }
    case 3: {  // a client holds more regions than its quota admits
      if (num_prrs() < 2) return;
      for (u32 prr = 0; prr < 2; ++prr) {
        PrrTableEntry& e = prr_table_[prr];
        e.client = live;
        if (e.task == hwtask::kInvalidTask) e.task = hwtask::TaskId(1 + prr);
        ledger_[prr] = LedgerEntry{live, e.task};  // keep oracle 1 quiet
      }
      quota_override_[live] = 1;
      return;
    }
    case 4: {  // cache entry names a bitstream the task table doesn't have
      cache_.push_back(CacheEntry{hwtask::TaskId(0xBEEF), 0, 0,
                                  ++cache_seq_, false});
      return;
    }
    default:
      break;
  }
}

}  // namespace minova::hwmgr
