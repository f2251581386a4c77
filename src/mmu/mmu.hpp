// The MMU proper: TLB-fronted two-level table walker with DACR and AP
// permission checking, plus the CP15-visible state (TTBR0, DACR,
// CONTEXTIDR/ASID, enable).
//
// Permission evaluation happens on every access against the *current* DACR,
// even on TLB hits — this is the hardware property Mini-NOVA's guest-kernel
// vs guest-user separation exploits (paper Table II): the kernel flips a
// domain between Client and NoAccess on guest privilege changes without
// touching the TLB.
//
// A per-core micro-TLB (direct-mapped, keyed on (asid, va>>12)) sits in
// front of the main TLB, mirroring the A9's L1 micro-TLBs. It is a pure
// host-side accelerator: a micro hit replays the exact bookkeeping a main
// TLB hit would have performed (`Tlb::touch`), so hit/miss sequences, LRU
// order and charged cycles are bit-identical with it in place. Cached
// entry pointers are revalidated against `Tlb::generation()`, which every
// insert and flush bumps; TTBR/ASID writes clear the micro-TLB outright.
//
// A live micro entry may also carry the host bytes of its 4 KB page in the
// table RAM (`bind_host`), so a data access to bound RAM skips the bus
// routing. The binding dies with the entry and with any `PhysMem::discard`
// (DESIGN.md §10.2).
#pragma once

#include <array>
#include <vector>

#include "cache/hierarchy.hpp"
#include "cache/tlb.hpp"
#include "mem/phys_mem.hpp"
#include "mmu/descriptors.hpp"
#include "mmu/fault.hpp"
#include "util/types.hpp"

namespace minova::mmu {

enum class AccessKind : u8 { kRead, kWrite, kExecute };

/// Host-side micro-TLB effectiveness (no simulated meaning: a micro hit
/// and a main-TLB hit charge identical cycles).
struct MicroTlbStats {
  u64 hits = 0;
  u64 misses = 0;
  double hit_rate() const {
    const u64 t = hits + misses;
    return t == 0 ? 0.0 : double(hits) / double(t);
  }
};

struct TranslateResult {
  paddr_t pa = 0;
  Fault fault;  // fault.type == kNone on success
  cycles_t cost = 0;  // walk cost (0 on TLB hit)
  bool tlb_hit = false;
  /// Host address of `pa` when the page is bound RAM (see Mmu::bind_host);
  /// set only after every permission check has passed.
  u8* host = nullptr;

  bool ok() const { return !fault.is_fault(); }
};

class Mmu {
 public:
  Mmu(mem::PhysMem& table_ram, cache::MemHierarchy& hierarchy,
      cache::Tlb& tlb);

  // ---- CP15-visible state ----
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }
  void set_ttbr0(paddr_t root) {
    ttbr0_ = root;
    utlb_flush();
  }
  paddr_t ttbr0() const { return ttbr0_; }
  void set_dacr(u32 dacr) { dacr_ = dacr; }
  u32 dacr() const { return dacr_; }
  void set_asid(u32 asid) {
    asid_ = asid & 0xFFu;
    utlb_flush();
  }
  u32 asid() const { return asid_; }

  // ---- TLB maintenance (driven by CP15 c8 operations) ----
  void tlb_flush_all() { tlb_.flush_all(); }
  void tlb_flush_asid(u32 asid) { tlb_.flush_asid(asid); }
  void tlb_flush_va(vaddr_t va) { tlb_.flush_va(va); }

  /// Translate `va` for an access of `kind` at the given privilege.
  /// On success, `cost` covers TLB miss walk descriptor fetches only; the
  /// caller charges the actual data/instruction access separately.
  TranslateResult translate(vaddr_t va, AccessKind kind, bool privileged);

  cache::Tlb& tlb() { return tlb_; }

  /// Bind the live micro entry of `va` (just translated to `pa`) to the
  /// host frame of `pa` in the table RAM, so later hits on the page return
  /// a host pointer. The caller guarantees no device window overlaps the
  /// page. Returns the host address of `pa`, or nullptr when nothing was
  /// bound: MMU off, `pa` outside the table RAM or not yet materialized.
  u8* bind_host(vaddr_t va, paddr_t pa);

  /// Credit `n` further translations of `va`'s page, which was just
  /// translated and is therefore a certain micro-TLB hit: the exact
  /// bookkeeping of `n` such hits. No-op with the MMU off.
  void credit_hits(vaddr_t va, u64 n);

  // ---- micro-TLB banks (SMP) ----
  // Each simulated core owns one bank, mirroring the A9's per-CPU L1
  // micro-TLBs; the SMP run loop selects the active core's bank before its
  // slice. The default single bank is the unicore layout, bit-identical to
  // the pre-SMP micro-TLB.

  /// Size the bank array (one per simulated core). Existing contents are
  /// dropped; the active bank resets to 0.
  void configure_utlb_banks(u32 n) {
    ubanks_.assign(n == 0 ? 1 : n, {});
    ubank_epoch_.assign(ubanks_.size(), 0);
    active_bank_ = 0;
  }
  u32 utlb_banks() const { return u32(ubanks_.size()); }
  void set_active_utlb_bank(u32 i) { active_bank_ = i % u32(ubanks_.size()); }
  u32 active_utlb_bank() const { return active_bank_; }

  /// Drop every entry of the *active* bank (TTBR/ASID switches do this
  /// implicitly; main-TLB maintenance invalidates via the generation check
  /// instead).
  void utlb_flush() { utlb_flush_bank(active_bank_); }
  void utlb_flush_bank(u32 i) {
    for (auto& u : ubanks_[i % u32(ubanks_.size())]) u.entry = nullptr;
    ++ubank_epoch_[i % u32(ubanks_.size())];
  }
  void utlb_flush_all_banks() {
    for (u32 i = 0; i < u32(ubanks_.size()); ++i) utlb_flush_bank(i);
  }
  /// Flush count of bank `i` (KernelInspector's per-core uTLB generation).
  u64 utlb_bank_epoch(u32 i) const {
    return ubank_epoch_[i % u32(ubank_epoch_.size())];
  }

  /// Restore CP15 translation state without the flush side effects of
  /// set_ttbr0/set_asid. SMP core-interleave only: the incoming core's bank
  /// was built under exactly this (TTBR, ASID) pair, so flushing it would
  /// throw away a still-valid micro-TLB for no architectural reason.
  void restore_context(paddr_t ttbr, u32 dacr, u32 asid) {
    ttbr0_ = ttbr;
    dacr_ = dacr;
    asid_ = asid & 0xFFu;
  }

  const MicroTlbStats& micro_stats() const { return ustats_; }
  void reset_micro_stats() { ustats_ = {}; }

 private:
  struct WalkOut {
    bool ok = false;
    FaultType fault = FaultType::kNone;
    cache::TlbEntry entry;
  };
  WalkOut walk(vaddr_t va, cycles_t& cost);

  // Attribute summary packed into TlbEntry::attrs.
  static u32 pack_attrs(Ap ap, u32 domain, bool xn);
  static Ap attrs_ap(u32 a) { return Ap(a & 0x7u); }
  static u32 attrs_domain(u32 a) { return (a >> 3) & 0xFu; }
  static bool attrs_xn(u32 a) { return ((a >> 7) & 1u) != 0; }

  mem::PhysMem& ram_;
  cache::MemHierarchy& hierarchy_;
  cache::Tlb& tlb_;

  bool enabled_ = false;
  paddr_t ttbr0_ = 0;
  u32 dacr_ = 0;
  u32 asid_ = 0;

  // Micro-TLB: direct-mapped on the low bits of the virtual page. An entry
  // is live while `entry != nullptr`, the (asid, vpage) key matches, and
  // `gen` equals the main TLB's current generation. One bank per simulated
  // core; bank 0 alone reproduces the unicore micro-TLB exactly. `host`,
  // when set, is the page's frame in `ram_`, valid while the entry is live
  // and `ram_.discard_epoch()` still equals `host_epoch`.
  static constexpr u32 kMicroTlbEntries = 16;  // power of two
  struct MicroEntry {
    const cache::TlbEntry* entry = nullptr;
    vaddr_t vpage = 0;
    u32 asid = 0;
    u64 gen = 0;
    u8* host = nullptr;
    u64 host_epoch = 0;
  };
  MicroEntry& micro_slot(vaddr_t vpage) {
    return ubanks_[active_bank_][vpage & (kMicroTlbEntries - 1)];
  }
  bool live(const MicroEntry& u, vaddr_t vpage) const {
    return u.entry != nullptr && u.vpage == vpage && u.asid == asid_ &&
           u.gen == tlb_.generation();
  }
  using MicroBank = std::array<MicroEntry, kMicroTlbEntries>;
  std::vector<MicroBank> ubanks_{1};
  std::vector<u64> ubank_epoch_{std::vector<u64>(1, 0)};
  u32 active_bank_ = 0;
  MicroTlbStats ustats_;
};

}  // namespace minova::mmu
