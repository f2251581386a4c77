// The simulated Cortex-A9 core.
//
// Composes the register file, PSRs, VFP bank, MMU, cache hierarchy and bus
// into the single object all modeled software executes against. Three kinds
// of progress are accounted:
//   * `spend(n)`          — pure pipeline cycles (ALU work),
//   * `exec_code(region)` — instruction fetch through L1I/L2 for a routine's
//                           text footprint + its pipeline cycles,
//   * `vread*/vwrite*`    — data accesses: TLB/walk via the MMU, then
//                           L1D/L2/DRAM (or uncached MMIO) costs;
//                           `touch_words` charges a run of them per page,
//                           and from its L1D run memo when its lines are
//                           certain hits.
// Faults are returned to the caller (the Mini-NOVA kernel model decides how
// to virtualize them); the core only charges the exception entry/exit
// microarchitectural costs.
#pragma once

#include <array>
#include <cstring>
#include <span>

#include "cache/hierarchy.hpp"
#include "cache/tlb.hpp"
#include "cpu/code_region.hpp"
#include "cpu/mode.hpp"
#include "cpu/registers.hpp"
#include "mem/bus.hpp"
#include "mmu/mmu.hpp"
#include "sim/clock.hpp"
#include "util/assert.hpp"
#include "util/types.hpp"

namespace minova::cpu {

class Core {
 public:
  Core(sim::Clock& clock, mem::PhysMem& dram, mem::Bus& bus);

  // ---- mode / PSR ----
  Mode mode() const { return cpsr_.mode; }
  bool privileged() const { return is_privileged(cpsr_.mode); }
  Psr& cpsr() { return cpsr_; }
  const Psr& cpsr() const { return cpsr_; }
  Psr& spsr(Mode m);

  RegisterFile& regs() { return regs_; }
  const RegisterFile& regs() const { return regs_; }
  VfpBank& vfp() { return vfp_; }

  // ---- time ----
  sim::Clock& clock() { return *clock_; }
  /// Repoint this core at another clock. Host-side only: the SMP engine
  /// gives each lane a private clock for the parallel window phase and
  /// points it back at the global clock for the serial phases; the clock a
  /// core charges against never changes mid-access (DESIGN.md §14).
  void set_clock(sim::Clock* clock) { clock_ = clock; }
  void spend(cycles_t cycles) { clock_->advance(cycles); }
  /// The modelled pipeline retires one instruction per cycle.
  void spend_insns(u64 instructions) { clock_->advance(instructions); }

  // ---- instruction side ----
  /// Fetch a routine's entire text footprint through the I-cache and charge
  /// its pipeline cycles. `executed_fraction` scales both for partial runs.
  /// A run whose lines are certain L1I hits is charged in closed form
  /// (DESIGN.md §10.2).
  void exec_code(const CodeRegion& region, double executed_fraction = 1.0);

  // ---- data side ----
  struct MemResult {
    bool ok = true;
    mmu::Fault fault;
    u32 value = 0;
  };

  /// A word access. A warm hit on bound RAM runs inline; everything else
  /// (walk, micro miss, fault, device, first binding) runs out of line.
  MemResult vread32(vaddr_t va) {
    MemResult r;
    if (bound_access(va, false, r.value).ptr == nullptr)
      r = data_access(va, false, 0);
    return r;
  }
  MemResult vwrite32(vaddr_t va, u32 value) {
    if (bound_access(va, true, value).ptr != nullptr) return MemResult{};
    return data_access(va, true, value);
  }

  /// Bulk transfers with per-cache-line cost accounting: the workload and
  /// DMA-staging paths move whole buffers; sequential line-granular accesses
  /// model the LDM/STM streams real code would issue.
  MemResult vread_block(vaddr_t va, std::span<u8> out);
  MemResult vwrite_block(vaddr_t va, std::span<const u8> in);

  /// What a word run does at a faulting word: stop there, or skip it and
  /// go on with the next word.
  enum class RunFaults : u8 { kStop, kSkip };

  /// Touch `words` words from `va` (4-byte aligned), `stride` (4 or 8)
  /// bytes apart: reads discard their values, writes store zero. Charges
  /// and counts exactly what the same `vread32`/`vwrite32` loop would,
  /// crediting in closed form the words whose outcome is certain: a page's
  /// words after its first, and the lines of a run that the L1D run memo
  /// proves present (DESIGN.md §10.2). Returns the first fault, whose
  /// `address` names the faulting word.
  MemResult touch_words(vaddr_t va, u32 words, bool write, RunFaults faults,
                        u32 stride = 4);

  /// Translation probe without data access (used by the kernel to validate
  /// guest-supplied pointers).
  mmu::TranslateResult probe(vaddr_t va, mmu::AccessKind kind);

  // ---- exceptions (cost accounting + mode bookkeeping) ----
  /// Enter `exc`: bank the PSR, switch mode, mask IRQ, charge entry cost.
  void exception_enter(Exception exc);
  /// Return from the current exception to `resume_mode`.
  void exception_return(Mode resume_mode);

  // ---- subsystem access ----
  mmu::Mmu& mmu() { return mmu_; }
  cache::MemHierarchy& caches() { return hierarchy_; }
  cache::Tlb& tlb() { return tlb_; }
  mem::Bus& bus() { return bus_; }

 private:
  /// The warm hit path (DESIGN.md §10.2): a word of bound RAM that its
  /// micro-TLB entry allows, charged and counted as the slow path would.
  /// Returns where the word landed, or {} having changed nothing.
  mmu::HostWord bound_access(vaddr_t va, bool write, u32& value) {
    const mmu::HostWord w = mmu_.bound_hit(
        va, write ? mmu::AccessKind::kWrite : mmu::AccessKind::kRead,
        privileged());
    if (w.ptr == nullptr) return w;
    MINOVA_CHECK(is_aligned(va, 4));  // the copy must stay in its frame
    // +1: AGU/TLB lookup pipeline cost; an L1D miss fills out of line.
    clock_->advance(1 + (hierarchy_.l1d().try_hit(w.pa, write)
                             ? cache::kL1dGeometry.hit_cycles
                             : hierarchy_.access_data(w.pa, write)));
    if (write)
      std::memcpy(w.ptr, &value, sizeof value);
    else
      std::memcpy(&value, w.ptr, sizeof value);
    return w;
  }
  /// The slow path of a word access; sets `bound` when it binds the page.
  MemResult data_access(vaddr_t va, bool write, u32 write_val,
                        mmu::HostWord* bound = nullptr);
  /// The one body of vread_block/vwrite_block: a const `Byte` writes.
  template <typename Byte>
  MemResult block_access(vaddr_t va, std::span<Byte> data);

  /// A run of `lines` lines from `base` that were all present in an L1
  /// while its fill epoch read `epoch`, and all dirty if `dirty`. They stay
  /// present until the epoch moves, and nothing cleans a line without
  /// moving it, so while it holds every access to them is a hit.
  struct LineMemo {
    paddr_t base = 0;
    u16 lines = 0;  // 2^16 or more wraps to fewer than proved, which is safe
    bool dirty = false;
    u64 epoch = 0;

    /// Whether `n` lines from `base` are certain hits for a `write` access
    /// in fill epoch `now`.
    bool covers(paddr_t run, u32 n, u64 now, bool write) const {
      return base == run && epoch == now && n <= lines && (dirty || !write);
    }
  };
  /// Direct-mapped by `base / line`, one table per L1. 256 slots keep base
  /// collisions rare for the kernel's routine set and save areas; 64 do not.
  static constexpr u32 kMemoSlots = 256;
  static_assert(cache::kL1iGeometry.line_bytes ==
                cache::kL1dGeometry.line_bytes);
  static LineMemo& memo_slot(std::array<LineMemo, kMemoSlots>& memos,
                             paddr_t base) {
    return memos[(base / cache::kL1dGeometry.line_bytes) % kMemoSlots];
  }
  /// Charge the words after the first of a run on one bound page: `more`
  /// further words, `stride` bytes apart, after the word at `first`.
  void charge_bound_run(vaddr_t va, mmu::HostWord first, u32 more,
                        bool write, u32 stride);

  sim::Clock* clock_;
  mem::PhysMem& dram_;
  mem::Bus& bus_;

  cache::MemHierarchy hierarchy_;
  cache::Tlb tlb_;
  mmu::Mmu mmu_;

  RegisterFile regs_;
  Psr cpsr_;
  std::array<Psr, 7> spsr_{};
  VfpBank vfp_;
  std::array<LineMemo, kMemoSlots> fetch_memo_{};
  std::array<LineMemo, kMemoSlots> data_memo_{};
};

}  // namespace minova::cpu
