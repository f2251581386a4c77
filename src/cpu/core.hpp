// The simulated Cortex-A9 core.
//
// Composes the register file, PSRs, VFP bank, MMU, cache hierarchy and bus
// into the single object all modeled software executes against. Three kinds
// of progress are accounted:
//   * `spend(n)`          — pure pipeline cycles (ALU work),
//   * `exec_code(region)` — instruction fetch through L1I/L2 for a routine's
//                           text footprint + its pipeline cycles,
//   * `vread*/vwrite*`    — data accesses: TLB/walk via the MMU, then
//                           L1D/L2/DRAM (or uncached MMIO) costs.
// Faults are returned to the caller (the Mini-NOVA kernel model decides how
// to virtualize them); the core only charges the exception entry/exit
// microarchitectural costs.
#pragma once

#include <array>
#include <span>

#include "cache/hierarchy.hpp"
#include "cache/tlb.hpp"
#include "cpu/code_region.hpp"
#include "cpu/mode.hpp"
#include "cpu/registers.hpp"
#include "mem/bus.hpp"
#include "mmu/mmu.hpp"
#include "sim/clock.hpp"
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

  MemResult vread32(vaddr_t va);
  MemResult vwrite32(vaddr_t va, u32 value);
  MemResult vread8(vaddr_t va);
  MemResult vwrite8(vaddr_t va, u8 value);

  /// Bulk transfers with per-cache-line cost accounting: the workload and
  /// DMA-staging paths move whole buffers; sequential line-granular accesses
  /// model the LDM/STM streams real code would issue.
  MemResult vread_block(vaddr_t va, std::span<u8> out);
  MemResult vwrite_block(vaddr_t va, std::span<const u8> in);

  /// What a word run does at a faulting word: stop there, or skip it and
  /// go on with the next word.
  enum class RunFaults : u8 { kStop, kSkip };

  /// Touch `words` consecutive words from `va` (4-byte aligned): reads
  /// discard their values, writes store zero. Charges and counts exactly
  /// what the same `vread32`/`vwrite32` loop would, crediting in closed
  /// form the words whose outcome is certain (DESIGN.md §10.2). Returns
  /// the first fault, whose `address` names the faulting word.
  MemResult touch_words(vaddr_t va, u32 words, bool write, RunFaults faults);

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

  // ---- IRQ line from the GIC ----
  void set_irq_line(bool asserted) { irq_line_ = asserted; }
  /// Line asserted and not masked by CPSR.I.
  bool irq_deliverable() const { return irq_line_ && !cpsr_.irq_masked; }

 private:
  /// Where a data access landed when its page is bound RAM.
  struct HostWord {
    u8* ptr = nullptr;
    paddr_t pa = 0;
  };
  MemResult data_access(vaddr_t va, mmu::AccessKind kind, u32* read_out,
                        u32 write_val, unsigned size_bytes,
                        HostWord* bound = nullptr);
  /// The one body of vread_block/vwrite_block: a const `Byte` writes.
  template <typename Byte>
  MemResult block_access(vaddr_t va, std::span<Byte> data);

  /// A region whose first `lines` lines all hit L1I while its fill epoch
  /// read `epoch`; they stay resident until the epoch moves.
  struct FetchMemo {
    paddr_t base = 0;
    u32 lines = 0;
    u64 epoch = 0;
  };
  /// Direct-mapped by `base / line`. 256 slots keep base collisions rare
  /// for the kernel's routine set; 64 do not.
  static constexpr u32 kFetchMemoSlots = 256;

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
  bool irq_line_ = false;
  std::array<FetchMemo, kFetchMemoSlots> fetch_memo_{};
};

}  // namespace minova::cpu
