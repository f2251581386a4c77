#include "cpu/core.hpp"

#include <type_traits>

#include "util/assert.hpp"

namespace minova::cpu {

namespace {
constexpr u32 kExceptionEntryCycles = 18;  // pipeline flush + mode switch
constexpr u32 kExceptionReturnCycles = 12;
}  // namespace

Core::Core(sim::Clock& clock, mem::PhysMem& dram, mem::Bus& bus,
           const CoreConfig& cfg)
    : clock_(&clock),
      dram_(dram),
      bus_(bus),
      cfg_(cfg),
      hierarchy_(cfg.hierarchy),
      mmu_(dram, hierarchy_, tlb_) {
  cpsr_.mode = Mode::kSvc;  // reset enters SVC with IRQs masked
  cpsr_.irq_masked = true;
}

Psr& Core::spsr(Mode m) {
  switch (m) {
    case Mode::kSvc: return spsr_[0];
    case Mode::kIrq: return spsr_[1];
    case Mode::kFiq: return spsr_[2];
    case Mode::kUnd: return spsr_[3];
    case Mode::kAbt: return spsr_[4];
    default: return spsr_[5];
  }
}

void Core::exec_code(const CodeRegion& region, double executed_fraction) {
  MINOVA_CHECK(executed_fraction >= 0.0 && executed_fraction <= 1.0);
  const u32 line = hierarchy_.config().l1i.line_bytes;
  const u32 total_lines = region.lines(line);
  const u32 run_lines = u32(double(total_lines) * executed_fraction + 0.5);
  for (u32 i = 0; i < run_lines; ++i)
    clock_->advance(hierarchy_.access_ifetch(region.base + i * line));
  spend_insns(u64(double(region.instructions()) * executed_fraction));
}

Core::MemResult Core::data_access(vaddr_t va, mmu::AccessKind kind,
                                  u32* read_out, u32 write_val,
                                  unsigned size_bytes) {
  MemResult res;
  auto tr = mmu_.translate(va, kind, privileged());
  clock_->advance(tr.cost + 1);  // +1: AGU/TLB lookup pipeline cost
  if (!tr.ok()) {
    res.ok = false;
    res.fault = tr.fault;
    return res;
  }

  const paddr_t pa = tr.pa;
  const bool write = kind == mmu::AccessKind::kWrite;
  if (bus_.is_device(pa)) {
    clock_->advance(hierarchy_.access_device());
  } else {
    clock_->advance(hierarchy_.access_data(pa, write));
  }

  mem::Bus::Result br;
  if (write) {
    if (size_bytes == 1)
      br = bus_.write8(pa, u8(write_val));
    else
      br = bus_.write32(pa, write_val);
  } else {
    if (size_bytes == 1) {
      u8 v = 0;
      br = bus_.read8(pa, v);
      if (read_out) *read_out = v;
    } else {
      u32 v = 0;
      br = bus_.read32(pa, v);
      if (read_out) *read_out = v;
    }
  }
  if (br != mem::Bus::Result::kOk) {
    res.ok = false;
    res.fault = mmu::Fault{.type = mmu::FaultType::kExternalAbort,
                           .address = va,
                           .domain = 0,
                           .write = write,
                           .instruction = false};
    return res;
  }
  if (read_out) res.value = *read_out;
  return res;
}

Core::MemResult Core::vread32(vaddr_t va) {
  u32 v = 0;
  MemResult r = data_access(va, mmu::AccessKind::kRead, &v, 0, 4);
  r.value = v;
  return r;
}

Core::MemResult Core::vwrite32(vaddr_t va, u32 value) {
  return data_access(va, mmu::AccessKind::kWrite, nullptr, value, 4);
}

Core::MemResult Core::vread8(vaddr_t va) {
  u32 v = 0;
  MemResult r = data_access(va, mmu::AccessKind::kRead, &v, 0, 1);
  r.value = v;
  return r;
}

Core::MemResult Core::vwrite8(vaddr_t va, u8 value) {
  return data_access(va, mmu::AccessKind::kWrite, nullptr, value, 1);
}

template <typename Byte>
Core::MemResult Core::block_access(vaddr_t va, std::span<Byte> data) {
  // Timing: one L1D access per cache line touched; data: copied through the
  // translation so VA->PA mapping (and faults) behave exactly like the
  // per-word path.
  constexpr bool kWrite = std::is_const_v<Byte>;
  const auto kind = kWrite ? mmu::AccessKind::kWrite : mmu::AccessKind::kRead;
  const u32 line = hierarchy_.config().l1d.line_bytes;
  std::size_t done = 0;
  while (done < data.size()) {
    const vaddr_t cur = va + vaddr_t(done);
    auto tr = mmu_.translate(cur, kind, privileged());
    clock_->advance(tr.cost);
    if (!tr.ok()) return MemResult{.ok = false, .fault = tr.fault, .value = 0};
    // Stay within this page and this cache line for the chunk.
    const u32 line_off = tr.pa % line;
    const u32 page_left = mmu::kPageSize - (cur % mmu::kPageSize);
    const std::size_t chunk = std::min<std::size_t>(
        {line - line_off, page_left, data.size() - done});
    clock_->advance(hierarchy_.access_data(tr.pa, kWrite));
    mem::PhysMem* ram = bus_.ram_at(tr.pa, u32(chunk));
    if (ram == nullptr) {
      return MemResult{
          .ok = false,
          .fault = mmu::Fault{.type = mmu::FaultType::kExternalAbort,
                              .address = cur,
                              .domain = 0,
                              .write = kWrite,
                              .instruction = false},
          .value = 0};
    }
    if constexpr (kWrite)
      ram->write_block(tr.pa, data.subspan(done, chunk));
    else
      ram->read_block(tr.pa, data.subspan(done, chunk));
    done += chunk;
  }
  return MemResult{};
}

Core::MemResult Core::vread_block(vaddr_t va, std::span<u8> out) {
  return block_access(va, out);
}

Core::MemResult Core::vwrite_block(vaddr_t va, std::span<const u8> in) {
  return block_access(va, in);
}

mmu::TranslateResult Core::probe(vaddr_t va, mmu::AccessKind kind) {
  auto tr = mmu_.translate(va, kind, privileged());
  clock_->advance(tr.cost);
  return tr;
}

void Core::exception_enter(Exception exc) {
  const Mode target = mode_for_exception(exc);
  spsr(target) = cpsr_;
  cpsr_.mode = target;
  cpsr_.irq_masked = true;  // IRQs masked on any exception entry
  if (exc == Exception::kFiq) cpsr_.fiq_masked = true;
  clock_->advance(kExceptionEntryCycles);
}

void Core::exception_return(Mode resume_mode) {
  cpsr_ = spsr(cpsr_.mode);
  cpsr_.mode = resume_mode;
  clock_->advance(kExceptionReturnCycles);
}

}  // namespace minova::cpu
