#include "cpu/core.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <type_traits>

#include "util/assert.hpp"

namespace minova::cpu {

namespace {
constexpr u32 kExceptionEntryCycles = 18;  // pipeline flush + mode switch
constexpr u32 kExceptionReturnCycles = 12;
}  // namespace

Core::Core(sim::Clock& clock, mem::PhysMem& dram, mem::Bus& bus)
    : clock_(&clock), dram_(dram), bus_(bus), mmu_(dram, hierarchy_, tlb_) {
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
  constexpr cache::CacheConfig l1i = cache::kL1iGeometry;
  constexpr u32 line = l1i.line_bytes;
  const u32 total_lines = region.lines(line);
  const u32 run_lines = u32(double(total_lines) * executed_fraction + 0.5);
  cache::Cache& icache = hierarchy_.l1i();
  // An L1I hit only counts, so lines that all hit in this fill epoch are
  // certain hits again.
  LineMemo& memo = memo_slot(fetch_memo_, region.base);
  const u64 epoch = icache.fill_epoch();
  if (memo.covers(region.base, run_lines, epoch, false)) {
    icache.credit_read_hits(run_lines);
    clock_->advance(cycles_t(run_lines) * l1i.hit_cycles);
  } else {
    for (u32 i = 0; i < run_lines; ++i)
      clock_->advance(hierarchy_.access_ifetch(region.base + i * line));
    // An unmoved epoch means no line missed.
    if (icache.fill_epoch() == epoch)
      memo = LineMemo{region.base, u16(run_lines), false, epoch};
  }
  spend_insns(u64(double(region.instructions()) * executed_fraction));
}

Core::MemResult Core::data_access(vaddr_t va, bool write, u32 write_val,
                                  mmu::HostWord* bound) {
  const auto tr = mmu_.translate(
      va, write ? mmu::AccessKind::kWrite : mmu::AccessKind::kRead,
      privileged());
  clock_->advance(tr.cost + 1);  // +1: AGU/TLB lookup pipeline cost
  if (!tr.ok()) return MemResult{.ok = false, .fault = tr.fault, .value = 0};

  const paddr_t pa = tr.pa;
  clock_->advance(bus_.is_device(pa) ? hierarchy_.access_device()
                                     : hierarchy_.access_data(pa, write));
  MemResult res;
  const mem::Bus::Result br =
      write ? bus_.write32(pa, write_val) : bus_.read32(pa, res.value);
  if (br != mem::Bus::Result::kOk) {
    return MemResult{.ok = false,
                     .fault = mmu::Fault{.type = mmu::FaultType::kExternalAbort,
                                         .address = va,
                                         .domain = 0,
                                         .write = write,
                                         .instruction = false},
                     .value = 0};
  }
  // The access completed on the slow path. When it went to DRAM, bind the
  // page so the next hits on it take the inline path.
  const paddr_t page = pa & ~(mmu::kPageSize - 1);
  if (!bus_.overlaps_device(page, mmu::kPageSize)) {
    if (u8* host = mmu_.bind_host(va, pa); host != nullptr && bound)
      *bound = mmu::HostWord{host, pa};
  }
  return res;
}

Core::MemResult Core::touch_words(vaddr_t va, u32 words, bool write,
                                  RunFaults faults, u32 stride) {
  MINOVA_CHECK(is_aligned(va, 4) && (stride == 4 || stride == 8));
  const int stride_shift = std::countr_zero(stride);  // no division per page
  MemResult first_fault;
  while (words > 0) {
    // This page's words of the run: after the first, certain micro-TLB hits.
    const u32 page_left = mmu::kPageSize - va % mmu::kPageSize;
    const u32 in_page =
        std::min(words, (page_left + stride - 1) >> stride_shift);
    u32 word = 0;  // a write stores zero; a read's value is discarded
    mmu::HostWord bound = bound_access(va, write, word);
    MemResult r;
    if (bound.ptr == nullptr) r = data_access(va, write, 0, &bound);
    u32 k = 0;  // further words of this run charged in closed form
    if (r.ok) {
      // The word reached bound RAM: the rest of the page are micro hits on
      // the same frame, which only the L1D can tell apart.
      if (bound.ptr != nullptr) {
        k = in_page - 1;
        charge_bound_run(va, bound, k, write, stride);
      }
    } else {
      if (first_fault.ok) first_fault = r;
      if (faults == RunFaults::kStop) return r;
      // A domain or permission fault is raised after the translation is
      // installed in the micro-TLB: the rest of the page are certain micro
      // hits that take the same fault, one AGU cycle each.
      const auto type = r.fault.type;
      if (type == mmu::FaultType::kDomain ||
          type == mmu::FaultType::kPermission) {
        k = in_page - 1;
        mmu_.credit_hits(va, k);
        clock_->advance(k);
      }
    }
    va += (k + 1) * stride;
    words -= k + 1;
  }
  return first_fault;
}

void Core::charge_bound_run(vaddr_t va, mmu::HostWord first, u32 more,
                            bool write, u32 stride) {
  if (more == 0) return;
  constexpr cache::CacheConfig l1d = cache::kL1dGeometry;
  constexpr u32 line = l1d.line_bytes;
  mmu_.credit_hits(va, more);
  cache::Cache& dcache = hierarchy_.l1d();
  const paddr_t base = align_down(first.pa, line);
  const paddr_t last = align_down(first.pa + more * stride, line);
  const u32 lines = (last - base) / line + 1;
  // Every word costs an AGU cycle and an L1D hit, except the first word of
  // each further line, which pays whatever its access costs. The first
  // word's access left its line present, and dirty for a write.
  cycles_t cost = cycles_t(more) * (1 + l1d.hit_cycles);
  LineMemo& memo = memo_slot(data_memo_, base);
  const u64 epoch = dcache.fill_epoch();
  if (memo.covers(base, lines, epoch, write)) {
    dcache.credit_read_hits(more);
  } else {
    for (paddr_t l = base + line; l <= last; l += line)
      cost += hierarchy_.access_data(l, write) - l1d.hit_cycles;
    // The rest hit lines that these accesses left present (and dirty).
    dcache.credit_read_hits(more - (lines - 1));
    // An unmoved epoch means no line missed.
    if (dcache.fill_epoch() == epoch)
      memo = LineMemo{base, u16(lines), write, epoch};
  }
  clock_->advance(cost);
  if (write)
    for (u32 i = 1; i <= more; ++i) std::memset(first.ptr + i * stride, 0, 4);
}

template <typename Byte>
Core::MemResult Core::block_access(vaddr_t va, std::span<Byte> data) {
  // Timing: one L1D access per cache line touched and one translation per
  // line, exactly as sequential line-granular accesses would charge. The
  // first line of each page translates; the page's remaining lines are
  // certain micro-TLB hits and are credited in bulk. Data: one copy per
  // page through the translation, so VA->PA mapping (and faults) behave
  // exactly like the per-word path.
  constexpr bool kWrite = std::is_const_v<Byte>;
  const auto kind = kWrite ? mmu::AccessKind::kWrite : mmu::AccessKind::kRead;
  constexpr u32 line = cache::kL1dGeometry.line_bytes;
  std::size_t done = 0;
  while (done < data.size()) {
    const vaddr_t cur = va + vaddr_t(done);
    auto tr = mmu_.translate(cur, kind, privileged());
    clock_->advance(tr.cost);
    if (!tr.ok()) return MemResult{.ok = false, .fault = tr.fault, .value = 0};
    const std::size_t span = std::min<std::size_t>(
        mmu::kPageSize - (cur % mmu::kPageSize), data.size() - done);
    const paddr_t first = align_down(tr.pa, line);
    const paddr_t last = align_down(tr.pa + paddr_t(span) - 1, line);
    // RAM windows are frame-aligned, so a page span is RAM-backed whole or
    // not at all; when it is not, the first line faults after its access.
    mem::PhysMem* ram = bus_.ram_at(tr.pa, u32(span));
    if (ram == nullptr) {
      clock_->advance(hierarchy_.access_data(tr.pa, kWrite));
      return MemResult{
          .ok = false,
          .fault = mmu::Fault{.type = mmu::FaultType::kExternalAbort,
                              .address = cur,
                              .domain = 0,
                              .write = kWrite,
                              .instruction = false},
          .value = 0};
    }
    for (paddr_t l = first; l <= last; l += line)
      clock_->advance(hierarchy_.access_data(l, kWrite));
    mmu_.credit_hits(cur, (last - first) / line);
    if constexpr (kWrite)
      ram->write_block(tr.pa, data.subspan(done, span));
    else
      ram->read_block(tr.pa, data.subspan(done, span));
    done += span;
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
