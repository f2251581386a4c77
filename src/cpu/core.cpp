#include "cpu/core.hpp"

#include <algorithm>
#include <cstring>
#include <type_traits>

#include "util/assert.hpp"

namespace minova::cpu {

namespace {
constexpr u32 kExceptionEntryCycles = 18;  // pipeline flush + mode switch
constexpr u32 kExceptionReturnCycles = 12;

u32 load_word(const u8* p) {
  u32 v;
  std::memcpy(&v, p, sizeof v);
  return v;
}
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
  const cache::CacheConfig& l1i = hierarchy_.config().l1i;
  const u32 line = l1i.line_bytes;
  const u32 total_lines = region.lines(line);
  const u32 run_lines = u32(double(total_lines) * executed_fraction + 0.5);
  cache::Cache& icache = hierarchy_.l1i();
  // With the caches off every fetch costs DRAM and touches no state. Under
  // kRandom an L1I hit only counts, so lines that all hit in this fill
  // epoch are certain hits again; under kLru each hit writes a use stamp.
  const bool memo_ok = l1i.policy == cache::ReplacementPolicy::kRandom;
  FetchMemo& memo = fetch_memo_[(region.base / line) % kFetchMemoSlots];
  const u64 epoch = icache.fill_epoch();
  if (!hierarchy_.config().enabled) {
    clock_->advance(cycles_t(run_lines) * cache::kDramCycles);
  } else if (memo_ok && memo.base == region.base && memo.epoch == epoch &&
             run_lines <= memo.lines) {
    icache.credit_read_hits(run_lines);
    clock_->advance(cycles_t(run_lines) * l1i.hit_cycles);
  } else {
    for (u32 i = 0; i < run_lines; ++i)
      clock_->advance(hierarchy_.access_ifetch(region.base + i * line));
    // An unmoved epoch means no line missed.
    if (memo_ok && icache.fill_epoch() == epoch)
      memo = FetchMemo{region.base, run_lines, epoch};
  }
  spend_insns(u64(double(region.instructions()) * executed_fraction));
}

Core::MemResult Core::data_access(vaddr_t va, mmu::AccessKind kind,
                                  u32* read_out, u32 write_val,
                                  unsigned size_bytes, HostWord* bound) {
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
  if (tr.host != nullptr) {
    // Bound RAM: no device overlaps the page, so the bus would route this
    // access to the same host bytes.
    MINOVA_CHECK(size_bytes == 1 || is_aligned(pa, 4));
    clock_->advance(hierarchy_.access_data(pa, write));
    if (write)
      std::memcpy(tr.host, &write_val, size_bytes);
    else if (read_out)
      *read_out = size_bytes == 1 ? *tr.host : load_word(tr.host);
    if (bound) *bound = HostWord{tr.host, pa};
    if (read_out) res.value = *read_out;
    return res;
  }

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
  // The access completed on the slow path. When it went to DRAM, bind the
  // page so the next hits on it take the branch above.
  const paddr_t page = pa & ~(mmu::kPageSize - 1);
  if (!bus_.overlaps_device(page, mmu::kPageSize)) {
    if (u8* host = mmu_.bind_host(va, pa); host != nullptr && bound)
      *bound = HostWord{host, pa};
  }
  if (read_out) res.value = *read_out;
  return res;
}

Core::MemResult Core::touch_words(vaddr_t va, u32 words, bool write,
                                  RunFaults faults) {
  MINOVA_CHECK(is_aligned(va, 4));
  const auto kind = write ? mmu::AccessKind::kWrite : mmu::AccessKind::kRead;
  const cache::CacheConfig& l1d = hierarchy_.config().l1d;
  const bool cached = hierarchy_.config().enabled;
  MemResult first_fault;
  while (words > 0) {
    HostWord bound;
    const MemResult r = data_access(va, kind, nullptr, 0, 4, &bound);
    u32 k = 0;  // further words of this run charged in closed form
    if (r.ok) {
      // The word reached bound RAM with the caches on: the rest of its
      // line are certain micro-TLB and L1D hits.
      if (bound.ptr != nullptr && cached)
        k = std::min(words - 1,
                     (l1d.line_bytes - bound.pa % l1d.line_bytes) / 4 - 1);
      if (k > 0) {
        mmu_.credit_hits(va, k);
        hierarchy_.l1d().credit_hits(bound.pa, k, write);
        clock_->advance(cycles_t(k) * (1 + l1d.hit_cycles));
        if (write) std::memset(bound.ptr + 4, 0, std::size_t(k) * 4);
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
        k = std::min(words - 1, (mmu::kPageSize - va % mmu::kPageSize) / 4 - 1);
        mmu_.credit_hits(va, k);
        clock_->advance(k);
      }
    }
    va += (k + 1) * 4;
    words -= k + 1;
  }
  return first_fault;
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
  // Timing: one L1D access per cache line touched and one translation per
  // line, exactly as sequential line-granular accesses would charge. The
  // first line of each page translates; the page's remaining lines are
  // certain micro-TLB hits and are credited in bulk. Data: one copy per
  // page through the translation, so VA->PA mapping (and faults) behave
  // exactly like the per-word path.
  constexpr bool kWrite = std::is_const_v<Byte>;
  const auto kind = kWrite ? mmu::AccessKind::kWrite : mmu::AccessKind::kRead;
  const u32 line = hierarchy_.config().l1d.line_bytes;
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
