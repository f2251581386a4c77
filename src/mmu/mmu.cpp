#include "mmu/mmu.hpp"

#include "util/assert.hpp"

namespace minova::mmu {

Mmu::Mmu(mem::PhysMem& table_ram, cache::MemHierarchy& hierarchy,
         cache::Tlb& tlb)
    : ram_(table_ram), hierarchy_(hierarchy), tlb_(tlb) {}

u32 Mmu::pack_attrs(Ap ap, u32 domain, bool xn) {
  return (u32(ap) & 0x7u) | ((domain & 0xFu) << 3) | ((xn ? 1u : 0u) << 7);
}

Mmu::WalkOut Mmu::walk(vaddr_t va, cycles_t& cost) {
  WalkOut out;
  const paddr_t l1_slot = ttbr0_ + l1_index(va) * 4;
  cost += hierarchy_.access_walk(l1_slot);
  const L1Desc l1 = L1Desc::decode(ram_.read32(l1_slot));
  switch (l1.type) {
    case L1Type::kFault:
      out.fault = FaultType::kTranslationL1;
      return out;
    case L1Type::kSection: {
      out.ok = true;
      out.entry.valid = true;
      out.entry.large = true;
      out.entry.asid = asid_;
      out.entry.global = !l1.ng;
      // Store the section base pages so offset math is uniform with small
      // pages (the Tlb matches sections on the top 12 VA bits).
      out.entry.vpage = (va >> 20) << 8;
      out.entry.ppage = l1.section_base >> 12;
      out.entry.attrs = pack_attrs(l1.ap, l1.domain, l1.xn);
      return out;
    }
    case L1Type::kPageTable: {
      const paddr_t l2_slot = l1.l2_base + l2_index(va) * 4;
      cost += hierarchy_.access_walk(l2_slot);
      const L2Desc l2 = L2Desc::decode(ram_.read32(l2_slot));
      if (!l2.valid) {
        out.fault = FaultType::kTranslationL2;
        return out;
      }
      out.ok = true;
      out.entry.valid = true;
      out.entry.large = false;
      out.entry.asid = asid_;
      out.entry.global = !l2.ng;
      out.entry.vpage = va >> 12;
      out.entry.ppage = l2.page_base >> 12;
      out.entry.attrs = pack_attrs(l2.ap, l1.domain, l2.xn);
      return out;
    }
  }
  out.fault = FaultType::kTranslationL1;
  return out;
}

TranslateResult Mmu::translate(vaddr_t va, AccessKind kind, bool privileged) {
  TranslateResult res;
  if (!enabled_) {
    res.pa = va;  // flat mapping with MMU off
    return res;
  }

  // Micro-TLB probe: a hit skips the main TLB's index walk but replays its
  // hit bookkeeping exactly (touch = LRU stamp + hit count), so simulated
  // behaviour cannot diverge from the micro-TLB-less path.
  const vaddr_t vpage = va >> 12;
  MicroEntry& u = micro_slot(vpage);
  const cache::TlbEntry* entry;
  if (live(u, vpage)) {
    ++ustats_.hits;
    tlb_.touch(*u.entry);
    entry = u.entry;
  } else {
    ++ustats_.misses;
    entry = tlb_.lookup(asid_, va);
    if (entry != nullptr)
      u = MicroEntry{entry, vpage, asid_, tlb_.generation()};
  }
  if (entry != nullptr) {
    res.tlb_hit = true;
  } else {
    WalkOut w = walk(va, res.cost);
    if (!w.ok) {
      res.fault = Fault{.type = w.fault,
                        .address = va,
                        .domain = 0,
                        .write = kind == AccessKind::kWrite,
                        .instruction = kind == AccessKind::kExecute};
      return res;
    }
    entry = tlb_.insert(w.entry);
    u = MicroEntry{entry, vpage, asid_, tlb_.generation()};
  }

  // Domain and AP checks against the *current* DACR (per-access, even on a
  // TLB hit).
  const FaultType f = access_fault(entry->attrs, kind, privileged);
  if (f != FaultType::kNone) {
    res.fault = Fault{.type = f,
                      .address = va,
                      .domain = attrs_domain(entry->attrs),
                      .write = kind == AccessKind::kWrite,
                      .instruction = kind == AccessKind::kExecute};
    return res;
  }
  res.pa = entry_pa(*entry, va);
  return res;
}

u8* Mmu::bind_host(vaddr_t va, paddr_t pa) {
  if (!enabled_ || !ram_.contains(pa)) return nullptr;
  MicroEntry& u = micro_slot(va >> 12);
  u8* frame = ram_.resident_frame(pa);
  if (!live(u, va >> 12) || frame == nullptr) return nullptr;
  u.host = frame;
  u.host_epoch = ram_.discard_epoch();
  return frame + (pa & (kPageSize - 1));
}

void Mmu::credit_hits(vaddr_t va, u64 n) {
  if (!enabled_ || n == 0) return;
  const MicroEntry& u = micro_slot(va >> 12);
  MINOVA_CHECK_MSG(live(u, va >> 12),
                   "credited hits on a dead micro-TLB entry");
  ustats_.hits += n;
  tlb_.touch(*u.entry, n);
}

}  // namespace minova::mmu
