#include "mmu/page_table.hpp"

#include "util/assert.hpp"

namespace minova::mmu {

PageTableAllocator::PageTableAllocator(mem::PhysMem& ram, paddr_t base,
                                       u32 size)
    : ram_(ram), base_(base), size_(size), next_(base) {
  MINOVA_CHECK(ram.contains(base, size));
}

paddr_t PageTableAllocator::alloc(u32 bytes, u32 align, bool is_l1) {
  paddr_t start = 0;
  auto& pool = is_l1 ? free_l1_ : free_l2_;
  if (!pool.empty()) {
    start = pool.back();
    pool.pop_back();
    tables_.at(start).live = true;
  } else {
    start = paddr_t(align_up(next_, align));
    MINOVA_CHECK_MSG(u64(start) + bytes <= u64(base_) + size_,
                     "page-table pool exhausted");
    next_ = start + bytes;
    tables_[start] = Table{is_l1, /*live=*/true};
  }
  // Tables must start out as fault entries (recycled ones still hold their
  // previous owner's descriptors).
  for (u32 off = 0; off < bytes; off += 4) ram_.write32(start + off, 0);
  bytes_live_ += bytes;
  return start;
}

void PageTableAllocator::free_table(paddr_t pa, bool is_l1, u32 bytes) {
  auto it = tables_.find(pa);
  MINOVA_CHECK_MSG(it != tables_.end() && it->second.is_l1 == is_l1,
                   "free of address not allocated from page-table pool");
  MINOVA_CHECK_MSG(it->second.live, "page-table double free");
  it->second.live = false;
  (is_l1 ? free_l1_ : free_l2_).push_back(pa);
  bytes_live_ -= bytes;
}

paddr_t PageTableAllocator::alloc_l1() {
  return alloc(kL1TableBytes, 16 * kKiB, /*is_l1=*/true);
}
paddr_t PageTableAllocator::alloc_l2() {
  return alloc(kL2TableBytes, 1 * kKiB, /*is_l1=*/false);
}
void PageTableAllocator::free_l1(paddr_t pa) {
  free_table(pa, /*is_l1=*/true, kL1TableBytes);
}
void PageTableAllocator::free_l2(paddr_t pa) {
  free_table(pa, /*is_l1=*/false, kL2TableBytes);
}

AddressSpace::AddressSpace(mem::PhysMem& ram, PageTableAllocator& alloc)
    : ram_(ram), alloc_(alloc), l1_base_(alloc.alloc_l1()) {}

AddressSpace::~AddressSpace() {
  for (const paddr_t l2 : l2_tables_) alloc_.free_l2(l2);
  alloc_.free_l1(l1_base_);
}

u32 AddressSpace::read_l1(u32 index) const {
  return ram_.read32(l1_base_ + index * 4);
}

void AddressSpace::write_l1(u32 index, u32 raw) {
  ram_.write32(l1_base_ + index * 4, raw);
}

void AddressSpace::map_section(vaddr_t va, paddr_t pa, const MapAttrs& attrs) {
  MINOVA_CHECK(is_aligned(va, kSectionSize));
  MINOVA_CHECK(is_aligned(pa, kSectionSize));
  L1Desc d;
  d.type = L1Type::kSection;
  d.section_base = pa;
  d.ap = attrs.ap;
  d.domain = attrs.domain;
  d.ng = attrs.ng;
  d.xn = attrs.xn;
  write_l1(l1_index(va), d.encode());
}

void AddressSpace::map_page(vaddr_t va, paddr_t pa, const MapAttrs& attrs) {
  MINOVA_CHECK(is_aligned(va, kPageSize));
  MINOVA_CHECK(is_aligned(pa, kPageSize));
  const u32 idx1 = l1_index(va);
  L1Desc l1 = L1Desc::decode(read_l1(idx1));
  if (l1.type != L1Type::kPageTable) {
    MINOVA_CHECK_MSG(l1.type == L1Type::kFault,
                     "cannot map a page inside an existing section");
    l1 = L1Desc{};
    l1.type = L1Type::kPageTable;
    l1.l2_base = alloc_.alloc_l2();
    l1.domain = attrs.domain;
    l2_tables_.push_back(l1.l2_base);
    write_l1(idx1, l1.encode());
  }
  L2Desc l2;
  l2.valid = true;
  l2.page_base = pa;
  l2.ap = attrs.ap;
  l2.ng = attrs.ng;
  l2.xn = attrs.xn;
  ram_.write32(l1.l2_base + l2_index(va) * 4, l2.encode());
}

void AddressSpace::map_range(vaddr_t va, paddr_t pa, u32 len,
                             const MapAttrs& attrs) {
  MINOVA_CHECK(is_aligned(va, kPageSize));
  MINOVA_CHECK(is_aligned(pa, kPageSize));
  const u32 pages = u32(align_up(len, kPageSize)) / kPageSize;
  for (u32 i = 0; i < pages; ++i)
    map_page(va + i * kPageSize, pa + i * kPageSize, attrs);
}

bool AddressSpace::unmap_page(vaddr_t va) {
  const u32 idx1 = l1_index(va);
  const L1Desc l1 = L1Desc::decode(read_l1(idx1));
  switch (l1.type) {
    case L1Type::kFault:
      return false;
    case L1Type::kSection:
      write_l1(idx1, 0);
      return true;
    case L1Type::kPageTable: {
      const paddr_t slot = l1.l2_base + l2_index(va) * 4;
      if (!L2Desc::decode(ram_.read32(slot)).valid) return false;
      ram_.write32(slot, 0);
      return true;
    }
  }
  return false;
}

bool AddressSpace::ensure_l2(vaddr_t va, u32 domain) {
  const u32 idx1 = l1_index(va);
  const L1Desc l1 = L1Desc::decode(read_l1(idx1));
  if (l1.type == L1Type::kPageTable) return true;
  if (l1.type == L1Type::kSection) return false;
  L1Desc fresh;
  fresh.type = L1Type::kPageTable;
  fresh.l2_base = alloc_.alloc_l2();
  fresh.domain = domain;
  l2_tables_.push_back(fresh.l2_base);
  write_l1(idx1, fresh.encode());
  return true;
}

bool AddressSpace::protect_page(vaddr_t va, Ap ap) {
  const u32 idx1 = l1_index(va);
  const L1Desc l1 = L1Desc::decode(read_l1(idx1));
  if (l1.type != L1Type::kPageTable) return false;
  const paddr_t slot = l1.l2_base + l2_index(va) * 4;
  L2Desc l2 = L2Desc::decode(ram_.read32(slot));
  if (!l2.valid) return false;
  l2.ap = ap;
  ram_.write32(slot, l2.encode());
  return true;
}

std::optional<paddr_t> AddressSpace::translate_raw(vaddr_t va) const {
  const L1Desc l1 = L1Desc::decode(read_l1(l1_index(va)));
  switch (l1.type) {
    case L1Type::kFault:
      return std::nullopt;
    case L1Type::kSection:
      return l1.section_base | (va & (kSectionSize - 1));
    case L1Type::kPageTable: {
      const L2Desc l2 =
          L2Desc::decode(ram_.read32(l1.l2_base + l2_index(va) * 4));
      if (!l2.valid) return std::nullopt;
      return l2.page_base | (va & (kPageSize - 1));
    }
  }
  return std::nullopt;
}

bool AddressSpace::l1_present(vaddr_t va) const {
  return L1Desc::decode(read_l1(l1_index(va))).type != L1Type::kFault;
}

}  // namespace minova::mmu
