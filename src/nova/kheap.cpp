#include "nova/kheap.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <span>

#include "mem/phys_mem.hpp"

namespace minova::nova {

KernelHeap::KernelHeap(paddr_t base, u32 size)
    : base_(base),
      size_(size),
      next_(base),
      ctrl_next_(base + size),
      objects_(base, /*down=*/false),
      ctrl_(base + size, /*down=*/true) {
  MINOVA_CHECK(is_aligned(base_, kClassAlign));
  MINOVA_CHECK(is_aligned(u64(base_) + size_, kClassAlign));
}

paddr_t KernelHeap::alloc(u32 bytes, u32 align) {
  return pool_alloc(bytes, align, /*abort_on_exhaustion=*/true);
}

paddr_t KernelHeap::try_alloc(u32 bytes, u32 align) {
  return pool_alloc(bytes, align, /*abort_on_exhaustion=*/false);
}

paddr_t KernelHeap::pool_alloc(u32 bytes, u32 align, bool abort_on_exhaustion) {
  MINOVA_CHECK_MSG(align >= kClassAlign && std::has_single_bit(align),
                   "kernel heap alignment must be a power of two >= 64");
  const u32 cls = size_class(bytes);
  paddr_t pa = recycle(objects_, cls, align);
  if (pa == 0) {
    // Bump path — byte-identical to the historical allocator: the watermark
    // advances by the *requested* size, never the rounded class.
    pa = paddr_t(align_up(next_, align));
    if (u64(pa) + bytes > u64(ctrl_next_)) {
      MINOVA_CHECK_MSG(!abort_on_exhaustion, "kernel heap exhausted");
      return 0;
    }
    next_ = pa + bytes;
    record(objects_, pa, bytes, cls);
  }
  objects_.bytes_live += cls;
  ++objects_.live;
  ++alloc_count_;
  return pa;
}

paddr_t KernelHeap::recycle(Region& r, u32 cls, u32 align) {
  if (cls / kClassAlign >= r.free.size()) return 0;
  auto& list = r.free[cls / kClassAlign];
  // LIFO, skipping blocks whose address does not satisfy the (rare)
  // stricter-than-class alignment request.
  for (std::size_t i = list.size(); i-- > 0;) {
    const paddr_t pa = list[i];
    if (!is_aligned(pa, align)) continue;
    list.erase(list.begin() + std::ptrdiff_t(i));
    Block& b = r.slots[r.offset(pa) / kClassAlign];
    verify_poison_and_scrub(pa, b.bytes);
    b.live = true;
    ++recycle_count_;
    return pa;
  }
  return 0;
}

void KernelHeap::record(Region& r, paddr_t pa, u32 bytes, u32 cls) {
  const u32 slot = r.offset(pa) / kClassAlign;
  if (slot >= r.slots.size()) r.slots.resize(slot + 1);
  r.slots[slot] = Block{bytes, cls, /*live=*/true};
}

void KernelHeap::release(Region& r, paddr_t pa, const char* not_owned) {
  const u32 off = r.offset(pa);
  Block* b = nullptr;
  if (off % kClassAlign == 0 && off / kClassAlign < r.slots.size())
    b = &r.slots[off / kClassAlign];
  MINOVA_CHECK_MSG(b != nullptr && b->class_bytes != 0, not_owned);
  MINOVA_CHECK_MSG(b->live, "kernel heap double free");
  b->live = false;
  poison(pa, b->bytes);
  const u32 k = b->class_bytes / kClassAlign;
  if (k >= r.free.size()) r.free.resize(k + 1);
  r.free[k].push_back(pa);
  r.bytes_live -= b->class_bytes;
  --r.live;
  ++free_count_;
}

void KernelHeap::free(paddr_t pa) {
  release(objects_, pa, "free of address not owned by kernel heap");
}

paddr_t KernelHeap::alloc_ctrl(u32 bytes) {
  const u32 cls = size_class(bytes);
  paddr_t pa = recycle(ctrl_, cls, kClassAlign);
  if (pa == 0) {
    MINOVA_CHECK_MSG(u64(next_) + cls <= u64(ctrl_next_),
                     "kernel heap exhausted (control region)");
    ctrl_next_ -= cls;
    pa = ctrl_next_;
    record(ctrl_, pa, bytes, cls);
  }
  ctrl_.bytes_live += cls;
  ++ctrl_.live;
  ++alloc_count_;
  return pa;
}

void KernelHeap::free_ctrl(paddr_t pa) {
  release(ctrl_, pa, "free of address not in control region");
}

// Poison and scrub are uncharged host work: they move whole chunks through
// one stack buffer instead of a PhysMem call per word.
namespace {
constexpr u32 kChunkWords = 64;
using Chunk = std::array<u32, kChunkWords>;

std::span<u8> chunk_bytes(Chunk& buf, u32 words) {
  return {reinterpret_cast<u8*>(buf.data()), std::size_t(words) * 4};
}
}  // namespace

void KernelHeap::poison(paddr_t pa, u32 bytes) {
  if (ram_ == nullptr) return;
  MINOVA_CHECK(is_aligned(pa, 4));
  Chunk buf;
  buf.fill(kPoisonWord);
  for (u32 words = bytes / 4; words > 0;) {
    const u32 n = std::min(words, kChunkWords);
    ram_->write_block(pa, chunk_bytes(buf, n));
    pa += n * 4;
    words -= n;
  }
}

void KernelHeap::verify_poison_and_scrub(paddr_t pa, u32 bytes) {
  if (ram_ == nullptr) return;
  MINOVA_CHECK(is_aligned(pa, 4));
  Chunk buf;
  for (u32 words = bytes / 4; words > 0;) {
    const u32 n = std::min(words, kChunkWords);
    ram_->read_block(pa, chunk_bytes(buf, n));
    for (u32 w = 0; w < n; ++w)
      MINOVA_CHECK_MSG(buf[w] == kPoisonWord,
                       "freed kernel object was modified (use after free)");
    buf.fill(0);
    ram_->write_block(pa, chunk_bytes(buf, n));
    pa += n * 4;
    words -= n;
  }
}

}  // namespace minova::nova
