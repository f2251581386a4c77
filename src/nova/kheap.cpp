#include "nova/kheap.hpp"

#include <algorithm>
#include <array>
#include <span>

#include "mem/phys_mem.hpp"

namespace minova::nova {

KernelHeap::KernelHeap(paddr_t base, u32 size)
    : base_(base), size_(size), next_(base), ctrl_next_(base + size) {
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
  const u32 cls = size_class(bytes);
  const paddr_t recycled = recycle_from(free_lists_, blocks_, cls, align);
  if (recycled != 0) {
    bytes_live_ += cls;
    ++live_blocks_;
    ++alloc_count_;
    return recycled;
  }

  // Bump path — byte-identical to the historical allocator: the watermark
  // advances by the *requested* size, never the rounded class.
  const paddr_t start = paddr_t(align_up(next_, align));
  if (u64(start) + bytes > u64(ctrl_next_)) {
    MINOVA_CHECK_MSG(!abort_on_exhaustion, "kernel heap exhausted");
    return 0;
  }
  next_ = start + bytes;
  blocks_[start] = Block{bytes, cls, /*live=*/true};
  bytes_live_ += cls;
  ++live_blocks_;
  ++alloc_count_;
  return start;
}

paddr_t KernelHeap::recycle_from(FreeLists& lists, Registry& blocks, u32 cls,
                                 u32 align) {
  auto it = lists.find(cls);
  if (it == lists.end()) return 0;
  auto& list = it->second;
  // LIFO, skipping blocks whose address does not satisfy the (rare)
  // stricter-than-class alignment request.
  for (std::size_t i = list.size(); i-- > 0;) {
    const paddr_t pa = list[i];
    if (align != 0 && !is_aligned(pa, align)) continue;
    list.erase(list.begin() + std::ptrdiff_t(i));
    if (list.empty()) lists.erase(it);
    Block& b = blocks.at(pa);
    verify_poison_and_scrub(pa, b.bytes);
    b.live = true;
    ++recycle_count_;
    return pa;
  }
  return 0;
}

void KernelHeap::free(paddr_t pa) {
  release_into(free_lists_, blocks_, pa, "object");
  const Block& b = blocks_.at(pa);
  bytes_live_ -= b.class_bytes;
  --live_blocks_;
  ++free_count_;
}

void KernelHeap::release_into(FreeLists& lists, Registry& blocks, paddr_t pa,
                              const char* region) {
  auto it = blocks.find(pa);
  if (it == blocks.end()) {
    MINOVA_CHECK_MSG(false, region[0] == 'o'
                                ? "free of address not owned by kernel heap"
                                : "free of address not in control region");
  }
  MINOVA_CHECK_MSG(it->second.live, "kernel heap double free");
  it->second.live = false;
  poison(pa, it->second.bytes);
  lists[it->second.class_bytes].push_back(pa);
}

paddr_t KernelHeap::alloc_ctrl(u32 bytes) {
  const u32 cls = size_class(bytes);
  const paddr_t recycled = recycle_from(ctrl_free_, ctrl_blocks_, cls, 0);
  if (recycled != 0) {
    ctrl_bytes_live_ += cls;
    ++ctrl_live_;
    ++alloc_count_;
    return recycled;
  }
  MINOVA_CHECK_MSG(u64(next_) + cls <= u64(ctrl_next_),
                   "kernel heap exhausted (control region)");
  ctrl_next_ -= cls;
  ctrl_blocks_[ctrl_next_] = Block{bytes, cls, /*live=*/true};
  ctrl_bytes_live_ += cls;
  ++ctrl_live_;
  ++alloc_count_;
  return ctrl_next_;
}

void KernelHeap::free_ctrl(paddr_t pa) {
  release_into(ctrl_free_, ctrl_blocks_, pa, "ctrl");
  const Block& b = ctrl_blocks_.at(pa);
  ctrl_bytes_live_ -= b.class_bytes;
  --ctrl_live_;
  ++free_count_;
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
