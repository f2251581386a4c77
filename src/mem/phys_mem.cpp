#include "mem/phys_mem.hpp"

#include <algorithm>
#include <cstring>

#include "util/fnv.hpp"

namespace minova::mem {

PhysMem::PhysMem(paddr_t base, u32 size) : base_(base), size_(size) {
  MINOVA_CHECK(is_aligned(base, kFrameSize));
  MINOVA_CHECK(is_aligned(size, kFrameSize));
  frames_.resize(size / kFrameSize);
}

u8* PhysMem::frame_for(paddr_t pa) const {
  MINOVA_CHECK_MSG(contains(pa), "physical access outside RAM window");
  const u32 idx = (pa - base_) / kFrameSize;
  if (!frames_[idx]) {
    frames_[idx] = std::make_unique<u8[]>(kFrameSize);
    std::memset(frames_[idx].get(), 0, kFrameSize);
  }
  return frames_[idx].get();
}

namespace {
template <typename T>
T load(const u8* frame, u32 off) {
  T v;
  std::memcpy(&v, frame + off, sizeof(T));
  return v;
}
}  // namespace

// An aligned word never straddles a frame.
u32 PhysMem::read32(paddr_t pa) const {
  MINOVA_CHECK(is_aligned(pa, 4));
  return load<u32>(frame_for(pa), (pa - base_) % kFrameSize);
}
void PhysMem::write32(paddr_t pa, u32 v) {
  MINOVA_CHECK(is_aligned(pa, 4));
  std::memcpy(frame_for(pa) + (pa - base_) % kFrameSize, &v, sizeof v);
}

void PhysMem::read_block(paddr_t pa, std::span<u8> out) const {
  std::size_t done = 0;
  while (done < out.size()) {
    const paddr_t cur = pa + paddr_t(done);
    const u32 off = (cur - base_) % kFrameSize;
    const std::size_t chunk =
        std::min<std::size_t>(kFrameSize - off, out.size() - done);
    std::memcpy(out.data() + done, frame_for(cur) + off, chunk);
    done += chunk;
  }
}

void PhysMem::write_block(paddr_t pa, std::span<const u8> in) {
  std::size_t done = 0;
  while (done < in.size()) {
    const paddr_t cur = pa + paddr_t(done);
    const u32 off = (cur - base_) % kFrameSize;
    const std::size_t chunk =
        std::min<std::size_t>(kFrameSize - off, in.size() - done);
    std::memcpy(frame_for(cur) + off, in.data() + done, chunk);
    done += chunk;
  }
}

void PhysMem::discard(paddr_t pa, u32 len) {
  MINOVA_CHECK_MSG(contains(pa, len), "discard outside RAM window");
  ++discard_epoch_;
  u64 off = pa - base_;
  const u64 end = off + len;
  while (off < end) {
    const std::size_t idx = off / kFrameSize;
    const u64 in_frame = off % kFrameSize;
    const u64 chunk = std::min<u64>(kFrameSize - in_frame, end - off);
    if (chunk == kFrameSize)
      frames_[idx].reset();
    else if (frames_[idx])
      std::memset(frames_[idx].get() + in_frame, 0, chunk);
    off += chunk;
  }
}

u64 PhysMem::content_digest() const {
  constexpr u32 kWords = kFrameSize / sizeof(u64);
  util::Fnv1a h;
  for (std::size_t i = 0; i < frames_.size(); ++i) {
    if (!frames_[i]) continue;
    const u8* f = frames_[i].get();
    if (std::all_of(f, f + kFrameSize, [](u8 b) { return b == 0; })) continue;
    h.mix(u64(base_) + i * kFrameSize);
    for (u32 w = 0; w < kWords; ++w) h.mix(load<u64>(f, w * sizeof(u64)));
  }
  return h.h;
}

std::size_t PhysMem::resident_frames() const {
  std::size_t n = 0;
  for (const auto& f : frames_)
    if (f) ++n;
  return n;
}

}  // namespace minova::mem
