// Simulated physical RAM.
//
// Backed by demand-allocated 4 KB frames so a 512 MB guest-visible DRAM
// costs only what the experiments actually touch. All kernel and guest data
// structures that matter for timing (page tables, vCPU save areas, workload
// buffers, bitstream images) live in this memory and are accessed through
// the cache model, which is what makes the Table III shapes emerge rather
// than being hard-coded.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "util/assert.hpp"
#include "util/types.hpp"

namespace minova::mem {

class PhysMem {
 public:
  /// `base`/`size` describe the physical window this RAM object backs.
  PhysMem(paddr_t base, u32 size);

  paddr_t base() const { return base_; }
  u32 size() const { return size_; }
  bool contains(paddr_t pa, u32 len = 1) const {
    return pa >= base_ && u64(pa) + len <= u64(base_) + size_;
  }

  /// Word access; `pa` must be 4-byte aligned.
  u32 read32(paddr_t pa) const;
  void write32(paddr_t pa, u32 v);

  /// Bulk copies (DMA, bitstream load). Cross-frame safe.
  void read_block(paddr_t pa, std::span<u8> out) const;
  void write_block(paddr_t pa, std::span<const u8> in);

  /// Make [pa, pa + len) read as zero: whole frames are released (a
  /// sparse range stays sparse), the partial frames at either end are
  /// zeroed in place. Bumps `discard_epoch()`.
  void discard(paddr_t pa, u32 len);

  /// The host bytes of the already materialized frame holding `pa`, or
  /// nullptr when that frame is not resident. Materializes nothing. The
  /// pointer stays valid while `discard_epoch()` is unchanged: `discard`
  /// is the only operation that frees frames.
  u8* resident_frame(paddr_t pa) const {
    MINOVA_CHECK_MSG(contains(pa), "physical access outside RAM window");
    return frames_[(pa - base_) / kFrameSize].get();
  }
  u64 discard_epoch() const { return discard_epoch_; }

  /// Frames actually materialized (for footprint reporting).
  std::size_t resident_frames() const;

  /// FNV-1a over the address and bytes of every frame that holds a nonzero
  /// byte: what the memory contains, independent of which zero frames a
  /// read happened to materialize. Materializes nothing.
  u64 content_digest() const;

  static constexpr u32 kFrameSize = 4096;

 private:
  using Frame = std::unique_ptr<u8[]>;

  u8* frame_for(paddr_t pa) const;  // allocates zero-filled on first touch

  paddr_t base_;
  u32 size_;
  mutable std::vector<Frame> frames_;
  u64 discard_epoch_ = 0;
};

}  // namespace minova::mem
