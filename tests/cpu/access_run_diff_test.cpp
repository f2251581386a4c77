// Differential test for the run path of the access chain (DESIGN.md §10.2).
//
// Two identical rigs execute the same operation stream. Rig A uses the
// production primitives: `touch_words`, `vread_block`/`vwrite_block` and the
// scalar accessors, which bind RAM host pointers on the micro-TLB and credit
// a line's certain hits in closed form. Rig B runs the reference model that
// lives in this file, as `RefTlb` does for the TLB: every word is one
// scalar access through translate, the hierarchy and the bus, and a block
// is one translate plus one L1D access per cache line. Rig B never binds a
// host pointer and never credits anything in bulk.
//
// After every operation the rigs must agree on the results, the clock, the
// TLB statistics and every slot's LRU stamp, the micro-TLB statistics, the
// L1D/L1I/L2 statistics, residency and dirty bits of the touched lines, the
// device traffic and the DRAM content digest (every 64 steps in the storm).
//
// Rig A's scalar accessors serve a warm word of bound RAM inline
// (`Mmu::bound_hit` + `Cache::try_hit`); the "inline path" cases start from
// such a page and change one thing under it.
//
// The instruction side gets the same treatment: rig A runs `exec_code`,
// which charges a warm region's certain L1I hits in closed form, and rig B
// fetches every line through `access_ifetch`.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "cpu/core.hpp"
#include "mmu/page_table.hpp"
#include "util/rng.hpp"

namespace minova::cpu {
namespace {

using mmu::AccessKind;
using mmu::Ap;
using mmu::DomainMode;
using mmu::MapAttrs;

// ---- layout -----------------------------------------------------------------
constexpr u32 kDramBytes = 32 * kMiB;
constexpr vaddr_t kSectVa = 8 * kMiB;     // 4 identity sections, user RW
constexpr u32 kSections = 4;
constexpr vaddr_t kPageVa = 16 * kMiB;    // 16 scattered 4 KB pages
constexpr u32 kPages = 16;
constexpr paddr_t kPageFrames = 20 * kMiB;
constexpr u32 kHolePage = 9;              // unmapped: translation fault
constexpr u32 kPrivPage = 5;              // privileged-only: user faults
constexpr u32 kDevPage = 12;              // maps the device window's page
constexpr u32 kSharedDevPage = 13;        // RAM page overlapped by a device
constexpr paddr_t kDevPa = 0x4000'0000u;  // outside DRAM
constexpr paddr_t kRamDevOff = 0x800;     // device inside kSharedDevPage
constexpr u32 kDevBytes = 0x40;
constexpr vaddr_t kUnmappedVa = 28 * kMiB;

paddr_t page_frame(u32 p) { return kPageFrames + ((p * 7) % kPages) * 4096; }

/// Deterministic MMIO stub: reads depend on offset and traffic so far.
class StubDevice : public mem::MmioDevice {
 public:
  u32 mmio_read(u32 offset) override {
    return (offset * 0x9E37'79B1u) ^ u32(reads++) ^ last_write;
  }
  void mmio_write(u32 offset, u32 value) override {
    ++writes;
    last_write = value + offset;
  }
  u64 reads = 0;
  u64 writes = 0;
  u32 last_write = 0;
};

struct Rig {
  Rig()
      : dram(0, kDramBytes),
        core(clock, dram, bus),
        alloc(dram, 1 * kMiB, 3 * kMiB) {
    bus.add_ram(&dram);
    bus.add_device(kDevPa, kDevBytes, &dev);
    bus.add_device(page_frame(kSharedDevPage) + kRamDevOff, kDevBytes,
                   &ram_dev);
    // Two spaces: the second maps the page region in reverse order, so a
    // TTBR switch changes which frame a VA reaches.
    for (u32 s = 0; s < 2; ++s) {
      spaces.push_back(std::make_unique<mmu::AddressSpace>(dram, alloc));
      for (u32 i = 0; i < kSections; ++i)
        spaces[s]->map_section(kSectVa + i * kMiB, kSectVa + i * kMiB,
                               MapAttrs{});
      for (u32 p = 0; p < kPages; ++p) {
        if (p == kHolePage) continue;
        const u32 frame = s == 0 ? p : kPages - 1 - p;
        const paddr_t pa = p == kDevPage ? kDevPa : page_frame(frame);
        const Ap ap = p == kPrivPage ? Ap::kPrivOnly : Ap::kFullAccess;
        spaces[s]->map_page(kPageVa + p * 4096, pa,
                            MapAttrs{.ap = ap, .domain = 0, .ng = true,
                                     .xn = false});
      }
    }
    core.mmu().set_dacr(mmu::dacr_set(0, 0, DomainMode::kClient));
    switch_space(0);
    core.mmu().set_enabled(true);
  }

  void switch_space(u32 s) {
    core.mmu().set_ttbr0(spaces[s]->root());
    core.mmu().set_asid(s + 1);
    space = s;
  }

  sim::Clock clock;
  mem::PhysMem dram;
  mem::Bus bus;
  StubDevice dev;
  StubDevice ram_dev;
  Core core;
  mmu::PageTableAllocator alloc;
  std::vector<std::unique_ptr<mmu::AddressSpace>> spaces;
  u32 space = 0;
};

// ---- the reference model (rig B) --------------------------------------------

Core::MemResult external_abort(vaddr_t va, bool write) {
  return Core::MemResult{
      .ok = false,
      .fault = mmu::Fault{.type = mmu::FaultType::kExternalAbort,
                          .address = va,
                          .domain = 0,
                          .write = write,
                          .instruction = false},
      .value = 0};
}

/// One word access, charged the way the access chain defines it.
Core::MemResult ref_access(Core& c, vaddr_t va, bool write, u32 value) {
  const auto tr = c.mmu().translate(
      va, write ? AccessKind::kWrite : AccessKind::kRead, c.privileged());
  c.clock().advance(tr.cost + 1);
  if (!tr.ok())
    return Core::MemResult{.ok = false, .fault = tr.fault, .value = 0};
  if (c.bus().is_device(tr.pa))
    c.clock().advance(c.caches().access_device());
  else
    c.clock().advance(c.caches().access_data(tr.pa, write));
  mem::Bus::Result br;
  u32 out = 0;
  if (write)
    br = c.bus().write32(tr.pa, value);
  else
    br = c.bus().read32(tr.pa, out);
  if (br != mem::Bus::Result::kOk) return external_abort(va, write);
  return Core::MemResult{.ok = true, .fault = {}, .value = out};
}

/// `touch_words` as a word loop; returns the first fault.
Core::MemResult ref_touch(Core& c, vaddr_t va, u32 words, bool write,
                          Core::RunFaults faults) {
  Core::MemResult first;
  for (u32 w = 0; w < words; ++w) {
    const auto r = ref_access(c, va + w * 4, write, 0);
    if (r.ok) continue;
    if (first.ok) first = r;
    if (faults == Core::RunFaults::kStop) break;
  }
  return first;
}

/// A block transfer as one translate and one L1D access per cache line.
Core::MemResult ref_block(Core& c, vaddr_t va, std::span<u8> data,
                          bool write) {
  const u32 line = cache::kL1dGeometry.line_bytes;
  std::size_t done = 0;
  while (done < data.size()) {
    const vaddr_t cur = va + vaddr_t(done);
    const auto tr = c.mmu().translate(
        cur, write ? AccessKind::kWrite : AccessKind::kRead, c.privileged());
    c.clock().advance(tr.cost);
    if (!tr.ok())
      return Core::MemResult{.ok = false, .fault = tr.fault, .value = 0};
    const std::size_t chunk = std::min<std::size_t>(
        {line - tr.pa % line, mmu::kPageSize - cur % mmu::kPageSize,
         data.size() - done});
    c.clock().advance(c.caches().access_data(tr.pa, write));
    mem::PhysMem* ram = c.bus().ram_at(tr.pa, u32(chunk));
    if (ram == nullptr) return external_abort(cur, write);
    if (write)
      ram->write_block(tr.pa, data.subspan(done, chunk));
    else
      ram->read_block(tr.pa, data.subspan(done, chunk));
    done += chunk;
  }
  return Core::MemResult{};
}

/// `exec_code` as one L1I fetch per line plus the pipeline cycles.
void ref_exec(Core& c, const CodeRegion& region, double fraction) {
  const u32 line = cache::kL1iGeometry.line_bytes;
  const u32 run = u32(double(region.lines(line)) * fraction + 0.5);
  for (u32 i = 0; i < run; ++i)
    c.clock().advance(c.caches().access_ifetch(region.base + i * line));
  c.spend_insns(u64(double(region.instructions()) * fraction));
}

// ---- the differential fixture -----------------------------------------------

class AccessRunDiffTest : public ::testing::Test {
 protected:
  void touch(vaddr_t va, u32 words, bool write) {
    for (const auto faults : {Core::RunFaults::kStop, Core::RunFaults::kSkip})
      touch(va, words, write, faults);
  }

  void touch(vaddr_t va, u32 words, bool write, Core::RunFaults faults) {
    const auto ra = a_.core.touch_words(va, words, write, faults);
    const auto rb = ref_touch(b_.core, va, words, write, faults);
    expect_same_result(ra, rb);
    check(va, words * 4);
  }

  void read_block(vaddr_t va, u32 len) {
    std::vector<u8> da(len, 0xEE), db(len, 0xEE);
    const auto ra = a_.core.vread_block(va, da);
    const auto rb = ref_block(b_.core, va, db, /*write=*/false);
    expect_same_result(ra, rb);
    EXPECT_EQ(da, db) << "block read data, va=" << std::hex << va;
    check(va, len);
  }

  void write_block(vaddr_t va, u32 len, u64 seed) {
    std::vector<u8> data(len);
    util::Xoshiro256 fill(seed);
    for (u8& byte : data) byte = u8(fill.next());
    const auto ra = a_.core.vwrite_block(va, data);
    const auto rb = ref_block(b_.core, va, data, /*write=*/true);
    expect_same_result(ra, rb);
    check(va, len);
  }

  /// Returns rig A's result.
  Core::MemResult scalar(vaddr_t va, bool write, u32 value) {
    const auto ra = write ? a_.core.vwrite32(va, value) : a_.core.vread32(va);
    const auto rb = ref_access(b_.core, va, write, value);
    expect_same_result(ra, rb);
    if (!write) {
      EXPECT_EQ(ra.value, rb.value) << "va=" << std::hex << va;
    }
    check(va, 4);
    return ra;
  }

  template <typename Fn>
  void both(Fn&& fn) {
    fn(a_);
    fn(b_);
  }

  static void expect_same_result(const Core::MemResult& a,
                                 const Core::MemResult& b) {
    ASSERT_EQ(a.ok, b.ok);
    if (a.ok) return;
    EXPECT_EQ(a.fault.type, b.fault.type);
    EXPECT_EQ(a.fault.address, b.fault.address);
    EXPECT_EQ(a.fault.write, b.fault.write);
  }

  static void expect_same_cache(const cache::Cache& a, const cache::Cache& b) {
    EXPECT_EQ(a.stats().hits, b.stats().hits) << a.config().name;
    EXPECT_EQ(a.stats().misses, b.stats().misses) << a.config().name;
    EXPECT_EQ(a.stats().evictions, b.stats().evictions) << a.config().name;
    EXPECT_EQ(a.stats().writebacks, b.stats().writebacks) << a.config().name;
    EXPECT_EQ(a.stats().flushes, b.stats().flushes) << a.config().name;
  }

  /// Compare everything the two rigs expose; `va`/`len` name the range the
  /// last operation touched, whose lines are checked for residency.
  void check(vaddr_t va, u32 len) {
    Core& ca = a_.core;
    Core& cb = b_.core;
    ASSERT_EQ(a_.clock.now(), b_.clock.now()) << "clock, va=" << std::hex << va;
    const auto& ta = ca.tlb().stats();
    const auto& tb = cb.tlb().stats();
    EXPECT_EQ(ta.hits, tb.hits);
    EXPECT_EQ(ta.misses, tb.misses);
    EXPECT_EQ(ta.flushes, tb.flushes);
    EXPECT_EQ(ta.asid_flushes, tb.asid_flushes);
    EXPECT_EQ(ta.va_flushes, tb.va_flushes);
    const auto& ea = ca.tlb().entry_array();
    const auto& eb = cb.tlb().entry_array();
    for (std::size_t s = 0; s < ea.size(); ++s) {
      EXPECT_EQ(ea[s].valid, eb[s].valid) << "slot " << s;
      EXPECT_EQ(ea[s].lru, eb[s].lru) << "slot " << s;
    }
    EXPECT_EQ(ca.mmu().micro_stats().hits, cb.mmu().micro_stats().hits);
    EXPECT_EQ(ca.mmu().micro_stats().misses, cb.mmu().micro_stats().misses);
    expect_same_cache(ca.caches().l1d(), cb.caches().l1d());
    expect_same_cache(ca.caches().l1i(), cb.caches().l1i());
    expect_same_cache(ca.caches().l2(), cb.caches().l2());
    // Dirty bits are read by invalidating lines of copies: a dirty line's
    // invalidation reports it, and flushing what remains counts the rest.
    cache::Cache l1d_a = ca.caches().l1d(), l1d_b = cb.caches().l1d();
    cache::Cache l2_a = ca.caches().l2(), l2_b = cb.caches().l2();
    const u32 line = cache::kL1dGeometry.line_bytes;
    for (u64 v = align_down(va, line); v < u64(va) + len; v += line) {
      paddr_t pa = paddr_t(v);
      if (ca.mmu().enabled()) {
        const auto raw = a_.spaces[a_.space]->translate_raw(vaddr_t(v));
        if (!raw) continue;
        pa = *raw;
      }
      EXPECT_EQ(ca.caches().l1d().contains(pa), cb.caches().l1d().contains(pa));
      EXPECT_EQ(ca.caches().l2().contains(pa), cb.caches().l2().contains(pa));
      EXPECT_EQ(l1d_a.invalidate_line(pa), l1d_b.invalidate_line(pa))
          << "L1D dirty bit, pa=" << std::hex << pa;
      EXPECT_EQ(l2_a.invalidate_line(pa), l2_b.invalidate_line(pa))
          << "L2 dirty bit, pa=" << std::hex << pa;
    }
    EXPECT_EQ(l1d_a.flush_all(), l1d_b.flush_all()) << "L1D dirty lines";
    EXPECT_EQ(l2_a.flush_all(), l2_b.flush_all()) << "L2 dirty lines";
    EXPECT_EQ(a_.dev.reads, b_.dev.reads);
    EXPECT_EQ(a_.dev.writes, b_.dev.writes);
    EXPECT_EQ(a_.ram_dev.reads, b_.ram_dev.reads);
    EXPECT_EQ(a_.ram_dev.writes, b_.ram_dev.writes);
    EXPECT_EQ(a_.dram.resident_frames(), b_.dram.resident_frames());
    if (digest_every_op_) check_content();
  }

  void exec(const CodeRegion& region, double fraction) {
    a_.core.exec_code(region, fraction);
    ref_exec(b_.core, region, fraction);
  }

  /// The instruction-side check: clock, every cache's statistics and the
  /// residency of every line of every region in each cache.
  void check_code(std::span<const CodeRegion> regions) {
    ASSERT_EQ(a_.clock.now(), b_.clock.now()) << "clock";
    const cache::MemHierarchy& ha = a_.core.caches();
    const cache::MemHierarchy& hb = b_.core.caches();
    expect_same_cache(ha.l1i(), hb.l1i());
    expect_same_cache(ha.l1d(), hb.l1d());
    expect_same_cache(ha.l2(), hb.l2());
    const u32 line = cache::kL1iGeometry.line_bytes;
    for (const CodeRegion& r : regions) {
      for (u32 i = 0; i < r.lines(line); ++i) {
        const paddr_t pa = r.base + i * line;
        EXPECT_EQ(ha.l1i().contains(pa), hb.l1i().contains(pa)) << pa;
        EXPECT_EQ(ha.l1d().contains(pa), hb.l1d().contains(pa)) << pa;
        EXPECT_EQ(ha.l2().contains(pa), hb.l2().contains(pa)) << pa;
      }
    }
  }

  void check_content() {
    ASSERT_EQ(a_.dram.content_digest(), b_.dram.content_digest());
  }

  /// Rig A serves `va` on the inline path: its probe succeeds, and rig B's
  /// reference translation keeps the rigs in step (each charges one micro
  /// hit and no cycle).
  void expect_inline(vaddr_t va, bool write) {
    const auto kind = write ? AccessKind::kWrite : AccessKind::kRead;
    EXPECT_NE(a_.core.mmu().bound_hit(va, kind, a_.core.privileged()).ptr,
              nullptr)
        << "not served inline, va=" << std::hex << va;
    (void)b_.core.mmu().translate(va, kind, b_.core.privileged());
    check(va, 4);
  }

  /// Bind `va`'s page and warm its line: the next access to `va` takes the
  /// inline path and hits L1D.
  void warm(vaddr_t va) {
    scalar(va, false, 0);  // the slow path binds the page
    scalar(va, false, 0);
    expect_inline(va, false);
  }

  Rig a_;
  Rig b_;
  // The DRAM digest hashes every resident frame; the storm takes it every
  // 64 steps instead of after every operation.
  bool digest_every_op_ = true;
};

// ---- directed cases ---------------------------------------------------------

TEST_F(AccessRunDiffTest, UnalignedStartsAndLineCrossings) {
  for (u32 off = 0; off < 64; off += 4) touch(kSectVa + 0x100 + off, 11, true);
  for (u32 off = 0; off < 64; off += 4) touch(kSectVa + 0x100 + off, 11, false);
  for (u32 off = 1; off < 40; off += 3) {
    write_block(kSectVa + 0x2000 + off, 100 + off, off);
    read_block(kSectVa + 0x2000 + off / 2, 130);
  }
}

TEST_F(AccessRunDiffTest, RunsCrossPagesAndSections) {
  // Page boundaries inside the scattered page region, in both spaces.
  for (u32 s = 0; s < 2; ++s) {
    both([&](Rig& r) { r.switch_space(s); });
    touch(kPageVa + 4096 - 24, 20, true);
    touch(kPageVa + 2 * 4096 - 8, 40, false);
    write_block(kPageVa + 4096 - 300, 3 * 4096, 7 + s);
    read_block(kPageVa + 100, 4 * 4096 + 77);
  }
  // A section boundary.
  touch(kSectVa + kMiB - 64, 40, true);
  write_block(kSectVa + 2 * kMiB - 5000, 9000, 3);
  read_block(kSectVa + 2 * kMiB - 4099, 8200);
}

TEST_F(AccessRunDiffTest, MmuOff) {
  both([](Rig& r) { r.core.mmu().set_enabled(false); });
  touch(kSectVa + 0x40, 30, true);
  touch(kSectVa + 0x40, 30, false);
  write_block(kSectVa + 4090, 5000, 11);
  read_block(kSectVa + 4000, 6000);
  touch(kDevPa, 4, false);  // flat-mapped device window
}

TEST_F(AccessRunDiffTest, FaultMidRun) {
  // Into the translation hole, and across the privileged-only page from
  // user mode; the fault names the first faulting word. Skipping runs go
  // on past it, through the whole faulting page and out the other side.
  touch(kPageVa + kHolePage * 4096 - 40, 30, true);
  read_block(kPageVa + kHolePage * 4096 - 4000, 8000);
  write_block(kPageVa + kHolePage * 4096 - 100, 200, 5);
  both([](Rig& r) { r.core.cpsr().mode = Mode::kUsr; });
  touch(kPageVa + kPrivPage * 4096 - 16, 12, false);
  touch(kPageVa + kPrivPage * 4096 - 16, 1100, true);
  write_block(kPageVa + kPrivPage * 4096 - 64, 128, 6);
  // A domain fault: the whole space's domain goes NoAccess.
  both([](Rig& r) { r.core.mmu().set_dacr(0); });
  touch(kSectVa + kMiB - 4096 - 8, 1030, false);
}

TEST_F(AccessRunDiffTest, DevicePages) {
  // The device window's page: words in the window reach the device, the
  // rest of the page is a bus error. Blocks abort on their first line.
  touch(kPageVa + kDevPage * 4096, 8, true);
  touch(kPageVa + kDevPage * 4096 + 0x20, 8, false);
  touch(kPageVa + kDevPage * 4096 + 0x38, 8, false);
  read_block(kPageVa + kDevPage * 4096 - 64, 200);
  // A RAM page with a device inside is never bound: device words keep
  // reaching the device, however often the page is touched.
  for (int rep = 0; rep < 3; ++rep) {
    touch(kPageVa + kSharedDevPage * 4096 + kRamDevOff - 32, 24, true);
    touch(kPageVa + kSharedDevPage * 4096 + kRamDevOff - 32, 24, false);
  }
  EXPECT_GT(a_.ram_dev.reads, 0u);
  EXPECT_GT(a_.ram_dev.writes, 0u);
}

TEST_F(AccessRunDiffTest, ReadAfterDiscardOfBoundPage) {
  const vaddr_t va = kPageVa + 3 * 4096;
  const paddr_t frame = page_frame(3);
  touch(va, 64, true);   // binds the page
  scalar(va + 8, true, 0xDEAD'BEEFu);
  ASSERT_EQ(scalar(va + 8, false, 0).value, 0xDEAD'BEEFu);
  both([&](Rig& r) { r.dram.discard(frame, 4096); });
  // The binding died with the frame: the read sees the discard's zero
  // (a stale host pointer would read freed memory).
  const auto r = scalar(va + 8, false, 0);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(r.value, 0u);
  touch(va, 64, false);
  scalar(va + 12, true, 7);
}

// ---- the inline path: a bound, warm page, then one change under it ---------

TEST_F(AccessRunDiffTest, InlineHitAfterDiscard) {
  const vaddr_t va = kPageVa + 6 * 4096 + 0x40;
  warm(va);
  scalar(va, true, 0x1234'5678u);
  both([](Rig& r) { r.dram.discard(page_frame(6), 4096); });
  // The frame is gone: the write goes out of line and binds the new frame,
  // and the read after it is inline again.
  scalar(va + 4, true, 0xCAFEu);
  expect_inline(va, false);
  EXPECT_EQ(scalar(va, false, 0).value, 0u);
  EXPECT_EQ(scalar(va + 4, false, 0).value, 0xCAFEu);
  check_content();
}

TEST_F(AccessRunDiffTest, InlineHitAfterDacrFlip) {
  const vaddr_t va = kPageVa + 2 * 4096 + 0x80;
  warm(va);
  both([](Rig& r) { r.core.mmu().set_dacr(0); });  // NoAccess: domain faults
  EXPECT_EQ(scalar(va, false, 0).fault.type, mmu::FaultType::kDomain);
  EXPECT_EQ(scalar(va, true, 1).fault.type, mmu::FaultType::kDomain);
  touch(va, 8, true);
  both([](Rig& r) {
    r.core.mmu().set_dacr(mmu::dacr_set(0, 0, DomainMode::kManager));
  });
  // Manager: no AP check, so even a user access to the privileged page
  // binds and then runs inline.
  expect_inline(va, true);
  scalar(va, true, 2);
  both([](Rig& r) { r.core.cpsr().mode = Mode::kUsr; });
  const vaddr_t priv = kPageVa + kPrivPage * 4096 + 0x20;
  EXPECT_TRUE(scalar(priv, true, 3).ok);
  expect_inline(priv, false);
  EXPECT_EQ(scalar(priv, false, 0).value, 3u);
  both([](Rig& r) {
    r.core.mmu().set_dacr(mmu::dacr_set(0, 0, DomainMode::kClient));
  });
  EXPECT_EQ(scalar(priv, false, 0).fault.type, mmu::FaultType::kPermission);
  EXPECT_TRUE(scalar(va, false, 0).ok);
  check_content();
}

TEST_F(AccessRunDiffTest, UserAccessToPrivPageBoundByPrivilegedAccess) {
  const vaddr_t va = kPageVa + kPrivPage * 4096 + 0x100;
  warm(va);
  scalar(va, true, 0xABCDu);
  both([](Rig& r) { r.core.cpsr().mode = Mode::kUsr; });
  EXPECT_EQ(scalar(va, false, 0).fault.type, mmu::FaultType::kPermission);
  EXPECT_EQ(scalar(va, true, 9).fault.type, mmu::FaultType::kPermission);
  touch(va - 8, 16, false);
  both([](Rig& r) { r.core.cpsr().mode = Mode::kSvc; });
  expect_inline(va, false);
  EXPECT_EQ(scalar(va, false, 0).value, 0xABCDu);
  check_content();
}

TEST_F(AccessRunDiffTest, InlineHitAfterAsidTtbrAndVaFlush) {
  const vaddr_t va = kPageVa + 7 * 4096 + 0x1C;
  // Each rewrite drops the binding: the next access goes out of line and
  // binds again.
  const auto rewrites = {
      +[](Rig& r) { r.core.mmu().set_asid(r.core.mmu().asid()); },
      +[](Rig& r) { r.core.mmu().set_ttbr0(r.core.mmu().ttbr0()); },
      +[](Rig& r) { r.core.mmu().tlb_flush_va(kPageVa + 7 * 4096); },
  };
  for (auto rewrite : rewrites) {
    warm(va);
    scalar(va, true, 5);
    both(rewrite);
    scalar(va, false, 0);
    expect_inline(va, true);
    scalar(va, true, 6);
  }
  // A switch to the other space serves the same VA from another frame.
  both([](Rig& r) { r.switch_space(1); });
  warm(va);
  EXPECT_EQ(scalar(va, false, 0).value, 0u);
  check_content();
}

TEST_F(AccessRunDiffTest, InlineWriteHitsCleanLine) {
  const vaddr_t va = kSectVa + 0x3000 + 0x14;
  warm(va);  // the line is resident and clean
  scalar(va, true, 0x5555u);
  scalar(va + 4, true, 0x6666u);
  both([](Rig& r) { r.clock.advance(r.core.caches().flush_all()); });
  check(va, 4);
  check_content();
}

TEST_F(AccessRunDiffTest, InlineL1dMissWithDirtyVictim) {
  // Bind page 4 through one line, then fill every L1D way of another of
  // its lines' set with dirty section lines (identity-mapped). They are
  // 32 KB apart, a multiple of the 8 KB way size, so their micro-TLB slots
  // (0 and 8) spare page 4's; the section's TLB entry goes in first, since
  // a TLB insert drops every micro entry. The access to that line probes
  // inline, misses L1D and evicts a dirty line to L2.
  const vaddr_t va = kPageVa + 4 * 4096 + 0x200;
  scalar(kSectVa, false, 0);
  warm(kPageVa + 4 * 4096);
  const paddr_t set_pa = page_frame(4) + 0x200;
  const auto dirty_set = [&](u32 seed) {
    for (u32 w = 0; w < 2 * cache::kL1dGeometry.ways; ++w)
      scalar(kSectVa + set_pa % (8 * kKiB) + w * 32 * kKiB, true, seed + w);
  };
  dirty_set(0);
  ASSERT_FALSE(a_.core.caches().l1d().contains(set_pa));
  const u64 writebacks = a_.core.caches().l1d().stats().writebacks;
  expect_inline(va, false);
  scalar(va, false, 0);
  EXPECT_GT(a_.core.caches().l1d().stats().writebacks, writebacks);
  // A write miss on the bound page dirties its new line.
  dirty_set(16);
  ASSERT_FALSE(a_.core.caches().l1d().contains(set_pa));
  expect_inline(va, true);
  scalar(va, true, 0x77u);
  check_content();
}

TEST_F(AccessRunDiffTest, InlineProbeDeclinesWithMmuOff) {
  const vaddr_t va = kPageVa + 10 * 4096 + 0x60;
  warm(va);
  scalar(va, true, 0x11u);
  // With the MMU off the VA is the PA; the live, bound micro entry must
  // not serve it.
  both([](Rig& r) { r.core.mmu().set_enabled(false); });
  scalar(va, true, 0x22u);
  EXPECT_EQ(scalar(va, false, 0).value, 0x22u);
  touch(va, 8, false);
  both([](Rig& r) { r.core.mmu().set_enabled(true); });
  expect_inline(va, false);
  EXPECT_EQ(scalar(va, false, 0).value, 0x11u);
  check_content();
}

TEST(AccessRunDeathTest, UnalignedScalarOnBoundPageTripsCheck) {
  Rig rig;
  const vaddr_t page = kPageVa + 3 * 4096;
  ASSERT_TRUE(rig.core.vwrite32(page + 4092, 1).ok);  // binds the page
  ASSERT_TRUE(rig.core.vread32(page + 4092).ok);
  // Four bytes from 4094 would run past the frame.
  EXPECT_DEATH((void)rig.core.vread32(page + 4094), "MINOVA_CHECK failed");
  EXPECT_DEATH((void)rig.core.vwrite32(page + 2, 0), "MINOVA_CHECK failed");
}

// ---- random storm -----------------------------------------------------------

TEST_F(AccessRunDiffTest, RandomStorm) {
  digest_every_op_ = false;
  util::Xoshiro256 rng(0x0B10'C4ull);
  const auto rand_va = [&]() -> vaddr_t {
    switch (rng.next_below(5)) {
      case 0:
      case 1: return kPageVa + u32(rng.next_below(kPages * 4096));
      case 2: return kSectVa + u32(rng.next_below(kSections * kMiB));
      case 3:  // near a section boundary
        return kSectVa + u32(1 + rng.next_below(kSections - 1)) * kMiB -
               u32(rng.next_below(256));
      default: return kUnmappedVa + u32(rng.next_below(4096));
    }
  };
  for (u64 step = 0; step < 6000; ++step) {
    const u64 op = rng.next_below(100);
    const vaddr_t va = rand_va();
    if (op < 30) {
      touch(align_down(va, 4), u32(rng.next_range(1, 48)), rng.next() & 1,
            rng.next() & 1 ? Core::RunFaults::kSkip : Core::RunFaults::kStop);
    } else if (op < 45) {
      read_block(va, u32(rng.next_range(1, 9000)));
    } else if (op < 58) {
      write_block(va, u32(rng.next_range(1, 9000)), step);
    } else if (op < 78) {
      scalar(align_down(va, 4), rng.next() & 1, u32(rng.next()));
    } else if (op < 84) {
      const u32 s = u32(rng.next_below(2));
      both([&](Rig& r) { r.switch_space(s); });
    } else if (op < 87) {
      both([&](Rig& r) { r.core.mmu().tlb_flush_va(va); });
    } else if (op < 89) {
      both([&](Rig& r) { r.core.mmu().tlb_flush_all(); });
    } else if (op < 93) {
      const Mode m = rng.next() & 1 ? Mode::kUsr : Mode::kSvc;
      both([&](Rig& r) { r.core.cpsr().mode = m; });
    } else if (op < 97) {
      const paddr_t frame =
          rng.next() & 1
              ? page_frame(u32(rng.next_below(kPages)))
              : kSectVa + u32(rng.next_below(kSections * 256)) * 4096;
      both([&](Rig& r) { r.dram.discard(frame, 4096); });
    } else if (op < 98) {
      const bool on = !a_.core.mmu().enabled();
      both([&](Rig& r) { r.core.mmu().set_enabled(on); });
    } else {
      const DomainMode dm =
          rng.next() & 1 ? DomainMode::kNoAccess : DomainMode::kClient;
      both([&](Rig& r) {
        r.core.mmu().set_dacr(mmu::dacr_set(0, 0, dm));
      });
    }
    if (HasFailure()) FAIL() << "diverged at step " << step;
    if (step % 64 == 0) {
      ASSERT_NO_FATAL_FAILURE(check_content()) << step;
    }
  }
  check_content();
  // The fast paths must have been exercised, or this tested nothing.
  EXPECT_GT(a_.core.mmu().micro_stats().hits, 10'000u);
}

// ---- instruction fetch ------------------------------------------------------

TEST_F(AccessRunDiffTest, IfetchWarmRunsKeepReplacementOrder) {
  // Five regions in five fetch-memo slots. A, B, C and D fill the four
  // ways of L1I sets 3-11 and then run warm in that order; A runs warm
  // once more, then E misses in sets 4-11 and evicts one way of each, so
  // the next runs of A to D mix memo hits with refills.
  constexpr paddr_t kCode = kSectVa + 2 * kMiB;
  const CodeRegion a{kCode, 384}, b{kCode + 8 * kKiB + 0x40, 384},
      c{kCode + 16 * kKiB + 0x20, 384}, d{kCode + 24 * kKiB + 0x60, 384},
      e{kCode + 32 * kKiB + 0x80, 384};
  const CodeRegion regions[] = {a, b, c, d, e};
  for (const CodeRegion& r : {a, b, c, d, a, b, c, d, a, e, a, b, c, d}) {
    exec(r, 1.0);
    ASSERT_NO_FATAL_FAILURE(check_code(regions));
    if (HasFailure()) FAIL() << "diverged at region " << std::hex << r.base;
  }
}

TEST_F(AccessRunDiffTest, IfetchStorm) {
  // Code in the identity-mapped sections, so data runs over the same
  // physical lines share L2 with the fetches. L1I has 256 sets of 32-byte
  // lines: regions 8 KB apart alias the same sets (six of them overflow the
  // 4 ways) and the same fetch-memo slot. Skewed ones share some of those
  // sets from other slots. Two regions share a base with different
  // lengths; one overlaps another's lines from a different base.
  constexpr paddr_t kCode = kSectVa + 2 * kMiB;
  std::vector<CodeRegion> regions;
  for (u32 k = 0; k < 6; ++k) regions.push_back({kCode + k * 8 * kKiB, 384});
  for (u32 k = 1; k < 4; ++k)
    regions.push_back({kCode + k * (8 * kKiB + 0x80), 384});
  regions.push_back({kCode, 1024});
  regions.push_back({kCode + 0x60, 200});
  regions.push_back({kCode + 0x1000, 100});
  regions.push_back({kCode + 0x3000, 2048});
  constexpr double kFractions[] = {0.0, 0.3, 0.5, 1.0};
  const u32 line = cache::kL1iGeometry.line_bytes;

  util::Xoshiro256 rng(0xC0DE'F37Cull);
  for (u64 step = 0; step < 5000; ++step) {
    const u64 op = rng.next_below(100);
    const CodeRegion& r = regions[rng.next_below(regions.size())];
    const double fraction = kFractions[rng.next_below(4)];
    if (op < 40) {
      exec(r, fraction);
    } else if (op < 46) {
      for (u32 k = 0; k < 6; ++k) exec(regions[k], 1.0);  // evicts
    } else if (op < 58) {
      touch(r.base, u32(rng.next_range(1, r.bytes / 4)), rng.next() & 1,
            Core::RunFaults::kStop);
    } else if (op < 63) {
      read_block(r.base, r.bytes);
    } else {
      // Warm `r`, change the cache under it, then run it again.
      exec(r, 1.0);
      exec(r, 1.0);
      if (op < 75) {
        const paddr_t pa = r.base + u32(rng.next_below(r.lines(line))) * line;
        both([&](Rig& x) { x.core.caches().l1i().invalidate_line(pa); });
      } else if (op < 80) {
        both([](Rig& x) {
          x.clock.advance(x.core.caches().invalidate_icache());
        });
      } else if (op < 85) {
        both([](Rig& x) { x.clock.advance(x.core.caches().flush_all()); });
      }
      exec(r, fraction);
    }
    check_code(regions);
    if (HasFailure()) FAIL() << "diverged at step " << step << ", op " << op;
  }
  // Both outcomes were exercised: warm runs and evicting ones.
  EXPECT_GT(a_.core.caches().l1i().stats().hits, 5'000u);
  EXPECT_GT(a_.core.caches().l1i().stats().misses, 2'000u);
}

}  // namespace
}  // namespace minova::cpu
