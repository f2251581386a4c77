#include "workloads/softdsp.hpp"

#include <bit>
#include <cstring>

#include "hwtask/fft_core.hpp"
#include "hwtask/qam_core.hpp"
#include "util/assert.hpp"

namespace minova::workloads {

cycles_t soft_fft(Services& svc, vaddr_t buffer_va, u32 points,
                  const SoftDspCosts& costs) {
  MINOVA_CHECK(is_pow2(points));
  const double before = svc.now_us();

  // Load the frame (real memory traffic through the cache model).
  std::vector<u8> raw(std::size_t(points) * 8);
  if (!svc.read_block(buffer_va, raw)) return 0;

  std::vector<std::complex<float>> x(points);
  std::memcpy(x.data(), raw.data(), raw.size());
  hwtask::FftCore::fft_inplace(x);

  // Charge the compute: N/2 * log2(N) butterflies on the VFP.
  const u32 stages = u32(std::countr_zero(points));
  svc.use_vfp();
  svc.spend_insns(u64(points / 2) * stages * costs.insns_per_butterfly);

  std::memcpy(raw.data(), x.data(), raw.size());
  if (!svc.write_block(buffer_va, raw)) return 0;
  const double after = svc.now_us();
  return cycles_t((after - before) * 660.0);  // us -> cycles at 660 MHz
}

u32 soft_task_equivalent(Services& svc, const hwtask::TaskLibrary& library,
                         hwtask::TaskId task, vaddr_t in_va, u32 in_bytes,
                         vaddr_t out_va, const SoftDspCosts& costs) {
  const hwtask::TaskInfo* info = library.find(task);
  if (info == nullptr || in_bytes == 0) return 0;

  std::vector<u8> in(in_bytes);
  if (!svc.read_block(in_va, in)) return 0;

  // Same behavioral core as the accelerator: the output is bit-identical
  // to the hardware path by construction; only the charged CPU time
  // differs.
  auto core = library.instantiate(task);
  const std::vector<u8> out = core->process(in);

  svc.use_vfp();
  if (info->name.rfind("FFT-", 0) == 0) {
    const u32 points = in_bytes / 8;
    u32 stages = 0;
    while ((1u << (stages + 1)) <= points) ++stages;
    svc.spend_insns(u64(points / 2) * stages * costs.insns_per_butterfly);
  } else {
    svc.spend_insns(u64(out.size() / 8) * costs.insns_per_symbol);
  }

  if (!svc.write_block(out_va, out)) return 0;
  return u32(out.size());
}

}  // namespace minova::workloads
