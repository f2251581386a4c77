#include "ucos/app.hpp"

namespace minova::ucos {

App::App(Kernel& os, cpu::CodeLayout& code, const hwtask::TaskLibrary& library,
         const GuestConfig& cfg, vaddr_t user, u32 stagger) {
  thw_ = std::make_unique<workloads::ThwWorkload>(
      code.place(768), library, library.ids(), cfg.seed * 977 + 13);
  const u32 period = cfg.thw_period_ticks;
  os.create_task("T_hw", 4, [this, period](TaskCtx& t) {
    const auto r = thw_->run_unit(t.svc());
    if (thw_->at_cycle_boundary())
      t.dly(period);  // paced request cadence (§V.B)
    else if (r == workloads::ThwWorkload::UnitResult::kWaiting)
      t.dly(1);
  });
  gsm_ = std::make_unique<workloads::GsmWorkload>(
      code.place(1024), user + 0x20000 + stagger * 0x4c40, cfg.seed * 31 + 7);
  os.create_task("gsm", 8, [this](TaskCtx& t) {
    gsm_->run_unit(t.svc());
    t.dly(1);  // frame cadence
  });
  adpcm_ = std::make_unique<workloads::AdpcmWorkload>(
      code.place(640), user + 0x40000 + stagger * 0x3c40, 1024,
      cfg.seed * 131 + 5);
  os.create_task("adpcm", 9, [this](TaskCtx& t) {
    adpcm_->run_unit(t.svc());
    // Heavy compression load: run several blocks per tick.
    if (adpcm_->blocks_done() % 4 == 3) t.dly(1);
  });
}

}  // namespace minova::ucos
