// Hardware-task service that grants every request and does nothing: lets
// kernel-level tests create a manager PD without the Hardware Task Manager.
#pragma once

#include "nova/kernel.hpp"

namespace minova::nova::testing {

class NullHwService final : public HwService {
 public:
  HcStatus handle_request(GuestContext&, const HwTaskRequest&, u32&) override {
    return HcStatus::kSuccess;
  }
  HcStatus handle_release(GuestContext&, PdId, hwtask::TaskId) override {
    return HcStatus::kSuccess;
  }
  u32 query_reconfig(PdId) override { return 0; }
};

}  // namespace minova::nova::testing
