#include "ucos/system.hpp"

namespace minova::ucos {

VirtualizedSystem::VirtualizedSystem(const SystemConfig& cfg)
    : platform_(cfg.platform), kernel_(platform_, cfg.kernel),
      manager_(kernel_) {
  manager_.install();  // one above the guests' priority (paper §IV.E)
  for (u32 i = 0; i < cfg.num_guests; ++i) {
    GuestConfig gc = cfg.guest_template;
    gc.vm_index = i;
    gc.seed = cfg.seed * 1000 + i;
    auto guest =
        std::make_unique<UcosGuest>(platform_.task_library(), gc);
    UcosGuest* raw = guest.get();
    kernel_.create_vm("vm" + std::to_string(i), /*priority=*/1,
                      std::move(guest));
    guests_.push_back(raw);
  }
}

workloads::ThwStats VirtualizedSystem::total_thw_stats() const {
  workloads::ThwStats total;
  for (const UcosGuest* g : guests_) {
    if (const workloads::ThwStats* s = g->thw_stats()) {
      total.requests += s->requests;
      total.grants += s->grants;
      total.reconfigs += s->reconfigs;
      total.busy_retries += s->busy_retries;
      total.jobs_completed += s->jobs_completed;
      total.validation_failures += s->validation_failures;
      total.inconsistencies_detected += s->inconsistencies_detected;
      total.fail_status += s->fail_status;
      total.fail_length += s->fail_length;
      total.fail_content += s->fail_content;
    }
  }
  return total;
}

}  // namespace minova::ucos
