#include "timer/private_timer.hpp"

#include "util/assert.hpp"

namespace minova::timer {

PrivateTimer::PrivateTimer(sim::Clock& clock, sim::EventQueue& events,
                           irq::Gic& gic, u32 irq_id)
    : clock_(clock), events_(events), gic_(gic), irq_id_(irq_id) {}

void PrivateTimer::start(u32 load, bool auto_reload) {
  MINOVA_CHECK_MSG(load > 0, "timer load must be nonzero");
  stop();
  load_ = load;
  auto_reload_ = auto_reload;
  running_ = true;
  arm();
}

void PrivateTimer::stop() {
  events_.cancel(pending_event_);  // a no-op once the event fired
  running_ = false;
}

void PrivateTimer::arm() {
  deadline_ = clock_.now() + cycles_t(load_) * kClockDivider;
  pending_event_ = events_.schedule_at(deadline_, [this] { on_expiry(); });
}

void PrivateTimer::on_expiry() {
  event_flag_ = true;
  ++expirations_;
  gic_.raise(irq_id_);
  if (auto_reload_ && running_) {
    arm();
  } else {
    running_ = false;
  }
}

u32 PrivateTimer::current_value() const {
  if (!running_) return 0;
  const cycles_t now = clock_.now();
  if (now >= deadline_) return 0;
  return u32((deadline_ - now) / kClockDivider);
}

}  // namespace minova::timer
