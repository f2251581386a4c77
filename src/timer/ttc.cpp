#include "timer/ttc.hpp"

#include "util/assert.hpp"

namespace minova::timer {

Ttc::Ttc(sim::Clock& clock, sim::EventQueue& events, irq::Gic& gic,
         u32 irq_base)
    : clock_(clock), events_(events), gic_(gic), irq_base_(irq_base) {}

void Ttc::start_interval(u32 ch, u32 interval, u32 prescale) {
  MINOVA_CHECK(ch < kChannels);
  MINOVA_CHECK(interval > 0);
  stop(ch);
  Channel& c = chan_[ch];
  c.running = true;
  c.interval = interval;
  c.prescale = prescale;
  arm(ch);
}

void Ttc::stop(u32 ch) {
  MINOVA_CHECK(ch < kChannels);
  Channel& c = chan_[ch];
  events_.cancel(c.event);  // a no-op once the event fired
  c.running = false;
}

void Ttc::arm(u32 ch) {
  Channel& c = chan_[ch];
  const cycles_t period = cycles_t(c.interval) << (c.prescale + 1);
  c.event = events_.schedule_at(clock_.now() + period, [this, ch] {
    Channel& cc = chan_[ch];
    ++cc.expirations;
    gic_.raise(irq_base_ + ch);
    if (cc.running) arm(ch);
  });
}

}  // namespace minova::timer
