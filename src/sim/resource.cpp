#include "sim/resource.hpp"

#include <cassert>
#include <utility>

namespace gemsd::sim {

Resource::Resource(Scheduler& sched, int capacity, std::string name)
    : sched_(sched), cap_(capacity), name_(std::move(name)) {
  assert(capacity > 0);
}

void Resource::grant_now() {
  ++busy_;
  busy_tw_.set(sched_.now(), static_cast<double>(busy_));
}

void Resource::release() {
  assert(busy_ > 0);
  ++completions_;
  if (!q_.empty()) {
    // Hand the slot directly to the oldest waiter; busy count is unchanged.
    auto h = q_.front().h;
    q_.pop_front();
    qlen_tw_.set(sched_.now(), static_cast<double>(q_.size()));
    sched_.schedule(sched_.now(), h);
  } else {
    --busy_;
    busy_tw_.set(sched_.now(), static_cast<double>(busy_));
  }
}

Task<double> Resource::queue_and_hold(SimTime service) {
  const double wait = co_await acquire();
  co_await sched_.delay(service);
  release();
  co_return wait;
}

void Resource::reset_stats() {
  const SimTime now = sched_.now();
  busy_tw_.reset(now);
  qlen_tw_.reset(now);
  wait_ = MeanStat{};
  arrivals_ = 0;
  completions_ = 0;
  waited_s_ = 0.0;
  queue_max_ = q_.size();
  horizon_start_ = now;
  in_system_at_reset_ = in_system();
}

}  // namespace gemsd::sim
