#pragma once

#include "core/config.hpp"
#include "sim/resource.hpp"
#include "sim/scheduler.hpp"

namespace gemsd::net {

/// Interconnection network: the paper's "simple delay model characterized by
/// a fixed transmission bandwidth" — a single transmission channel whose
/// per-message service time is size/bandwidth.
class Network {
 public:
  Network(sim::Scheduler& sched, const CommConfig& cfg)
      : cfg_(cfg), link_(sched, 1, "net") {}

  sim::Resource::Use transmit(bool long_msg) {
    (long_msg ? long_msgs_ : short_msgs_).inc();
    const double bytes = long_msg ? cfg_.long_bytes : cfg_.short_bytes;
    return link_.use(bytes / cfg_.bandwidth);
  }

  double utilization() const { return link_.utilization(); }
  const sim::Resource& link() const { return link_; }
  /// Mutable station (observability wiring: wait-sketch attachment).
  sim::Resource& link() { return link_; }
  std::uint64_t short_count() const { return short_msgs_.value(); }
  std::uint64_t long_count() const { return long_msgs_.value(); }
  void reset_stats() {
    link_.reset_stats();
    short_msgs_.reset();
    long_msgs_.reset();
  }

 private:
  CommConfig cfg_;
  sim::Resource link_;
  sim::Counter short_msgs_, long_msgs_;
};

}  // namespace gemsd::net
