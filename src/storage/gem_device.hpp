#pragma once

#include <string>

#include "core/config.hpp"
#include "sim/resource.hpp"
#include "sim/scheduler.hpp"

namespace gemsd::storage {

/// Global Extended Memory: a non-volatile, page- and entry-addressable
/// semiconductor store synchronously accessible by every node (Section 2).
///
/// The device only models *timing* (a k-server station with constant service
/// times: 50 µs per page, 2 µs per entry by default); the logical content of
/// GEM-resident structures (global lock table, GEM-resident files) is kept by
/// their owning components. Callers are expected to hold a CPU while
/// awaiting these operations — GEM access is synchronous, the processor is
/// not released (that is the defining property of close coupling).
class GemDevice {
 public:
  /// `name` labels the k-server station ("GEM" for the single device /
  /// shard 0; sharded authorities append the shard index).
  GemDevice(sim::Scheduler& sched, const GemConfig& cfg,
            std::string name = "GEM")
      : cfg_(cfg), server_(sched, cfg.servers, std::move(name)) {}

  /// Transfer one page between main memory and GEM.
  sim::Resource::Use page_access() {
    pages_.inc();
    return server_.use(cfg_.page_access);
  }

  /// Read or write one entry (double-word granularity; Compare&Swap is an
  /// entry write that may fail logically — same timing).
  sim::Resource::Use entry_access() {
    entries_.inc();
    return server_.use(cfg_.entry_access);
  }

  double utilization() const { return server_.utilization(); }
  const sim::Resource& server() const { return server_; }
  /// Mutable station (observability wiring: wait-sketch attachment).
  sim::Resource& server() { return server_; }
  std::uint64_t page_ops() const { return pages_.value(); }
  std::uint64_t entry_ops() const { return entries_.value(); }
  void reset_stats() {
    server_.reset_stats();
    pages_.reset();
    entries_.reset();
  }

 private:
  GemConfig cfg_;
  sim::Resource server_;
  sim::Counter pages_, entries_;
};

}  // namespace gemsd::storage
