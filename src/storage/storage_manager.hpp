#pragma once

#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "cc/shard_map.hpp"
#include "core/config.hpp"
#include "core/types.hpp"
#include "sim/random.hpp"
#include "sim/scheduler.hpp"
#include "sim/task.hpp"
#include "storage/disk.hpp"
#include "storage/gem_device.hpp"

namespace gemsd::storage {

/// Routes page I/O to the device holding each partition (disk group with or
/// without cache, or GEM) and owns the per-node log devices. Pure device
/// layer: CPU overhead for I/O is charged by the buffer/log managers.
///
/// The global lock/coherency authority is hosted here as a first-class
/// sharded service: `cfg.gem.shards` independent GemDevice servers (each its
/// own k-server station), with a deterministic cc::ShardMap routing page-
/// and entry-granular operations. Shard 0 keeps the name "GEM" and, with
/// shards=1 (the default), every path reduces to the paper's single device
/// bit-identically.
class StorageManager {
 public:
  StorageManager(sim::Scheduler& sched, sim::Rng& rng,
                 const SystemConfig& cfg);

  bool is_gem(PartitionId p) const {
    return cfg_.partitions[static_cast<std::size_t>(p)].storage ==
           StorageKind::Gem;
  }
  StorageKind kind(PartitionId p) const {
    return cfg_.partitions[static_cast<std::size_t>(p)].storage;
  }

  /// Device-level page read; returns true if served from a disk cache (or
  /// GEM — any global-store hit that skips the disk arm).
  sim::Task<bool> read(PageId p);
  /// Device-level durable page write.
  sim::Task<void> write(PageId p);

  // --- GEM page cache (StorageKind::DiskGemCache) ---
  bool has_gem_cache(PartitionId p) const {
    return gem_caches_[static_cast<std::size_t>(p)] != nullptr;
  }
  /// The partition's GEM page cache, a non-volatile DiskCache (null unless
  /// the partition is DiskGemCache).
  DiskCache* gem_cache(PartitionId p) {
    return gem_caches_[static_cast<std::size_t>(p)].get();
  }
  /// Probe the partition's GEM cache (caller holds a CPU): one GEM entry
  /// access for the directory plus a page access when found.
  sim::Task<bool> gem_cache_probe(PageId p);
  /// Stage a page into the GEM cache (one page access; caller holds a CPU);
  /// a displaced dirty victim destages to disk asynchronously.
  sim::Task<void> gem_cache_insert(PageId p, bool dirty);
  /// Read the page from the underlying disk group, bypassing the GEM cache.
  sim::Task<void> disk_read(PageId p);
  /// Append one log page to a node's log (disk or GEM per config).
  sim::Task<void> log_write(NodeId n);
  bool log_on_gem() const { return cfg_.log_storage == StorageKind::Gem; }

  // --- sharded GEM authority ---
  GemDevice& gem(int shard = 0) {
    return *gems_[static_cast<std::size_t>(shard)];
  }
  const GemDevice& gem(int shard = 0) const {
    return *gems_[static_cast<std::size_t>(shard)];
  }
  /// Shard hosting page p's GLT entry / GEM-resident page slot.
  GemDevice& gem_for(PageId p) {
    return *gems_[static_cast<std::size_t>(gem_map_.shard_of(p))];
  }
  /// Shard hosting node n's per-node GEM state (message mailbox, GEM log).
  GemDevice& gem_for_node(NodeId n) {
    return *gems_[static_cast<std::size_t>(gem_map_.shard_of_node(n))];
  }
  int gem_shards() const { return static_cast<int>(gems_.size()); }
  const cc::ShardMap& gem_map() const { return gem_map_; }

  DiskGroup* group(PartitionId p) {
    return groups_[static_cast<std::size_t>(p)].get();  // null if GEM
  }
  /// Per-node log device, built on first use: at 256+ nodes with GEM-resident
  /// logs, eagerly constructing a DiskGroup (two Resources + queues) per node
  /// is pure waste — an untouched group reports all-zero stats anyway.
  DiskGroup& log_group(NodeId n);
  /// The log group without building it, for observation: null when the node
  /// never logged to disk (report zeros; identical to an eagerly built idle
  /// group).
  DiskGroup* log_group_if_built(NodeId n) {
    return logs_[static_cast<std::size_t>(n)].get();
  }
  /// Invoked whenever a lazy log group is first constructed (observability
  /// wiring: wait-sketch attachment). Pure observation — the hook must not
  /// mutate simulation state.
  void set_group_built_hook(std::function<void(DiskGroup&)> hook) {
    group_built_hook_ = std::move(hook);
  }

  void reset_stats();

 private:
  sim::Task<void> destage_from_gem(PageId p);

  sim::Scheduler& sched_;
  sim::Rng& rng_;
  const SystemConfig& cfg_;
  std::vector<std::unique_ptr<GemDevice>> gems_;  // cfg.gem.shards stations
  cc::ShardMap gem_map_;
  std::vector<std::unique_ptr<DiskGroup>> groups_;  // per partition
  std::vector<std::unique_ptr<DiskCache>> gem_caches_;
  std::vector<std::unique_ptr<DiskGroup>> logs_;    // per node, lazily built
  std::function<void(DiskGroup&)> group_built_hook_;
};

}  // namespace gemsd::storage
