#include "storage/storage_manager.hpp"

namespace gemsd::storage {

StorageManager::StorageManager(sim::Scheduler& sched, sim::Rng& rng,
                               const SystemConfig& cfg)
    : sched_(sched),
      rng_(rng),
      cfg_(cfg),
      gem_map_(cc::ShardMap::hashed(cfg.gem.shards)) {
  // The sharded lock/coherency authority: shard 0 keeps the canonical "GEM"
  // station name (shards=1 reproduces the single-device model exactly).
  gems_.reserve(static_cast<std::size_t>(cfg.gem.shards));
  for (int s = 0; s < cfg.gem.shards; ++s) {
    gems_.push_back(std::make_unique<GemDevice>(
        sched, cfg.gem, s == 0 ? "GEM" : "GEM" + std::to_string(s)));
  }
  groups_.reserve(cfg.partitions.size());
  gem_caches_.resize(cfg.partitions.size());
  for (std::size_t i = 0; i < cfg.partitions.size(); ++i) {
    const auto& pc = cfg.partitions[i];
    if (pc.storage == StorageKind::DiskGemCache) {
      gem_caches_[i] = std::make_unique<DiskCache>(
          static_cast<std::size_t>(pc.gem_cache_pages), /*nonvolatile=*/true);
    }
    if (pc.storage == StorageKind::Gem) {
      groups_.push_back(nullptr);
      continue;
    }
    std::unique_ptr<DiskCache> cache;
    if (pc.storage == StorageKind::DiskVolatileCache) {
      cache = std::make_unique<DiskCache>(
          static_cast<std::size_t>(pc.disk_cache_pages), /*nonvolatile=*/false);
    } else if (pc.storage == StorageKind::DiskNvCache) {
      cache = std::make_unique<DiskCache>(
          static_cast<std::size_t>(pc.disk_cache_pages), /*nonvolatile=*/true);
    }
    const int arms = pc.disks_per_unit *
                     (pc.scale_with_nodes ? cfg.nodes : 1);
    groups_.push_back(std::make_unique<DiskGroup>(
        sched, rng, pc.name, std::max(arms, 1),
        DiskGroup::Times{cfg.disk.db_disk, cfg.disk.controller,
                         cfg.disk.transfer},
        std::move(cache)));
  }
  logs_.resize(static_cast<std::size_t>(cfg.nodes));
}

DiskGroup& StorageManager::log_group(NodeId n) {
  auto& slot = logs_[static_cast<std::size_t>(n)];
  if (!slot) {
    slot = std::make_unique<DiskGroup>(
        sched_, rng_, "log" + std::to_string(n),
        cfg_.log_disks_per_node,
        DiskGroup::Times{cfg_.disk.log_disk, cfg_.disk.controller,
                         cfg_.disk.transfer});
    if (group_built_hook_) group_built_hook_(*slot);
  }
  return *slot;
}

sim::Task<bool> StorageManager::read(PageId p) {
  if (is_gem(p.partition)) {
    co_await gem_for(p).page_access();
    co_return true;
  }
  co_return co_await groups_[static_cast<std::size_t>(p.partition)]->read(p);
}

sim::Task<void> StorageManager::write(PageId p) {
  if (is_gem(p.partition)) {
    co_await gem_for(p).page_access();
    co_return;
  }
  co_await groups_[static_cast<std::size_t>(p.partition)]->write(p);
}

sim::Task<void> StorageManager::log_write(NodeId n) {
  if (cfg_.log_storage == StorageKind::Gem) {
    co_await gem_for_node(n).page_access();
    co_return;
  }
  co_await log_group(n).write(PageId{-1, static_cast<std::int64_t>(n)});
}

sim::Task<bool> StorageManager::gem_cache_probe(PageId p) {
  co_await gem_for(p).entry_access();  // cache directory lookup
  auto& cache = *gem_caches_[static_cast<std::size_t>(p.partition)];
  if (!cache.read_hit(p)) co_return false;
  co_await gem_for(p).page_access();  // transfer the cached page to memory
  co_return true;
}

sim::Task<void> StorageManager::gem_cache_insert(PageId p, bool dirty) {
  co_await gem_for(p).page_access();
  auto& cache = *gem_caches_[static_cast<std::size_t>(p.partition)];
  const auto ev = cache.install(p, dirty);
  if (ev.any) sched_.spawn(destage_from_gem(ev.page));
  if (dirty) sched_.spawn(destage_from_gem(p));
}

sim::Task<void> StorageManager::destage_from_gem(PageId p) {
  co_await groups_[static_cast<std::size_t>(p.partition)]->write(p);
  if (auto& c = gem_caches_[static_cast<std::size_t>(p.partition)]) {
    c->destaged(p);
  }
}

sim::Task<void> StorageManager::disk_read(PageId p) {
  co_await groups_[static_cast<std::size_t>(p.partition)]->read(p);
}

void StorageManager::reset_stats() {
  for (auto& g : gems_) g->reset_stats();
  for (auto& g : groups_)
    if (g) g->reset_stats();
  for (auto& c : gem_caches_)
    if (c) c->reset_stats();
  for (auto& l : logs_)
    if (l) l->reset_stats();
}

}  // namespace gemsd::storage
