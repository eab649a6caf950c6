#pragma once

#include <cstdint>

#include "core/lru.hpp"
#include "core/types.hpp"
#include "sim/stats.hpp"

namespace gemsd::storage {

/// Shared disk cache at the disk-controller level, following the management
/// of commercial (IBM) caches [Gr89]: LRU replacement; a volatile cache
/// satisfies read hits only, a non-volatile cache additionally absorbs
/// writes (the disk copy is updated asynchronously by the disk group's
/// destage process). Because the cache sits below all nodes it acts as a
/// global database buffer shared by the whole cluster.
///
/// A non-volatile DiskCache is also the content of a GEM-resident page cache
/// in front of a disk group (StorageKind::DiskGemCache; Section 2's
/// "caching database pages at an intermediate storage level", the
/// [DIRY89/DDY91] Shared Intermediate Memory). Timing is not modelled here:
/// StorageManager accounts the device accesses.
class DiskCache {
 public:
  DiskCache(std::size_t capacity_pages, bool nonvolatile)
      : lru_(capacity_pages), nonvolatile_(nonvolatile) {}

  bool nonvolatile() const { return nonvolatile_; }
  std::size_t size() const { return lru_.size(); }

  /// Read lookup; promotes on hit.
  bool read_hit(PageId p) {
    const bool hit = lru_.touch(p) != nullptr;
    (hit ? hits_ : misses_).inc();
    return hit;
  }

  struct EvictedDirty {
    bool any = false;
    PageId page{};
  };

  /// Install a page (clean: staged in on a read miss or written through;
  /// dirty: absorbed write in a non-volatile cache). Returns a dirty page
  /// pushed out by LRU replacement, which the caller must destage.
  EvictedDirty install(PageId p, bool dirty);

  /// Mark a page clean after its destage completed (no-op if replaced).
  void destaged(PageId p) {
    if (bool* d = lru_.peek(p)) *d = false;
  }

  bool contains(PageId p) const { return lru_.contains(p); }
  std::uint64_t hits() const { return hits_.value(); }
  std::uint64_t misses() const { return misses_.value(); }
  void reset_stats() {
    hits_.reset();
    misses_.reset();
  }

 private:
  LruMap<bool> lru_;  // value: dirty flag
  bool nonvolatile_;
  sim::Counter hits_, misses_;
};

}  // namespace gemsd::storage
