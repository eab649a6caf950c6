#pragma once

#include <cstdint>

#include "core/types.hpp"

namespace gemsd::cc {

/// Deterministic page/key -> shard routing shared by every authority layer
/// that partitions global state across servers:
///
///   * the sharded GLT (`gem_shards=M`): GemLockProtocol routes every GLT
///     entry operation for page p to StorageManager's GEM shard
///     `shard_of(p)`, so independent lock entries queue on independent
///     k-server stations;
///   * PCL's global lock authorities: the shipped GLA maps
///     (DebitCreditGlaMap, KeyGlaMap, ModGla) are block policies over a node
///     count — `blocked(nodes, keys_per_block)` reproduces them exactly, so
///     both coupling modes share one routing layer.
///
/// Routing is a pure function of (policy, shard count, PageId/key): no
/// simulation state, no randomness — the same reference stream routes the
/// same way at any --jobs count, which is what makes sharded runs
/// deterministic and `shards=1` the oracle (every policy maps everything to
/// shard 0 when shards == 1).
class ShardMap {
 public:
  enum class Policy {
    Hashed,   ///< splitmix64 over PageId::key() — spreads hot pages
    Blocked,  ///< (key / keys_per_block) % shards — contiguous blocks
  };

  /// Hash policy over full page identity (GLT sharding default): adjacent
  /// pages land on different shards, so a run of hot adjacent pages cannot
  /// camp on one lock server.
  static ShardMap hashed(int shards) {
    return ShardMap(Policy::Hashed, shards, 1);
  }

  /// Block policy over a caller-chosen key (GLA partitioning): key k maps to
  /// shard (k / keys_per_block) % shards. With keys_per_block=1 this is the
  /// classic modulo map.
  static ShardMap blocked(int shards, std::int64_t keys_per_block = 1) {
    return ShardMap(Policy::Blocked, shards, keys_per_block);
  }

  int shard_of(PageId p) const {
    if (shards_ == 1) return 0;
    if (policy_ == Policy::Hashed) {
      // std::hash<PageId>, so the shard distribution matches the
      // distribution the directory's hash table sees.
      return static_cast<int>(std::hash<PageId>{}(p) % m());
    }
    return shard_of_key(p.page);
  }

  /// Block routing for an extracted partitioning key (branch number, lock
  /// name hash, ...).
  int shard_of_key(std::int64_t key) const {
    if (shards_ == 1) return 0;
    const auto block = static_cast<std::uint64_t>(key) /
                       static_cast<std::uint64_t>(keys_per_block_);
    return static_cast<int>(block % m());
  }

  /// Node-affine routing (per-node state on a shared substrate: GEM message
  /// mailboxes, GEM-resident logs).
  int shard_of_node(NodeId n) const {
    if (shards_ == 1) return 0;
    return static_cast<int>(static_cast<std::uint64_t>(n) % m());
  }

  int shards() const { return shards_; }
  Policy policy() const { return policy_; }

 private:
  ShardMap(Policy policy, int shards, std::int64_t keys_per_block);

  std::uint64_t m() const { return static_cast<std::uint64_t>(shards_); }

  Policy policy_;
  int shards_;
  std::int64_t keys_per_block_;
};

}  // namespace gemsd::cc
