#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

#include "sim/flat_map.hpp"

namespace gemsd {

using NodeId = int;
using TxnId = std::uint64_t;
using PartitionId = std::int32_t;
using SeqNo = std::uint64_t;

constexpr NodeId kNoNode = -1;

/// A database page: (partition, page number within partition).
struct PageId {
  PartitionId partition = 0;
  std::int64_t page = 0;

  friend bool operator==(const PageId&, const PageId&) = default;
  friend auto operator<=>(const PageId&, const PageId&) = default;

  /// Packed key for hash maps (partition in the top 16 bits).
  std::uint64_t key() const {
    return (static_cast<std::uint64_t>(static_cast<std::uint16_t>(partition))
            << 48) |
           (static_cast<std::uint64_t>(page) & 0xffffffffffffULL);
  }
};

/// Sentinel page number: "append to this node's current tail page" (used for
/// sequential files such as debit-credit HISTORY whose target page is only
/// known at execution time).
constexpr std::int64_t kAppendPage = -1;

/// Lock modes: Read (shared), Update (read now, intends to write — shared
/// with readers but exclusive among updaters, the classic cure for
/// read-then-write upgrade deadlocks), Write (exclusive). One byte, so a
/// lock request packs into 16 (cc::LockTable::Request).
enum class LockMode : std::uint8_t { Read, Update, Write };
inline constexpr std::size_t kLockModes = 3;

inline bool lock_compatible(LockMode a, LockMode b) {
  if (a == LockMode::Write || b == LockMode::Write) return false;
  if (a == LockMode::Update && b == LockMode::Update) return false;
  return true;  // R-R, R-U, U-R
}

/// Mode ordering for upgrade decisions: Read < Update < Write.
inline int lock_strength(LockMode m) {
  switch (m) {
    case LockMode::Read: return 0;
    case LockMode::Update: return 1;
    case LockMode::Write: return 2;
  }
  return 0;
}
inline bool lock_covers(LockMode held, LockMode requested) {
  return lock_strength(held) >= lock_strength(requested);
}

/// Update propagation strategy between buffer and permanent database [HR83].
enum class UpdateStrategy {
  Force,    ///< all modified pages written to storage before commit
  NoForce,  ///< only log at commit; dirty pages written on eviction
};

enum class Routing {
  Random,    ///< load-balancing only (round robin)
  Affinity,  ///< affinity-based: maximize node-specific locality
};

/// Concurrency/coherency control scheme = coupling mode.
enum class Coupling {
  GemLocking,   ///< close coupling: global lock table in GEM
  PrimaryCopy,  ///< loose coupling: primary copy locking (PCL)
  LockEngine,   ///< [Yu87]: central lock engine + broadcast invalidation
};

/// Where a database partition (or the log) is allocated.
enum class StorageKind {
  Disk,              ///< plain magnetic disks
  DiskVolatileCache, ///< disks behind a shared volatile cache (read hits)
  DiskNvCache,       ///< disks behind a shared non-volatile cache (read+write)
  DiskGemCache,      ///< disks behind a global page cache resident in GEM
                     ///< (non-volatile: absorbs writes; [DIRY89/DDY91]-style
                     ///< intermediate memory, or a small GEM write buffer)
  Gem,               ///< file resident in Global Extended Memory
};

const char* to_string(UpdateStrategy s);
const char* to_string(Routing r);
const char* to_string(Coupling c);
const char* to_string(StorageKind k);

}  // namespace gemsd

template <>
struct std::hash<gemsd::PageId> {
  std::size_t operator()(const gemsd::PageId& p) const noexcept {
    return static_cast<std::size_t>(gemsd::sim::mix64(p.key()));
  }
};
