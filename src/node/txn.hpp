#pragma once

#include <vector>

#include "core/types.hpp"
#include "sim/time.hpp"
#include "workload/workload.hpp"

namespace gemsd::node {

/// Runtime state of one transaction execution attempt.
struct Txn {
  TxnId id = 0;
  NodeId node = kNoNode;
  sim::SimTime arrival = 0.0;  ///< generation time at the SOURCE
  workload::TxnSpec spec;

  /// Pages locked by this transaction, in acquisition order (strict 2PL:
  /// released only at EOT). The mode held is tracked in the lock table.
  std::vector<PageId> held;
  /// Locked pages modified by this transaction (subset of held, unique).
  std::vector<PageId> dirty;
  /// Dirty pages of *unlocked* partitions (e.g. HISTORY) to force at commit.
  std::vector<PageId> dirty_unlocked;

  int restarts = 0;

  // Response time decomposition (accumulated while executing).
  double t_cpu_wait = 0;   ///< queueing for a processor
  double t_cpu = 0;        ///< processor service (incl. synchronous GEM holds)
  double t_io = 0;         ///< storage reads/writes awaited by the txn
  double t_cc = 0;         ///< concurrency control incl. lock waits & remote requests
  double t_queue = 0;      ///< input queue (MPL) waiting

  void note_dirty(PageId p) {
    for (const auto& d : dirty)
      if (d == p) return;
    dirty.push_back(p);
  }
  void note_dirty_unlocked(PageId p) {
    for (const auto& d : dirty_unlocked)
      if (d == p) return;
    dirty_unlocked.push_back(p);
  }
};

}  // namespace gemsd::node
