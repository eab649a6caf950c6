#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace gemsd::obs {

struct JsonValue;

/// Trace replay (tools/gemsd_analyze): one pass over a trace answers "where
/// did the response time of the slow transactions actually go?" and checks
/// the trace against the simulator's own counters. The critical path
/// classifies every second of each committed transaction's wall response
/// time — including lock waits resolved to what the *holder* was doing at
/// that moment, message round trips, and restart backoff — so the per-class
/// seconds of one transaction sum to its traced response time by
/// construction. The same pass sums the simulator's phase totals (reconciled
/// against a results document's breakdown_ms), totals lock waits per page and
/// wait edges per node pair, and replays the wait-for graph, whose cycle count
/// cross-checks the deadlock counter.
///
/// Everything here is deterministic: same events in, same bytes out, at any
/// --jobs value (each simulation owns its recorder).

/// Wall-clock seconds of one transaction (or a sum over many) classified by
/// what the transaction was waiting on. The top-level classes partition the
/// response time; the lock_holder_* fields subdivide lock_wait_s by the
/// blocking holder's concurrent activity (scaled 1/|holders| under shared
/// blocking) and sum to lock_wait_s, not on top of it.
struct CritBreakdown {
  double cpu_s = 0;        ///< processor service
  double cpu_wait_s = 0;   ///< processor queueing (kCpu span's wait prefix)
  double mpl_wait_s = 0;   ///< input queue, waiting for an MPL slot
  double io_s = 0;         ///< device reads/writes/log outside commit
  double commit_io_s = 0;  ///< commit phase 1 (log force + FORCE writes)
  double page_fetch_s = 0; ///< direct page transfers from the owning node
  double gem_s = 0;        ///< GLT entry accesses in GEM (kGemAccess)
  double lock_wait_s = 0;  ///< blocked lock requests (total)
  // lock_wait_s by concurrent holder activity (blocking chain, one level):
  double lock_holder_cpu_s = 0;    ///< holder on / queued for a processor
  double lock_holder_io_s = 0;     ///< holder in disk I/O or a page fetch
  double lock_holder_lock_s = 0;   ///< holder itself blocked on a lock
  double lock_holder_gem_s = 0;    ///< holder accessing the GLT in GEM
  double lock_holder_other_s = 0;  ///< holder between spans (messages, ...)
  double lock_unattributed_s = 0;  ///< no live wait-for edge (grant delivery)
  double msg_s = 0;     ///< gaps overlapping message processing at the node
  double backoff_s = 0; ///< restart delay after a deadlock abort
  double other_s = 0;   ///< uncovered remainder (e.g. pre-window activity)

  /// Sum of the top-level classes — reconciles with the traced response.
  double total_s() const {
    return cpu_s + cpu_wait_s + mpl_wait_s + io_s + commit_io_s +
           page_fetch_s + gem_s + lock_wait_s + msg_s + backoff_s + other_s;
  }
  void add(const CritBreakdown& o);
};

/// One committed transaction's critical path.
struct TxnCritPath {
  std::uint64_t id = 0;
  int node = -1;
  double arrival_s = 0;
  double response_s = 0;  ///< traced txn span duration
  int restarts = 0;
  CritBreakdown path;     ///< path.total_s() == response_s (up to fp error)
};

/// Per-node critical-path sums over that node's committed transactions.
struct NodeCrit {
  int node = -1;
  std::uint64_t txns = 0;
  double response_s = 0;
  CritBreakdown sum;
};

/// Per-partition contention totals from the page-scoped spans on committed
/// transactions' critical paths.
struct PartitionCrit {
  std::int32_t partition = 0;
  std::uint64_t lock_waits = 0;
  double lock_wait_s = 0;
  double page_fetch_s = 0;
  double io_s = 0;
};

/// One response-time cohort ("all", "<=p50", "p50-p90", "p90-p99", ">p99"):
/// which classes dominate the transactions in that latency band. Cohort
/// bounds come from a histogram of the traced response times, so "what
/// dominates the p99 cohort" is a direct read.
struct CohortCrit {
  std::string label;
  double lo_s = 0, hi_s = 0;  ///< response-time band [lo, hi)
  std::uint64_t txns = 0;
  double response_s = 0;  ///< summed response of the cohort's transactions
  CritBreakdown sum;
};

/// One contended page: how often and how long transactions blocked on it.
struct HotPage {
  std::int32_t partition = 0;
  std::int64_t page = 0;
  std::uint64_t waits = 0;
  double wait_s = 0;
};

/// Wait-for edges aggregated by (waiter node, holder node) — the paper's
/// local vs remote conflict signal.
struct ConflictPair {
  int waiter_node = -1;
  int holder_node = -1;
  std::uint64_t edges = 0;
};

struct CritPathAnalysis {
  std::uint64_t events = 0;
  std::uint64_t events_dropped = 0;
  std::uint64_t txns = 0;       ///< committed transactions profiled
  std::uint64_t restarts = 0;
  double response_s = 0;        ///< summed traced response time
  CritBreakdown total;          ///< summed over all committed transactions

  double p50_ms = 0, p90_ms = 0, p99_ms = 0;  ///< response percentiles

  std::vector<NodeCrit> nodes;            ///< ascending node id
  std::vector<PartitionCrit> partitions;  ///< lock_wait_s desc
  std::vector<CohortCrit> cohorts;        ///< all, <=p50, p50-p90, p90-p99, >p99

  /// Per-txn reconciliation: |path.total_s() - response_s| / response_s.
  std::uint64_t txns_within_tol = 0;  ///< within 1%
  double worst_rel_err = 0;

  /// The simulator's PhaseTotal records summed over the trace (cpu,
  /// cpu_wait, io, cc, queue): the exact per-txn seconds that
  /// Metrics::breakdown_* averages.
  std::array<double, 5> phase_s{};

  std::vector<HotPage> hot_pages;       ///< wait_s desc, then (part, page)
  std::vector<ConflictPair> conflicts;  ///< edges desc, then pair

  // Wait-for graph replay: wait.edge batches are applied in trace order,
  // edges retire when their waiter is granted (lock.grant, lock.wait span),
  // aborted (deadlock instant) or finishes (commit/restart); a cycle is
  // counted when a batch closes one — the same check the simulator runs, so
  // `cycles` cross-checks the deadlock counter.
  std::uint64_t wait_edges = 0;
  std::uint64_t cycles = 0;
  std::uint64_t deadlock_instants = 0;  ///< kDeadlock events seen
};

/// Replay a trace (record order, as TraceRecorder::take() returns it, or
/// parse_chrome_trace output — message spans from an imported trace all carry
/// kMsgSend and are treated uniformly). `dropped` is the ring's overwrite
/// count; a nonzero value means early spans may be missing and their time
/// lands in the `other` class.
CritPathAnalysis critical_path(const std::vector<TraceEvent>& events,
                               std::uint64_t dropped);

/// Human-readable report (deterministic bytes).
std::string format_critical_path(const CritPathAnalysis& a, int top_k = 10);

/// "gemsd.critpath.v1" document (schemas/critpath.schema.json).
std::string critical_path_json(const CritPathAnalysis& a);

/// One phase bucket of the trace-vs-reported cross-check.
struct ReconcileLine {
  std::string phase;        ///< "cpu", "cpu_wait", "io", "cc", "queue"
  double trace_ms = 0;      ///< per-txn mean from the trace's PhaseTotals
  double reported_ms = 0;   ///< breakdown_ms from the results file
  double rel_err = 0;       ///< |trace - reported| / max(reported, eps)
};

struct Reconciliation {
  std::vector<ReconcileLine> lines;
  double worst_rel_err = 0;
  bool ok = false;  ///< every line within tolerance
};

/// Cross-check the summed phase totals against one run's "metrics" object
/// from a gemsd.results.v1 document (per-txn means, breakdown_ms keys).
Reconciliation reconcile(const CritPathAnalysis& a, const JsonValue& metrics,
                         double tolerance = 0.01);

std::string format_reconciliation(const Reconciliation& r);

}  // namespace gemsd::obs
