#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "obs/trace.hpp"

namespace gemsd::obs {

/// Offline trace/metrics analysis (tools/gemsd_analyze): contention
/// attribution, wait-for graph replay, and the trace-vs-results cross-check.
/// Everything here is deterministic — same inputs, same bytes out — so the
/// CLI output can be golden-tested and diffed across machines.

/// Per-node (or cluster-total, node == -1) attribution of simulated time,
/// summed over the committed transactions in the trace. The five phase
/// buckets are the exact per-txn seconds from the PhaseTotal records (the
/// same values Metrics::breakdown_* averages); lock_wait_s / page_fetch_s
/// split the cc bucket by cause, the remainder being GEM / global-lock
/// message rounds and commit processing.
struct NodeAttribution {
  int node = -1;             ///< -1 = whole cluster
  std::uint64_t txns = 0;    ///< committed transaction spans
  std::uint64_t restarts = 0;
  double resp_s = 0;         ///< sum of txn span durations
  double cpu_s = 0;
  double cpu_wait_s = 0;
  double io_s = 0;
  double cc_s = 0;
  double queue_s = 0;
  double lock_wait_s = 0;    ///< part of cc: blocked lock requests
  std::uint64_t lock_waits = 0;
  double page_fetch_s = 0;   ///< part of cc: remote page transfers
  std::uint64_t page_fetches = 0;
  /// cc minus its measured parts: GEM / GLT message rounds, lock-release
  /// processing, commit-time coherency work (never negative; clamped).
  double other_cc_s = 0;
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

struct TraceAnalysis {
  std::uint64_t events = 0;
  std::uint64_t events_dropped = 0;

  NodeAttribution total;                ///< cluster-wide sums
  std::vector<NodeAttribution> nodes;   ///< ascending node id

  std::vector<HotPage> hot_pages;       ///< wait_s desc, then (part, page)
  std::vector<ConflictPair> conflicts;  ///< edges desc, then pair

  // Wait-for graph replay: wait.edge instants are applied in trace order,
  // edges retire when their waiter is granted (lock.wait span), aborted
  // (deadlock instant) or finishes (commit/restart); a cycle is counted when
  // a new waiter's edges close one — the same check the simulator runs, so
  // `cycles` cross-checks the deadlock counter.
  std::uint64_t wait_edges = 0;
  std::uint64_t cycles = 0;
  std::uint64_t deadlock_instants = 0;  ///< kDeadlock events seen
};

/// Analyze a native event stream (record order, as TraceRecorder::take()
/// returns it). `dropped` is the ring's overwrite count — nonzero means spans
/// may be partial and strict reconciliation is off the table.
TraceAnalysis analyze_trace(const std::vector<TraceEvent>& events,
                            std::uint64_t dropped);

/// Parse the text of a "gemsd.trace.v1" Chrome trace document back into
/// native events. traceEvents is converted one element at a time, never
/// held as a parsed tree, and otherData may come before or after it.
/// Spans, instants and message flows all round-trip; per-txn phase args are
/// re-expanded into PhaseTotal records. Presentation metadata ("M" records)
/// and the counter tracks ("C") of older traces stay behind. Returns false
/// with `error` set on malformed JSON (the parser's message) and on
/// documents that are not gemsd traces.
bool parse_chrome_trace(const std::string& text, std::vector<TraceEvent>& out,
                        std::uint64_t& dropped, std::string& error);

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

/// Cross-check the analysis' phase sums against one run's "metrics" object
/// from a gemsd.results.v1 document (per-txn means, breakdown_ms keys).
Reconciliation reconcile(const TraceAnalysis& a, const JsonValue& metrics,
                         double tolerance = 0.01);

/// Human-readable reports (deterministic bytes; used by the CLI and tests).
std::string format_analysis(const TraceAnalysis& a, int top_k);
std::string format_reconciliation(const Reconciliation& r);

}  // namespace gemsd::obs
