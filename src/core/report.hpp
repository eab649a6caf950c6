#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/config.hpp"

namespace gemsd::obs {
struct RunTelemetry;
}  // namespace gemsd::obs

namespace gemsd {

/// Final numbers of one simulation run — everything the paper's figures and
/// our analysis tables are built from. A new field must also join
/// for_each_value, or no digest, ledger line or run check sees it.
struct RunResult {
  // configuration echo
  int nodes = 0;
  Coupling coupling{};
  UpdateStrategy update{};
  Routing routing{};
  int buffer_pages = 0;
  double arrival_rate_per_node = 0;

  // headline metrics
  double resp_ms = 0;            ///< mean response time
  double resp_ci_ms = 0;         ///< 95% CI half-width (batch means)
  double resp_p95_ms = 0;
  double resp_norm_ms = 0;       ///< trace metric: avg-size artificial txn
  double throughput = 0;         ///< committed txns/s (whole system)
  std::uint64_t commits = 0;
  std::uint64_t aborts = 0;
  std::uint64_t deadlocks = 0;

  // utilizations
  double cpu_util = 0;           ///< mean over nodes
  double cpu_util_max = 0;       ///< busiest node
  double gem_util = 0;
  double net_util = 0;
  /// Achievable per-node transaction rate at 80 % utilization of the busiest
  /// node (Fig 4.6 metric), extrapolated from the measured operating point.
  double tps_per_node_at_80 = 0;

  // buffer / coherency behaviour
  std::vector<double> hit_ratio;         ///< per partition
  double invalidations_per_txn = 0;
  double page_requests_per_txn = 0;
  double page_request_delay_ms = 0;
  double evict_writes_per_txn = 0;
  double force_writes_per_txn = 0;

  // concurrency control / communication
  double local_lock_fraction = 0;
  double lock_waits_per_txn = 0;
  double lock_wait_ms = 0;
  double messages_per_txn = 0;
  double revocations_per_txn = 0;

  // response-time decomposition (ms per txn)
  double brk_cpu_ms = 0, brk_cpu_wait_ms = 0, brk_io_ms = 0, brk_cc_ms = 0,
         brk_queue_ms = 0;

  /// p50/p95/p99 of one per-transaction distribution (ms), read off a
  /// sim::Histogram — response time plus each breakdown phase. Exported in
  /// the "percentiles" object of gemsd.results.v1.
  struct Percentiles {
    double p50 = 0, p95 = 0, p99 = 0;
  };
  Percentiles pct_resp, pct_cpu, pct_cpu_wait, pct_io, pct_cc, pct_queue;

  /// Per-GEM-shard station stats (index = shard). Always populated (size =
  /// gem_shards, >= 1); exported as the "gem_shards" array of
  /// gemsd.results.v1.
  struct GemShardStat {
    double util = 0;
    double queue_mean = 0;
    double wait_ms = 0;  ///< mean wait per access
    std::uint64_t completions = 0;
  };
  std::vector<GemShardStat> gem_shards;

  /// Full observability payload (detail metrics, slow-transaction log,
  /// trace events, time series, resource snapshot). Shared so results stay
  /// cheap to copy through sweeps; null unless System::collect() produced
  /// one.
  std::shared_ptr<obs::RunTelemetry> telemetry;

  std::string label() const;
};

/// Every simulated value of a run, in a fixed order, with its name: the
/// configuration echo, the headline values, hit ratios by partition index
/// ("hit_ratio.0"), percentiles ("pct_resp.p50"), GEM shards
/// ("gem_shard0.util"), then the detail block minus the event kernel's
/// bookkeeping (`sched.*`, `engine.*`: wall-clock rate, event counts, queue
/// depth). Bench-specific extras stay out: some are host measurements.
void for_each_value(const RunResult& r,
                    const std::function<void(std::string_view, double)>& fn);

/// FNV-1a over every for_each_value name's bytes and value's bit pattern:
/// equal digests mean bit-identical simulated statistics.
std::uint64_t run_digest(const RunResult& r);

/// "" when the run is sane: it committed a transaction, carries a detail
/// block without a coherency violation, and every value is finite.
/// Otherwise the first problem found, e.g. "no transaction committed".
std::string run_failure(const RunResult& r);

/// Pretty-print a series of runs as an aligned table (one row per run) with
/// the given caption; `columns` selects the metric set ("paper" keeps it
/// close to what the figures show, "full" adds diagnostics).
void print_table(const std::string& caption,
                 const std::vector<RunResult>& runs,
                 const std::vector<std::string>& partition_names,
                 bool full = false);

/// CSV output for downstream plotting.
void print_csv(const std::vector<RunResult>& runs,
               const std::vector<std::string>& partition_names);

}  // namespace gemsd
