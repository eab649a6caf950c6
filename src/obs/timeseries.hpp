#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "sim/stats.hpp"
#include "sim/time.hpp"

namespace gemsd::obs {

struct JsonValue;

/// Streaming, memory-bounded time-series recorder (--timeseries): tiles sim
/// time into fixed windows and captures, per window, cluster and per-node
/// series — commits, aborts, events/s, lock conflict/deadlock rates, buffer
/// hit rate, GEM/disk/network utilization, and response-time quantiles via a
/// mergeable log-bucket sketch (the sim::Histogram bucket layout, so merge is
/// elementwise addition). Every number is derived from simulated event times
/// and counters, and the recorder inserts NO scheduler events of its own:
///
///   - commits/aborts and the response sketch come from per-event hooks in
///     the transaction manager, bucketed by commit time (exact);
///   - cumulative counters and busy-time integrals (scheduler events, lock
///     waits, deadlocks, buffer hits/misses, messages, device busy-seconds)
///     are polled when a hook call first lands in a new window and the delta
///     is distributed pro-rata over the windows the poll interval spans
///     (deterministic; at steady state one poll per window).
///
/// All inputs are simulation-deterministic, so the exported document is
/// bit-identical at any --jobs count, and because nothing perturbs the
/// schedule, the metrics JSON is byte-identical with the recorder on or off. Window count
/// is bounded like the trace ring: when `cap` windows exist, the window
/// width doubles and adjacent windows pairwise-merge (sketches merge by
/// bucket addition, so coarsening loses resolution, never data). Recording
/// starts at t=0 — warm-up included — so gemsd_analyze --timeseries can
/// check the configured warm-up cut (MSER-5) and measurement-interval
/// stationarity (batch-means trend test).

/// Mergeable response-time sketch: counts per LogBuckets storage index, plus
/// count and sum for exact means. Buckets allocate lazily on first add.
struct TsSketch {
  std::uint64_t count = 0;
  double sum_s = 0;
  std::vector<std::uint64_t> buckets;  ///< layout.size() entries once non-empty

  void add(const sim::LogBuckets& lb, double x);
  void merge_from(const TsSketch& o);
  double mean_s() const {
    return count ? sum_s / static_cast<double>(count) : 0.0;
  }
  double quantile(const sim::LogBuckets& lb, double q) const {
    return sim::log_buckets_quantile(lb, buckets, count, q);
  }
  bool operator==(const TsSketch& o) const = default;
};

/// One named station tracked per window (additive v1 extension): busy
/// server-seconds per window divided by capacity·width gives the per-window
/// utilization, which is what shows a bottleneck migrating between
/// stations.
struct TsStation {
  std::string name;      ///< resource-snapshot naming (gem.shard0, net, ...)
  double capacity = 0;   ///< servers
  bool operator==(const TsStation& o) const = default;
};

/// Per-node slice of one window (kept light: the full sketch is cluster-wide).
struct TsNodeWindow {
  std::uint64_t commits = 0;
  std::uint64_t aborts = 0;
  double resp_sum_s = 0;
  bool operator==(const TsNodeWindow& o) const = default;
};

/// One window [t0, t0 + window_s). Hook-fed fields are exact integers;
/// poll-fed fields are pro-rata doubles. Merging two adjacent windows is
/// elementwise addition everywhere.
struct TsWindow {
  // exact, from the commit/abort hooks
  std::uint64_t commits = 0;
  std::uint64_t aborts = 0;
  TsSketch resp;
  std::vector<TsNodeWindow> nodes;
  // pro-rata, from cumulative polls
  double events = 0;  ///< scheduler events
  double lock_waits = 0;
  double deadlocks = 0;
  double hits = 0;
  double misses = 0;
  double msgs = 0;
  double cpu_busy_s = 0;  ///< busy processor-seconds (all nodes)
  double gem_busy_s = 0;
  double net_busy_s = 0;
  double disk_busy_s = 0;  ///< db + log arms
  /// Busy server-seconds per tracked station (TsSeries::stations order);
  /// empty when no station list was installed.
  std::vector<double> station_busy_s;

  void merge_from(const TsWindow& o);
  bool operator==(const TsWindow& o) const = default;
};

/// Cumulative readings the recorder differences. Filled by the poller
/// callback System installs (reads counters and busy integrals only).
struct TsCumulative {
  std::uint64_t events = 0;
  std::uint64_t lock_waits = 0;
  std::uint64_t deadlocks = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t msgs = 0;
  double cpu_busy_s = 0;
  double gem_busy_s = 0;
  double net_busy_s = 0;
  double disk_busy_s = 0;
  /// Per-station busy integrals (recorder's station order). The poller must
  /// clear and refill this on every call.
  std::vector<double> station_busy_s;
};

/// Immutable snapshot behind the gemsd.timeseries.v1 document.
struct TsSeries {
  double base_window_s = 0.5;  ///< configured width before coarsening
  double window_s = 0.5;       ///< current width (base * 2^coarsenings)
  int coarsenings = 0;
  std::size_t cap = 512;
  int nodes = 0;
  sim::LogBuckets layout;       ///< response sketch bucket layout
  sim::SimTime stats_start = 0; ///< warm-up cut (0 until reset_stats)
  sim::SimTime end = 0;         ///< simulation time at snapshot
  // capacities for turning busy-seconds into utilizations
  double cpu_capacity = 0;   ///< total processors
  double gem_capacity = 0;   ///< GEM servers
  double net_capacity = 0;   ///< network links
  double disk_capacity = 0;  ///< total disk arms (db + log)
  /// Tracked stations (additive; empty in documents written before the
  /// per-station extension or when no list was installed).
  std::vector<TsStation> stations;
  std::vector<TsWindow> windows;  ///< windows[i] covers [i*w, (i+1)*w)

  /// End of window i, clamped to the run end for the last partial window.
  double window_end(std::size_t i) const;
};

class TimeSeriesRecorder {
 public:
  using Poller = std::function<void(TsCumulative&)>;

  /// `cap` bounds the window vector (>= 2; coarsening keeps totals).
  TimeSeriesRecorder(double window_s, std::size_t cap, int nodes,
                     sim::LogBuckets layout = sim::LogBuckets{});

  /// Install the cumulative-counter reader (System). Never called outside
  /// simulated event processing; must only read.
  void set_poller(Poller p) { poller_ = std::move(p); }
  void set_capacities(double cpu, double gem, double net, double disk);
  /// Install the tracked-station list (bounded: GEM shards, network, disk
  /// partitions, log aggregate — not per-node stations). The poller fills
  /// TsCumulative::station_busy_s in the same order.
  void set_stations(std::vector<TsStation> stations) {
    stations_ = std::move(stations);
  }

  /// Transaction-manager hooks (exact, bucketed by event time). A hook call
  /// landing in a new window triggers a poll first, so poll-fed fields keep
  /// window resolution without any recorder-owned scheduler events.
  void on_commit(sim::SimTime t, int node, double response_s);
  void on_abort(sim::SimTime t, int node);

  /// Poll and distribute the cumulative deltas up to `now` (reset_stats and
  /// collect call this so segments fold exactly at their boundary).
  void fold(sim::SimTime now);
  /// Re-read the baselines without folding — call AFTER counters were
  /// zeroed by a stats reset (fold first, reset, then rebase).
  void rebase(sim::SimTime now);
  /// Record where the measurement interval starts (reset_stats time).
  void mark_stats_start(sim::SimTime t) { stats_start_ = t; }

  double window_s() const { return window_s_; }
  int coarsenings() const { return coarsenings_; }
  std::size_t window_count() const { return windows_.size(); }

  TsSeries snapshot(sim::SimTime end) const;

 private:
  TsWindow& window_for(sim::SimTime t);
  std::size_t index_for(sim::SimTime t);  ///< grows + coarsens as needed
  void coarsen();
  void poll_and_fold(sim::SimTime now);

  double base_window_s_;
  double window_s_;
  std::size_t cap_;
  int nodes_;
  sim::LogBuckets layout_;
  int coarsenings_ = 0;
  sim::SimTime stats_start_ = 0;
  double cpu_cap_ = 0, gem_cap_ = 0, net_cap_ = 0, disk_cap_ = 0;
  std::vector<TsStation> stations_;

  Poller poller_;
  TsCumulative prev_;
  sim::SimTime prev_t_ = 0;
  std::size_t last_idx_ = 0;  ///< window of the last hook call

  std::vector<TsWindow> windows_;
};

/// "gemsd.timeseries.v1" document (schemas/timeseries.schema.json).
/// `metadata` entries are {key, pre-serialized JSON value} pairs merged after
/// the schema key (git describe, seed, config hash). Deterministic bytes:
/// same simulation -> same document at any --jobs count.
std::string timeseries_json(
    const TsSeries& s,
    const std::vector<std::pair<std::string, std::string>>& metadata);

/// Parse a gemsd.timeseries.v1 document back into a TsSeries. Returns false
/// and fills `error` when the document is not a time series.
bool timeseries_from_json(const JsonValue& doc, TsSeries& out,
                          std::string& error);

/// Batch-means trend test over one metric's measurement-interval windows.
struct TsTrend {
  int batches = 0;        ///< 0 = not enough data (inconclusive, not drift)
  double mean = 0;        ///< grand mean over the batches
  double slope_per_s = 0; ///< fitted batch-mean slope per sim second
  double t_stat = 0;      ///< slope / its standard error
  double rel_change = 0;  ///< |slope| * fitted span / |mean|
  bool drifting = false;  ///< |t| > threshold AND rel_change > guard
};

/// gemsd_analyze --timeseries: MSER warm-up estimate + stationarity check.
struct TsReport {
  std::size_t windows = 0;       ///< total (from t=0)
  std::size_t meas_windows = 0;  ///< windows at/after stats_start
  double window_s = 0;
  double configured_warmup_s = 0;  ///< stats_start from the document
  /// MSER-5 truncation over per-window series (throughput always; mean
  /// response too when every window committed): the time before which the
  /// initialization bias outweighs the variance reduction of keeping data.
  double mser_warmup_s = 0;
  /// Configured cut >= the MSER-5 recommendation, or the deeper truncation
  /// would move the retained means by under 2.5% (no residual bias).
  bool warmup_safe = true;
  TsTrend throughput;
  TsTrend response;
  bool drifting = false;  ///< either trend drifts -> exit 1 in the tool
};

TsReport analyze_timeseries(const TsSeries& s);

/// Human-readable report; deterministic bytes for a given series.
std::string format_ts_report(const TsSeries& s, const TsReport& r);

/// Per-window CSV for plotting: one header line, then one row per window
/// with times, rates, quantiles, hit ratio and utilizations.
std::string timeseries_csv(const TsSeries& s);

}  // namespace gemsd::obs
