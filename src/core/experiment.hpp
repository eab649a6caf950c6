#pragma once

#include <string>
#include <utility>

#include "core/config.hpp"
#include "core/report.hpp"
#include "core/system.hpp"
#include "workload/trace.hpp"

namespace gemsd {

/// Build a trace-driven workload (replay in original order) with the given
/// routing policy: random = round robin; affinity = routing table computed by
/// the allocation heuristic [Ra92b]. The GLA assignment is coordinated with
/// the affinity routing either way (the paper's PCL setup).
System::Workload make_trace_workload(const SystemConfig& cfg,
                                     const workload::Trace& trace);

/// SystemConfig preset for trace-driven runs (Section 4.6): partitions match
/// the trace's files, 50 TPS per node, buffer 1000 pages, NOFORCE.
SystemConfig make_trace_config(const workload::Trace& trace);

RunResult run_trace(const SystemConfig& cfg, const workload::Trace& trace);

/// Shared command-line handling for the bench harnesses and gemsd_bench:
///   --quick            shorter measurement interval (CI-friendly)
///   --measure=S        measurement seconds
///   --warmup=S         warm-up seconds
///   --max-nodes=N      cap the node sweep (>= 1)
///   --jobs=N           run the sweep's simulations on N worker threads
///                      (default: hardware_concurrency; 1 = serial)
///   --full             verbose per-run diagnostics
///   --csv              machine-readable output
///   --slow-k=K         record the K slowest transactions per run
///   --metrics-json=F   structured results file (default results/BENCH_<name>.json)
///   --no-json          skip the structured results file
///   --trace=F          Chrome trace-event JSON of one sweep point
///   --trace-run=I      which sweep point gets traced (default 0)
///   --trace-capacity=N trace ring-buffer capacity [events], >= 1
///   --trace-filter=RE  record only events whose name matches the regex
///                      (filtered events never enter the ring, so they don't
///                      count as dropped)
///   --audit            online invariant auditors (fail fast on violation)
///   --progress[=SECS]  stderr JSONL heartbeat every SECS wall seconds
///   --timeseries[=F]   per-window time series of the --trace-run sweep
///                      point (gemsd.timeseries.v1 JSON; analyze with
///                      gemsd_analyze --timeseries)
///   --timeseries-window=S  window width [sim s] (default 0.5; width doubles
///                      when the 512-window cap is hit)
///   --resources[=F]    per-resource operational snapshot of the --trace-run
///                      sweep point (gemsd.resources.v1 JSON; analyze with
///                      gemsd_analyze --bottleneck)
struct BenchOptions {
  /// Warm-up default: 5 s simulated, the SystemConfig::warmup default.
  /// --quick overrides to 2 s (measure 6 s); later flags win, so
  /// `--quick --warmup=5` restores the default.
  double warmup = 5.0;
  double measure = 20.0;
  int max_nodes = 10;
  int jobs = 0;  ///< 0 = hardware_concurrency (see SweepRunner)
  bool full = false;
  bool csv = false;
  std::uint64_t seed = 42;
  int slow_k = 10;
  std::string metrics_json;
  bool no_json = false;
  std::string trace_file;
  int trace_run = 0;
  std::size_t trace_capacity = std::size_t{1} << 18;
  std::string trace_filter;  ///< regex on event names ("" = everything)
  bool audit = false;
  double progress_every_s = 0.0;     ///< heartbeat period [wall s] (0 = off)
  /// Per-window time series (obs/timeseries.hpp) of the --trace-run sweep
  /// point. Pure observation — metrics are byte-identical on/off.
  bool timeseries = false;
  std::string timeseries_file;       ///< "" = results/TIMESERIES_<bench>.json
  double timeseries_window = 0.5;    ///< window width [sim s]
  /// Per-resource operational snapshot (obs/resources.hpp) of the --trace-run
  /// sweep point. Pure observation — metrics are byte-identical on/off.
  bool resources = false;
  std::string resources_file;        ///< "" = results/RESOURCES_<bench>.json
};
/// Parse the shared flags into `o`, every number through parse_number.
/// Returns "" on success, or an error message for an unknown flag or a
/// malformed or out-of-range value ("--warmup 5" space form included —
/// every value flag takes `=`). `o` is left with whatever was parsed up to
/// the offending argument.
std::string try_parse_bench_args(const std::vector<std::string>& args,
                                 BenchOptions& o);

/// One usage block listing every shared flag (callers prepend their own),
/// less the flags named in `omit` ("--measure", ...).
std::string bench_usage(const std::vector<std::string>& omit = {});

/// Strict wrapper: on any unknown flag or malformed value prints the error
/// plus usage to stderr and exits with status 2 — a typo must never run a
/// full sweep with default settings.
BenchOptions parse_bench_args(int argc, char** argv);

/// Names of the debit-credit partitions (report columns).
std::vector<std::string> debit_credit_partition_names();

/// The sweep point that --trace, --timeseries and --resources record:
/// --trace-run modulo the number of runs.
std::size_t traced_run(const BenchOptions& opt, std::size_t runs);

/// Stamp the result-neutral options on every config of a sweep: the
/// slow-transaction log, auditors and heartbeat on all points; the trace
/// ring (only when --trace was given), time series and resource snapshot on
/// the traced point.
void apply_obs_options(std::vector<SystemConfig>& cfgs,
                       const BenchOptions& opt);

/// One sweep point as exported to the structured results file: the exact
/// config it ran, its results (with telemetry), and optional bench-specific
/// extra values that have no RunResult field.
struct BenchRun {
  SystemConfig config;
  RunResult result;
  std::vector<std::pair<std::string, double>> extra;
};

/// One file write_artifacts wrote: "results", "trace", "timeseries" or
/// "resources", and its path.
struct Artifact {
  std::string label;
  std::string path;
};

/// Write every file a sweep's options ask for, each through obs::write_file:
///   - the results document ("gemsd.results.v1", validated by
///     schemas/results.schema.json) unless --no-json: caption, git describe,
///     bench options, and per run the full config (with fingerprint hash),
///     headline and detail metrics and the slowest transactions; at
///     --metrics-json, else results/BENCH_<bench>.json;
///   - for the traced point: the Chrome trace (--trace=F), the time series
///     (--timeseries[=F], default results/TIMESERIES_<bench>.json) and the
///     resource snapshot (--resources[=F], default
///     results/RESOURCES_<bench>.json). A requested recorder that the run
///     did not fill only warns.
/// Returns what was written, in that order. Throws std::runtime_error naming
/// the path and the OS reason on the first file that cannot be written.
std::vector<Artifact> write_artifacts(
    const std::string& bench, const std::string& caption,
    const BenchOptions& opt, const std::vector<BenchRun>& runs,
    const std::vector<std::string>& partition_names);

/// One-line config fingerprint for human-readable report headers:
/// "bench git=<describe> seed=<seed> config=<hash>".
std::string fingerprint_line(const std::string& bench,
                             const SystemConfig& cfg);

}  // namespace gemsd
