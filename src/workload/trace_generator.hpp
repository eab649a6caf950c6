#pragma once

#include <vector>

#include "sim/random.hpp"
#include "workload/trace.hpp"

namespace gemsd::workload {

/// Generates a synthetic trace with the aggregate characteristics the paper
/// reports for its real-life workload (Section 4.6):
///
///  * ~17,500 transactions of twelve types, ~1 million page references;
///  * ~66,000 distinct pages in 13 files;
///  * high variation in transaction size, largest (an ad-hoc query scan)
///    > 11,000 references;
///  * ~20 % of transactions update, but only ~1.6 % of references are writes;
///  * highly non-uniform access (Zipf within files, per-type file affinity
///    with deliberate overlap so that the workload is only partially
///    partitionable).
///
/// The real trace is unavailable; this generator is the documented
/// substitution (see DESIGN.md). Any real trace in the gemsd text format can
/// be used instead.
struct SyntheticTraceConfig {
  std::size_t transactions = 17500;
  double zipf_theta = 1.0;
  /// Probability that the next reference continues sequentially in the same
  /// file (intra-transaction locality).
  double sequential_prob = 0.3;
};

Trace generate_synthetic_trace(const SyntheticTraceConfig& cfg, sim::Rng& rng);

/// The synthetic trace that every trace scenario and every trace spec
/// without a trace_file runs: the default generator with `transactions`
/// transactions, drawn from seed 7. That one seed is what lets `gemsd_run
/// specs/fig_4_7.ini` reproduce `gemsd_bench --scenario=fig_4_7`.
Trace standard_synthetic_trace(
    std::size_t transactions = SyntheticTraceConfig{}.transactions);

}  // namespace gemsd::workload
