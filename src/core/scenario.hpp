#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/experiment.hpp"
#include "core/system.hpp"

namespace gemsd {

/// One value along a scenario dimension: a label, an optional config
/// mutation, an optional node count (node axes), and optional static extras
/// that go into the run's results-JSON record (custom cell hooks read their
/// non-config knobs from them with extra_of).
struct DimValue {
  std::string label;
  std::function<void(SystemConfig&)> apply;  ///< may be null (label-only)
  int nodes = -1;                            ///< >= 0: node-axis value
  /// `{}` lets brace-initialized values omit it without a
  /// -Wmissing-field-initializers warning.
  std::vector<std::pair<std::string, double>> extra{};
};

/// One dimension of a scenario's parameter grid. Dimensions multiply out in
/// declaration order, the first dimension being the outermost loop — the
/// same run order the hand-written bench mains produced.
struct Dim {
  std::string name;
  std::vector<DimValue> values;
  /// Group dimensions split the console output into one table per value
  /// combination (they must form a prefix of the dimension list). This is
  /// the engine-owned replacement for the per-bench `per_strategy` begin/end
  /// index arithmetic.
  bool group = false;
  /// Node axes only: clamp every value to --max-nodes (collapsing
  /// duplicates) instead of dropping values above the cap.
  bool clamp_nodes = false;
};

/// One point of the expanded grid: the fully built config plus everything
/// the emission path and custom hooks need to know about its coordinates.
struct ScenarioCell {
  SystemConfig cfg;
  std::vector<std::size_t> value_idx;  ///< per dimension, original index
  std::string label;                   ///< dim value labels, joined
  std::vector<std::pair<std::string, double>> extra;  ///< merged dim extras
};

/// The expanded grid: cells in run order, contiguous output groups, and the
/// shared inputs (partition names, trace) every cell uses.
struct ScenarioPlan {
  std::vector<ScenarioCell> cells;
  struct Group {
    std::size_t begin = 0, end = 0;  ///< half-open cell range
    std::string title;
  };
  std::vector<Group> groups;
  std::vector<std::string> partition_names;
  std::shared_ptr<const workload::Trace> trace;  ///< trace scenarios only
};

struct ScenarioResult {
  ScenarioPlan plan;
  std::vector<BenchRun> runs;  ///< one per cell, in cell order
};

/// A declaratively described experiment: what used to be one bench_*.cpp
/// main. The registry (scenario_registry.cpp) holds one of these per paper
/// figure/table and per ablation; tools/gemsd_bench runs them.
struct Scenario {
  std::string name;     ///< registry key, also the results-file stem
  std::string caption;  ///< results-JSON caption / default table title
  std::string doc;      ///< one-liner for --list and docs/scenarios.md

  enum class WorkloadKind { DebitCredit, Trace };
  WorkloadKind workload = WorkloadKind::DebitCredit;
  /// Base configuration the dimension mutators start from. Default:
  /// make_debit_credit_config() or make_trace_config(trace).
  std::function<SystemConfig()> base;
  /// Mutation applied to the base (default or custom) before the grid
  /// expands — the scenario's fixed, non-swept settings.
  std::function<void(SystemConfig&)> tweak;
  std::vector<Dim> dims;

  /// Stamp --seed onto every cell (--warmup/--measure are stamped on every
  /// scenario without a `cell` hook; a cell hook drives the clock itself).
  bool stamp_seed = true;

  std::string note;      ///< context paragraph printed after the tables
  std::string note_pre;  ///< printed before the tables (non-CSV)

  /// Title for one output group, given the group dimensions' value labels.
  /// Default: "<caption> [<labels>]".
  std::function<std::string(const std::vector<std::string>&)> group_title;

  /// Fully custom per-cell execution (replaces the standard build-and-run
  /// path). The BenchRun arrives with config and static extras filled in;
  /// the hook runs the simulation and sets result (plus more extras).
  std::function<void(const SystemConfig&, BenchRun&)> cell;
  /// Post-run metrics scrape on the live System (standard path only).
  std::function<void(System&, BenchRun&)> probe;
  /// Custom console table replacing the generic per-group print_table
  /// (non-CSV output only; CSV always uses the shared emission path).
  std::function<void(const ScenarioResult&, const BenchOptions&)> table;
  /// Print-only scenario (no simulations), e.g. the Table 4.1 parameter
  /// listing.
  std::function<void()> report;

  /// Whether the grid is expressible as a specs/*.ini file that gemsd_run
  /// reproduces bit-identically (--export-spec): exactly the scenarios
  /// without a custom `cell` (custom workloads, failure timelines) or
  /// `report` hook.
  bool exportable() const { return !cell && !report; }
};

/// The compiled-in scenario registry: every paper figure (4.1-4.7, Table
/// 4.1), every ablation, and the related-work/availability experiments.
const std::vector<Scenario>& scenario_registry();
const Scenario* find_scenario(const std::string& name);

/// Convenience constructor for a node-count axis ("n=K" labels).
Dim node_dim(std::vector<int> ns, bool clamp = false);

/// Look up a static/probed extra on a run (0 / `fallback` when absent).
double extra_of(const BenchRun& run, const std::string& key,
                double fallback = 0.0);

/// Number of grid cells the scenario expands to under `opt` (cheap: no
/// configs are built). Report-only scenarios have 0.
std::size_t scenario_cell_count(const Scenario& sc, const BenchOptions& opt);

/// Expand the grid: apply --max-nodes filtering/clamping, build every cell's
/// config (base -> warmup/measure/seed -> dimension mutators, outermost
/// dimension first), compute output groups, and resolve partition names
/// (generating workload::standard_synthetic_trace() for trace scenarios).
ScenarioPlan build_scenario_plan(const Scenario& sc, const BenchOptions& opt);

/// Run every cell on the sweep pool (bit-identical at any --jobs count,
/// results in cell order) and return runs zipped with their configs.
ScenarioResult run_scenario(const Scenario& sc, const BenchOptions& opt);

/// The single emission path all scenarios share: the requested files
/// (write_artifacts; throws when one cannot be written), then per-group CSV
/// or tables (honoring the scenario's custom table hook and notes).
/// `out_dir` is where BENCH_<name>.json goes when --metrics-json was not
/// given.
void emit_scenario(const Scenario& sc, const BenchOptions& opt,
                   const ScenarioResult& res, const std::string& out_dir);

/// Serialize the scenario's grid as a multi-run spec (config_file.hpp
/// format) and self-verify it: the text is parsed back and every rebuilt
/// run config must be bit-identical to the in-registry cell. Throws for
/// non-exportable scenarios or on any round-trip mismatch.
std::string export_scenario_spec(const Scenario& sc, const BenchOptions& opt);

}  // namespace gemsd
