#include "core/scenario.hpp"

#include <cstdio>
#include <map>
#include <sstream>
#include <stdexcept>

#include "core/config_file.hpp"
#include "core/sweep.hpp"
#include "obs/fingerprint.hpp"
#include "workload/trace_generator.hpp"

namespace gemsd {

namespace {

/// Effective (post --max-nodes) values of one dimension.
struct EffDim {
  std::vector<std::size_t> idx;  ///< original value indices
  std::vector<int> nodes;        ///< effective node count (-1: not a node axis)
  std::vector<std::string> labels;
};

std::vector<EffDim> effective_dims(const Scenario& sc,
                                   const BenchOptions& opt) {
  std::vector<EffDim> eff(sc.dims.size());
  for (std::size_t d = 0; d < sc.dims.size(); ++d) {
    const Dim& dim = sc.dims[d];
    int last_nodes = -1;
    for (std::size_t v = 0; v < dim.values.size(); ++v) {
      const DimValue& dv = dim.values[v];
      int n = dv.nodes;
      if (n >= 0) {
        if (dim.clamp_nodes) {
          n = std::min(n, opt.max_nodes);
          if (!eff[d].idx.empty() && n == last_nodes) continue;  // collapsed
        } else if (n > opt.max_nodes) {
          continue;
        }
      }
      last_nodes = n;
      eff[d].idx.push_back(v);
      eff[d].nodes.push_back(n);
      eff[d].labels.push_back(
          !dv.label.empty() ? dv.label
          : n >= 0          ? "n=" + std::to_string(n)
                            : std::string());
    }
  }
  return eff;
}

std::size_t product(const std::vector<EffDim>& eff, std::size_t from,
                    std::size_t to) {
  std::size_t p = 1;
  for (std::size_t d = from; d < to; ++d) p *= eff[d].idx.size();
  return p;
}

std::size_t leading_group_dims(const Scenario& sc) {
  std::size_t g = 0;
  while (g < sc.dims.size() && sc.dims[g].group) ++g;
  for (std::size_t d = g; d < sc.dims.size(); ++d) {
    if (sc.dims[d].group) {
      throw std::logic_error("scenario " + sc.name +
                             ": group dimensions must come first");
    }
  }
  return g;
}

}  // namespace

const Scenario* find_scenario(const std::string& name) {
  for (const Scenario& sc : scenario_registry()) {
    if (sc.name == name) return &sc;
  }
  return nullptr;
}

Dim node_dim(std::vector<int> ns, bool clamp) {
  Dim d;
  d.name = "nodes";
  d.clamp_nodes = clamp;
  for (int n : ns) {
    DimValue v;
    v.nodes = n;
    d.values.push_back(std::move(v));
  }
  return d;
}

double extra_of(const BenchRun& run, const std::string& key,
                double fallback) {
  for (const auto& [k, v] : run.extra) {
    if (k == key) return v;
  }
  return fallback;
}

std::size_t scenario_cell_count(const Scenario& sc, const BenchOptions& opt) {
  if (sc.report) return 0;
  const auto eff = effective_dims(sc, opt);
  return product(eff, 0, eff.size());
}

ScenarioPlan build_scenario_plan(const Scenario& sc, const BenchOptions& opt) {
  ScenarioPlan plan;
  if (sc.workload == Scenario::WorkloadKind::Trace) {
    plan.trace = std::make_shared<const workload::Trace>(
        workload::standard_synthetic_trace());
    for (int f = 0; f < plan.trace->num_files; ++f) {
      plan.partition_names.push_back("F" + std::to_string(f));
    }
  } else if (sc.report) {
    plan.partition_names = debit_credit_partition_names();
    return plan;
  }

  const std::size_t ngroup = leading_group_dims(sc);
  const auto eff = effective_dims(sc, opt);
  const std::size_t total = product(eff, 0, eff.size());
  const std::size_t inner = product(eff, ngroup, eff.size());

  SystemConfig base;
  if (sc.base) {
    base = sc.base();
  } else if (sc.workload == Scenario::WorkloadKind::Trace) {
    base = make_trace_config(*plan.trace);
  } else {
    base = make_debit_credit_config();
  }
  if (plan.partition_names.empty()) {
    for (const auto& p : base.partitions) plan.partition_names.push_back(p.name);
    if (base.partitions.size() == 3 &&
        base.partitions[0].name == "BRANCH/TELLER") {
      plan.partition_names = debit_credit_partition_names();
    }
  }
  if (sc.tweak) sc.tweak(base);
  if (!sc.cell) {  // a cell hook drives the clock itself
    base.warmup = opt.warmup;
    base.measure = opt.measure;
  }
  if (sc.stamp_seed) base.seed = opt.seed;

  for (std::size_t i = 0; i < total; ++i) {
    ScenarioCell cell;
    cell.cfg = base;
    // Decompose the flat index, outermost dimension first.
    std::size_t rest = i, radix = total;
    for (std::size_t d = 0; d < eff.size(); ++d) {
      radix /= eff[d].idx.size();
      const std::size_t k = rest / radix;
      rest %= radix;
      const Dim& dim = sc.dims[d];
      const DimValue& dv = dim.values[eff[d].idx[k]];
      if (eff[d].nodes[k] >= 0) cell.cfg.nodes = eff[d].nodes[k];
      if (dv.apply) dv.apply(cell.cfg);
      cell.value_idx.push_back(eff[d].idx[k]);
      for (const auto& e : dv.extra) cell.extra.push_back(e);
      if (!eff[d].labels[k].empty()) {
        if (!cell.label.empty()) cell.label += " ";
        cell.label += eff[d].labels[k];
      }
    }
    plan.cells.push_back(std::move(cell));
  }

  // Output groups: one per leading-group-dimension value combination.
  const std::size_t ngroups = inner ? total / inner : 0;
  for (std::size_t g = 0; g < ngroups; ++g) {
    ScenarioPlan::Group grp;
    grp.begin = g * inner;
    grp.end = grp.begin + inner;
    if (ngroup == 0) {
      grp.title = sc.caption;
    } else {
      std::vector<std::string> labels;
      std::size_t rest = g, radix = ngroups;
      for (std::size_t d = 0; d < ngroup; ++d) {
        radix /= eff[d].idx.size();
        labels.push_back(eff[d].labels[rest / radix]);
        rest %= radix;
      }
      if (sc.group_title) {
        grp.title = sc.group_title(labels);
      } else {
        grp.title = sc.caption + " [";
        for (std::size_t j = 0; j < labels.size(); ++j) {
          if (j) grp.title += ", ";
          grp.title += labels[j];
        }
        grp.title += "]";
      }
    }
    plan.groups.push_back(std::move(grp));
  }
  return plan;
}

ScenarioResult run_scenario(const Scenario& sc, const BenchOptions& opt) {
  ScenarioResult res;
  res.plan = build_scenario_plan(sc, opt);
  if (sc.report) return res;

  std::vector<SystemConfig> cfgs;
  cfgs.reserve(res.plan.cells.size());
  for (const ScenarioCell& c : res.plan.cells) cfgs.push_back(c.cfg);
  apply_obs_options(cfgs, opt);

  const ScenarioPlan& plan = res.plan;
  std::vector<std::function<BenchRun()>> tasks;
  tasks.reserve(cfgs.size());
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    const SystemConfig& cfg = cfgs[i];
    const ScenarioCell& cell = plan.cells[i];
    tasks.push_back([&sc, &cfg, &cell, &plan] {
      BenchRun b;
      b.config = cfg;
      b.extra = cell.extra;
      if (sc.cell) {
        sc.cell(cfg, b);
      } else if (sc.workload == Scenario::WorkloadKind::Trace) {
        System sys(cfg, make_trace_workload(cfg, *plan.trace));
        b.result = sys.run();
        if (sc.probe) sc.probe(sys, b);
      } else {
        System sys(cfg, make_debit_credit_workload(cfg));
        b.result = sys.run();
        if (sc.probe) sc.probe(sys, b);
      }
      return b;
    });
  }
  res.runs = SweepRunner(opt.jobs).map(std::move(tasks));
  return res;
}

void emit_scenario(const Scenario& sc, const BenchOptions& opt,
                   const ScenarioResult& res, const std::string& out_dir) {
  BenchOptions jopt = opt;
  if (jopt.metrics_json.empty() && !out_dir.empty()) {
    jopt.metrics_json = out_dir + "/BENCH_" + sc.name + ".json";
  }

  const ScenarioPlan& plan = res.plan;
  const SystemConfig stamp_cfg =
      plan.cells.empty() ? (sc.base ? sc.base() : make_debit_credit_config())
                         : plan.cells.front().cfg;

  const std::vector<Artifact> written = write_artifacts(
      sc.name, sc.caption, jopt, res.runs, plan.partition_names);
  if (sc.report) {
    std::printf("# %s\n", fingerprint_line(sc.name, stamp_cfg).c_str());
    sc.report();
    return;
  }

  if (!opt.csv && plan.trace) {
    const auto stats = workload::compute_stats(*plan.trace);
    std::printf(
        "trace: %zu txns, %zu refs (avg %.1f), %zu distinct pages, "
        "%.1f%% write refs, %.1f%% update txns, largest txn %zu\n",
        stats.transactions, stats.references, stats.mean_refs,
        stats.distinct_pages, stats.write_ref_fraction * 100,
        stats.update_txn_fraction * 100, stats.largest_txn);
  }

  // Slice the flat run vector per output group — callers never index by
  // hand (the old per_strategy arithmetic).
  auto group_results = [&](const ScenarioPlan::Group& g) {
    std::vector<RunResult> rs;
    for (std::size_t i = g.begin; i < g.end && i < res.runs.size(); ++i) {
      rs.push_back(res.runs[i].result);
    }
    return rs;
  };

  if (opt.csv) {
    for (const auto& g : plan.groups) {
      std::printf("# %s\n", fingerprint_line(sc.name, stamp_cfg).c_str());
      print_csv(group_results(g), plan.partition_names);
    }
    return;
  }

  if (sc.table) {
    std::printf("# %s\n", fingerprint_line(sc.name, stamp_cfg).c_str());
    sc.table(res, opt);
  } else {
    if (!sc.note_pre.empty()) std::printf("\n%s\n", sc.note_pre.c_str());
    for (const auto& g : plan.groups) {
      print_table(g.title, group_results(g), plan.partition_names, opt.full);
    }
    std::printf("%s\n", fingerprint_line(sc.name, stamp_cfg).c_str());
  }
  for (const Artifact& a : written) {
    std::printf("%s: %s\n", a.label.c_str(), a.path.c_str());
  }
  if (!sc.note.empty()) std::printf("\n%s\n", sc.note.c_str());
}

std::string export_scenario_spec(const Scenario& sc, const BenchOptions& opt) {
  if (!sc.exportable()) {
    throw std::runtime_error("scenario " + sc.name +
                             " is not expressible as a run spec");
  }
  const ScenarioPlan plan = build_scenario_plan(sc, opt);
  if (plan.cells.empty()) {
    throw std::runtime_error("scenario " + sc.name +
                             ": no runs selected (check --max-nodes)");
  }

  std::vector<SpecKeyValues> kvs;
  std::vector<std::map<std::string, std::string>> maps;
  for (const ScenarioCell& c : plan.cells) {
    kvs.push_back(spec_keys(c.cfg));
    auto& m = maps.emplace_back();
    for (const SpecKey& k : kvs.back()) m.emplace(k.key, k.value);
  }
  // A key is shared iff every run carries it with the same value; shared
  // keys form the [system] base, the rest go into each [run].
  std::map<std::string, bool> shared;
  for (const SpecKey& k : kvs.front()) {
    bool same = true;
    for (const auto& m : maps) {
      const auto it = m.find(k.key);
      if (it == m.end() || it->second != k.value) {
        same = false;
        break;
      }
    }
    shared[k.key] = same;
  }

  std::ostringstream out;
  out << "# " << sc.name << " — "
      << (sc.doc.empty() ? sc.caption : sc.doc) << "\n";
  out << "# Generated by `gemsd_bench --export-spec`; the source of truth is\n"
         "# the scenario registry (src/core/scenario_registry.cpp).\n\n";
  out << "[scenario]\nname = " << sc.name << "\ncaption = " << sc.caption
      << "\n\n";
  out << "[workload]\nkind = "
      << (sc.workload == Scenario::WorkloadKind::Trace ? "trace"
                                                       : "debit_credit")
      << "\n";
  if (sc.workload == Scenario::WorkloadKind::Trace) {
    out << "trace_txns = " << workload::SyntheticTraceConfig{}.transactions
        << "\n";
  }
  out << "\n[system]\n";
  for (const SpecKey& k : kvs.front()) {
    if (shared[k.key]) out << k.key << " = " << k.value << "\n";
  }
  for (std::size_t i = 0; i < plan.cells.size(); ++i) {
    out << "\n";
    if (!plan.cells[i].label.empty()) {
      out << "# run: " << plan.cells[i].label << "\n";
    }
    out << "[run]\n";
    for (const SpecKey& k : kvs[i]) {
      const auto it = shared.find(k.key);
      if (it != shared.end() && it->second) continue;
      out << k.key << " = " << k.value << "\n";
    }
  }

  // Self-verification: parse the text back and rebuild each run the way
  // gemsd_run does; any drift between registry and spec is a hard error
  // here rather than a silent baseline mismatch later.
  const std::string text = out.str();
  std::istringstream in(text);
  const SpecDoc doc = parse_spec_doc(in);
  if (doc.runs.size() != plan.cells.size()) {
    throw std::runtime_error("export of " + sc.name + ": spec has " +
                             std::to_string(doc.runs.size()) +
                             " runs, registry has " +
                             std::to_string(plan.cells.size()));
  }
  for (std::size_t i = 0; i < doc.runs.size(); ++i) {
    SystemConfig rebuilt;
    if (doc.runs[i].kind == RunSpec::Kind::Trace) {
      rebuilt = make_trace_config(*plan.trace);
      apply_spec_keys(rebuilt, doc.runs[i].keys);
    } else {
      rebuilt = doc.runs[i].cfg;
    }
    if (obs::config_json(rebuilt) != obs::config_json(plan.cells[i].cfg)) {
      throw std::runtime_error(
          "export of " + sc.name + ": run " + std::to_string(i) + " (" +
          plan.cells[i].label +
          ") does not round-trip through the spec format");
    }
  }
  return text;
}

}  // namespace gemsd
