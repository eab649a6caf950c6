// gemsd_run — run any experiment from a small INI-style spec, no C++
// required:
//
//   ./gemsd_run spec.ini [more-specs.ini ...] [--csv] [--full] [--jobs=N]
//              [--metrics-json=FILE] [--trace=FILE] [--trace-run=I]
//              [--trace-filter=RE] [--slow-k=K] [--audit]
//              [--progress[=SECS]] [--timeseries[=FILE]]
//              [--timeseries-window=S] [--resources[=FILE]]
//
// A spec holds either a single configuration or a whole sweep (one [run]
// section per point — the format gemsd_bench --export-spec writes; see
// specs/*.ini). All runs from all files execute as one sweep on a worker
// pool (--jobs=N, default hardware_concurrency); results print in spec
// order. --metrics-json writes the structured results report (all metrics,
// slowest transactions); --trace writes a Chrome trace-event file for one of
// the runs (pick with --trace-run). Every file is written to a temp file and
// renamed into place; one that cannot be written fails the run (exit 1).
//
// Flags go through the same strict parser as gemsd_bench: an unknown flag or
// a malformed value exits 2 with the usage text. The spec owns the horizon,
// node count and seed, so --quick, --measure, --warmup, --max-nodes and
// --seed are rejected rather than silently ignored. A spec that does not
// parse or holds an out-of-range value exits 1 before any run, naming the
// file, the line and the key. See src/core/config_file.hpp for the spec
// format and each key's range. After printing every run, a run that fails
// the sanity check (run_failure: nothing committed, a coherency violation,
// a non-finite value) exits 1, naming the spec, the run and the reason.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/config_file.hpp"
#include "core/experiment.hpp"
#include "core/sweep.hpp"
#include "workload/trace_generator.hpp"

namespace {

/// The shared flags the spec owns (horizon, node count, seed): rejected on
/// the command line, and left out of the usage text.
const std::vector<std::string> kSpecOwned = {"--quick", "--measure",
                                             "--warmup", "--max-nodes",
                                             "--seed"};

void usage() {
  std::string owned;
  for (const std::string& f : kSpecOwned) {
    owned += (owned.empty() ? "" : ", ") + f;
  }
  std::fprintf(stderr,
               "usage: gemsd_run <spec.ini> [more-specs.ini ...] [flags]\n"
               "\n"
               "The spec sets warm-up, measurement, nodes and seed, so\n"
               "%s are rejected.\n"
               "Flags (run default --slow-k=0, JSON only with\n"
               "--metrics-json):\n%s",
               owned.c_str(), gemsd::bench_usage(kSpecOwned).c_str());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gemsd;
  BenchOptions opt;
  opt.slow_k = 0;
  std::vector<std::string> spec_files, flags;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--", 0) != 0) {
      spec_files.push_back(a);
      continue;
    }
    if (std::find(kSpecOwned.begin(), kSpecOwned.end(),
                  a.substr(0, a.find('='))) != kSpecOwned.end()) {
      std::fprintf(stderr, "error: '%s' is set by the spec file\n\n",
                   a.c_str());
      usage();
      return 2;
    }
    flags.push_back(a);
  }
  if (const std::string err = try_parse_bench_args(flags, opt); !err.empty()) {
    std::fprintf(stderr, "error: %s\n\n", err.c_str());
    usage();
    return 2;
  }
  if (opt.metrics_json.empty()) opt.no_json = true;
  if (spec_files.empty()) {
    usage();
    return 2;
  }

  // Flatten all spec files into one run list, remembering where each run
  // came from for the report headers.
  struct Job {
    RunSpec spec;
    std::string title;  ///< "<file>" or "<file> [run I]"
  };
  std::vector<Job> jobs_list;
  try {
    for (const std::string& f : spec_files) {
      const SpecDoc doc = parse_spec_doc_file(f);
      for (std::size_t r = 0; r < doc.runs.size(); ++r) {
        Job j;
        j.spec = doc.runs[r];
        j.title = doc.runs.size() == 1
                      ? f
                      : f + " [run " + std::to_string(r + 1) + "/" +
                            std::to_string(doc.runs.size()) + "]";
        jobs_list.push_back(std::move(j));
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  // Traces are shared across the runs that use the same source: generated
  // (or loaded) once, outside the worker pool.
  std::map<std::pair<std::string, std::size_t>,
           std::shared_ptr<const workload::Trace>>
      traces;
  for (const Job& j : jobs_list) {
    if (j.spec.kind != RunSpec::Kind::Trace) continue;
    const auto key = std::make_pair(j.spec.trace_file, j.spec.trace_txns);
    if (traces.count(key)) continue;
    try {
      if (!j.spec.trace_file.empty()) {
        traces[key] = std::make_shared<const workload::Trace>(
            workload::Trace::load_file(j.spec.trace_file));
      } else {
        traces[key] = std::make_shared<const workload::Trace>(
            workload::standard_synthetic_trace(j.spec.trace_txns));
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
  }

  // Resolve every run's config up front, then stamp the observability
  // options the same way gemsd_bench does.
  std::vector<SystemConfig> cfgs;
  std::vector<std::shared_ptr<const workload::Trace>> run_traces;
  for (const Job& j : jobs_list) {
    SystemConfig cfg = j.spec.cfg;
    std::shared_ptr<const workload::Trace> trace;
    if (j.spec.kind == RunSpec::Kind::Trace) {
      // Trace runs take their partition layout from the trace; the spec's
      // system keys are re-applied on top of the trace defaults, exactly
      // how gemsd_bench builds the in-registry config.
      trace = traces.at(std::make_pair(j.spec.trace_file, j.spec.trace_txns));
      cfg = make_trace_config(*trace);
      try {
        apply_spec_keys(cfg, j.spec.keys);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s: %s\n", j.title.c_str(), e.what());
        return 1;
      }
    }
    cfgs.push_back(std::move(cfg));
    run_traces.push_back(std::move(trace));
  }
  apply_obs_options(cfgs, opt);

  struct SpecResult {
    RunResult r;
    std::vector<std::string> names;
  };
  std::vector<std::function<SpecResult()>> tasks;
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    tasks.push_back([&cfg = cfgs[i], trace = run_traces[i]] {
      SpecResult out;
      if (!trace) {
        out.r = run_debit_credit(cfg);
        out.names = debit_credit_partition_names();
      } else {
        out.r = run_trace(cfg, *trace);
        for (int f = 0; f < trace->num_files; ++f) {
          out.names.emplace_back(1, 'F');
          out.names.back() += std::to_string(f);
        }
      }
      return out;
    });
  }

  std::vector<SpecResult> results;
  try {
    results = SweepRunner(opt.jobs).map(std::move(tasks));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  std::vector<BenchRun> bruns(results.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    bruns[i].config = cfgs[i];
    bruns[i].result = results[i].r;
  }
  std::string caption = "gemsd_run:";
  for (const std::string& f : spec_files) caption += " " + f;
  try {
    write_artifacts("run", caption, opt, bruns,
                    results.empty() ? std::vector<std::string>{}
                                    : results.front().names);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  for (std::size_t i = 0; i < results.size(); ++i) {
    if (opt.csv) {
      print_csv({results[i].r}, results[i].names);
    } else {
      print_table("gemsd_run: " + jobs_list[i].title, {results[i].r},
                  results[i].names, opt.full);
      std::printf("%s\n", fingerprint_line("run", cfgs[i]).c_str());
    }
  }
  // A stalled configuration must not pass as an all-zero row.
  int rc = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const std::string why = run_failure(results[i].r);
    if (why.empty()) continue;
    std::fprintf(stderr, "error: %s: %s\n", jobs_list[i].title.c_str(),
                 why.c_str());
    rc = 1;
  }
  return rc;
}
