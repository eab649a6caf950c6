// gemsd_bench — the one bench driver. Every paper figure (4.1-4.7, Table
// 4.1) and every ablation lives in the compiled-in scenario registry
// (src/core/scenario_registry.cpp); this binary lists, runs, and exports
// them:
//
//   ./gemsd_bench --list [--filter=REGEX]
//   ./gemsd_bench --scenario=NAME [bench flags]
//   ./gemsd_bench --filter=REGEX  [bench flags]
//   ./gemsd_bench --export-spec=DIR [--filter=REGEX] [bench flags]
//
// Bench flags are the shared set every retired bench_* main took (--quick,
// --measure=, --warmup=, --max-nodes=, --jobs=, --seed=, --full, --csv,
// --slow-k=, --metrics-json=, --no-json, --trace=, --trace-run=,
// --trace-capacity=, --audit, ...; see bench_usage()). Output: tables/CSV on
// stdout and the gemsd.results.v1 JSON (BENCH_<name>.json, to --out-dir=DIR
// when given, else results/).
//
// --export-spec writes one specs/<name>.ini per exportable scenario in the
// selection; gemsd_run executes those to bit-identical metrics (the export
// self-verifies the round trip and fails loudly on drift).
//
// Every file is written to a temp file and renamed into place. Exit codes:
// 0 success, 1 a failed run, export or file write, 2 bad flags or
// selection. A run fails when it does not pass run_failure (nothing
// committed, a coherency violation, a non-finite value); it is still
// reported, and stderr names the scenario, the run and the reason.
#include <cstdio>
#include <cstring>
#include <regex>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/scenario.hpp"
#include "obs/json.hpp"

namespace {

void usage(std::FILE* to) {
  std::fprintf(
      to,
      "usage: gemsd_bench --list [--filter=REGEX]\n"
      "       gemsd_bench --scenario=NAME [bench flags]\n"
      "       gemsd_bench --filter=REGEX  [bench flags]\n"
      "       gemsd_bench --export-spec=DIR [--filter=REGEX] [bench flags]\n"
      "\n"
      "  --list             list registered scenarios (name, runs, summary)\n"
      "  --scenario=NAME    run one scenario by exact name\n"
      "  --filter=REGEX     select scenarios whose name matches REGEX\n"
      "  --export-spec=DIR  write DIR/<name>.ini for the selected exportable\n"
      "                     scenarios (gemsd_run input, round-trip verified)\n"
      "  --out-dir=DIR      directory for BENCH_<name>.json results files\n"
      "%s",
      gemsd::bench_usage().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace gemsd;

  bool list = false;
  std::string scenario_name, filter, export_dir, out_dir;
  std::vector<std::string> rest;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--list") {
      list = true;
    } else if (a.rfind("--scenario=", 0) == 0) {
      scenario_name = a.substr(11);
    } else if (a.rfind("--filter=", 0) == 0) {
      filter = a.substr(9);
    } else if (a.rfind("--export-spec=", 0) == 0) {
      export_dir = a.substr(14);
    } else if (a.rfind("--out-dir=", 0) == 0) {
      out_dir = a.substr(10);
    } else if (a == "--help" || a == "-h") {
      usage(stdout);
      return 0;
    } else {
      rest.push_back(a);
    }
  }

  BenchOptions opt;
  if (const std::string err = try_parse_bench_args(rest, opt); !err.empty()) {
    std::fprintf(stderr, "gemsd_bench: %s\n\n", err.c_str());
    usage(stderr);
    return 2;
  }

  // Resolve the selection: one exact name, a regex, or (for --list and
  // --export-spec) the whole registry.
  std::vector<const Scenario*> sel;
  if (!scenario_name.empty()) {
    const Scenario* sc = find_scenario(scenario_name);
    if (!sc) {
      std::fprintf(stderr,
                   "gemsd_bench: unknown scenario '%s' (see --list)\n",
                   scenario_name.c_str());
      return 2;
    }
    sel.push_back(sc);
  } else {
    std::regex re;
    if (!filter.empty()) {
      try {
        re = std::regex(filter);
      } catch (const std::regex_error& e) {
        std::fprintf(stderr, "gemsd_bench: bad --filter regex: %s\n",
                     e.what());
        return 2;
      }
    }
    for (const Scenario& sc : scenario_registry()) {
      if (filter.empty() || std::regex_search(sc.name, re)) {
        sel.push_back(&sc);
      }
    }
    if (sel.empty()) {
      std::fprintf(stderr, "gemsd_bench: no scenario matches '%s'\n",
                   filter.c_str());
      return 2;
    }
  }

  if (list) {
    for (const Scenario* sc : sel) {
      const std::size_t n = scenario_cell_count(*sc, opt);
      std::printf("%-24s %4zu run%s  %s\n", sc->name.c_str(), n,
                  n == 1 ? " " : "s", sc->doc.c_str());
    }
    return 0;
  }

  if (!export_dir.empty()) {
    int written = 0;
    for (const Scenario* sc : sel) {
      if (!sc->exportable()) {
        std::fprintf(stderr, "gemsd_bench: skipping %s (not expressible "
                             "as a run spec)\n",
                     sc->name.c_str());
        continue;
      }
      std::string text;
      try {
        text = export_scenario_spec(*sc, opt);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "gemsd_bench: %s\n", e.what());
        return 1;
      }
      const std::string path = export_dir + "/" + sc->name + ".ini";
      if (const std::string err = obs::write_file(path, text); !err.empty()) {
        std::fprintf(stderr, "gemsd_bench: %s\n", err.c_str());
        return 1;
      }
      std::printf("wrote %s\n", path.c_str());
      ++written;
    }
    return written ? 0 : 1;
  }

  if (scenario_name.empty() && filter.empty()) {
    std::fprintf(stderr,
                 "gemsd_bench: nothing selected (use --list, "
                 "--scenario=NAME, or --filter=REGEX)\n\n");
    usage(stderr);
    return 2;
  }
  if (sel.size() > 1 && !opt.metrics_json.empty()) {
    std::fprintf(stderr,
                 "gemsd_bench: --metrics-json only works with a single "
                 "scenario (results files would overwrite each other); "
                 "use --out-dir=DIR\n");
    return 2;
  }

  // A sweep whose every point lies above --max-nodes would print only its
  // fingerprint line and exit 0.
  for (const Scenario* sc : sel) {
    if (!sc->report && scenario_cell_count(*sc, opt) == 0) {
      std::fprintf(stderr,
                   "gemsd_bench: scenario %s selects no runs (check "
                   "--max-nodes)\n",
                   sc->name.c_str());
      return 2;
    }
  }

  int rc = 0;
  for (std::size_t i = 0; i < sel.size(); ++i) {
    const Scenario& sc = *sel[i];
    if (sel.size() > 1) {
      std::printf("%s=== %s ===\n", i ? "\n" : "", sc.name.c_str());
    }
    try {
      const ScenarioResult res = run_scenario(sc, opt);
      emit_scenario(sc, opt, res, out_dir);
      for (std::size_t r = 0; r < res.runs.size(); ++r) {
        const std::string why = run_failure(res.runs[r].result);
        if (why.empty()) continue;
        std::fprintf(stderr, "gemsd_bench: %s run %zu (%s): %s\n",
                     sc.name.c_str(), r, res.plan.cells[r].label.c_str(),
                     why.c_str());
        rc = 1;
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "gemsd_bench: %s: %s\n", sc.name.c_str(),
                   e.what());
      return 1;
    }
  }
  return rc;
}
