// The result ledger: one line per --quick run of every registry scenario
// (scenario, run index, cell label, config hash, result digest), compared
// exactly with the committed results/LEDGER.tsv. The digest covers every
// simulated statistic of a run (run_digest), so any change that moves one
// value of one run shows up as a changed line of its scenario.
#include <gtest/gtest.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/scenario.hpp"
#include "obs/fingerprint.hpp"
#include "obs/json.hpp"

#ifndef GEMSD_SOURCE_DIR
#define GEMSD_SOURCE_DIR "."
#endif
#ifndef GEMSD_BINARY_DIR
#define GEMSD_BINARY_DIR "."
#endif

namespace gemsd {
namespace {

/// Ledger lines by their first field: the scenario, or "#" for the header.
std::map<std::string, std::vector<std::string>> by_scenario(
    const std::string& text) {
  std::map<std::string, std::vector<std::string>> groups;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    groups[line.rfind('#', 0) == 0 ? "#" : line.substr(0, line.find('\t'))]
        .push_back(line);
  }
  return groups;
}

/// The lines that differ, run by run, under one heading per scenario.
std::string diff_by_scenario(const std::string& committed,
                             const std::string& fresh) {
  auto was = by_scenario(committed);
  auto now = by_scenario(fresh);
  for (const auto& entry : was) now[entry.first];  // keys of both sides
  std::string out;
  for (const auto& [key, lines] : now) {
    const std::vector<std::string>& old = was[key];
    if (old == lines) continue;
    out += "== " + key + " ==\n";
    for (std::size_t i = 0; i < std::max(old.size(), lines.size()); ++i) {
      if (i < old.size() && i < lines.size() && old[i] == lines[i]) continue;
      if (i < old.size()) out += "- " + old[i] + "\n";
      if (i < lines.size()) out += "+ " + lines[i] + "\n";
    }
  }
  return out;
}

std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

TEST(Ledger, MatchesCommittedLedger) {
  BenchOptions opt;  // seed 42, jobs 0 = every core
  ASSERT_EQ(try_parse_bench_args({"--quick"}, opt), "");
  char header[160];
  std::snprintf(header, sizeof header,
                "# --quick runs (warmup %g s, measure %g s, seed %" PRIu64
                "): scenario, run, cell, config_hash, digest\n",
                opt.warmup, opt.measure, opt.seed);
  std::string fresh = header;
  for (const Scenario& sc : scenario_registry()) {
    const ScenarioResult res = run_scenario(sc, opt);
    for (std::size_t i = 0; i < res.runs.size(); ++i) {
      const BenchRun& run = res.runs[i];
      EXPECT_EQ(run_failure(run.result), "") << sc.name << " run " << i;
      fresh += sc.name + "\t" + std::to_string(i) + "\t" +
               res.plan.cells[i].label + "\t" +
               obs::config_hash_hex(run.config) + "\t" +
               hex16(run_digest(run.result)) + "\n";
    }
  }

  const std::string path = GEMSD_SOURCE_DIR "/results/LEDGER.tsv";
  std::ifstream in(path);
  std::stringstream committed;
  committed << in.rdbuf();
  if (committed.str() == fresh) return;

  const std::string out = GEMSD_BINARY_DIR "/LEDGER.tsv";
  const std::string err = obs::write_file(out, fresh);
  ADD_FAILURE() << "results differ from " << path << " (- committed, + now):\n"
                << diff_by_scenario(committed.str(), fresh)
                << (err.empty() ? "fresh ledger written; if the change is "
                                  "intended, adopt it with:\n  cp " +
                                      out + " " + path
                                : "cannot write the fresh ledger: " + err);
}

}  // namespace
}  // namespace gemsd
