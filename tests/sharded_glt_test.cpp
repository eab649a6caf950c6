// Sharded-GLT tests: the shard oracle gate (gem_shards=1 must be
// bit-identical to the unsharded baselines — on the pinned regression
// goldens and on every shipped spec) and the queueing claim the shards exist
// for: on a GLT-bound configuration, four shards beat one. Equality is == /
// DOUBLE_EQ throughout — shard routing is a pure function of the page id, so
// any divergence is a bug, not noise.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "core/config_file.hpp"
#include "core/experiment.hpp"
#include "workload/trace_generator.hpp"

#ifndef GEMSD_SOURCE_DIR
#define GEMSD_SOURCE_DIR "."
#endif

namespace {

using namespace gemsd;

// --- shared helpers --------------------------------------------------------

struct GateResult {
  RunResult r;
  std::vector<std::pair<std::string, double>> detail;  // wall clock stripped
};

GateResult run_gate(SystemConfig cfg, const workload::Trace* trace) {
  // Shrunk horizon: the gate checks routing equivalence, not steady state.
  cfg.warmup = 0.1;
  cfg.measure = 0.3;
  GateResult g;
  g.r = trace ? run_trace(cfg, *trace) : run_debit_credit(cfg);
  if (g.r.telemetry) {
    for (const auto& kv : g.r.telemetry->detail) {
      if (kv.first == "sched.wall_events_per_s") continue;
      g.detail.push_back(kv);
    }
  }
  return g;
}

void expect_identical(const GateResult& s, const GateResult& p,
                      const std::string& what) {
  EXPECT_GT(s.r.commits, 0u) << what << " (vacuous gate run)";
  EXPECT_DOUBLE_EQ(s.r.resp_ms, p.r.resp_ms) << what;
  EXPECT_DOUBLE_EQ(s.r.resp_ci_ms, p.r.resp_ci_ms) << what;
  EXPECT_DOUBLE_EQ(s.r.resp_p95_ms, p.r.resp_p95_ms) << what;
  EXPECT_DOUBLE_EQ(s.r.throughput, p.r.throughput) << what;
  EXPECT_EQ(s.r.commits, p.r.commits) << what;
  EXPECT_EQ(s.r.aborts, p.r.aborts) << what;
  EXPECT_EQ(s.r.deadlocks, p.r.deadlocks) << what;
  EXPECT_DOUBLE_EQ(s.r.cpu_util, p.r.cpu_util) << what;
  EXPECT_DOUBLE_EQ(s.r.messages_per_txn, p.r.messages_per_txn) << what;
  ASSERT_EQ(s.detail.size(), p.detail.size()) << what;
  for (std::size_t i = 0; i < s.detail.size(); ++i) {
    EXPECT_EQ(s.detail[i].first, p.detail[i].first) << what;
    EXPECT_DOUBLE_EQ(s.detail[i].second, p.detail[i].second)
        << what << " key " << s.detail[i].first;
  }
}

const workload::Trace& shared_trace() {
  static const workload::Trace trace = [] {
    sim::Rng rng(7);
    workload::SyntheticTraceConfig tc;
    tc.transactions = 4000;
    return workload::generate_synthetic_trace(tc, rng);
  }();
  return trace;
}

// --- shard oracle gate -----------------------------------------------------

// The pinned regression goldens, replayed through the sharded storage core
// with gem_shards set *explicitly* to 1. The values are the same committed
// baselines regression_test.cpp pins — if these drift, the sharded routing
// changed single-GEM behaviour.
TEST(ShardOracleGate, RegressionGoldensBitIdenticalAtShardsOne) {
  SystemConfig cfg = make_debit_credit_config();
  cfg.nodes = 3;
  cfg.coupling = Coupling::GemLocking;
  cfg.update = UpdateStrategy::NoForce;
  cfg.routing = Routing::Random;
  cfg.warmup = 2;
  cfg.measure = 8;
  cfg.seed = 42;
  cfg.gem.shards = 1;
  const RunResult gem = run_debit_credit(cfg);
  EXPECT_EQ(gem.commits, 2403u);
  EXPECT_NEAR(gem.resp_ms, 61.079188, 1e-4);
  EXPECT_NEAR(gem.hit_ratio[0], 0.234486, 1e-5);

  SystemConfig pcl = make_debit_credit_config();
  pcl.nodes = 3;
  pcl.coupling = Coupling::PrimaryCopy;
  pcl.update = UpdateStrategy::Force;
  pcl.routing = Routing::Affinity;
  pcl.warmup = 2;
  pcl.measure = 8;
  pcl.seed = 42;
  pcl.gem.shards = 1;
  const RunResult r = run_debit_credit(pcl);
  EXPECT_EQ(r.commits, 2455u);
  EXPECT_NEAR(r.resp_ms, 90.679721, 1e-4);
  EXPECT_NEAR(r.local_lock_fraction, 0.954074, 1e-5);
  EXPECT_NEAR(r.messages_per_txn, 0.275764, 1e-5);
}

// Every shipped spec, as-written vs with gem_shards forced to 1: the full
// telemetry detail must match exactly. This replays the whole corpus —
// every coupling mode, storage layout and update strategy we ship — through
// the sharded core and checks the oracle property end to end.
TEST(ShardOracleGate, EveryShippedSpecUnchangedByForcedShardsOne) {
  const std::string dir = std::string(GEMSD_SOURCE_DIR) + "/specs";
  if (!std::filesystem::exists(dir + "/fig_4_1.ini")) {
    GTEST_SKIP() << "specs/ not reachable";
  }
  int files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".ini") continue;
    ++files;
    const SpecDoc doc = parse_spec_doc_file(entry.path().string());
    std::vector<std::size_t> picks{0};
    if (doc.runs.size() > 1) picks.push_back(doc.runs.size() - 1);
    for (const std::size_t i : picks) {
      const RunSpec& spec = doc.runs[i];
      const workload::Trace* trace =
          spec.kind == RunSpec::Kind::Trace ? &shared_trace() : nullptr;
      SystemConfig cfg;
      if (trace) {
        cfg = make_trace_config(*trace);
        apply_spec_keys(cfg, spec.keys);
      } else {
        cfg = spec.cfg;
      }
      // Specs that deliberately shard (shards_glt.ini) are outside the
      // oracle's domain: forcing them to one shard *must* change results.
      if (cfg.gem.shards != 1) continue;
      const GateResult baseline = run_gate(cfg, trace);
      SystemConfig forced = cfg;
      forced.gem.shards = 1;
      const GateResult oracle = run_gate(forced, trace);
      expect_identical(
          baseline, oracle,
          entry.path().filename().string() + " run " + std::to_string(i));
    }
  }
  EXPECT_GE(files, 19) << "shipped spec corpus shrank?";
}

// --- the point of the shards -----------------------------------------------

// On a GLT-bound configuration (GEM entry ops at 100 us, everything else
// cheap), four shards must strictly beat one shard on response time: the
// single lock server is the queueing bottleneck, and sharding it is the
// whole reason the sharded core exists (cf. the shards_glt scenario).
TEST(ShardedGlt, FourShardsBeatOneOnGltBoundConfig) {
  auto run_shards = [](int shards) {
    SystemConfig cfg = make_debit_credit_config();
    cfg.nodes = 10;
    cfg.coupling = Coupling::GemLocking;
    cfg.update = UpdateStrategy::NoForce;
    cfg.routing = Routing::Random;
    cfg.buffer_pages = 1000;
    cfg.gem.entry_access = 100e-6;  // GLT-bound: lock service dominates
    cfg.gem.shards = shards;
    cfg.warmup = 1.0;
    cfg.measure = 4.0;
    return run_debit_credit(cfg);
  };
  const RunResult one = run_shards(1);
  const RunResult four = run_shards(4);
  ASSERT_GT(one.commits, 0u);
  ASSERT_GT(four.commits, 0u);
  EXPECT_LT(four.resp_ms, one.resp_ms)
      << "sharding the GLT should relieve the lock-server queue";
  EXPECT_GE(four.throughput, one.throughput * 0.95);
}

}  // namespace
