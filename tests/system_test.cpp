// Integration tests: full debit-credit clusters across every combination of
// coupling, update strategy and routing (parameterized), checking the
// invariants that must hold regardless of configuration, plus targeted
// system-level properties (determinism, TPC scaling, stats reset).
#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "core/experiment.hpp"
#include "core/system.hpp"
#include "obs/resources.hpp"
#include "obs/timeseries.hpp"
#include "workload/trace_generator.hpp"

namespace gemsd {
namespace {

SystemConfig base_cfg() {
  SystemConfig cfg = make_debit_credit_config();
  cfg.warmup = 1.0;
  cfg.measure = 4.0;
  return cfg;
}

using Combo = std::tuple<Coupling, UpdateStrategy, Routing, int /*nodes*/>;

class FullSystem : public ::testing::TestWithParam<Combo> {};

TEST_P(FullSystem, InvariantsHold) {
  const auto [coupling, update, routing, nodes] = GetParam();
  SystemConfig cfg = base_cfg();
  cfg.coupling = coupling;
  cfg.update = update;
  cfg.routing = routing;
  cfg.nodes = nodes;

  System sys(cfg, make_debit_credit_workload(cfg));
  const RunResult r = sys.run();

  // The open system must keep up with the offered load.
  const double offered = cfg.arrival_rate_per_node * nodes;
  EXPECT_GT(r.commits, 100u);
  EXPECT_NEAR(r.throughput, offered, offered * 0.15);

  // Correctness invariants.
  EXPECT_EQ(sys.metrics().coherency_violations.value(), 0u);
  EXPECT_EQ(r.deadlocks, 0u);  // debit-credit orders references canonically
  EXPECT_EQ(r.aborts, 0u);

  // Sanity of rates and ratios.
  EXPECT_GT(r.resp_ms, 10.0);
  EXPECT_LT(r.resp_ms, 500.0);
  EXPECT_GT(r.cpu_util, 0.3);
  EXPECT_LT(r.cpu_util_max, 1.0);
  for (double h : r.hit_ratio) {
    EXPECT_GE(h, 0.0);
    EXPECT_LE(h, 1.0);
  }
  // HISTORY: blocking factor 20 -> 95% hits (every 20th access allocates).
  EXPECT_NEAR(r.hit_ratio[DebitCreditIds::kHistory], 0.95, 0.01);
  // ACCOUNT is far too large to cache.
  EXPECT_LT(r.hit_ratio[DebitCreditIds::kAccount], 0.02);

  if (nodes == 1) {
    EXPECT_EQ(r.messages_per_txn, 0.0);  // no partner to talk to
  }
  if (coupling == Coupling::GemLocking) {
    EXPECT_GT(sys.gem().entry_ops(), 0u);  // GLT in GEM is exercised
    EXPECT_LT(r.gem_util, 0.05);           // paper: < 2% even at 1000 TPS
    EXPECT_DOUBLE_EQ(r.local_lock_fraction, 1.0);
  } else {
    EXPECT_EQ(sys.gem().entry_ops(), 0u);  // loose coupling never touches GEM
    if (nodes > 1 && routing == Routing::Affinity) {
      // Coordinated GLA + routing keeps almost all locks local.
      EXPECT_GT(r.local_lock_fraction, 0.9);
    }
    if (nodes > 1 && routing == Routing::Random) {
      EXPECT_LT(r.local_lock_fraction, 0.7);
      EXPECT_GT(r.messages_per_txn, 1.0);
    }
  }
  if (update == UpdateStrategy::Force) {
    // Three modified pages force-written per transaction.
    EXPECT_NEAR(r.force_writes_per_txn, 3.0, 0.1);
  } else {
    EXPECT_EQ(r.force_writes_per_txn, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    CouplingUpdateRouting, FullSystem,
    ::testing::Combine(
        ::testing::Values(Coupling::GemLocking, Coupling::PrimaryCopy),
        ::testing::Values(UpdateStrategy::NoForce, UpdateStrategy::Force),
        ::testing::Values(Routing::Affinity, Routing::Random),
        ::testing::Values(1, 3)),
    [](const ::testing::TestParamInfo<Combo>& info) {
      std::string s = to_string(std::get<0>(info.param));
      s += "_";
      s += to_string(std::get<1>(info.param));
      s += "_";
      s += to_string(std::get<2>(info.param));
      s += "_N";
      s += std::to_string(std::get<3>(info.param));
      return s;
    });

TEST(SystemDeterminism, SameSeedSameResult) {
  SystemConfig cfg = base_cfg();
  cfg.nodes = 2;
  cfg.coupling = Coupling::PrimaryCopy;
  cfg.routing = Routing::Random;
  const RunResult a = run_debit_credit(cfg);
  const RunResult b = run_debit_credit(cfg);
  EXPECT_EQ(a.commits, b.commits);
  EXPECT_DOUBLE_EQ(a.resp_ms, b.resp_ms);
  EXPECT_DOUBLE_EQ(a.cpu_util, b.cpu_util);
}

TEST(SystemDeterminism, DifferentSeedDifferentSample) {
  SystemConfig cfg = base_cfg();
  cfg.nodes = 2;
  const RunResult a = run_debit_credit(cfg);
  cfg.seed = 777;
  const RunResult b = run_debit_credit(cfg);
  EXPECT_NE(a.resp_ms, b.resp_ms);
}

TEST(System, GemAllocationEliminatesBranchTellerDiskIO) {
  SystemConfig cfg = base_cfg();
  cfg.nodes = 2;
  cfg.update = UpdateStrategy::Force;
  cfg.routing = Routing::Random;
  cfg.partitions[DebitCreditIds::kBranchTeller].storage = StorageKind::Gem;
  System sys(cfg, make_debit_credit_workload(cfg));
  const RunResult r = sys.run();
  EXPECT_GT(r.commits, 100u);
  EXPECT_EQ(sys.storage().group(DebitCreditIds::kBranchTeller), nullptr);
  EXPECT_GT(sys.gem().page_ops(), 0u);  // B/T reads + force-writes go to GEM
}

TEST(System, NonVolatileDiskCacheAbsorbsForceWrites) {
  SystemConfig cfg = base_cfg();
  cfg.nodes = 2;
  cfg.update = UpdateStrategy::Force;
  cfg.routing = Routing::Random;
  cfg.partitions[DebitCreditIds::kBranchTeller].storage =
      StorageKind::DiskNvCache;
  System sys(cfg, make_debit_credit_workload(cfg));
  const RunResult r = sys.run();
  EXPECT_GT(r.commits, 100u);
  auto* grp = sys.storage().group(DebitCreditIds::kBranchTeller);
  ASSERT_NE(grp, nullptr);
  ASSERT_TRUE(grp->has_cache());
  // With all B/T pages cached, reads hit the shared cache.
  EXPECT_GT(grp->cache()->hits(), 0u);
}

TEST(System, TpcScalingGrowsDatabaseWithNodes) {
  SystemConfig cfg = make_debit_credit_config();
  cfg.nodes = 7;
  EXPECT_EQ(cfg.partition_pages(DebitCreditIds::kBranchTeller), 700);
  EXPECT_EQ(cfg.partition_pages(DebitCreditIds::kAccount), 7000000);
}

TEST(System, StatsResetClearsWarmupArtifacts) {
  SystemConfig cfg = base_cfg();
  cfg.nodes = 1;
  System sys(cfg, make_debit_credit_workload(cfg));
  sys.start_source();
  sys.run_until(1.0);
  EXPECT_GT(sys.metrics().commits.value(), 0u);
  sys.reset_stats();
  EXPECT_EQ(sys.metrics().commits.value(), 0u);
  sys.run_until(2.0);
  EXPECT_GT(sys.metrics().commits.value(), 0u);
}

TEST(System, ThroughputScalesLinearlyWithNodesForAffinity) {
  SystemConfig cfg = base_cfg();
  cfg.routing = Routing::Affinity;
  cfg.nodes = 1;
  const RunResult r1 = run_debit_credit(cfg);
  cfg.nodes = 4;
  const RunResult r4 = run_debit_credit(cfg);
  EXPECT_NEAR(r4.throughput / r1.throughput, 4.0, 0.5);
  // Paper headline: response times stay ~constant under affinity routing.
  EXPECT_NEAR(r4.resp_ms, r1.resp_ms, r1.resp_ms * 0.25);
}

TEST(System, MplLimitsConcurrency) {
  SystemConfig cfg = base_cfg();
  cfg.nodes = 1;
  cfg.mpl = 2;  // artificially tight: input queue must form
  System sys(cfg, make_debit_credit_workload(cfg));
  const RunResult r = sys.run();
  EXPECT_GT(sys.metrics().mpl_wait.mean(), 0.0);
  EXPECT_GT(r.brk_queue_ms, 0.0);
}

TEST(System, ZeroBufferIsRejected) {
  // A 2-node GEM debit-credit cluster with buffer 0 used to hang in the
  // first install (eviction from an empty LRU, forever).
  SystemConfig cfg = base_cfg();
  cfg.nodes = 2;
  cfg.buffer_pages = 0;
  EXPECT_THROW(System(cfg, make_debit_credit_workload(cfg)),
               std::invalid_argument);
}

TEST(System, NegativeBufferIsRejected) {
  // buffer -5 used to wrap to SIZE_MAX frames and run as an unbounded
  // buffer, printing a normal-looking row.
  SystemConfig cfg = base_cfg();
  cfg.nodes = 2;
  cfg.buffer_pages = -5;
  EXPECT_THROW(System(cfg, make_debit_credit_workload(cfg)),
               std::invalid_argument);
}

TEST(System, NegativeCachePagesAreRejected) {
  SystemConfig cfg = base_cfg();
  cfg.partitions[0].disk_cache_pages = -1;
  EXPECT_THROW(System(cfg, make_debit_credit_workload(cfg)),
               std::invalid_argument);
  cfg = base_cfg();
  cfg.partitions[0].gem_cache_pages = -1;
  EXPECT_THROW(System(cfg, make_debit_credit_workload(cfg)),
               std::invalid_argument);
}

TEST(System, NonPositiveLogDisksIsRejected) {
  // A log group needs at least one arm; 0 used to be run silently as 1.
  for (const int disks : {0, -1}) {
    SystemConfig cfg = base_cfg();
    cfg.nodes = 2;
    cfg.log_disks_per_node = disks;
    EXPECT_THROW(System(cfg, make_debit_credit_workload(cfg)),
                 std::invalid_argument)
        << "log_disks_per_node " << disks;
  }
}

TEST(System, EveryBadFieldIsNamedInOneError) {
  // Configs built in code skip the spec parser: validate() still rejects
  // them, naming every bad key in one throw.
  SystemConfig cfg = base_cfg();
  cfg.mpl = 0;
  cfg.cpu.processors = -1;
  try {
    System sys(cfg, make_debit_credit_workload(cfg));
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("mpl"), std::string::npos) << what;
    EXPECT_NE(what.find("cpu_procs"), std::string::npos) << what;
  }
}

TEST(System, NonFiniteOrNegativeHorizonIsRejected) {
  // Configs built in code skip the spec parser: an infinite or NaN horizon
  // hung or ran silently, and a negative warm-up moved the clock back.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double m : {inf, nan, -1.0, 0.0}) {
    SystemConfig cfg = base_cfg();
    cfg.nodes = 2;
    cfg.measure = m;
    EXPECT_THROW(System(cfg, make_debit_credit_workload(cfg)),
                 std::invalid_argument)
        << "measure " << m;
  }
  for (const double w : {inf, nan, -1.0}) {
    SystemConfig cfg = base_cfg();
    cfg.nodes = 2;
    cfg.warmup = w;
    EXPECT_THROW(System(cfg, make_debit_credit_workload(cfg)),
                 std::invalid_argument)
        << "warmup " << w;
  }
}

TEST(System, NonPositiveArrivalRateIsRejected) {
  // tps = -5 drew zero inter-arrival gaps until memory ran out.
  for (const double r :
       {-5.0, 0.0, std::numeric_limits<double>::quiet_NaN(),
        std::numeric_limits<double>::infinity()}) {
    SystemConfig cfg = base_cfg();
    cfg.nodes = 2;
    cfg.arrival_rate_per_node = r;
    EXPECT_THROW(System(cfg, make_debit_credit_workload(cfg)),
                 std::invalid_argument)
        << "rate " << r;
  }
}

// The detail block, the resources snapshot and the time series all read
// one station list. Config (a) never builds a log group (log in GEM), shards
// the GEM and keeps a partition GEM-resident; (b) is PCL with a disk log.
TEST(System, StationInventoryIsSharedByEveryObserver) {
  SystemConfig gem_log = base_cfg();
  gem_log.nodes = 3;
  gem_log.coupling = Coupling::GemLocking;
  gem_log.log_storage = StorageKind::Gem;
  gem_log.gem.shards = 2;
  gem_log.partitions[DebitCreditIds::kBranchTeller].storage = StorageKind::Gem;
  gem_log.partitions[DebitCreditIds::kAccount].storage =
      StorageKind::DiskNvCache;
  gem_log.partitions[DebitCreditIds::kAccount].disk_cache_pages = 2000;
  SystemConfig pcl = base_cfg();
  pcl.nodes = 2;
  pcl.coupling = Coupling::PrimaryCopy;

  for (SystemConfig cfg : {gem_log, pcl}) {
    SCOPED_TRACE(cfg.nodes == 3 ? "gem log" : "pcl");
    cfg.warmup = 0.5;
    cfg.measure = 1.5;
    cfg.obs.resources = true;
    cfg.obs.timeseries = true;
    cfg.obs.audit = true;
    System sys(cfg, make_debit_credit_workload(cfg));
    const RunResult r = sys.run();
    EXPECT_TRUE(sys.auditor()->violations().empty());
    ASSERT_TRUE(r.telemetry && r.telemetry->resources &&
                r.telemetry->timeseries);
    const obs::TsSeries& ts = *r.telemetry->timeseries;
    std::map<std::string, double> detail(r.telemetry->detail.begin(),
                                         r.telemetry->detail.end());

    std::vector<std::string> ts_names;
    double cpu = 0, gem = 0, net = 0, disk = 0;
    std::size_t log_rows = 0;
    for (const obs::ResourceRow& row : r.telemetry->resources->rows) {
      if (row.name == "lock") continue;
      for (const char* key :
           {".util", ".queue_mean", ".wait_mean_s", ".completions"}) {
        EXPECT_EQ(detail.count(row.name + key), 1u) << row.name << key;
      }
      EXPECT_EQ(detail[row.name + ".completions"],
                static_cast<double>(row.completions))
          << row.name;
      if (row.kind == "cpu") cpu += row.capacity;
      if (row.kind == "gem") {
        gem += row.capacity;
        ts_names.push_back(row.name);
      }
      if (row.kind == "net") {
        net += row.capacity;
        ts_names.push_back(row.name);
      }
      if (row.kind == "disk" && row.name.ends_with(".arms")) {
        disk += row.capacity;
        ts_names.push_back(row.name.substr(0, row.name.size() - 5));
      }
      if (row.kind == "log") {
        disk += row.capacity;
        ++log_rows;
      }
    }
    ts_names.push_back("log");
    EXPECT_EQ(log_rows, static_cast<std::size_t>(cfg.nodes));

    std::vector<std::string> got;
    for (const obs::TsStation& st : ts.stations) got.push_back(st.name);
    EXPECT_EQ(got, ts_names);
    EXPECT_EQ(ts.cpu_capacity, cpu);
    EXPECT_EQ(ts.gem_capacity, gem);
    EXPECT_EQ(ts.net_capacity, net);
    EXPECT_EQ(ts.disk_capacity, disk);
  }
}

TEST(System, TraceWorkloadEndToEnd) {
  // Small synthetic trace through the full trace harness path.
  sim::Rng trng(11);
  workload::SyntheticTraceConfig tc;
  tc.transactions = 1500;
  const workload::Trace trace = workload::generate_synthetic_trace(tc, trng);
  SystemConfig cfg = make_trace_config(trace);
  cfg.nodes = 2;
  cfg.coupling = Coupling::PrimaryCopy;
  cfg.routing = Routing::Affinity;
  cfg.warmup = 2.0;
  cfg.measure = 6.0;
  System sys(cfg, make_trace_workload(cfg, trace));
  const RunResult r = sys.run();
  EXPECT_GT(r.commits, 100u);
  EXPECT_EQ(sys.metrics().coherency_violations.value(), 0u);
  EXPECT_GT(r.local_lock_fraction, 0.5);
  EXPECT_GT(r.resp_norm_ms, 0.0);
}

}  // namespace
}  // namespace gemsd
