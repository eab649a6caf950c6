// Failure/recovery tests: crash semantics (lost transactions, rerouting),
// REDO of owned pages, PCL's GLA freeze vs GEM's surviving lock table, and
// post-recovery coherency.
#include <gtest/gtest.h>

#include "cc/primary_copy_protocol.hpp"
#include "core/system.hpp"
#include "workload/workload.hpp"

namespace gemsd {
namespace {

using workload::PageRef;
using workload::TxnSpec;

constexpr PartitionId kT = 0;
PageId pg(std::int64_t n) { return PageId{kT, n}; }

SystemConfig cluster_cfg(Coupling c, int nodes = 3) {
  SystemConfig cfg;
  cfg.nodes = nodes;
  cfg.coupling = c;
  cfg.update = UpdateStrategy::NoForce;
  cfg.buffer_pages = 50;
  cfg.partitions.resize(1);
  cfg.partitions[0].name += "T";
  cfg.partitions[0].pages_per_unit = 1000;
  cfg.partitions[0].locked = true;
  cfg.partitions[0].disks_per_unit = 4;
  return cfg;
}

class ModGla : public workload::GlaMap {
 public:
  explicit ModGla(int nodes) : nodes_(nodes) {}
  NodeId gla(PageId p) const override {
    return static_cast<NodeId>(p.page % nodes_);
  }

 private:
  int nodes_;
};
struct NullGen : workload::WorkloadGenerator {
  TxnSpec next(sim::Rng&) override { return {}; }
  int num_types() const override { return 1; }
};
System make_system(const SystemConfig& cfg) {
  System::Workload wl;
  wl.gen = std::make_unique<NullGen>();
  wl.router = std::make_unique<workload::RandomRouter>(cfg.nodes);
  wl.gla = std::make_unique<ModGla>(cfg.nodes);
  return System(cfg, std::move(wl));
}

TxnSpec write_txn(std::initializer_list<std::int64_t> pages) {
  TxnSpec t;
  for (auto p : pages) t.refs.push_back(PageRef{pg(p), true});
  return t;
}
TxnSpec read_txn(std::initializer_list<std::int64_t> pages) {
  TxnSpec t;
  for (auto p : pages) t.refs.push_back(PageRef{pg(p), false});
  return t;
}

TEST(Failure, InFlightTransactionsAreLostNotCommitted) {
  auto sys = make_system(cluster_cfg(Coupling::GemLocking));
  for (int i = 0; i < 20; ++i) sys.submit(1, write_txn({i, i + 100}));
  sys.run_until(sys.scheduler().now() + 0.005);  // mid-flight
  sys.fail_node(1);
  sys.scheduler().run_all();
  EXPECT_FALSE(sys.metrics().lost_txns.value() == 0);
  EXPECT_EQ(sys.metrics().commits.value() + sys.metrics().lost_txns.value(),
            20u);
  // Strict 2PL fully drained despite the crash (locks of lost txns freed).
  EXPECT_EQ(sys.protocol().table().locked_pages(), 0u);
}

TEST(Failure, OwnedPagesAreRedoneAndReadable) {
  auto sys = make_system(cluster_cfg(Coupling::GemLocking));
  sys.submit(1, write_txn({7}));  // node 1 becomes NOFORCE owner of page 7
  sys.scheduler().run_all();
  ASSERT_EQ(sys.protocol().directory().owner(pg(7)), 1);
  sys.fail_node(1);
  sys.scheduler().run_all();  // recovery completes
  // Ownership cleared: storage is current again.
  EXPECT_EQ(sys.protocol().directory().owner(pg(7)), kNoNode);
  EXPECT_GT(sys.metrics().recovery_time.count(), 0u);
  // A reader on a survivor gets the current version from storage.
  sys.submit(0, read_txn({7}));
  sys.scheduler().run_all();
  EXPECT_EQ(sys.metrics().coherency_violations.value(), 0u);
  EXPECT_EQ(sys.buffer(0).cached_seqno(pg(7)), 1u);
}

TEST(Failure, NodeRejoinsAfterRestart) {
  auto sys = make_system(cluster_cfg(Coupling::GemLocking));
  sys.fail_node(2);
  EXPECT_FALSE(sys.node_up(2));
  sys.scheduler().run_all();
  EXPECT_TRUE(sys.node_up(2));
  // The restarted node is cold but fully functional.
  sys.submit(2, write_txn({42}));
  sys.scheduler().run_all();
  EXPECT_GE(sys.metrics().commits.value(), 1u);
}

TEST(Failure, PclFreezesFailedGlaUntilRebuild) {
  auto cfg = cluster_cfg(Coupling::PrimaryCopy);
  cfg.failure.gla_rebuild = 2.0;
  auto sys = make_system(cfg);
  sys.fail_node(1);  // GLA for pages with page % 3 == 1
  // A survivor's request against the frozen partition must stall...
  sys.submit(0, write_txn({1}));  // gla(1) == 1 -> frozen
  sys.run_until(sys.scheduler().now() + 1.0);
  EXPECT_EQ(sys.metrics().commits.value(), 0u);
  auto& pcl = static_cast<cc::PrimaryCopyProtocol&>(sys.protocol());
  EXPECT_TRUE(pcl.gla_frozen(1));
  // ...and complete once the authority is reconstructed.
  sys.scheduler().run_all();
  EXPECT_FALSE(pcl.gla_frozen(1));
  EXPECT_EQ(sys.metrics().commits.value(), 1u);
}

TEST(Failure, GemLockingKeepsLockingDuringCrash) {
  // The GLT lives in non-volatile GEM: survivors keep locking even pages
  // "belonging" to the dead node's share — no freeze exists at all.
  auto sys = make_system(cluster_cfg(Coupling::GemLocking));
  sys.fail_node(1);
  sys.submit(0, write_txn({1}));
  sys.run_until(sys.scheduler().now() + 1.0);
  EXPECT_EQ(sys.metrics().commits.value(), 1u);
}

TEST(Failure, SourceRoutesAroundDownNodes) {
  auto cfg = cluster_cfg(Coupling::GemLocking);
  cfg.arrival_rate_per_node = 50.0;
  cfg.failure.node_restart = 3.0;
  auto sys = make_system(cfg);
  sys.start_source();
  sys.run_until(0.5);
  sys.fail_node(1);
  const auto before = sys.tm(1).submitted();
  sys.run_until(1.5);  // node 1 down; arrivals must go elsewhere
  EXPECT_EQ(sys.tm(1).submitted(), before);
  sys.run_until(5.0);  // rejoined: traffic returns
  EXPECT_GT(sys.tm(1).submitted(), before);
}

TEST(Failure, ClusterKeepsCommittingThroughCrash) {
  for (Coupling c : {Coupling::GemLocking, Coupling::PrimaryCopy}) {
    auto cfg = cluster_cfg(c);
    cfg.arrival_rate_per_node = 40.0;
    auto sys = make_system(cfg);
    sim::Rng rng(5);
    sys.start_source();
    sys.run_until(1.0);
    sys.fail_node(2);
    sys.run_until(10.0);
    EXPECT_GT(sys.metrics().commits.value(), 200u);
    EXPECT_EQ(sys.metrics().coherency_violations.value(), 0u);
    EXPECT_TRUE(sys.node_up(2));
  }
}

}  // namespace
}  // namespace gemsd
