// Property/stress tests: randomized transaction mixes through complete
// systems under deliberately hostile conditions (tiny buffers, hot pages,
// deadlock-prone access orders), with strong invariants checked at the end:
//
//  * no transaction ever observed a stale page version (coherency),
//  * every page's final version number equals the number of committed
//    transactions that wrote it (serialization / update conservation),
//  * every submitted transaction eventually commits (victims restart),
//  * the lock table drains completely.
//
// Parameterized across coupling x update strategy (TEST_P).
#include <gtest/gtest.h>

#include <map>
#include <tuple>

#include "core/system.hpp"
#include "workload/workload.hpp"

namespace gemsd {
namespace {

using workload::PageRef;
using workload::TxnSpec;

constexpr PartitionId kT = 0;
PageId pg(std::int64_t n) { return PageId{kT, n}; }

SystemConfig hostile_cfg(Coupling c, UpdateStrategy u, int nodes,
                         int buffer_pages) {
  SystemConfig cfg;
  cfg.nodes = nodes;
  cfg.coupling = c;
  cfg.update = u;
  cfg.buffer_pages = buffer_pages;
  cfg.mpl = 200;
  cfg.partitions.resize(1);
  auto& pc = cfg.partitions[0];
  pc.name += "T";
  pc.pages_per_unit = 64;  // tiny, hot page space
  pc.locked = true;
  pc.disks_per_unit = 8;
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

using Combo = std::tuple<Coupling, UpdateStrategy>;

class Stress : public ::testing::TestWithParam<Combo> {};

TEST_P(Stress, RandomMixedLoadKeepsInvariants) {
  const auto [coupling, update] = GetParam();
  SystemConfig cfg = hostile_cfg(coupling, update, 3, 8);  // 8-frame buffers!

  System::Workload wl;
  wl.gen = std::make_unique<NullGen>();
  wl.router = std::make_unique<workload::RandomRouter>(cfg.nodes);
  wl.gla = std::make_unique<ModGla>(cfg.nodes);
  System sys(cfg, std::move(wl));

  sim::Rng rng(12345);
  std::map<std::int64_t, int> committed_writes;  // expected per page
  const int kTxns = 400;
  for (int i = 0; i < kTxns; ++i) {
    TxnSpec t;
    const int len = static_cast<int>(rng.uniform_int(1, 6));
    // Random page sets in random order — deadlock-prone by construction.
    for (int r = 0; r < len; ++r) {
      const std::int64_t page = rng.uniform_int(0, 63);
      const bool write = rng.bernoulli(0.4);
      t.refs.push_back(PageRef{pg(page), write});
    }
    // Expected version bumps: distinct pages written by this txn.
    std::map<std::int64_t, bool> dirty;
    for (const auto& r : t.refs) {
      if (r.write) dirty[r.page.page] = true;
    }
    for (const auto& [p, d] : dirty) committed_writes[p] += 1;
    sys.submit(static_cast<NodeId>(rng.uniform_int(0, cfg.nodes - 1)), t);
  }
  sys.scheduler().run_all();

  // 1. Everything committed (deadlock victims restarted and succeeded).
  EXPECT_EQ(sys.metrics().commits.value(), static_cast<std::uint64_t>(kTxns));
  // 2. No stale version was ever accessed under a lock.
  EXPECT_EQ(sys.metrics().coherency_violations.value(), 0u);
  // 3. Update conservation: final version == number of committing writers.
  for (const auto& [page, writes] : committed_writes) {
    EXPECT_EQ(sys.protocol().directory().seqno(pg(page)),
              static_cast<SeqNo>(writes))
        << "page " << page;
  }
  // 4. Strict 2PL fully drained.
  EXPECT_EQ(sys.protocol().table().locked_pages(), 0u);
  // 5. Deadlocks may have occurred, but every victim eventually committed.
  EXPECT_EQ(sys.metrics().aborts.value(), sys.metrics().restarts.value());
}

TEST_P(Stress, UpgradeHeavyLoadConverges) {
  const auto [coupling, update] = GetParam();
  SystemConfig cfg = hostile_cfg(coupling, update, 2, 16);
  System::Workload wl;
  wl.gen = std::make_unique<NullGen>();
  wl.router = std::make_unique<workload::RandomRouter>(cfg.nodes);
  wl.gla = std::make_unique<ModGla>(cfg.nodes);
  System sys(cfg, std::move(wl));

  sim::Rng rng(99);
  const int kTxns = 200;
  for (int i = 0; i < kTxns; ++i) {
    // Read-then-write the same hot page: classic upgrade deadlock pattern.
    TxnSpec t;
    const std::int64_t page = rng.uniform_int(0, 3);
    t.refs.push_back(PageRef{pg(page), false});
    t.refs.push_back(PageRef{pg(page), true});
    sys.submit(static_cast<NodeId>(i % cfg.nodes), t);
  }
  sys.scheduler().run_all();
  EXPECT_EQ(sys.metrics().commits.value(), static_cast<std::uint64_t>(kTxns));
  EXPECT_EQ(sys.metrics().coherency_violations.value(), 0u);
  EXPECT_EQ(sys.protocol().table().locked_pages(), 0u);
  // All four hot pages saw every writer.
  SeqNo total = 0;
  for (std::int64_t p = 0; p < 4; ++p) {
    total += sys.protocol().directory().seqno(pg(p));
  }
  EXPECT_EQ(total, static_cast<SeqNo>(kTxns));
}

INSTANTIATE_TEST_SUITE_P(
    Protocols, Stress,
    ::testing::Combine(
        ::testing::Values(Coupling::GemLocking, Coupling::PrimaryCopy),
        ::testing::Values(UpdateStrategy::NoForce, UpdateStrategy::Force)),
    [](const ::testing::TestParamInfo<Combo>& info) {
      std::string s = to_string(std::get<0>(info.param));
      s += "_";
      s += to_string(std::get<1>(info.param));
      return s;
    });

}  // namespace
}  // namespace gemsd
