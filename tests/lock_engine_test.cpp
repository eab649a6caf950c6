// Tests for the [Yu87] central-lock-engine coupling mode: request/reply
// costs, engine queueing, broadcast invalidation, FORCE-only enforcement,
// and the coherency invariant under contention.
#include <gtest/gtest.h>

#include "cc/lock_engine_protocol.hpp"
#include "core/system.hpp"
#include "workload/workload.hpp"

namespace gemsd {
namespace {

using workload::PageRef;
using workload::TxnSpec;

constexpr PartitionId kT = 0;
PageId pg(std::int64_t n) { return PageId{kT, n}; }

SystemConfig engine_cfg(int nodes = 2) {
  SystemConfig cfg;
  cfg.nodes = nodes;
  cfg.coupling = Coupling::LockEngine;
  cfg.update = UpdateStrategy::Force;
  cfg.buffer_pages = 50;
  cfg.partitions.resize(1);
  cfg.partitions[0].name += "T";
  cfg.partitions[0].pages_per_unit = 1000;
  cfg.partitions[0].locked = true;
  cfg.partitions[0].disks_per_unit = 4;
  return cfg;
}

class SplitGla : public workload::GlaMap {
 public:
  NodeId gla(PageId p) const override { return p.page < 500 ? 0 : 1; }
};
struct NullGen : workload::WorkloadGenerator {
  TxnSpec next(sim::Rng&) override { return {}; }
  int num_types() const override { return 1; }
};
System make_system(const SystemConfig& cfg) {
  System::Workload wl;
  wl.gen = std::make_unique<NullGen>();
  wl.router = std::make_unique<workload::RandomRouter>(cfg.nodes);
  wl.gla = std::make_unique<SplitGla>();
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

TEST(LockEngine, RequiresForce) {
  SystemConfig cfg = engine_cfg();
  cfg.update = UpdateStrategy::NoForce;
  EXPECT_THROW(make_system(cfg), std::invalid_argument);
}

TEST(LockEngine, EveryLockVisitsTheEngine) {
  auto sys = make_system(engine_cfg());
  sys.submit(0, write_txn({1, 2, 3}));
  sys.scheduler().run_all();
  EXPECT_EQ(sys.metrics().commits.value(), 1u);
  auto& eng = static_cast<cc::LockEngineProtocol&>(sys.protocol());
  // 3 acquire visits + 1 batched release visit.
  EXPECT_EQ(eng.engine_ops(), 4u);
  EXPECT_EQ(sys.metrics().lock_remote.value(), 3u);
  EXPECT_DOUBLE_EQ(sys.metrics().local_lock_fraction(), 0.0);
}

TEST(LockEngine, BroadcastInvalidationDropsRemoteCopies) {
  auto sys = make_system(engine_cfg(3));
  // All three nodes cache page 7.
  sys.submit(0, read_txn({7}));
  sys.submit(1, read_txn({7}));
  sys.submit(2, read_txn({7}));
  sys.scheduler().run_all();
  EXPECT_TRUE(sys.buffer(1).has_copy(pg(7)));
  EXPECT_TRUE(sys.buffer(2).has_copy(pg(7)));
  // Node 0 updates it: the other copies must be gone after commit.
  sys.submit(0, write_txn({7}));
  sys.scheduler().run_all();
  EXPECT_FALSE(sys.buffer(1).has_copy(pg(7)));
  EXPECT_FALSE(sys.buffer(2).has_copy(pg(7)));
  EXPECT_TRUE(sys.buffer(0).has_copy(pg(7)));
  EXPECT_EQ(sys.metrics().coherency_violations.value(), 0u);
}

TEST(LockEngine, ReadAfterUpdateSeesCurrentVersionFromStorage) {
  auto sys = make_system(engine_cfg());
  sys.submit(1, read_txn({9}));
  sys.scheduler().run_all();
  sys.submit(0, write_txn({9}));
  sys.scheduler().run_all();
  const auto reads_before = sys.storage().group(kT)->reads();
  sys.submit(1, read_txn({9}));
  sys.scheduler().run_all();
  // The invalidated copy forces a storage read of the force-written version.
  EXPECT_EQ(sys.storage().group(kT)->reads(), reads_before + 1);
  EXPECT_EQ(sys.buffer(1).cached_seqno(pg(9)),
            sys.protocol().directory().seqno(pg(9)));
  EXPECT_EQ(sys.metrics().coherency_violations.value(), 0u);
}

TEST(LockEngine, SlowEngineInflatesResponseTime) {
  SystemConfig fast = engine_cfg();
  fast.lock_engine_service = 50e-6;
  auto sys_fast = make_system(fast);
  SystemConfig slow = engine_cfg();
  slow.lock_engine_service = 2000e-6;
  auto sys_slow = make_system(slow);
  for (int i = 0; i < 40; ++i) {
    sys_fast.submit(i % 2, write_txn({i}));
    sys_slow.submit(i % 2, write_txn({i}));
  }
  sys_fast.scheduler().run_all();
  sys_slow.scheduler().run_all();
  EXPECT_LT(sys_fast.metrics().response.mean(),
            sys_slow.metrics().response.mean());
}

TEST(LockEngine, ContentionStressKeepsInvariants) {
  auto sys = make_system(engine_cfg(3));
  sim::Rng rng(31);
  for (int i = 0; i < 150; ++i) {
    TxnSpec t;
    const std::int64_t a = rng.uniform_int(0, 7);
    const std::int64_t b = rng.uniform_int(0, 7);
    t.refs.push_back(PageRef{pg(a), rng.bernoulli(0.5)});
    t.refs.push_back(PageRef{pg(b), rng.bernoulli(0.5)});
    sys.submit(static_cast<NodeId>(i % 3), t);
  }
  sys.scheduler().run_all();
  EXPECT_EQ(sys.metrics().commits.value(), 150u);
  EXPECT_EQ(sys.metrics().coherency_violations.value(), 0u);
  EXPECT_EQ(sys.protocol().table().locked_pages(), 0u);
}

}  // namespace
}  // namespace gemsd
