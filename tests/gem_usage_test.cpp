// Tests for the additional GEM usage forms of Section 2: storage-based
// message exchange, the GEM-resident global page cache (and write buffer),
// and local read authorizations for GEM locking.
#include <gtest/gtest.h>

#include "core/system.hpp"
#include "net/comm.hpp"
#include "storage/disk_cache.hpp"
#include "workload/workload.hpp"

namespace gemsd {
namespace {

using workload::PageRef;
using workload::TxnSpec;

constexpr PartitionId kT = 0;
PageId pg(std::int64_t n) { return PageId{kT, n}; }

SystemConfig small_cfg(Coupling c) {
  SystemConfig cfg;
  cfg.nodes = 2;
  cfg.coupling = c;
  cfg.update = UpdateStrategy::NoForce;
  cfg.buffer_pages = 50;
  cfg.partitions.resize(1);
  auto& pc = cfg.partitions[0];
  pc.name += "T";
  pc.pages_per_unit = 1000;
  pc.locked = true;
  pc.disks_per_unit = 4;
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

// --- storage-based communication ---

TEST(GemMessaging, RemoteLockGoesThroughGemNotNetwork) {
  auto cfg = small_cfg(Coupling::PrimaryCopy);
  cfg.comm.transport = MsgTransport::GemStore;
  auto sys = make_system(cfg);
  sys.submit(1, write_txn({7}));  // GLA(7)=0: remote request + grant + release
  sys.scheduler().run_all();
  EXPECT_EQ(sys.metrics().commits.value(), 1u);
  EXPECT_EQ(sys.network().short_count() + sys.network().long_count(), 0u);
  EXPECT_GT(sys.gem().entry_ops() + sys.gem().page_ops(), 0u);
  // Messages were still counted (they just travelled across GEM).
  EXPECT_GE(sys.metrics().lock_remote.value(), 1u);
}

TEST(GemMessaging, ProtocolBehaviourUnchanged) {
  // The same scenario over both transports must produce identical logical
  // results (ownership, versions) — only costs differ.
  for (MsgTransport t : {MsgTransport::Network, MsgTransport::GemStore}) {
    auto cfg = small_cfg(Coupling::PrimaryCopy);
    cfg.comm.transport = t;
    auto sys = make_system(cfg);
    sys.submit(1, write_txn({7}));
    sys.scheduler().run_all();
    sys.submit(1, read_txn({7}));
    sys.scheduler().run_all();
    EXPECT_EQ(sys.metrics().commits.value(), 2u);
    EXPECT_EQ(sys.protocol().directory().seqno(pg(7)), 1u);
    EXPECT_EQ(sys.protocol().directory().owner(pg(7)), 0);
    EXPECT_EQ(sys.metrics().coherency_violations.value(), 0u);
  }
}

TEST(GemMessaging, FasterThanNetworkForRemoteLocks) {
  // Response time with GEM messaging must beat the network transport for a
  // remote-lock-heavy load.
  double resp[2] = {0, 0};
  int i = 0;
  for (MsgTransport t : {MsgTransport::Network, MsgTransport::GemStore}) {
    auto cfg = small_cfg(Coupling::PrimaryCopy);
    cfg.comm.transport = t;
    auto sys = make_system(cfg);
    for (int k = 0; k < 50; ++k) {
      sys.submit(1, write_txn({7 + k}));  // every lock is remote (GLA = 0)
      sys.scheduler().run_all();          // sequential: isolate the latency
    }
    resp[i++] = sys.metrics().response.mean();
  }
  EXPECT_LT(resp[1], resp[0]);
}

// --- GEM page cache / write buffer ---

TEST(GemPageCacheUnit, HitsPromoteAndDirtyVictimsSurface) {
  storage::DiskCache c(2, /*nonvolatile=*/true);
  EXPECT_FALSE(c.read_hit(pg(1)));
  c.install(pg(1), true);
  EXPECT_TRUE(c.read_hit(pg(1)));
  c.install(pg(2), false);
  c.install(pg(3), false);  // clean 2 evicted first, dirty 1 kept
  EXPECT_TRUE(c.contains(pg(1)));
  EXPECT_FALSE(c.contains(pg(2)));
  // Make both resident pages dirty: the next insert must surface a victim.
  c.install(pg(3), true);
  auto ev = c.install(pg(4), false);
  EXPECT_TRUE(ev.any);
  EXPECT_EQ(ev.page, pg(1));  // LRU dirty page
  c.destaged(pg(4));          // no-op for a clean page; exercise the path
  EXPECT_EQ(c.hits(), 1u);
}

TEST(GemPageCacheSystem, AbsorbsForceWritesAndServesMisses) {
  auto cfg = small_cfg(Coupling::GemLocking);
  cfg.update = UpdateStrategy::Force;
  cfg.partitions[0].storage = StorageKind::DiskGemCache;
  cfg.partitions[0].gem_cache_pages = 100;
  auto sys = make_system(cfg);
  sys.submit(0, write_txn({7}));
  sys.scheduler().run_all();
  // Force-write went into GEM and destaged to disk asynchronously.
  EXPECT_GT(sys.gem().page_ops(), 0u);
  EXPECT_EQ(sys.storage().group(kT)->writes(), 1u);  // the destage
  EXPECT_TRUE(sys.storage().gem_cache(kT)->contains(pg(7)));
  // A remote miss is now served from the GEM cache, not the disk arm.
  const auto disk_reads_before = sys.storage().group(kT)->reads();
  sys.submit(1, read_txn({7}));
  sys.scheduler().run_all();
  EXPECT_EQ(sys.storage().group(kT)->reads(), disk_reads_before);
  EXPECT_GT(sys.storage().gem_cache(kT)->hits(), 0u);
  EXPECT_EQ(sys.metrics().coherency_violations.value(), 0u);
}

TEST(GemPageCacheSystem, MissStagesPageForLaterReaders) {
  auto cfg = small_cfg(Coupling::GemLocking);
  cfg.partitions[0].storage = StorageKind::DiskGemCache;
  cfg.partitions[0].gem_cache_pages = 100;
  auto sys = make_system(cfg);
  sys.submit(0, read_txn({5}));
  sys.scheduler().run_all();
  EXPECT_EQ(sys.storage().group(kT)->reads(), 1u);  // disk read on first miss
  EXPECT_TRUE(sys.storage().gem_cache(kT)->contains(pg(5)));
  sys.submit(1, read_txn({5}));
  sys.scheduler().run_all();
  EXPECT_EQ(sys.storage().group(kT)->reads(), 1u);  // served from GEM cache
}

// --- GEM local read authorizations ---

TEST(GemReadAuth, SecondReadSkipsGlt) {
  auto cfg = small_cfg(Coupling::GemLocking);
  cfg.gem_read_authorizations = true;
  auto sys = make_system(cfg);
  sys.submit(0, read_txn({7}));
  sys.scheduler().run_all();
  const auto entry_ops_after_first = sys.gem().entry_ops();
  EXPECT_GT(entry_ops_after_first, 0u);
  sys.submit(0, read_txn({7}));
  sys.scheduler().run_all();
  // The second acquire was processed by the local lock manager under the
  // read authorization (no GLT access at acquire time).
  EXPECT_EQ(sys.metrics().lock_auth_local.value(), 1u);
  EXPECT_EQ(sys.metrics().lock_local.value(), 1u);
}

TEST(GemReadAuth, WriterRevokesAndReadGoesBackToGlt) {
  auto cfg = small_cfg(Coupling::GemLocking);
  cfg.gem_read_authorizations = true;
  auto sys = make_system(cfg);
  sys.submit(1, read_txn({7}));
  sys.scheduler().run_all();
  EXPECT_TRUE(sys.protocol().directory().has_read_auth(pg(7), 1));
  sys.submit(0, write_txn({7}));
  sys.scheduler().run_all();
  EXPECT_EQ(sys.metrics().revocations.value(), 1u);
  EXPECT_FALSE(sys.protocol().directory().has_read_auth(pg(7), 1));
  // The next read from node 1 must detect the new version.
  sys.submit(1, read_txn({7}));
  sys.scheduler().run_all();
  EXPECT_EQ(sys.metrics().coherency_violations.value(), 0u);
  EXPECT_EQ(sys.buffer(1).cached_seqno(pg(7)), 1u);
}

TEST(GemReadAuth, CoherentUnderInterleavedReadWrite) {
  auto cfg = small_cfg(Coupling::GemLocking);
  cfg.gem_read_authorizations = true;
  auto sys = make_system(cfg);
  for (int i = 0; i < 30; ++i) {
    sys.submit(i % 2, i % 3 == 0 ? write_txn({9}) : read_txn({9}));
  }
  sys.scheduler().run_all();
  EXPECT_EQ(sys.metrics().commits.value(), 30u);
  EXPECT_EQ(sys.metrics().coherency_violations.value(), 0u);
  EXPECT_EQ(sys.protocol().directory().seqno(pg(9)), 10u);  // 10 writers
}

}  // namespace
}  // namespace gemsd
