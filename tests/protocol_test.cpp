// Protocol-level tests: drive hand-built transactions through complete
// 2-node systems and verify the concurrency/coherency mechanics of both
// coupling modes — GLT costs, sequence numbers, ownership, page transfers,
// grant-carried pages, read authorizations, deadlock victim restart.
#include <gtest/gtest.h>

#include "core/system.hpp"
#include "workload/workload.hpp"

namespace gemsd {
namespace {

using workload::PageRef;
using workload::TxnSpec;

constexpr PartitionId kT = 0;

PageId pg(std::int64_t n) { return PageId{kT, n}; }

/// Minimal single-partition config: 2 nodes, everything else Table 4.1.
SystemConfig small_cfg(Coupling c, UpdateStrategy u) {
  SystemConfig cfg;
  cfg.nodes = 2;
  cfg.coupling = c;
  cfg.update = u;
  cfg.buffer_pages = 50;
  cfg.partitions.resize(1);
  auto& pc = cfg.partitions[0];
  pc.name += "T";
  pc.pages_per_unit = 1000;
  pc.blocking_factor = 1;
  pc.locked = true;
  pc.disks_per_unit = 4;
  return cfg;
}

/// GLA: pages 0..499 -> node 0, 500+ -> node 1.
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

TEST(GemProtocol, WriteBumpsSeqnoAndSetsOwnerUnderNoForce) {
  auto sys = make_system(small_cfg(Coupling::GemLocking,
                                   UpdateStrategy::NoForce));
  sys.submit(0, write_txn({7}));
  sys.scheduler().run_all();
  EXPECT_EQ(sys.metrics().commits.value(), 1u);
  EXPECT_EQ(sys.protocol().directory().seqno(pg(7)), 1u);
  EXPECT_EQ(sys.protocol().directory().owner(pg(7)), 0);
  EXPECT_TRUE(sys.buffer(0).frame_dirty(pg(7)));
  // Lock processing went through GEM entries: >= 2 per acquire + release.
  EXPECT_GE(sys.gem().entry_ops(), 4u);
}

TEST(GemProtocol, ForceClearsOwnerAndWritesThrough) {
  auto sys = make_system(small_cfg(Coupling::GemLocking,
                                   UpdateStrategy::Force));
  sys.submit(0, write_txn({7}));
  sys.scheduler().run_all();
  EXPECT_EQ(sys.protocol().directory().owner(pg(7)), kNoNode);
  EXPECT_FALSE(sys.buffer(0).frame_dirty(pg(7)));
  EXPECT_EQ(sys.metrics().force_writes.value(), 1u);
  // Storage got the page write + the log write.
  EXPECT_EQ(sys.storage().group(kT)->writes(), 1u);
}

TEST(GemProtocol, RemoteReaderFetchesFromOwner) {
  auto sys = make_system(small_cfg(Coupling::GemLocking,
                                   UpdateStrategy::NoForce));
  sys.submit(0, write_txn({7}));
  sys.scheduler().run_all();
  sys.submit(1, read_txn({7}));
  sys.scheduler().run_all();
  EXPECT_EQ(sys.metrics().commits.value(), 2u);
  EXPECT_EQ(sys.metrics().page_requests.value(), 1u);
  // Ownership migrated with the transfer; node 1 now holds the dirty copy.
  EXPECT_EQ(sys.protocol().directory().owner(pg(7)), 1);
  EXPECT_TRUE(sys.buffer(1).frame_dirty(pg(7)));
  EXPECT_FALSE(sys.buffer(0).frame_dirty(pg(7)));
  // The reader did not touch storage: the page came over the network (the
  // single read on record is the writer's initial read-modify-write fetch).
  EXPECT_EQ(sys.storage().group(kT)->reads(), 1u);
  EXPECT_EQ(sys.metrics().coherency_violations.value(), 0u);
}

TEST(GemProtocol, ForceRemoteReaderReadsStorage) {
  auto sys = make_system(small_cfg(Coupling::GemLocking,
                                   UpdateStrategy::Force));
  sys.submit(0, write_txn({7}));
  sys.scheduler().run_all();
  sys.submit(1, read_txn({7}));
  sys.scheduler().run_all();
  EXPECT_EQ(sys.metrics().page_requests.value(), 0u);
  // Writer's initial fetch + reader's fetch of the force-written version.
  EXPECT_EQ(sys.storage().group(kT)->reads(), 2u);
  EXPECT_EQ(sys.metrics().coherency_violations.value(), 0u);
}

TEST(GemProtocol, StaleCopyDetectedAsInvalidation) {
  auto sys = make_system(small_cfg(Coupling::GemLocking,
                                   UpdateStrategy::NoForce));
  sys.submit(1, read_txn({7}));   // node 1 caches version 0
  sys.scheduler().run_all();
  sys.submit(0, write_txn({7}));  // node 0 makes version 1
  sys.scheduler().run_all();
  sys.submit(1, read_txn({7}));   // node 1 must detect the invalidation
  sys.scheduler().run_all();
  EXPECT_EQ(sys.metrics().invalidations.value(), 1u);
  EXPECT_EQ(sys.metrics().coherency_violations.value(), 0u);
  EXPECT_EQ(sys.buffer(1).cached_seqno(pg(7)), 1u);
}

TEST(GemProtocol, NoMessagesWithoutSharing) {
  auto sys = make_system(small_cfg(Coupling::GemLocking,
                                   UpdateStrategy::NoForce));
  sys.submit(0, write_txn({1, 2, 3}));
  sys.scheduler().run_all();
  EXPECT_EQ(sys.network().short_count() + sys.network().long_count(), 0u);
}

TEST(PclProtocol, LocalLocksAreMessageFree) {
  auto sys = make_system(small_cfg(Coupling::PrimaryCopy,
                                   UpdateStrategy::NoForce));
  sys.submit(0, write_txn({7}));  // GLA(7) == node 0
  sys.scheduler().run_all();
  EXPECT_EQ(sys.metrics().lock_local.value(), 1u);
  EXPECT_EQ(sys.metrics().lock_remote.value(), 0u);
  EXPECT_EQ(sys.network().short_count() + sys.network().long_count(), 0u);
  EXPECT_EQ(sys.protocol().directory().owner(pg(7)), 0);
}

TEST(PclProtocol, RemoteLockCostsRoundTrip) {
  auto sys = make_system(small_cfg(Coupling::PrimaryCopy,
                                   UpdateStrategy::NoForce));
  sys.submit(1, write_txn({7}));  // GLA(7) == node 0, requester node 1
  sys.scheduler().run_all();
  EXPECT_EQ(sys.metrics().lock_remote.value(), 1u);
  // Request (short) + grant (short) + release carrying the page (long).
  EXPECT_EQ(sys.network().short_count(), 2u);
  EXPECT_EQ(sys.network().long_count(), 1u);
  // NOFORCE: the GLA node is now the owner and holds the dirty copy.
  EXPECT_EQ(sys.protocol().directory().owner(pg(7)), 0);
  EXPECT_TRUE(sys.buffer(0).frame_dirty(pg(7)));
  EXPECT_FALSE(sys.buffer(1).frame_dirty(pg(7)));
}

TEST(PclProtocol, GrantCarriesCurrentPage) {
  auto sys = make_system(small_cfg(Coupling::PrimaryCopy,
                                   UpdateStrategy::NoForce));
  sys.submit(1, write_txn({7}));  // page ends up dirty at GLA node 0
  sys.scheduler().run_all();
  sys.buffer(1).install(pg(7), 0, false);  // plant a stale copy at node 1
  // Overwrite the stale copy marker so the grant must deliver the page.
  sys.submit(1, read_txn({7}));
  sys.scheduler().run_all();
  EXPECT_EQ(sys.metrics().commits.value(), 2u);
  // The grant was a long message (page attached): 2 long total now
  // (release of txn 1 + this grant).
  EXPECT_EQ(sys.network().long_count(), 2u);
  EXPECT_EQ(sys.metrics().page_requests.value(), 0u);
  EXPECT_EQ(sys.buffer(1).cached_seqno(pg(7)),
            sys.protocol().directory().seqno(pg(7)));
  EXPECT_EQ(sys.metrics().coherency_violations.value(), 0u);
}

TEST(PclProtocol, ForceReleaseIsShort) {
  auto sys = make_system(small_cfg(Coupling::PrimaryCopy,
                                   UpdateStrategy::Force));
  sys.submit(1, write_txn({7}));
  sys.scheduler().run_all();
  // Request + grant + release, all short (the force-write made disk current).
  EXPECT_EQ(sys.network().short_count(), 3u);
  EXPECT_EQ(sys.network().long_count(), 0u);
  EXPECT_EQ(sys.protocol().directory().owner(pg(7)), kNoNode);
}

TEST(PclProtocol, ReadOptimizationMakesRepeatedReadsLocal) {
  auto cfg = small_cfg(Coupling::PrimaryCopy, UpdateStrategy::NoForce);
  cfg.pcl_read_optimization = true;
  auto sys = make_system(cfg);
  sys.submit(1, read_txn({7}));  // remote; grants a read authorization
  sys.scheduler().run_all();
  EXPECT_EQ(sys.metrics().lock_remote.value(), 1u);
  sys.submit(1, read_txn({7}));  // now processed locally under the auth
  sys.scheduler().run_all();
  EXPECT_EQ(sys.metrics().lock_auth_local.value(), 1u);
  EXPECT_EQ(sys.metrics().lock_remote.value(), 1u);
}

TEST(PclProtocol, WriterRevokesReadAuthorizations) {
  auto cfg = small_cfg(Coupling::PrimaryCopy, UpdateStrategy::NoForce);
  cfg.pcl_read_optimization = true;
  auto sys = make_system(cfg);
  sys.submit(1, read_txn({7}));
  sys.scheduler().run_all();
  sys.submit(0, write_txn({7}));  // local write at the GLA revokes node 1
  sys.scheduler().run_all();
  EXPECT_EQ(sys.metrics().revocations.value(), 1u);
  // Next read from node 1 must go remote again.
  sys.submit(1, read_txn({7}));
  sys.scheduler().run_all();
  EXPECT_EQ(sys.metrics().lock_remote.value(), 2u);
  EXPECT_EQ(sys.metrics().coherency_violations.value(), 0u);
}

TEST(PclProtocol, WithoutReadOptimizationEveryRemoteReadPaysMessages) {
  auto sys = make_system(small_cfg(Coupling::PrimaryCopy,
                                   UpdateStrategy::NoForce));
  sys.submit(1, read_txn({7}));
  sys.scheduler().run_all();
  sys.submit(1, read_txn({7}));
  sys.scheduler().run_all();
  EXPECT_EQ(sys.metrics().lock_remote.value(), 2u);
  EXPECT_EQ(sys.metrics().lock_auth_local.value(), 0u);
}

template <Coupling C>
void deadlock_scenario() {
  auto sys = make_system(small_cfg(C, UpdateStrategy::NoForce));
  // Two transactions locking {7, 8} in opposite order on different nodes.
  // Page 7 -> GLA 0, page 600 -> GLA 1 keeps both protocols honest.
  sys.submit(0, write_txn({7, 600}));
  sys.submit(1, write_txn({600, 7}));
  sys.scheduler().run_all();
  // Both must eventually commit; at most one was aborted and restarted.
  EXPECT_EQ(sys.metrics().commits.value(), 2u);
  EXPECT_LE(sys.metrics().deadlocks.value(), 1u);
  EXPECT_EQ(sys.metrics().coherency_violations.value(), 0u);
  // Serialization: page sequence numbers reflect both writes.
  EXPECT_EQ(sys.protocol().directory().seqno(pg(7)), 2u);
  EXPECT_EQ(sys.protocol().directory().seqno(pg(600)), 2u);
}

TEST(Deadlock, GemVictimRestartsAndCommits) {
  deadlock_scenario<Coupling::GemLocking>();
}

TEST(Deadlock, PclVictimRestartsAndCommits) {
  deadlock_scenario<Coupling::PrimaryCopy>();
}

TEST(Locking, WriteLockSerializesConflictingWriters) {
  auto sys = make_system(small_cfg(Coupling::GemLocking,
                                   UpdateStrategy::NoForce));
  for (int i = 0; i < 10; ++i) {
    sys.submit(i % 2, write_txn({7}));
  }
  sys.scheduler().run_all();
  EXPECT_EQ(sys.metrics().commits.value(), 10u);
  EXPECT_EQ(sys.protocol().directory().seqno(pg(7)), 10u);
  EXPECT_EQ(sys.metrics().coherency_violations.value(), 0u);
  EXPECT_GT(sys.metrics().lock_waits.value(), 0u);
}

TEST(Locking, UpgradeWithinTransaction) {
  auto sys = make_system(small_cfg(Coupling::GemLocking,
                                   UpdateStrategy::NoForce));
  TxnSpec t;
  t.refs = {PageRef{pg(5), false}, PageRef{pg(5), true}};  // read then write
  sys.submit(0, t);
  sys.scheduler().run_all();
  EXPECT_EQ(sys.metrics().commits.value(), 1u);
  EXPECT_EQ(sys.protocol().directory().seqno(pg(5)), 1u);
}

}  // namespace
}  // namespace gemsd
