// ShardMap unit tests: the pure routing layer under the sharded GLT and the
// PCL GLA maps. Routing is a function of (policy, shards, key) only, so every
// expectation here is exact — coverage of all shards, equivalence with the
// legacy GLA formulas the blocked policy replaced, and the shards=1 oracle
// property (everything maps to shard 0).
#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "cc/shard_map.hpp"
#include "workload/debit_credit.hpp"

namespace gemsd {
namespace {

using cc::ShardMap;

// --- the shards=1 oracle property -----------------------------------------

// With one shard every policy must collapse to shard 0 for every input kind;
// this is what makes `gem_shards=1` bit-identical to the unsharded core.
TEST(ShardMap, OneShardAlwaysRoutesToZero) {
  const ShardMap h = ShardMap::hashed(1);
  const ShardMap b = ShardMap::blocked(1, 100);
  for (std::int64_t k = 0; k < 1000; ++k) {
    EXPECT_EQ(h.shard_of(PageId{2, k}), 0);
    EXPECT_EQ(b.shard_of(PageId{2, k}), 0);
    EXPECT_EQ(h.shard_of_key(k), 0);
    EXPECT_EQ(b.shard_of_key(k), 0);
  }
  for (NodeId n = 0; n < 512; ++n) {
    EXPECT_EQ(h.shard_of_node(n), 0);
    EXPECT_EQ(b.shard_of_node(n), 0);
  }
}

// --- routing coverage and range -------------------------------------------

// Every shard must receive traffic under both policies (no dead GLT server),
// and every result must be in [0, shards).
TEST(ShardMap, AllShardsReachableUnderBothPolicies) {
  for (const int shards : {2, 4, 8}) {
    for (const ShardMap map :
         {ShardMap::hashed(shards), ShardMap::blocked(shards, 10)}) {
      std::set<int> hit;
      for (std::int64_t p = 0; p < 10 * shards; ++p) {
        for (PartitionId part = 0; part < 3; ++part) {
          const int s = map.shard_of(PageId{part, p});
          ASSERT_GE(s, 0);
          ASSERT_LT(s, shards);
          hit.insert(s);
        }
      }
      EXPECT_EQ(static_cast<int>(hit.size()), shards)
          << "policy " << static_cast<int>(map.policy()) << " shards "
          << shards;
    }
  }
}

// The hashed policy must actually spread adjacent pages: a contiguous page
// run may not land >50% on any one shard.
TEST(ShardMap, HashedSpreadsContiguousPages) {
  const int shards = 4;
  const ShardMap map = ShardMap::hashed(shards);
  std::vector<int> count(shards, 0);
  const int pages = 1000;
  for (std::int64_t p = 0; p < pages; ++p) ++count[map.shard_of(PageId{0, p})];
  for (int s = 0; s < shards; ++s) {
    EXPECT_GT(count[s], pages / 10);
    EXPECT_LT(count[s], pages / 2);
  }
}

// --- equivalence with the legacy GLA formulas -----------------------------

// blocked(n, B) over a key reproduces (key / B) % n — the debit-credit
// branch-block rule and the modulo rule (B=1) the GLA maps used before they
// delegated to ShardMap.
TEST(ShardMap, BlockedMatchesLegacyBlockAndModuloFormulas) {
  for (const int nodes : {1, 3, 4, 10}) {
    const ShardMap block = ShardMap::blocked(nodes, 100);
    const ShardMap modulo = ShardMap::blocked(nodes);
    for (std::int64_t key = 0; key < 2500; key += 7) {
      EXPECT_EQ(block.shard_of_key(key),
                static_cast<int>((key / 100) % nodes));
      EXPECT_EQ(modulo.shard_of_key(key), static_cast<int>(key % nodes));
    }
  }
}

// DebitCreditGlaMap end to end: branch b's B/T page and account pages all
// resolve to node (b / kBranchesPerUnit) % nodes; HISTORY is never locked.
TEST(ShardMap, DebitCreditGlaFollowsBranchBlocks) {
  using Ids = DebitCreditIds;
  const int nodes = 4;
  const workload::DebitCreditGlaMap gla(nodes);
  for (std::int64_t branch = 0; branch < Ids::kBranchesPerUnit * nodes;
       branch += 13) {
    const NodeId want =
        static_cast<NodeId>((branch / Ids::kBranchesPerUnit) % nodes);
    EXPECT_EQ(gla.gla(PageId{Ids::kBranchTeller, branch}), want);
    const std::int64_t first_acct_page =
        branch * Ids::kAccountsPerBranch / Ids::kAccountsPerPage;
    EXPECT_EQ(gla.gla(PageId{Ids::kAccount, first_acct_page}), want);
  }
  EXPECT_EQ(gla.gla(PageId{Ids::kHistory, 0}), 0);
}

}  // namespace
}  // namespace gemsd
