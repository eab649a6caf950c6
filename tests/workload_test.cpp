// Unit tests for the workload layer: debit-credit generator (TPC rules,
// clustering, deadlock-free order), routers, GLA maps, trace format I/O and
// the allocation heuristics.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/config.hpp"
#include "workload/debit_credit.hpp"
#include "workload/trace.hpp"

namespace gemsd::workload {
namespace {

using Ids = DebitCreditIds;

TEST(DebitCredit, TxnShape) {
  sim::Rng rng(1);
  DebitCreditGenerator gen(4);
  for (int i = 0; i < 200; ++i) {
    const TxnSpec t = gen.next(rng);
    ASSERT_EQ(t.refs.size(), 4u);
    EXPECT_EQ(t.refs[0].page.partition, Ids::kAccount);
    EXPECT_EQ(t.refs[1].page.partition, Ids::kHistory);
    EXPECT_EQ(t.refs[1].page.page, kAppendPage);
    EXPECT_EQ(t.refs[2].page.partition, Ids::kBranchTeller);
    // TELLER and BRANCH live in the same clustered page.
    EXPECT_EQ(t.refs[2].page, t.refs[3].page);
    EXPECT_EQ(t.refs[2].page.page, t.affinity_key);
    for (const auto& r : t.refs) EXPECT_TRUE(r.write);
  }
}

TEST(DebitCredit, EightyFifteenAccountRule) {
  sim::Rng rng(2);
  DebitCreditGenerator gen(4);
  int local = 0;
  const int kN = 50000;
  for (int i = 0; i < kN; ++i) {
    const TxnSpec t = gen.next(rng);
    const std::int64_t acct_branch =
        t.refs[0].page.page * Ids::kAccountsPerPage / Ids::kAccountsPerBranch;
    if (acct_branch == t.affinity_key) ++local;
  }
  EXPECT_NEAR(static_cast<double>(local) / kN, 0.85, 0.01);
}

TEST(DebitCredit, BranchesUniformAcrossScaledDatabase) {
  sim::Rng rng(3);
  DebitCreditGenerator gen(5);  // 500 branches
  std::vector<int> node_count(5, 0);
  for (int i = 0; i < 20000; ++i) {
    const TxnSpec t = gen.next(rng);
    ASSERT_LT(t.affinity_key, 500);
    ++node_count[static_cast<std::size_t>(t.affinity_key / 100)];
  }
  for (int c : node_count) EXPECT_NEAR(c, 4000, 400);
}

TEST(DebitCredit, GlaMapPartitionsByBranchBlocks) {
  DebitCreditGlaMap gla(4);
  // Branch pages 0..99 -> node 0, 100..199 -> node 1, ...
  EXPECT_EQ(gla.gla(PageId{Ids::kBranchTeller, 0}), 0);
  EXPECT_EQ(gla.gla(PageId{Ids::kBranchTeller, 150}), 1);
  EXPECT_EQ(gla.gla(PageId{Ids::kBranchTeller, 399}), 3);
  // Account pages follow their branch: branch b covers accounts
  // [b*100000, (b+1)*100000) = pages [b*10000, (b+1)*10000).
  EXPECT_EQ(gla.gla(PageId{Ids::kAccount, 5000}), 0);      // branch 0
  EXPECT_EQ(gla.gla(PageId{Ids::kAccount, 1050000}), 1);   // branch 105
  EXPECT_EQ(gla.gla(PageId{Ids::kAccount, 3999999}), 3);   // branch 399
}

TEST(DebitCredit, AffinityRouterMatchesGla) {
  sim::Rng rng(4);
  DebitCreditGenerator gen(8);
  DebitCreditGlaMap gla(8);
  auto router = make_debit_credit_router(Routing::Affinity, 8);
  for (int i = 0; i < 2000; ++i) {
    const TxnSpec t = gen.next(rng);
    const NodeId n = router->route(t, rng);
    EXPECT_EQ(n, gla.gla(PageId{Ids::kBranchTeller, t.affinity_key}));
  }
}

TEST(Router, RandomIsRoundRobinBalanced) {
  sim::Rng rng(5);
  RandomRouter r(3);
  std::vector<int> counts(3, 0);
  TxnSpec t;
  for (int i = 0; i < 99; ++i) ++counts[static_cast<std::size_t>(r.route(t, rng))];
  EXPECT_EQ(counts, (std::vector<int>{33, 33, 33}));
}

TEST(Router, TableRouterFollowsShares) {
  sim::Rng rng(6);
  TableRouter r({{0.25, 0.75}});
  TxnSpec t;
  t.type = 0;
  int n1 = 0;
  for (int i = 0; i < 20000; ++i) n1 += r.route(t, rng);
  EXPECT_NEAR(n1 / 20000.0, 0.75, 0.02);
}

Trace tiny_trace() {
  Trace tr;
  tr.num_types = 2;
  tr.num_files = 3;
  for (int type : {0, 1, 0}) {
    tr.add_txn(type);
    if (type == 0) {
      tr.add_ref(0, 1, false);
      tr.add_ref(1, 2, true);
    } else {
      tr.add_ref(2, 7, false);
    }
  }
  return tr;
}

TEST(Trace, SaveLoadRoundTrip) {
  const Trace tr = tiny_trace();
  std::stringstream ss;
  tr.save(ss);
  const Trace back = Trace::load(ss);
  ASSERT_EQ(back.size(), 3u);
  EXPECT_EQ(back.num_types, 2);
  EXPECT_EQ(back.num_files, 3);
  EXPECT_EQ(back.txn(0).refs.size(), 2u);
  EXPECT_EQ(back.txn(0).refs[1].page, (PageId{1, 2}));
  EXPECT_TRUE(back.txn(0).refs[1].write);
  EXPECT_FALSE(back.txn(2).refs[0].write);
  EXPECT_EQ(back.txn(1).type, 1);
}

TEST(Trace, PackedStoreWidensInPlace) {
  // Each page (and, with one file at first, the partition) needs more bits
  // than the references before it, so every stored reference is repacked
  // several times, up to the full 64 bits (16 + 47 + 1). Every view taken
  // on the way reads its references by position and by range-for.
  for (const int files_first : {1, Trace::kMaxFiles}) {
    SCOPED_TRACE("files first " + std::to_string(files_first));
    Trace tr;
    tr.num_types = 2;
    tr.num_files = files_first;
    std::vector<std::vector<PageRef>> added;
    // Every transaction as viewed after each reference, with its index:
    // a view reads the trace in place, so one taken before a later
    // reference widened the store must still read the references it had.
    std::vector<std::pair<std::size_t, TxnSpec>> views;
    const auto check_view = [&](std::size_t i, const TxnSpec& t) {
      EXPECT_EQ(t.type, static_cast<int>(i % 2));
      ASSERT_LE(t.refs.size(), added[i].size()) << "txn " << i;
      std::size_t k = 0;
      for (const PageRef r : t.refs) {
        EXPECT_EQ(r.page, added[i][k].page) << i << "/" << k;
        EXPECT_EQ(r.write, added[i][k].write) << i << "/" << k;
        EXPECT_EQ(t.refs[k].page, r.page) << i << "/" << k;
        EXPECT_EQ(t.refs[k].write, r.write) << i << "/" << k;
        ++k;
      }
      EXPECT_EQ(k, t.refs.size()) << "txn " << i;
    };
    const auto check_all = [&] {
      std::size_t refs = 0;
      ASSERT_EQ(tr.size(), added.size());
      for (std::size_t i = 0; i < added.size(); ++i) {
        views.emplace_back(i, tr.txn(i));
        ASSERT_EQ(views.back().second.refs.size(), added[i].size())
            << "txn " << i;
        refs += added[i].size();
      }
      for (const auto& [i, t] : views) check_view(i, t);
      EXPECT_EQ(tr.references(), refs);
    };
    for (const PartitionId partition : {0, Trace::kMaxFiles - 1}) {
      if (partition > 0) tr.num_files = Trace::kMaxFiles;
      for (const std::int64_t page :
           {std::int64_t{0}, std::int64_t{1}, std::int64_t{1} << 13,
            Trace::kMaxPage}) {
        for (const bool write : {false, true}) {
          // Three references per transaction, so transactions straddle
          // the widenings.
          if (added.empty() || added.back().size() == 3) {
            tr.add_txn(static_cast<std::int64_t>(added.size() % 2));
            added.emplace_back();
          }
          tr.add_ref(partition, page, write);
          added.back().push_back(PageRef{PageId{partition, page}, write});
          check_all();
        }
      }
    }
    EXPECT_EQ(tr.references(), 16u);
    std::stringstream first;
    tr.save(first);
    const Trace back = Trace::load(first);
    std::stringstream second;
    back.save(second);
    EXPECT_EQ(second.str(), first.str());
  }
}

TEST(Trace, LoadRejectsGarbage) {
  std::stringstream ss("not-a-trace 9");
  EXPECT_THROW(Trace::load(ss), std::runtime_error);
}

// The load error of `text`, or "loaded" when it loads.
std::string load_error(const std::string& text) {
  std::stringstream ss(text);
  try {
    Trace::load(ss);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "loaded";
}

const std::string kHeader = "gemsd-trace 1\ntypes 1\nfiles 1\n";

TEST(Trace, LoadRejectsPartitionOutsideFiles) {
  // Used to index the per-file tables out of range (segfault).
  EXPECT_EQ(load_error(kHeader + "t 0 1\nr 7 3\n"),
            "trace line 5: partition 7 outside [0, 1)");
  EXPECT_EQ(load_error(kHeader + "t 0 1\nw -1 3\n"),
            "trace line 5: partition -1 outside [0, 1)");
}

TEST(Trace, LoadRejectsTypeOutsideTypes) {
  // Used to index the per-type tables out of range (segfault).
  EXPECT_EQ(load_error(kHeader + "t 3 1\nr 0 0\n"),
            "trace line 4: type 3 outside [0, 1)");
}

TEST(Trace, LoadReservesNothingFromAnnouncedCounts) {
  // Used to reserve the announced count: std::bad_alloc without a line.
  EXPECT_EQ(load_error(kHeader + "t 0 99999999999999\nr 0 0\n"),
            "trace line 4: 't' announces 99999999999999 references, 1 follow");
}

TEST(Trace, LoadRejectsTransactionCutShort) {
  // Used to run the missing references as page 0/0.
  EXPECT_EQ(load_error(kHeader + "t 0 5\nr 0 1\n"),
            "trace line 4: 't' announces 5 references, 1 follow");
  EXPECT_EQ(load_error(kHeader + "t 0 2\nr 0 1\nt 0 1\nr 0 2\n"),
            "trace line 4: 't' announces 2 references, 1 follow");
  EXPECT_EQ(load_error(kHeader + "t 0 1\nr 0 1\nr 0 2\n"),
            "trace line 6: reference beyond the 1 announced at line 4");
}

TEST(Trace, LoadRejectsUnknownModeAndNegativePage) {
  // "x 0 -5" used to run as a read of page -5.
  EXPECT_EQ(load_error(kHeader + "t 0 1\nx 0 -5\n"),
            "trace line 5: unknown record 'x'");
  EXPECT_EQ(load_error(kHeader + "t 0 1\nr 0 -5\n"),
            "trace line 5: page -5 outside [0, 140737488355327]");
  EXPECT_EQ(load_error(kHeader + "t 0 1\nr 0 140737488355328\n"),
            "trace line 5: page 140737488355328 outside [0, 140737488355327]");
  EXPECT_EQ(load_error(kHeader + "t 0 1\nr 0 140737488355327\n"), "loaded");
}

TEST(Trace, LoadRejectsMalformedLines) {
  EXPECT_EQ(load_error("gemsd-trace 2\ntypes 1\nfiles 1\nt 0 0\n"),
            "trace line 1: not a gemsd trace (expected 'gemsd-trace 1')");
  EXPECT_EQ(load_error("gemsd-trace 1\nfiles 1\ntypes 1\nt 0 0\n"),
            "trace line 2: expected 'types <count>'");
  EXPECT_EQ(load_error("gemsd-trace 1\ntypes 1\nfiles 0\nt 0 0\n"),
            "trace line 3: files 0 outside [1, 65536]");
  EXPECT_EQ(load_error("gemsd-trace 1\ntypes 1\nfiles 65537\nt 0 0\n"),
            "trace line 3: files 65537 outside [1, 65536]");
  // Per-type tables: one statistic per type, one count per type and file.
  EXPECT_EQ(load_error("gemsd-trace 1\ntypes 65537\nfiles 1\nt 0 0\n"),
            "trace line 2: types 65537 outside [1, 65536]");
  EXPECT_EQ(load_error("gemsd-trace 1\ntypes 65536\nfiles 65536\nt 0 1\n"
                       "r 0 3\n"),
            "trace line 3: files 65536 with types 65536: 4294967296 "
            "type-file cells, more than 16777216");
  EXPECT_EQ(load_error("gemsd-trace 1\ntypes 4096\nfiles 4096\nt 0 1\n"
                       "r 0 3\n"),
            "loaded");
  EXPECT_EQ(load_error("gemsd-trace 1\ntypes 1\n"),
            "trace line 3: end of file in the header");
  EXPECT_EQ(load_error(kHeader),
            "trace line 4: end of file before the first 't'");
  EXPECT_EQ(load_error(kHeader + "r 0 1\n"),
            "trace line 4: reference before any 't'");
  EXPECT_EQ(load_error(kHeader + "t 0 1\nr 0 1x\n"),
            "trace line 5: malformed page '1x'");
  EXPECT_EQ(load_error(kHeader + "t zero 1\nr 0 1\n"),
            "trace line 4: malformed type 'zero'");
  EXPECT_EQ(load_error(kHeader + "t 0 -1\n"),
            "trace line 4: malformed reference count '-1'");
  EXPECT_EQ(load_error(kHeader + "t 0 1\nr 0 1 2\n"),
            "trace line 5: 'r' takes 2 fields, got 3");
  EXPECT_EQ(load_error(kHeader + "t 0 1 r 0 1\n"),
            "trace line 4: 't' takes 2 fields, got 5");
  EXPECT_EQ(load_error(kHeader + "\nt 0 1\n\nw 0 1\n"), "loaded");
}

TEST(Trace, StatsComputation) {
  const TraceStats s = compute_stats(tiny_trace());
  EXPECT_EQ(s.transactions, 3u);
  EXPECT_EQ(s.references, 5u);
  EXPECT_EQ(s.distinct_pages, 3u);
  EXPECT_EQ(s.largest_txn, 2u);
  EXPECT_NEAR(s.write_ref_fraction, 2.0 / 5.0, 1e-12);
  EXPECT_NEAR(s.update_txn_fraction, 2.0 / 3.0, 1e-12);
}

TEST(Trace, ReplayPreservesOrderAndCycles) {
  const Trace tr = tiny_trace();
  TraceWorkload w(tr);
  sim::Rng rng(1);
  EXPECT_EQ(w.next(rng).type, 0);
  EXPECT_EQ(w.next(rng).type, 1);
  EXPECT_EQ(w.next(rng).type, 0);
  EXPECT_EQ(w.next(rng).type, 0);  // wrapped around
}

TEST(Heuristics, AffinityRoutingBalancesLoad) {
  Trace tr;
  tr.num_types = 2;
  tr.num_files = 3;
  // Inflate: type 0 heavy on file 0/1, type 1 on file 2.
  for (int i = 0; i < 100; ++i) {
    tr.add_txn(0);
    for (int k = 0; k < 10; ++k) tr.add_ref(0, i, false);
    tr.add_txn(1);
    for (int k = 0; k < 10; ++k) tr.add_ref(2, i, false);
  }
  const auto prof = profile_trace(tr);
  const auto share = make_affinity_routing(prof, 2);
  ASSERT_EQ(share.size(), 2u);
  for (const auto& row : share) {
    double s = 0;
    for (double v : row) s += v;
    EXPECT_NEAR(s, 1.0, 1e-9);
  }
  // Equal loads, disjoint files: each type should be concentrated on its own
  // node (affinity), and the two types on different nodes (balance).
  const auto dominant = [](const std::vector<double>& row) {
    return row[0] > row[1] ? 0 : 1;
  };
  EXPECT_NE(dominant(share[0]), dominant(share[1]));
  EXPECT_GT(std::max(share[0][0], share[0][1]), 0.9);
}

TEST(Heuristics, GlaFollowsRouting) {
  Trace tr;
  tr.num_types = 2;
  tr.num_files = 2;
  for (int i = 0; i < 50; ++i) {
    tr.add_txn(0);
    for (int k = 0; k < 4; ++k) tr.add_ref(0, i, false);
    tr.add_txn(1);
    for (int k = 0; k < 4; ++k) tr.add_ref(1, i, false);
  }
  const auto prof = profile_trace(tr);
  // Pin the routing: type 0 -> node 0, type 1 -> node 1.
  const std::vector<std::vector<double>> share{{1, 0}, {0, 1}};
  const auto gla = make_gla_assignment(prof, share, 2);
  ASSERT_EQ(gla.size(), 2u);
  EXPECT_EQ(gla[0], 0);  // file 0 referenced only from node 0
  EXPECT_EQ(gla[1], 1);
}

}  // namespace
}  // namespace gemsd::workload
