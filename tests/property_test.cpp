// Property-based tests: random operation sequences checked against reference
// models and invariants — the lock table against a brute-force compatibility
// checker and a node-based reference table, the LRU map against an
// ordered-list reference, the workload allocation heuristics against
// balance bounds across node counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "cc/lock_table.hpp"
#include "core/lru.hpp"
#include "sim/random.hpp"
#include "workload/trace.hpp"
#include "workload/trace_generator.hpp"

namespace gemsd {
namespace {

// ---------- LockTable random schedules ----------

struct LockFuzz : ::testing::TestWithParam<int> {};

TEST_P(LockFuzz, GrantedSetsAlwaysCompatibleAndNoLostWakeups) {
  sim::Rng rng(static_cast<std::uint64_t>(GetParam()));
  cc::LockTable lt;

  struct TxnState {
    std::map<std::int64_t, LockMode> held;  // page -> mode
    bool waiting = false;
  };
  std::map<TxnId, TxnState> txns;
  for (TxnId t = 1; t <= 8; ++t) txns[t];

  int grants_fired = 0;
  const auto check_granted_compat = [&] {
    // Reconstruct granted sets from our shadow state and assert pairwise
    // compatibility page by page.
    std::map<std::int64_t, std::vector<LockMode>> by_page;
    for (const auto& [id, st] : txns) {
      for (const auto& [p, m] : st.held) by_page[p].push_back(m);
    }
    for (const auto& [p, modes] : by_page) {
      for (std::size_t i = 0; i < modes.size(); ++i) {
        for (std::size_t j = i + 1; j < modes.size(); ++j) {
          ASSERT_TRUE(lock_compatible(modes[i], modes[j]))
              << "incompatible granted pair on page " << p;
        }
      }
    }
  };

  for (int step = 0; step < 3000; ++step) {
    const TxnId t = static_cast<TxnId>(rng.uniform_int(1, 8));
    auto& st = txns[t];
    if (st.waiting) continue;  // parked until its grant fires

    if (!st.held.empty() && rng.bernoulli(0.4)) {
      // Release everything this txn holds (commit).
      for (const auto& [p, m] : st.held) lt.release(PageId{0, p}, t);
      st.held.clear();
      // Grants may have fired for other txns; sync handled via callbacks.
      check_granted_compat();
      continue;
    }
    const std::int64_t page = rng.uniform_int(0, 5);
    const LockMode mode = static_cast<LockMode>(rng.uniform_int(0, 2));
    const auto it = st.held.find(page);
    if (it != st.held.end() && lock_covers(it->second, mode)) continue;

    auto res = lt.acquire(
        PageId{0, page}, t, 0, mode, [&txns, &grants_fired, t, page, mode] {
          ++grants_fired;
          txns[t].waiting = false;
          txns[t].held[page] = mode;
        });
    if (res == cc::LockTable::Outcome::Granted) {
      st.held[page] = mode;
    } else if (cc::creates_deadlock(lt, t)) {
      lt.cancel_wait(PageId{0, page}, t);
      // Abort: release everything.
      for (const auto& [p, m] : st.held) lt.release(PageId{0, p}, t);
      st.held.clear();
    } else {
      st.waiting = true;
    }
    check_granted_compat();
  }

  // Drain: force-release everything; every waiter must be woken or have
  // been cancelled (no lost wakeups / stuck entries).
  for (int round = 0; round < 10; ++round) {
    for (auto& [id, st] : txns) {
      if (st.waiting) continue;
      for (const auto& [p, m] : st.held) lt.release(PageId{0, p}, id);
      st.held.clear();
    }
  }
  for (auto& [id, st] : txns) {
    if (st.waiting) {
      // Its grant must fire as soon as holders released above.
      for (const auto& [p2, m2] : st.held) lt.release(PageId{0, p2}, id);
    }
  }
  EXPECT_GT(grants_fired, 0);
}

/// Page keys that stress open addressing: several partitions including the
/// log's -1, small page numbers, node-private append streams (node << 40)
/// and large scattered page numbers.
PageId fuzz_page(sim::Rng& rng, std::int64_t spread) {
  static constexpr PartitionId kParts[] = {-1, 0, 1, 3, 12};
  const PartitionId part = kParts[rng.uniform_int(0, 4)];
  const std::int64_t k = rng.uniform_int(0, spread - 1);
  switch (rng.uniform_int(0, 2)) {
    case 0: return PageId{part, k};
    case 1: return PageId{part, (rng.uniform_int(0, 511) << 40) | k};
    default: return PageId{part, k * 7919 + (std::int64_t{1} << 33)};
  }
}

/// Node-based reference for LockTable: the same FIFO/upgrade semantics
/// over std::map, recording grants in the order they fire.
struct RefLocks {
  struct Req {
    TxnId txn;
    LockMode mode;
    bool granted;
    bool upgrade;
  };
  std::map<PageId, std::vector<Req>> pages;
  std::map<TxnId, PageId> waiting;
  std::vector<std::pair<TxnId, PageId>> grants;

  static bool clear_for(const std::vector<Req>& q, TxnId t, LockMode m) {
    for (const Req& r : q) {
      if (r.granted && r.txn != t && !lock_compatible(r.mode, m)) return false;
    }
    return true;
  }

  bool acquire(PageId p, TxnId t, LockMode m) {
    auto& q = pages[p];
    const bool upgrade = std::any_of(q.begin(), q.end(), [&](const Req& r) {
      return r.txn == t && r.granted;
    });
    if (upgrade) {
      if (clear_for(q, t, m)) {
        for (Req& r : q) {
          if (r.txn == t && r.granted) r.mode = m;
        }
        return true;
      }
      const auto it = std::find_if(q.begin(), q.end(),
                                   [](const Req& r) { return !r.granted; });
      q.insert(it, Req{t, m, false, true});
      waiting[t] = p;
      return false;
    }
    const bool waiter_ahead = std::any_of(
        q.begin(), q.end(), [&](const Req& r) { return !r.granted; });
    if (clear_for(q, t, m) && !waiter_ahead) {
      q.push_back(Req{t, m, true, false});
      return true;
    }
    q.push_back(Req{t, m, false, false});
    waiting[t] = p;
    return false;
  }

  void promote(PageId p) {
    auto& q = pages[p];
    for (;;) {
      const auto it = std::find_if(q.begin(), q.end(),
                                   [](const Req& r) { return !r.granted; });
      if (it == q.end() || !clear_for(q, it->txn, it->mode)) break;
      const TxnId t = it->txn;
      if (it->upgrade) {
        const LockMode m = it->mode;
        q.erase(it);
        for (Req& r : q) {
          if (r.txn == t && r.granted) r.mode = m;
        }
      } else {
        it->granted = true;
      }
      waiting.erase(t);
      grants.emplace_back(t, p);
    }
    if (q.empty()) pages.erase(p);
  }

  void release(PageId p, TxnId t) {
    auto it = pages.find(p);
    if (it == pages.end()) return;
    std::erase_if(it->second,
                  [&](const Req& r) { return r.txn == t && r.granted; });
    promote(p);
  }

  bool cancel(PageId p, TxnId t) {
    auto it = pages.find(p);
    if (it == pages.end()) return false;
    const bool removed = std::erase_if(it->second, [&](const Req& r) {
      return r.txn == t && !r.granted;
    }) != 0;
    if (removed) waiting.erase(t);
    promote(p);
    return removed;
  }

  std::vector<std::pair<TxnId, NodeId>> waiters(PageId p) const {
    std::vector<std::pair<TxnId, NodeId>> out;
    if (auto it = pages.find(p); it != pages.end()) {
      for (const Req& r : it->second) {
        if (!r.granted) out.emplace_back(r.txn, 0);
      }
    }
    return out;
  }

  std::vector<TxnId> blockers(PageId p, TxnId t) const {
    std::vector<TxnId> out;
    const auto it = pages.find(p);
    if (it == pages.end()) return out;
    const auto& q = it->second;
    const auto self = std::find_if(q.begin(), q.end(), [&](const Req& r) {
      return r.txn == t && !r.granted;
    });
    for (auto r = q.begin(); self != q.end() && r != self; ++r) {
      if (r->txn == t) continue;
      if (!r->granted || !lock_compatible(r->mode, self->mode)) {
        out.push_back(r->txn);
      }
    }
    return out;
  }
};

// A request is txn, node, mode and two flags: 16 bytes, with no callback.
static_assert(sizeof(cc::LockTable::Request) == 16);

TEST_P(LockFuzz, FlatTableMatchesReferenceUnderCancelHeavyChurn) {
  // Differential check of the flat-storage table against RefLocks: many
  // live pages across partitions (long probe runs, wrap-around and
  // backward-shift deletes in the page index), many transactions, and an
  // operation mix dominated by releases and wait cancellations.
  sim::Rng rng(static_cast<std::uint64_t>(GetParam()) * 7717);
  cc::LockTable lt;
  RefLocks ref;
  std::vector<std::pair<TxnId, PageId>> grants;

  struct TxnState {
    std::vector<std::pair<PageId, LockMode>> held;  // acquisition order
    std::optional<PageId> waiting;
    LockMode waiting_mode = LockMode::Read;
  };
  constexpr TxnId kTxns = 48;
  std::map<TxnId, TxnState> txns;
  std::vector<PageId> pool;
  for (int i = 0; i < 600; ++i) pool.push_back(fuzz_page(rng, 200));

  int waits = 0, cancels = 0, upgrades = 0, granted_waits = 0;
  // The table's per-page counts describe the reference queue: granted
  // requests form a prefix of that length, with these counts per mode.
  const auto check_counts = [&](PageId p) {
    cc::LockTable::GrantedCounts want;
    if (const auto it = ref.pages.find(p); it != ref.pages.end()) {
      for (const auto& r : it->second) {
        if (!r.granted) continue;
        ASSERT_EQ(&r - it->second.data(), want.granted)
            << "granted request behind a waiter";
        ++want.granted;
        ++want.by_mode[static_cast<std::size_t>(r.mode)];
      }
    }
    const cc::LockTable::GrantedCounts got = lt.granted_counts(p);
    ASSERT_EQ(got.granted, want.granted);
    ASSERT_EQ(got.by_mode, want.by_mode);
  };
  const auto release_all = [&](TxnId t) {
    for (const auto& [p, m] : txns[t].held) {
      lt.release(p, t);
      ref.release(p, t);
      check_counts(p);
    }
    txns[t].held.clear();
  };
  const auto apply_grants = [&] {
    ASSERT_EQ(grants, ref.grants);
    granted_waits += static_cast<int>(grants.size());
    for (const auto& [t, p] : grants) {
      auto& st = txns[t];
      ASSERT_TRUE(st.waiting.has_value());
      ASSERT_EQ(*st.waiting, p);
      auto h = std::find_if(st.held.begin(), st.held.end(),
                            [&](const auto& e) { return e.first == p; });
      if (h == st.held.end()) {
        st.held.emplace_back(p, st.waiting_mode);
      } else {
        h->second = st.waiting_mode;  // upgrade
      }
      st.waiting.reset();
    }
    grants.clear();
    ref.grants.clear();
  };
  const auto check_page = [&](PageId p) {
    ASSERT_NO_FATAL_FAILURE(check_counts(p));
    ASSERT_EQ(lt.waiters(p), ref.waiters(p));
    for (TxnId t = 1; t <= kTxns; ++t) {
      const auto& st = txns[t];
      auto h = std::find_if(st.held.begin(), st.held.end(),
                            [&](const auto& e) { return e.first == p; });
      ASSERT_EQ(lt.holds(p, t, LockMode::Read), h != st.held.end());
      if (h != st.held.end()) {
        ASSERT_TRUE(lt.holds(p, t, h->second));
      }
      if (st.waiting == p) {
        ASSERT_EQ(lt.blockers(p, t), ref.blockers(p, t));
      }
    }
  };

  for (int step = 0; step < 6000; ++step) {
    const TxnId t = static_cast<TxnId>(rng.uniform_int(1, kTxns));
    auto& st = txns[t];
    if (st.waiting) {
      if (rng.bernoulli(0.6)) {
        // Deadlock-victim style: cancel the wait, then abort.
        const PageId p = *st.waiting;
        ASSERT_TRUE(lt.cancel_wait(p, t));
        ASSERT_TRUE(ref.cancel(p, t));
        ++cancels;
        st.waiting.reset();
        ASSERT_NO_FATAL_FAILURE(apply_grants());
        ASSERT_NO_FATAL_FAILURE(check_page(p));
        release_all(t);
        ASSERT_NO_FATAL_FAILURE(apply_grants());
      }
      continue;
    }
    if (!st.held.empty() && rng.bernoulli(0.25)) {
      release_all(t);
      ASSERT_NO_FATAL_FAILURE(apply_grants());
      continue;
    }
    // Re-requesting a held page (an upgrade when the mode is stronger).
    const bool again = !st.held.empty() && rng.bernoulli(0.2);
    const PageId p =
        again ? st.held[static_cast<std::size_t>(rng.uniform_int(
                            0, static_cast<std::int64_t>(st.held.size()) - 1))]
                    .first
              : pool[static_cast<std::size_t>(rng.uniform_int(
                    0, static_cast<std::int64_t>(pool.size()) - 1))];
    const LockMode mode = static_cast<LockMode>(rng.uniform_int(0, 2));
    auto h = std::find_if(st.held.begin(), st.held.end(),
                          [&](const auto& e) { return e.first == p; });
    if (h != st.held.end() && lock_covers(h->second, mode)) continue;
    bool upgrade = false;
    const auto res = lt.acquire(
        p, t, 0, mode, [&grants, t, p] { grants.emplace_back(t, p); },
        &upgrade);
    ASSERT_EQ(upgrade, h != st.held.end());
    upgrades += upgrade ? 1 : 0;
    const bool ref_granted = ref.acquire(p, t, mode);
    ASSERT_EQ(res == cc::LockTable::Outcome::Granted, ref_granted);
    if (ref_granted) {
      if (h == st.held.end()) {
        st.held.emplace_back(p, mode);
      } else {
        h->second = mode;
      }
    } else {
      ++waits;
      st.waiting = p;
      st.waiting_mode = mode;
      ASSERT_EQ(lt.waiting_on(t), std::optional<PageId>(p));
    }
    ASSERT_NO_FATAL_FAILURE(check_page(p));
    ASSERT_EQ(lt.locked_pages(), ref.pages.size());
  }
  // Drain: releasing every holder, round after round, grants or leaves
  // queued exactly what the reference does, and empties both tables.
  for (int round = 0; round < 50 && !ref.pages.empty(); ++round) {
    for (TxnId t = 1; t <= kTxns; ++t) {
      if (txns[t].waiting) continue;
      release_all(t);
      ASSERT_NO_FATAL_FAILURE(apply_grants());
    }
  }
  EXPECT_TRUE(ref.pages.empty());
  EXPECT_EQ(lt.locked_pages(), 0u);
  // The mix really exercised waiting, cancellation, upgrades and grants.
  EXPECT_GT(waits, 100);
  EXPECT_GT(cancels, 50);
  EXPECT_GT(upgrades, 50);
  EXPECT_GT(granted_waits, 50);
  for (TxnId t = 1; t <= kTxns; ++t) {
    EXPECT_FALSE(lt.waiting_on(t).has_value());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LockFuzz, ::testing::Values(1, 2, 3, 4, 5));

// ---------- LRU map vs reference model ----------

struct LruFuzz : ::testing::TestWithParam<int> {};

TEST_P(LruFuzz, MatchesReferenceModel) {
  sim::Rng rng(static_cast<std::uint64_t>(GetParam()) * 977);
  LruMap<int> m(8);
  std::list<std::pair<std::int64_t, int>> ref;  // front = MRU

  const auto ref_find = [&](std::int64_t k) {
    return std::find_if(ref.begin(), ref.end(),
                        [&](const auto& e) { return e.first == k; });
  };

  for (int step = 0; step < 5000; ++step) {
    const std::int64_t key = rng.uniform_int(0, 19);
    const int op = static_cast<int>(rng.uniform_int(0, 3));
    const PageId p{0, key};
    switch (op) {
      case 0: {  // touch
        int* v = m.touch(p);
        auto it = ref_find(key);
        if (it == ref.end()) {
          ASSERT_EQ(v, nullptr);
        } else {
          ASSERT_NE(v, nullptr);
          ASSERT_EQ(*v, it->second);
          ref.splice(ref.begin(), ref, it);
        }
        break;
      }
      case 1: {  // insert (evicting LRU first if full)
        if (m.contains(p)) break;
        if (m.full()) {
          const auto victim = m.lru();
          ASSERT_TRUE(victim.has_value());
          ASSERT_EQ(victim->first.page, ref.back().first);
          m.erase(victim->first);
          ref.pop_back();
        }
        const int val = static_cast<int>(rng.uniform_int(0, 1000));
        m.insert(p, val);
        ref.emplace_front(key, val);
        break;
      }
      case 2: {  // erase
        const bool erased = m.erase(p);
        auto it = ref_find(key);
        ASSERT_EQ(erased, it != ref.end());
        if (it != ref.end()) ref.erase(it);
        break;
      }
      case 3: {  // peek
        const int* v = m.peek(p);
        auto it = ref_find(key);
        ASSERT_EQ(v != nullptr, it != ref.end());
        if (v) {
          ASSERT_EQ(*v, it->second);
        }
        break;
      }
    }
    ASSERT_EQ(m.size(), ref.size());
  }
  // Final order check, MRU -> LRU.
  auto rit = ref.begin();
  for (const auto& [k, v] : m) {
    ASSERT_EQ(k.page, rit->first);
    ASSERT_EQ(v, rit->second);
    ++rit;
  }
}

TEST_P(LruFuzz, FlatIndexMatchesReferenceAcrossCapacities) {
  // The index-linked LRU against a list + map reference, at capacities 1
  // (every insert evicts), 8 and 1000 (enough live pages for long probe
  // runs and wrap-around in the flat index), with an erase-heavy mix over
  // keys spread across partitions, log pages and append streams. Checks
  // find_lru_if and the MRU -> LRU iteration as well.
  for (const std::size_t cap : {std::size_t{1}, std::size_t{8},
                                std::size_t{1000}}) {
    sim::Rng rng(static_cast<std::uint64_t>(GetParam()) * 131 + cap);
    LruMap<int> m(cap);
    std::list<std::pair<PageId, int>> ref;  // front = MRU
    std::map<PageId, std::list<std::pair<PageId, int>>::iterator> idx;
    std::vector<PageId> pool;
    for (std::size_t i = 0; i < 3 * cap + 8; ++i) {
      pool.push_back(fuzz_page(rng, static_cast<std::int64_t>(cap) + 4));
    }
    const auto pick = [&] {
      return pool[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(pool.size()) - 1))];
    };
    const auto check_order = [&] {
      ASSERT_EQ(m.size(), ref.size());
      auto r = ref.begin();
      for (const auto& [k, v] : m) {
        ASSERT_TRUE(r != ref.end());
        ASSERT_EQ(k, r->first);
        ASSERT_EQ(v, r->second);
        ++r;
      }
      ASSERT_TRUE(r == ref.end());
    };

    for (int step = 0; step < 20000; ++step) {
      const PageId p = pick();
      const auto it = idx.find(p);
      switch (rng.uniform_int(0, 5)) {
        case 0: {  // touch
          int* v = m.touch(p);
          ASSERT_EQ(v != nullptr, it != idx.end());
          if (v) {
            ASSERT_EQ(*v, it->second->second);
            ref.splice(ref.begin(), ref, it->second);
          }
          break;
        }
        case 1:
        case 2: {  // insert, evicting the LRU page of a full map
          if (it != idx.end()) break;
          if (m.full()) {
            const auto victim = m.lru();
            ASSERT_TRUE(victim.has_value());
            ASSERT_EQ(victim->first, ref.back().first);
            ASSERT_TRUE(m.erase(victim->first));
            idx.erase(ref.back().first);
            ref.pop_back();
          }
          const int val = static_cast<int>(rng.uniform_int(0, 1000));
          ASSERT_EQ(*m.insert(p, val), val);
          ref.emplace_front(p, val);
          idx[p] = ref.begin();
          break;
        }
        case 3:
        case 4: {  // erase
          ASSERT_EQ(m.erase(p), it != idx.end());
          if (it != idx.end()) {
            ref.erase(it->second);
            idx.erase(it);
          }
          break;
        }
        case 5: {  // peek, find_lru_if
          const int* v = m.peek(p);
          ASSERT_EQ(v != nullptr, it != idx.end());
          const int mod = static_cast<int>(rng.uniform_int(2, 7));
          const auto limit = static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<std::int64_t>(ref.size())));
          std::optional<PageId> want;
          std::size_t scanned = 0;
          for (auto r = ref.rbegin(); r != ref.rend() && scanned < limit;
               ++r, ++scanned) {
            if (r->second % mod == 0) {
              want = r->first;
              break;
            }
          }
          ASSERT_EQ(m.find_lru_if([&](int x) { return x % mod == 0; }, limit),
                    want);
          break;
        }
      }
      ASSERT_EQ(m.size(), ref.size());
      ASSERT_EQ(m.contains(p), idx.count(p) != 0);
      if (step % 997 == 0) {
        ASSERT_NO_FATAL_FAILURE(check_order());
      }
    }
    ASSERT_NO_FATAL_FAILURE(check_order());
    m.clear();
    EXPECT_EQ(m.size(), 0u);
    EXPECT_FALSE(m.lru().has_value());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LruFuzz, ::testing::Values(1, 2, 3));

// ---------- allocation heuristics balance across node counts ----------

struct HeuristicSweep : ::testing::TestWithParam<int> {};

TEST_P(HeuristicSweep, RoutingBalancesLoadWithinBound) {
  const int nodes = GetParam();
  sim::Rng rng(7);
  const auto trace = workload::generate_synthetic_trace({}, rng);
  const auto prof = workload::profile_trace(trace);
  const auto share = workload::make_affinity_routing(prof, nodes);

  std::vector<double> load(static_cast<std::size_t>(nodes), 0.0);
  double total = 0;
  for (std::size_t ty = 0; ty < share.size(); ++ty) {
    for (int n = 0; n < nodes; ++n) {
      load[static_cast<std::size_t>(n)] +=
          share[ty][static_cast<std::size_t>(n)] * prof.type_load[ty];
    }
    total += prof.type_load[ty];
  }
  const double capacity = total / nodes;
  for (double l : load) {
    EXPECT_LT(l, capacity * 1.25) << "node overload at N=" << nodes;
    EXPECT_GT(l, capacity * 0.5) << "node starvation at N=" << nodes;
  }
}

TEST_P(HeuristicSweep, GlaCoversEveryFileExactlyOnce) {
  const int nodes = GetParam();
  sim::Rng rng(7);
  const auto trace = workload::generate_synthetic_trace({}, rng);
  const auto prof = workload::profile_trace(trace);
  const auto share = workload::make_affinity_routing(prof, nodes);
  const auto gla = workload::make_gla_assignment(prof, share, nodes);
  ASSERT_EQ(gla.size(), static_cast<std::size_t>(trace.num_files));
  for (NodeId g : gla) {
    EXPECT_GE(g, 0);
    EXPECT_LT(g, nodes);
  }
  // Every node should hold authority over something when there are enough
  // files to go around.
  if (nodes <= trace.num_files) {
    std::set<NodeId> used(gla.begin(), gla.end());
    EXPECT_EQ(used.size(), static_cast<std::size_t>(nodes));
  }
}

INSTANTIATE_TEST_SUITE_P(NodeCounts, HeuristicSweep,
                         ::testing::Values(1, 2, 3, 4, 6, 8));

}  // namespace
}  // namespace gemsd
