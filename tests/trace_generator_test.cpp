// Statistical validation of the synthetic trace against the aggregate
// characteristics the paper reports for its real-life workload (Section 4.6)
// — this is the documented substitution for the unavailable trace.
#include <gtest/gtest.h>

#include <sstream>
#include <unordered_set>
#include <vector>

#include "core/experiment.hpp"
#include "workload/trace_generator.hpp"

namespace gemsd::workload {
namespace {

const Trace& shared_trace() {
  static const Trace tr = [] {
    sim::Rng rng(7);
    return generate_synthetic_trace({}, rng);
  }();
  return tr;
}

/// The transactions of shared_trace(), expanded.
const std::vector<TxnSpec>& shared_txns() {
  static const std::vector<TxnSpec> txns = [] {
    std::vector<TxnSpec> v;
    for (std::size_t i = 0; i < shared_trace().size(); ++i) {
      v.push_back(shared_trace().txn(i));
    }
    return v;
  }();
  return txns;
}

TEST(SyntheticTrace, PaperScaleCounts) {
  const auto s = compute_stats(shared_trace());
  EXPECT_EQ(s.transactions, 17500u);              // "more than 17,500"
  EXPECT_NEAR(static_cast<double>(s.references), 1.0e6, 0.1e6);  // ~1M
  EXPECT_NEAR(static_cast<double>(s.distinct_pages), 66000, 8000);
  EXPECT_GT(s.largest_txn, 11000u);               // ad-hoc query
}

TEST(SyntheticTrace, UpdateCharacteristics) {
  const auto s = compute_stats(shared_trace());
  // "About 20% of the transactions perform updates, but only 1.6% of all
  // database accesses are writes."
  EXPECT_NEAR(s.update_txn_fraction, 0.20, 0.03);
  EXPECT_NEAR(s.write_ref_fraction, 0.016, 0.004);
}

TEST(SyntheticTrace, TwelveTypesAllPresent) {
  const Trace& tr = shared_trace();
  EXPECT_EQ(tr.num_types, 12);
  std::vector<int> counts(12, 0);
  for (const auto& t : shared_txns()) {
    ++counts[static_cast<std::size_t>(t.type)];
  }
  for (int c : counts) EXPECT_GT(c, 0);
  EXPECT_GE(counts[11], 5);  // at least a handful of ad-hoc queries
}

TEST(SyntheticTrace, SizeVariationIsLarge) {
  std::size_t mn = SIZE_MAX, mx = 0;
  for (const auto& t : shared_txns()) {
    mn = std::min(mn, t.refs.size());
    mx = std::max(mx, t.refs.size());
  }
  EXPECT_LE(mn, 5u);
  EXPECT_GE(mx, 9000u);
}

TEST(SyntheticTrace, CatalogFileIsNeverWritten) {
  // The paper's trace showed insignificant lock conflicts; our construction
  // guarantees the shared catalog (scanned by the long ad-hoc query) is
  // read-only.
  for (const auto& t : shared_txns()) {
    for (const auto& r : t.refs) {
      if (r.page.partition == 0) {
        EXPECT_FALSE(r.write);
      }
    }
  }
}

TEST(SyntheticTrace, LongReadTypesAvoidWrittenFiles) {
  // Files written by anyone:
  std::unordered_set<int> written;
  for (const auto& t : shared_txns()) {
    for (const auto& r : t.refs) {
      if (r.write) written.insert(r.page.partition);
    }
  }
  // Long read-only types (150+ mean refs: types 8, 10, 11) must only touch
  // unwritten files — their strict-2PL read locks are held for seconds.
  for (const auto& t : shared_txns()) {
    if (t.type != 8 && t.type != 10 && t.type != 11) continue;
    for (const auto& r : t.refs) {
      EXPECT_EQ(written.count(r.page.partition), 0u)
          << "type " << t.type << " reads written file " << r.page.partition;
    }
  }
}

TEST(SyntheticTrace, WritesAvoidZipfHead) {
  // Writes must land in the cold tail region (>= 30% of the file).
  for (const auto& t : shared_txns()) {
    for (const auto& r : t.refs) {
      if (!r.write) continue;
      EXPECT_GE(r.page.page, 200);  // smallest file is 800 pages; 30% = 240
    }
  }
}

TEST(SyntheticTrace, AccessSkewIsHigh) {
  // Top 10% of pages should attract well over half of the references.
  std::unordered_map<std::uint64_t, std::uint64_t> freq;
  std::uint64_t total = 0;
  for (const auto& t : shared_txns()) {
    for (const auto& r : t.refs) {
      ++freq[r.page.key()];
      ++total;
    }
  }
  std::vector<std::uint64_t> counts;
  counts.reserve(freq.size());
  for (const auto& [k, v] : freq) counts.push_back(v);
  std::sort(counts.rbegin(), counts.rend());
  std::uint64_t head = 0;
  for (std::size_t i = 0; i < counts.size() / 10; ++i) head += counts[i];
  EXPECT_GT(static_cast<double>(head) / static_cast<double>(total), 0.5);
}

TEST(SyntheticTrace, DeterministicForSeed) {
  sim::Rng a(3), b(3);
  const Trace t1 = generate_synthetic_trace({}, a);
  const Trace t2 = generate_synthetic_trace({}, b);
  ASSERT_EQ(t1.size(), t2.size());
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(t1.txn(i).type, t2.txn(i).type);
    EXPECT_EQ(t1.txn(i).refs.size(), t2.txn(i).refs.size());
  }
}

TEST(SyntheticTrace, ConfigurableSize) {
  sim::Rng rng(1);
  SyntheticTraceConfig cfg;
  cfg.transactions = 2000;
  const Trace tr = generate_synthetic_trace(cfg, rng);
  EXPECT_EQ(tr.size(), 2000u);
}

TEST(Trace, SyntheticSaveLoadRoundTripIsExact) {
  const Trace& tr = shared_trace();
  std::stringstream ss;
  tr.save(ss);
  const Trace back = Trace::load(ss);
  ASSERT_EQ(back.size(), tr.size());
  EXPECT_EQ(back.references(), tr.references());
  EXPECT_EQ(back.num_types, tr.num_types);
  EXPECT_EQ(back.num_files, tr.num_files);
  for (std::size_t i = 0; i < tr.size(); ++i) {
    const TxnSpec a = tr.txn(i), b = back.txn(i);
    ASSERT_EQ(a.type, b.type) << "txn " << i;
    ASSERT_EQ(a.affinity_key, b.affinity_key) << "txn " << i;
    ASSERT_EQ(a.refs.size(), b.refs.size()) << "txn " << i;
    for (std::size_t k = 0; k < a.refs.size(); ++k) {
      ASSERT_EQ(a.refs[k].page, b.refs[k].page) << "txn " << i << " " << k;
      ASSERT_EQ(a.refs[k].write, b.refs[k].write) << "txn " << i << " " << k;
    }
  }

  // Both copies drive the same simulation.
  SystemConfig cfg = make_trace_config(tr);
  cfg.nodes = 2;
  cfg.warmup = 0.5;
  cfg.measure = 1.5;
  const RunResult r1 = run_trace(cfg, tr), r2 = run_trace(cfg, back);
  EXPECT_GT(r1.commits, 0u);
  EXPECT_EQ(r1.commits, r2.commits);
  EXPECT_EQ(r1.aborts, r2.aborts);
  EXPECT_EQ(r1.resp_ms, r2.resp_ms);
  EXPECT_EQ(r1.resp_p95_ms, r2.resp_p95_ms);
  EXPECT_EQ(r1.throughput, r2.throughput);
  EXPECT_EQ(r1.cpu_util, r2.cpu_util);
  EXPECT_EQ(r1.hit_ratio, r2.hit_ratio);
  EXPECT_EQ(r1.lock_wait_ms, r2.lock_wait_ms);
}

}  // namespace
}  // namespace gemsd::workload
