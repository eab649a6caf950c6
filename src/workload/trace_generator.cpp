#include "workload/trace_generator.hpp"

#include <algorithm>
#include <array>
#include <cmath>

namespace gemsd::workload {

namespace {

/// Sizes of the 13 files (pages), totalling 66,000.
constexpr std::array<int, 13> kFilePages = {12000, 10000, 8000, 8000, 6000,
                                            5000,  4000,  4000, 3000, 2500,
                                            1500,  1200,  800};

/// Per-type shape: arrival weight, mean reference count, probability that an
/// instance is an update transaction, write fraction of its *home-file*
/// references when updating, and the two affine files (every type also reads
/// the shared "catalog" file 0, which is never written).
///
/// The profile is constructed so that lock conflicts stay insignificant, the
/// property the paper reports for its real trace: (a) long read-only types
/// (>= 150 refs, whose strict-2PL read locks are held for seconds) only read
/// files that no type writes (archive tables); (b) writes go to the cold
/// tail region of the home file, disjoint from the Zipf-hot read head
/// (updates/inserts land on recently allocated pages outside the read
/// working set). Type 11 is the ad-hoc query: a long scan of the catalog.
struct TypeShape {
  double weight;
  double mean_refs;
  double update_prob;
  double write_frac;
  int home_file;
  int second_file;
};

constexpr std::array<TypeShape, 12> kTypes = {{
    {0.2200, 25, 0.0, 0.000, 1, 6},
    {0.1800, 30, 0.60, 0.250, 2, 7},
    {0.1400, 40, 0.0, 0.000, 3, 8},
    {0.1200, 55, 0.60, 0.130, 4, 9},
    {0.0900, 70, 0.0, 0.000, 5, 10},
    {0.0800, 60, 0.48, 0.130, 6, 11},
    {0.0600, 90, 0.0, 0.000, 7, 12},
    {0.0500, 100, 0.36, 0.080, 8, 1},
    {0.0300, 150, 0.0, 0.000, 9, 3},
    {0.0200, 200, 0.60, 0.040, 10, 3},
    {0.0080, 400, 0.0, 0.000, 11, 5},
    {0.0003, 11000, 0.0, 0.000, 0, 0},  // ad-hoc query scan over file 0
}};

}  // namespace

Trace generate_synthetic_trace(const SyntheticTraceConfig& cfg,
                               sim::Rng& rng) {
  Trace tr;
  tr.num_types = static_cast<int>(kTypes.size());
  tr.num_files = static_cast<int>(kFilePages.size());

  std::vector<sim::ZipfGenerator> zipf;
  zipf.reserve(kFilePages.size());
  for (int pages : kFilePages) {
    zipf.emplace_back(static_cast<std::size_t>(pages), cfg.zipf_theta);
  }

  // Instance counts per type (largest remainder keeps the mix exact).
  std::vector<std::size_t> counts(kTypes.size());
  std::size_t assigned = 0;
  for (std::size_t ty = 0; ty < kTypes.size(); ++ty) {
    counts[ty] = static_cast<std::size_t>(
        std::floor(kTypes[ty].weight * static_cast<double>(cfg.transactions)));
    if (ty == 11) counts[ty] = std::max<std::size_t>(counts[ty], 5);
    assigned += counts[ty];
  }
  while (assigned < cfg.transactions) {
    counts[0] += 1;  // pad with the most common type
    ++assigned;
  }
  while (assigned > cfg.transactions && counts[0] > 0) {
    counts[0] -= 1;  // trim when the ad-hoc minimum overshoots small traces
    --assigned;
  }

  // Size the store once, at its final width: the expected reference count
  // plus 10 %, with pages below the largest file's size.
  double expected_refs = 0.0;
  for (std::size_t ty = 0; ty < kTypes.size(); ++ty) {
    expected_refs += static_cast<double>(counts[ty]) * kTypes[ty].mean_refs;
  }
  tr.reserve(assigned, static_cast<std::size_t>(expected_refs * 1.1),
             *std::max_element(kFilePages.begin(), kFilePages.end()) - 1);

  for (std::size_t ty = 0; ty < kTypes.size(); ++ty) {
    const TypeShape& s = kTypes[ty];
    for (std::size_t i = 0; i < counts[ty]; ++i) {
      tr.add_txn(static_cast<std::int64_t>(ty));

      std::size_t nrefs;
      if (ty == 11) {
        // "the largest transaction (an ad-hoc query) performs more than
        // 11,000 accesses" — pin the first instance above that mark.
        nrefs = i == 0 ? 11500u
                       : static_cast<std::size_t>(rng.uniform_int(9000, 13000));
      } else {
        nrefs = static_cast<std::size_t>(
            std::max(3.0, rng.exponential(s.mean_refs)));
        nrefs = std::min(nrefs, static_cast<std::size_t>(6 * s.mean_refs));
      }
      const bool updating = rng.bernoulli(s.update_prob);

      int cur_file = s.home_file;
      std::int64_t cur_page = -1;
      if (ty == 11) {
        // Sequential scan of the big file, wrapping.
        std::int64_t start = rng.uniform_int(0, kFilePages[0] - 1);
        for (std::size_t r = 0; r < nrefs; ++r) {
          tr.add_ref(0, (start + static_cast<std::int64_t>(r)) % kFilePages[0],
                     false);
        }
      } else {
        for (std::size_t r = 0; r < nrefs; ++r) {
          if (cur_page >= 0 && rng.bernoulli(cfg.sequential_prob)) {
            cur_page = (cur_page + 1) % kFilePages[static_cast<std::size_t>(cur_file)];
          } else {
            const double u = rng.uniform();
            cur_file = u < 0.55   ? s.home_file
                       : u < 0.85 ? s.second_file
                                  : 0;  // shared catalog file
            cur_page = static_cast<std::int64_t>(
                zipf[static_cast<std::size_t>(cur_file)].sample(rng));
          }
          bool w = updating && cur_file == s.home_file &&
                   rng.bernoulli(s.write_frac);
          if (w) {
            // Updates land uniformly on the cold tail region of the home
            // file (recently allocated pages, outside the read-hot head).
            const std::int64_t size =
                kFilePages[static_cast<std::size_t>(cur_file)];
            cur_page = rng.uniform_int(size * 3 / 10, size - 1);
          }
          tr.add_ref(cur_file, cur_page, w);
        }
        // An "updating" instance that drew no write refs simply counts as
        // read-only; forcing a write here could land on a read-hot page and
        // (with seconds-long strict-2PL hold times) stall the whole cluster.
      }
    }
  }

  // Shuffle so the replay interleaves types as a real trace would.
  tr.shuffle(rng);
  return tr;
}

Trace standard_synthetic_trace(std::size_t transactions) {
  SyntheticTraceConfig tc;
  tc.transactions = transactions;
  sim::Rng rng(7);
  return generate_synthetic_trace(tc, rng);
}

}  // namespace gemsd::workload
