#pragma once

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

namespace gemsd::sim {

/// Deterministic, seedable random source used by every stochastic model
/// component. One Rng per System keeps runs reproducible.
///
/// The engine is std::mt19937_64, whose output the standard fixes. The
/// standard leaves the distributions' algorithms to the library, so every
/// draw below is spelled out: each computes exactly what libstdc++ 12's
/// distribution of the same name computes on that engine, so results depend
/// on no library's <random> internals (only on std::log, for the
/// exponential).
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) : eng_(seed) {}

  /// U[0,1): one 64-bit draw scaled by 2^-64 (generate_canonical); a draw
  /// that rounds to 1.0 becomes the largest double below 1.
  double uniform() {
    const double u = static_cast<double>(eng_()) * 0x1p-64;
    return u < 1.0 ? u : 0x1.fffffffffffffp-1;  // std::nextafter(1.0, 0.0)
  }
  /// U[lo, hi) real.
  double uniform(double lo, double hi) {
    return lo + (hi - lo) * uniform();
  }
  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);
  /// Exponential with the given mean (mean > 0), by inversion.
  double exponential(double mean);
  bool bernoulli(double p) { return uniform() < p; }

  /// Permutes [first, last) uniformly, drawing what libstdc++'s std::shuffle
  /// draws: below 2^32 elements, positions come in pairs from one bounded
  /// draw (an even count first swaps one element alone).
  template <typename It>
  void shuffle(It first, It last);

 private:
  /// Uniform in [0, range), range >= 1: Lemire's multiply-shift with the
  /// rejection threshold 2^64 mod range (arXiv 1805.10941).
  std::uint64_t below(std::uint64_t range);

  std::mt19937_64 eng_;
};

template <typename It>
void Rng::shuffle(It first, It last) {
  const auto n = static_cast<std::uint64_t>(last - first);
  if (n < 2) return;
  if (UINT64_MAX / n < n) {
    for (It i = first + 1; i != last; ++i) {
      const auto b = static_cast<std::uint64_t>(i - first) + 1;
      std::iter_swap(i, first + below(b));
    }
    return;
  }
  It i = first + 1;
  if (n % 2 == 0) std::iter_swap(i++, first + below(2));
  while (i != last) {
    const auto b = static_cast<std::uint64_t>(i - first) + 1;
    const std::uint64_t x = below(b * (b + 1));
    std::iter_swap(i++, first + x / (b + 1));
    std::iter_swap(i++, first + x % (b + 1));
  }
}

/// Zipf-distributed integers over {0, ..., n-1}: P(k) ~ 1/(k+1)^theta.
/// Precomputes the CDF once. A draw is O(1) on average: a power-of-two guide
/// table (`guide_[j]` = the first rank whose CDF reaches j/G) picks the
/// starting rank, and a forward scan finds the first rank whose CDF reaches
/// u. That is exactly the rank std::lower_bound finds: u*G and j/G are exact
/// in binary, and the last CDF entry is exactly 1.0.
class ZipfGenerator {
 public:
  ZipfGenerator(std::size_t n, double theta);
  /// Draw a rank (0 = most popular).
  std::size_t sample(Rng& rng) const { return rank(rng.uniform()); }
  /// The first rank whose CDF is >= u, for u in [0, 1).
  std::size_t rank(double u) const;
  std::size_t size() const { return cdf_.size(); }
  const std::vector<double>& cdf() const { return cdf_; }
  /// Buckets G of the guide table (a power of two, >= n).
  std::size_t buckets() const { return guide_.size(); }

 private:
  std::vector<double> cdf_;
  std::vector<std::uint32_t> guide_;
};

}  // namespace gemsd::sim
