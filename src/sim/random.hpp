#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace gemsd::sim {

/// MT19937-64, written out so that it emits exactly the stream the standard
/// fixes for mt19937_64 (Rng.EngineMatchesStdMt19937_64 compares it with the
/// library's engine) with no unpredictable branch: the twist selects its
/// matrix term with a mask, not a jump on each word's low bit, and tempers
/// the whole block into `out_` at once, so a draw is one load and one index
/// check.
class Mt19937_64 {
 public:
  explicit Mt19937_64(std::uint64_t seed) {
    state_[0] = seed;
    for (std::size_t i = 1; i < kWords; ++i) {
      const std::uint64_t x = state_[i - 1];
      state_[i] = 6364136223846793005ULL * (x ^ (x >> 62)) + i;
    }
    refill();
  }

  std::uint64_t operator()() {
    if (next_ == kWords) refill();
    return out_[next_++];
  }

 private:
  static constexpr std::size_t kWords = 312;

  /// Twists the state once, then tempers all of it into `out_`.
  void refill() {
    constexpr std::size_t kShift = 156;
    constexpr std::uint64_t kUpper = ~std::uint64_t{0} << 31;
    const auto mix = [](std::uint64_t hi, std::uint64_t lo, std::uint64_t x) {
      const std::uint64_t y = (hi & kUpper) | (lo & ~kUpper);
      return x ^ (y >> 1) ^ (-(y & 1) & 0xB5026F5AA96619E9ULL);
    };
    std::size_t k = 0;
    for (; k < kWords - kShift; ++k) {
      state_[k] = mix(state_[k], state_[k + 1], state_[k + kShift]);
    }
    for (; k < kWords - 1; ++k) {
      state_[k] = mix(state_[k], state_[k + 1], state_[k + kShift - kWords]);
    }
    state_[k] = mix(state_[k], state_[0], state_[kShift - 1]);
    for (k = 0; k < kWords; ++k) {
      std::uint64_t z = state_[k];
      z ^= (z >> 29) & 0x5555555555555555ULL;
      z ^= (z << 17) & 0x71D67FFFEDA60000ULL;
      z ^= (z << 37) & 0xFFF7EEE000000000ULL;
      out_[k] = z ^ (z >> 43);
    }
    next_ = 0;
  }

  std::uint64_t state_[kWords];
  std::uint64_t out_[kWords];
  std::size_t next_ = 0;
};

/// static_cast<double>(x) without the branch on the sign bit that the
/// unsigned conversion compiles to: both 32-bit halves convert exactly, and
/// the sum is rounded once, to the same double.
inline double u64_to_double(std::uint64_t x) {
  return static_cast<double>(x >> 32) * 0x1p32 +
         static_cast<double>(x & 0xffffffffULL);
}

/// Deterministic, seedable random source used by every stochastic model
/// component. One Rng per System keeps runs reproducible.
///
/// The engine is MT19937-64 written out above; tests check its stream
/// against the standard library's mt19937_64. The standard leaves the
/// distributions' algorithms to the library, so every draw below is spelled
/// out: each computes exactly what libstdc++ 12's distribution of the same
/// name computes on that engine. So results depend on no library's random
/// engine or distributions; std::log, for the exponential, is the one
/// library function a draw still depends on.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) : eng_(seed) {}

  /// U[0,1): one 64-bit draw, canonical().
  double uniform() { return canonical(eng_()); }
  /// The word x scaled by 2^-64 (generate_canonical); a word that rounds to
  /// 1.0 becomes the largest double below 1.
  static double canonical(std::uint64_t x) {
    const double u = u64_to_double(x) * 0x1p-64;
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

  Mt19937_64 eng_;
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
