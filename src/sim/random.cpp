#include "sim/random.hpp"

#include <bit>
#include <cmath>
#include <stdexcept>

namespace gemsd::sim {

std::uint64_t Rng::below(std::uint64_t range) {
  unsigned __int128 product =
      static_cast<unsigned __int128>(eng_()) * range;
  auto low = static_cast<std::uint64_t>(product);
  if (low < range) {
    const std::uint64_t threshold = -range % range;
    while (low < threshold) {
      product = static_cast<unsigned __int128>(eng_()) * range;
      low = static_cast<std::uint64_t>(product);
    }
  }
  return static_cast<std::uint64_t>(product >> 64);
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  const std::uint64_t span =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo);
  const std::uint64_t x = span == UINT64_MAX ? eng_() : below(span + 1);
  return static_cast<std::int64_t>(x + static_cast<std::uint64_t>(lo));
}

double Rng::exponential(double mean) {
  if (mean <= 0.0) return 0.0;
  // Divided by the rate, as std::exponential_distribution stores it; a
  // product with `mean` would round differently.
  const double rate = 1.0 / mean;
  return -std::log(1.0 - uniform()) / rate;
}

ZipfGenerator::ZipfGenerator(std::size_t n, double theta) {
  if (n == 0) throw std::invalid_argument("ZipfGenerator: n must be > 0");
  if (n > UINT32_MAX) {
    throw std::invalid_argument("ZipfGenerator: n must be < 2^32");
  }
  cdf_.resize(n);
  double sum = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    sum += 1.0 / std::pow(static_cast<double>(k + 1), theta);
    cdf_[k] = sum;
  }
  for (auto& c : cdf_) c /= sum;

  // guide_[j] = first rank with cdf >= j/G. The CDF is non-decreasing and
  // ends at 1.0, so one merge pass fills every bucket.
  guide_.resize(std::bit_ceil(n));
  const double inv_g = 1.0 / static_cast<double>(guide_.size());
  std::size_t r = 0;
  for (std::size_t j = 0; j < guide_.size(); ++j) {
    while (cdf_[r] < static_cast<double>(j) * inv_g) ++r;
    guide_[j] = static_cast<std::uint32_t>(r);
  }
}

std::size_t ZipfGenerator::rank(double u) const {
  std::size_t r =
      guide_[static_cast<std::size_t>(u * static_cast<double>(guide_.size()))];
  while (cdf_[r] < u) ++r;
  return r;
}

}  // namespace gemsd::sim
