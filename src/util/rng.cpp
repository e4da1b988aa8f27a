#include "util/rng.hpp"

#include <cmath>

namespace daos {

std::uint64_t Rng::NextZipf(std::uint64_t n, double s) noexcept {
  return ZipfDist(n, s).Draw(*this);
}

ZipfDist::ZipfDist(std::uint64_t n, double s) noexcept : n_(n), s_(s) {
  if (n <= 1) return;
  if (s == 1.0) {
    top_ = std::log1p(static_cast<double>(n));
    return;
  }
  const double oms = 1.0 - s;
  top_ = std::pow(static_cast<double>(n) + 1.0, oms) - 1.0;
  inv_oms_ = 1.0 / oms;
}

std::uint64_t ZipfDist::Draw(Rng& rng) const noexcept {
  if (n_ <= 1) return 0;
  const double u = rng.NextDouble();
  if (s_ == 1.0) {
    // Invert CDF(x) = ln(1+x) / ln(1+n).
    const double x = std::exp(u * top_) - 1.0;
    const auto r = static_cast<std::uint64_t>(x);
    return r >= n_ ? n_ - 1 : r;
  }
  const double x = std::pow(u * top_ + 1.0, inv_oms_) - 1.0;
  if (x <= 0.0) return 0;
  const auto r = static_cast<std::uint64_t>(x);
  return r >= n_ ? n_ - 1 : r;
}

}  // namespace daos
