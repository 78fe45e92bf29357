#include "util/rng.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

namespace cksum::util {

Rng::Rng(std::uint64_t seed) noexcept : seed_(seed) {
  SplitMix64 sm(seed);
  for (auto& word : s_) word = sm.next();
  // xoshiro must not be seeded with all-zero state; SplitMix64 never
  // produces four consecutive zeros, but be defensive anyway.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

std::uint64_t Rng::next() noexcept {
  const std::uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = std::rotl(s_[3], 45);
  return result;
}

std::uint64_t Rng::below(std::uint64_t bound) noexcept {
  // Lemire's nearly-divisionless unbiased bounded generation.
  std::uint64_t x = next();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < bound) {
    const std::uint64_t threshold = -bound % bound;
    while (lo < threshold) {
      x = next();
      m = static_cast<__uint128_t>(x) * bound;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t Rng::between(std::int64_t lo, std::int64_t hi) noexcept {
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(below(span));
}

double Rng::uniform01() noexcept {
  // 53 top bits -> [0,1) with full double granularity.
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

bool Rng::chance(double p) noexcept {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform01() < p;
}

void Rng::fill(std::span<std::uint8_t> out) noexcept {
  std::size_t i = 0;
  while (i + 8 <= out.size()) {
    const std::uint64_t word = next();
    for (int b = 0; b < 8; ++b)
      out[i + static_cast<std::size_t>(b)] =
          static_cast<std::uint8_t>(word >> (8 * b));
    i += 8;
  }
  if (i < out.size()) {
    std::uint64_t word = next();
    for (; i < out.size(); ++i) {
      out[i] = static_cast<std::uint8_t>(word);
      word >>= 8;
    }
  }
}

std::size_t Rng::run_length(double p_continue, std::size_t cap) noexcept {
  std::size_t n = 1;
  while (n < cap && chance(p_continue)) ++n;
  return n;
}

Rng Rng::child(std::uint64_t stream_id) const noexcept {
  SplitMix64 sm(seed_ ^ (0x9e3779b97f4a7c15ULL + stream_id));
  return Rng(sm.next() ^ stream_id);
}

WeightedTable::WeightedTable(std::span<const double> weights)
    : weights_(weights.begin(), weights.end()) {
  cumulative_.reserve(weights_.size());
  for (double w : weights_) {
    if (!(w >= 0.0))
      throw std::invalid_argument("WeightedTable: negative or NaN weight");
    total_ += w;
    cumulative_.push_back(total_);
  }
  margin_ = 1e-9 * total_;
  if (total_ <= 0.0) return;
  // Four buckets per entry: a pick rarely scans past its guide.
  guide_.resize(std::bit_ceil(4 * weights_.size()));
  guide_scale_ = static_cast<double>(guide_.size()) / total_;
  std::size_t i = 0;
  for (std::size_t b = 0; b < guide_.size(); ++b) {
    const double lo = static_cast<double>(b) / guide_scale_;
    while (i < cumulative_.size() && cumulative_[i] <= lo) ++i;
    guide_[b] = static_cast<std::uint32_t>(i);
  }
}

std::size_t WeightedTable::pick(Rng& rng) const noexcept {
  if (total_ <= 0.0) return 0;
  const double x = rng.uniform01() * total_;
  // First i with x < cumulative_[i]: the index exact arithmetic picks.
  // The guide is only a starting point; both scans make the result
  // exact whatever rounding put x in its bucket.
  const std::size_t n = cumulative_.size();
  std::size_t i = guide_[std::min(static_cast<std::size_t>(x * guide_scale_),
                                  guide_.size() - 1)];
  while (i > 0 && cumulative_[i - 1] > x) --i;
  while (i < n && cumulative_[i] <= x) ++i;
  const bool near_upper = i == n || cumulative_[i] - x < margin_;
  const bool near_lower = i > 0 && x - cumulative_[i - 1] < margin_;
  return near_upper || near_lower ? pick_sequential(x) : i;
}

std::size_t WeightedTable::pick_sequential(double x) const noexcept {
  for (std::size_t i = 0; i < weights_.size(); ++i) {
    x -= weights_[i];
    if (x < 0.0) return i;
  }
  return weights_.size() - 1;
}

}  // namespace cksum::util
