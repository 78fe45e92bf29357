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
  if (weights_.size() > std::size_t{kScan})
    throw std::invalid_argument("WeightedTable: more than 32768 weights");
  cumulative_.reserve(weights_.size());
  for (double w : weights_) {
    if (!(w >= 0.0))
      throw std::invalid_argument("WeightedTable: negative or NaN weight");
    total_ += w;
    cumulative_.push_back(total_);
  }
  margin_ = 1e-9 * total_;
  if (total_ <= 0.0) return;
  // Sixteen buckets per entry: most hold no boundary.
  const std::size_t buckets = std::bit_ceil(16 * weights_.size());
  guide_.resize(buckets);
  guide_scale_ = static_cast<double>(buckets) / total_;
  const auto bucket_of = [&](double x) {
    return std::min(static_cast<std::size_t>(x * guide_scale_), buckets - 1);
  };
  // The least draw in bucket b or above: b / guide_scale_ rounded, then
  // walked to the exact double, so [first_in(b), first_in(b + 1)) is
  // every x that pick() sends to bucket b.
  const auto first_in = [&](std::size_t b) {
    double x = static_cast<double>(b) / guide_scale_;
    while (x > 0.0 && bucket_of(std::nextafter(x, 0.0)) >= b)
      x = std::nextafter(x, 0.0);
    while (bucket_of(x) < b) x = std::nextafter(x, total_);
    return x;
  };
  const std::size_t n = cumulative_.size();
  std::size_t i = 0;
  double lo = 0.0;
  for (std::size_t b = 0; b < buckets; ++b) {
    // x never exceeds the total: uniform01() < 1.
    const double next = b + 1 < buckets ? first_in(b + 1) : total_;
    const double hi = b + 1 < buckets ? std::nextafter(next, 0.0) : total_;
    while (i < n && cumulative_[i] <= lo) ++i;
    // Every x in [lo, hi] picks i, with no boundary within the margin:
    // the checks pick_scan makes, at the two extreme draws.
    const bool free = lo <= hi && i < n && cumulative_[i] - hi >= margin_ &&
                      (i == 0 || lo - cumulative_[i - 1] >= margin_);
    guide_[b] = static_cast<std::uint16_t>(free ? i : (i | kScan));
    lo = next;
  }
}

std::size_t WeightedTable::pick_scan(double x, std::size_t i) const noexcept {
  // First i with x < cumulative_[i]: the index exact arithmetic picks.
  // The guide is only a starting point; both scans make the result
  // exact whatever rounding put x in its bucket.
  const std::size_t n = cumulative_.size();
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
