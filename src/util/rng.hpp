// Deterministic pseudo-random number generation for reproducible corpora.
//
// Every experiment in this repository is seeded; the same seed always
// produces the same synthetic filesystem, packet stream, and table. We
// use xoshiro256** (Blackman & Vigna) seeded via SplitMix64, both
// implemented here so the corpus does not depend on the standard
// library's unspecified engine implementations.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

namespace cksum::util {

/// SplitMix64: used to expand a single 64-bit seed into xoshiro state.
/// Also useful directly as a cheap stateless mixer.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  constexpr std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256**: fast, high-quality 64-bit PRNG with 256-bit state.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed) noexcept;

  /// Uniform 64-bit value.
  std::uint64_t next() noexcept;

  /// Uniform in [0, bound). bound must be > 0. Uses Lemire's
  /// multiply-shift rejection method (unbiased).
  std::uint64_t below(std::uint64_t bound) noexcept;

  /// Uniform in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t between(std::int64_t lo, std::int64_t hi) noexcept;

  /// Uniform double in [0, 1).
  double uniform01() noexcept;

  /// Bernoulli trial with probability p (clamped to [0,1]).
  bool chance(double p) noexcept;

  /// Fill a buffer with uniform bytes.
  void fill(std::span<std::uint8_t> out) noexcept;

  /// Geometric-ish run length: 1 + Geometric(p) capped at `cap`.
  /// Used by generators that emit runs of repeated bytes.
  std::size_t run_length(double p_continue, std::size_t cap) noexcept;

  /// UniformRandomBitGenerator interface (for std::shuffle etc.).
  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }
  result_type operator()() noexcept { return next(); }

  /// Derive an independent child generator (stable: depends only on
  /// the parent seed and the stream id, not on how much the parent has
  /// been consumed).
  Rng child(std::uint64_t stream_id) const noexcept;

 private:
  std::array<std::uint64_t, 4> s_{};
  std::uint64_t seed_;
};

/// A discrete distribution over indices 0..n-1, built once from a
/// weight table (weights need not sum to anything in particular).
///
/// pick() returns exactly what sequential subtraction returns — draw
/// x = uniform01() * total, subtract the weights in order, stop at the
/// first index that takes x below zero — but finds the index in the
/// cumulative sums instead: a guide table of buckets over [0, total)
/// (indexed search, Chen & Asau 1974) starts within a step or two of
/// the first cumulative sum above x. The two can disagree only when x
/// lies within the accumulated rounding error of a cumulative boundary
/// (at most ~n ulps of the total). A draw closer than 1e-9 × total to
/// a boundary runs the sequential subtraction itself, so for any table
/// of fewer than ~10^6 entries the index, and the generator's state
/// afterwards, are identical to it.
class WeightedTable {
 public:
  /// Throws std::invalid_argument on a negative or NaN weight.
  explicit WeightedTable(std::span<const double> weights);

  /// One uniform01() draw; all-zero (or empty) weights pick index 0
  /// without drawing.
  std::size_t pick(Rng& rng) const noexcept;

  std::span<const double> weights() const noexcept { return weights_; }

 private:
  std::size_t pick_sequential(double x) const noexcept;

  std::vector<double> weights_;
  std::vector<double> cumulative_;  ///< [i] = w0 + ... + wi, summed in order
  double total_ = 0.0;
  double margin_ = 0.0;  ///< 1e-9 * total_
  /// guide_[b]: first i with cumulative_[i] > b * total_ / guide_.size().
  std::vector<std::uint32_t> guide_;
  double guide_scale_ = 0.0;  ///< guide_.size() / total_
};

}  // namespace cksum::util
