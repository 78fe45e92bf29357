// Deterministic pseudo-random number generation for reproducible corpora.
//
// Every experiment in this repository is seeded; the same seed always
// produces the same synthetic filesystem, packet stream, and table. We
// use xoshiro256** (Blackman & Vigna) seeded via SplitMix64, both
// implemented here so the corpus does not depend on the standard
// library's unspecified engine implementations.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
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

  // The draws every generator makes per byte or per word are inline:
  // a call per draw costs as much as the draw.

  /// Uniform 64-bit value.
  std::uint64_t next() noexcept {
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

  /// Uniform in [0, bound). bound must be > 0. Uses Lemire's
  /// multiply-shift rejection method (unbiased).
  std::uint64_t below(std::uint64_t bound) noexcept {
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

  /// Uniform in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t between(std::int64_t lo, std::int64_t hi) noexcept {
    const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(below(span));
  }

  /// Uniform double in [0, 1): the top 53 bits, full double granularity.
  double uniform01() noexcept {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial with probability p (clamped to [0,1]).
  bool chance(double p) noexcept {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return uniform01() < p;
  }

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
/// cumulative sums instead. The two can disagree only when x lies
/// within the accumulated rounding error of a cumulative boundary (at
/// most ~n ulps of the total), so a draw closer than 1e-9 × total to a
/// boundary runs the sequential subtraction itself: for a table of
/// fewer than ~10^6 entries the index, and the generator's state
/// afterwards, are identical to it.
///
/// A guide table of 16 buckets per entry over [0, total) (indexed
/// search, Chen & Asau 1974) locates x. Each bucket records whether a
/// cumulative boundary lies within that 1e-9 × total margin of the
/// draws that land in it. A boundary-free bucket holds the one index
/// every such draw picks and returns it with no scan; any other bucket
/// holds a starting point within a step or two of the first
/// cumulative sum above x, and scans from it. On the text generator's
/// word table ~94% of buckets are boundary-free.
class WeightedTable {
 public:
  /// Throws std::invalid_argument on a negative or NaN weight, and on
  /// more than 32768 weights.
  explicit WeightedTable(std::span<const double> weights);

  /// One uniform01() draw; all-zero (or empty) weights pick index 0
  /// without drawing.
  std::size_t pick(Rng& rng) const noexcept {
    if (total_ <= 0.0) return 0;
    const double x = rng.uniform01() * total_;
    const std::uint16_t g = guide_[std::min(
        static_cast<std::size_t>(x * guide_scale_), guide_.size() - 1)];
    return (g & kScan) != 0 ? pick_scan(x, g & ~kScan) : g;
  }

  std::span<const double> weights() const noexcept { return weights_; }

 private:
  /// Guide flag: a boundary lies near the bucket, so scan from here.
  static constexpr std::uint16_t kScan = 0x8000;

  std::size_t pick_scan(double x, std::size_t i) const noexcept;
  std::size_t pick_sequential(double x) const noexcept;

  std::vector<double> weights_;
  std::vector<double> cumulative_;  ///< [i] = w0 + ... + wi, summed in order
  double total_ = 0.0;
  double margin_ = 0.0;  ///< 1e-9 * total_
  /// guide_[b]: for the draws x in bucket b (x * guide_scale_ truncates
  /// to b), the index they all pick, or kScan | the first i with
  /// cumulative_[i] above the least of them.
  std::vector<std::uint16_t> guide_;
  double guide_scale_ = 0.0;  ///< guide_.size() / total_
};

}  // namespace cksum::util
