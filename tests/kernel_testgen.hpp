// Deterministic input generation shared by the kernel-conformance
// harness (test_kernels.cpp) and the golden-vector table
// (test_goldens.cpp).
//
// Everything here is seeded and reproducible: a conformance failure
// report names the seed, length, and alignment, and re-running with
// the same parameters rebuilds the exact failing buffer. The opt-in
// long mode (set CKSUM_KERNEL_LONG=1) widens the sweeps — more random
// buffers, megabyte lengths, exhaustive splits on larger messages —
// for soak runs; the default mode stays fast enough for every-commit
// CI.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <vector>

#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace cksum::testgen {

/// Fixed seed for the default conformance sweep. Long mode derives
/// additional seeds from it rather than replacing it, so the default
/// sweep is always a subset of the long one.
inline constexpr std::uint64_t kConformanceSeed = 0xC0FF'EE00'5EED'0001ULL;

/// Set (to anything) to widen the conformance sweeps.
inline constexpr const char* kLongModeEnv = "CKSUM_KERNEL_LONG";

inline bool long_mode() { return std::getenv(kLongModeEnv) != nullptr; }

inline util::Bytes random_bytes(std::uint64_t seed, std::size_t n) {
  util::Bytes b(n);
  util::Rng rng(seed);
  rng.fill(b);
  return b;
}

/// Adversarial byte patterns every kernel must agree on: the all-zero
/// and all-ones planes (the two zeros of the ones-complement rings),
/// single-bit planes, and a carry-heavy alternating pattern.
inline std::vector<util::Bytes> edge_patterns(std::size_t n) {
  std::vector<util::Bytes> out;
  for (const std::uint8_t fill : {0x00, 0xff, 0x80, 0x01, 0x55}) {
    out.emplace_back(n, fill);
  }
  util::Bytes alternating(n);
  for (std::size_t i = 0; i < n; ++i)
    alternating[i] = (i % 2 == 0) ? 0xff : 0x00;
  out.push_back(std::move(alternating));
  return out;
}

/// One over-allocated random buffer serving views at every 8-byte
/// phase: view(align, n) starts at an address congruent to `align`
/// mod 8, so the SWAR kernel's head/tail handling is exercised at all
/// eight phases over the same underlying data.
class AlignedPool {
 public:
  AlignedPool(std::uint64_t seed, std::size_t capacity)
      : storage_(capacity + 16) {
    util::Rng rng(seed);
    rng.fill(storage_);
  }

  std::size_t capacity() const { return storage_.size() - 16; }

  util::ByteView view(std::size_t align, std::size_t n) const {
    const auto base = reinterpret_cast<std::uintptr_t>(storage_.data());
    const std::size_t shift =
        (align + 8 - static_cast<std::size_t>(base % 8)) % 8;
    return util::ByteView(storage_.data() + shift, n);
  }

 private:
  util::Bytes storage_;
};

/// Lengths for the alignment sweep: every boundary case of an 8-byte
/// inner loop plus the sizes the pipeline actually feeds the kernels
/// (48-byte cells, 296-byte paper packets, MTU, 64 KiB buffers, and
/// 64 KiB plus an odd sub-word tail).
inline std::vector<std::size_t> sweep_lengths() {
  std::vector<std::size_t> lens = {0,    1,    2,    3,     7,     8,
                                   9,    15,   16,   17,    47,    48,
                                   63,   64,   65,   296,   1500,  4095,
                                   4096, 65535, 65536, 65543};
  if (long_mode()) {
    // Long mode: random lengths up to 1 MiB (the pool is grown to
    // match by the caller) on top of the fixed boundary set.
    util::Rng rng(kConformanceSeed ^ 0x10ad);
    for (int i = 0; i < 64; ++i)
      lens.push_back(static_cast<std::size_t>(rng.below((1u << 20) + 1)));
  }
  return lens;
}

/// Message length whose every resume/combine split is checked.
inline std::size_t split_message_len() { return long_mode() ? 4096 : 301; }

}  // namespace cksum::testgen
