// Exhaustive enumeration of AAL5 packet splices.
//
// Error model (paper §3.1): cells of two adjacent packets are dropped
// — never reordered — and reassembly collects cells up to the first
// end-of-message cell it sees. A splice therefore consists of
//
//   * at least one of pkt1's cells, excluding its EOM cell (if the EOM
//     survived, reassembly would have terminated correctly), followed
//     by
//   * some of pkt2's non-EOM cells, in order, and
//   * pkt2's EOM cell (always present — it terminates the splice and
//     carries the AAL5 length and CRC).
//
// The receiver's first check is that the AAL5 length in the trailer is
// consistent with the number of cells received; since the trailer is
// pkt2's, only splices with exactly pkt2's cell count survive, so the
// enumeration fixes k1 + k2 = n2 - 1. For two 7-cell packets that is
// Σₖ C(6,k)·C(6,6-k) − 1 = C(12,6) − 1 = 923 splices, of which
// C(11,5) = 462 retain pkt1's header cell (the paper's count).
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

#include "atm/aal5.hpp"
#include "util/math.hpp"

namespace cksum::atm {

/// Hard cap on the per-packet cell count the splice enumeration can
/// handle: kept-cell subsets are 32-bit masks over the non-EOM cells,
/// so a packet may have at most 32 cells (31 non-EOM). A 33-cell
/// packet used to shift by 32 — undefined behaviour that silently
/// truncated the enumeration; now it is rejected up front.
inline constexpr std::size_t kMaxSpliceCells = 32;

/// Throws std::length_error if either packet is too large to splice.
constexpr void check_splice_cells(std::size_t n1, std::size_t n2) {
  if (n1 > kMaxSpliceCells || n2 > kMaxSpliceCells) {
    throw std::length_error(
        "atm::splice: packet of " +
        std::to_string(n1 > kMaxSpliceCells ? n1 : n2) +
        " cells exceeds kMaxSpliceCells (" + std::to_string(kMaxSpliceCells) +
        "); lower the segment size or raise the mask width");
  }
}

/// One splice: bitmasks of the kept non-EOM cells. Bit i of mask1 set
/// means pkt1's cell i (i < n1-1) is in the splice; likewise mask2 for
/// pkt2 (j < n2-1). pkt2's EOM cell is implicitly always kept.
struct SpliceSpec {
  std::uint32_t mask1 = 0;
  std::uint32_t mask2 = 0;
  unsigned k1 = 0;  ///< popcount(mask1) >= 1
  unsigned k2 = 0;  ///< popcount(mask2) == n2 - 1 - k1
};

/// Number of splices for packets of n1 and n2 cells. Throws
/// std::length_error past kMaxSpliceCells (see check_splice_cells).
constexpr std::uint64_t splice_count(std::size_t n1, std::size_t n2) {
  check_splice_cells(n1, n2);
  if (n1 < 2 || n2 < 1) return 0;  // pkt1 must have a droppable EOM + >=1 cell
  std::uint64_t total = 0;
  const std::size_t e1 = n1 - 1;  // eligible cells of pkt1
  const std::size_t e2 = n2 - 1;  // eligible (non-EOM) cells of pkt2
  for (std::size_t k1 = 1; k1 <= e1 && k1 <= e2; ++k1)
    total += util::binomial(e1, k1) * util::binomial(e2, e2 - k1);
  return total;
}

/// Number of splices whose first kept cell is pkt1's cell `i`
/// (cells < i dropped, cell i kept). Partitioning the splice space by
/// first cell lets the DFS evaluator bulk-account a header-rejected
/// subtree without enumerating it: summing over i < n1-1 recovers
/// splice_count(n1, n2).
constexpr std::uint64_t splice_count_first_cell(std::size_t n1, std::size_t n2,
                                                std::size_t i) {
  check_splice_cells(n1, n2);
  if (n1 < 2 || n2 < 1 || i + 2 > n1) return 0;
  const std::size_t e2 = n2 - 1;
  // k1-1 further pkt1 cells come from the `avail` cells after i; pkt2
  // supplies the remaining e2-k1 non-EOM cells.
  const std::size_t avail = n1 - 2 - i;
  std::uint64_t total = 0;
  for (std::size_t t = 0; t <= avail && t + 1 <= e2; ++t)
    total += util::binomial(avail, t) * util::binomial(e2, e2 - 1 - t);
  return total;
}

namespace detail {
/// Gosper's hack: next bit pattern with the same popcount.
constexpr std::uint32_t next_subset(std::uint32_t v) noexcept {
  const std::uint32_t c = v & (0u - v);
  const std::uint32_t r = v + c;
  return r | (((v ^ r) >> 2) / c);
}
}  // namespace detail

/// Invoke `fn(const SpliceSpec&)` for every splice of an n1-cell packet
/// followed by an n2-cell packet. Throws std::length_error past
/// kMaxSpliceCells.
template <typename F>
void for_each_splice(std::size_t n1, std::size_t n2, F&& fn) {
  check_splice_cells(n1, n2);
  if (n1 < 2 || n2 < 1) return;
  const unsigned e1 = static_cast<unsigned>(n1 - 1);
  const unsigned e2 = static_cast<unsigned>(n2 - 1);
  for (unsigned k1 = 1; k1 <= e1 && k1 <= e2; ++k1) {
    const unsigned k2 = e2 - k1;
    SpliceSpec s;
    s.k1 = k1;
    s.k2 = k2;
    const std::uint32_t limit1 = 1u << e1;
    for (std::uint32_t m1 = (1u << k1) - 1; m1 < limit1;
         m1 = detail::next_subset(m1)) {
      s.mask1 = m1;
      if (k2 == 0) {
        s.mask2 = 0;
        fn(static_cast<const SpliceSpec&>(s));
      } else {
        const std::uint32_t limit2 = 1u << e2;
        for (std::uint32_t m2 = (1u << k2) - 1; m2 < limit2;
             m2 = detail::next_subset(m2)) {
          s.mask2 = m2;
          fn(static_cast<const SpliceSpec&>(s));
        }
      }
      // next_subset of the top pattern exceeds limit1, ending the loop.
    }
  }
}

/// Materialise the spliced PDU's bytes (slow path and tests) from the
/// two PDUs' bytes, each a whole number of cells.
util::Bytes materialize_splice(util::ByteView p1, util::ByteView p2,
                               const SpliceSpec& s);

}  // namespace cksum::atm
