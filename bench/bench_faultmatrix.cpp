// Detection rate per fault class x check code — the paper's Table 4-6
// apparatus extended from AAL5 splices to the full fault taxonomy the
// faults::FaultyChannel injects (bursts, duplication, reordering,
// deletion, truncation, splices, cross-stream misdelivery).
//
// For each trial a fresh random message is corrupted by one fault of
// the class; a fault is "detected" by a check code when the code's
// value over the corrupted bytes differs from the value over the
// original. The burst rows measure the §2 guarantees directly: bursts
// of <= 15 bits never escape the Internet checksum, bursts of < 32
// bits never escape CRC-32 — the bench exits non-zero if either
// guarantee is violated, so the CI smoke run doubles as a regression
// check.
//
// Cell-level rows operate on 48-byte blocks of the message, mirroring
// what the corresponding channel fault does to a cell stream once the
// payloads are concatenated by the reassembler.
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>

#include "checksum/checksum.hpp"
#include "checksum/koopman.hpp"
#include "core/error_inject.hpp"
#include "core/report.hpp"
#include "util/rng.hpp"

using namespace cksum;

namespace {

constexpr std::size_t kCell = 48;
constexpr std::size_t kCells = 10;              // message = 10 cells
constexpr std::size_t kMsgBytes = kCells * kCell;  // 480
constexpr int kTrials = 6000;

struct Values {
  std::uint16_t tcp;
  alg::FletcherPair f255, f256;
  std::uint32_t crc;
  alg::KoopmanDualPair kd;
  std::uint64_t ks;
};

Values measure(util::ByteView msg) {
  return {alg::ones_canonical(alg::internet_sum(msg)),
          alg::kern::fletcher_block(msg, alg::FletcherMod::kOnes255),
          alg::kern::fletcher_block(msg, alg::FletcherMod::kTwos256),
          alg::kern::crc32(msg),
          alg::koopman_dual_naive(msg),
          alg::koopman_single_naive(msg)};
}

struct MissCounts {
  std::uint64_t tcp = 0, f255 = 0, f256 = 0, crc = 0, kd = 0, ks = 0;
  std::uint64_t trials = 0;
};

void score(const Values& good, util::ByteView corrupted, MissCounts& mc) {
  const Values v = measure(corrupted);
  if (v.tcp == good.tcp) ++mc.tcp;
  if (v.f255 == good.f255) ++mc.f255;
  if (v.f256 == good.f256) ++mc.f256;
  if (v.crc == good.crc) ++mc.crc;
  if (v.kd == good.kd) ++mc.kd;
  if (v.ks == good.ks) ++mc.ks;
  ++mc.trials;
}

std::string det(std::uint64_t miss, std::uint64_t trials) {
  return core::fmt_pct(trials - miss, trials);
}

}  // namespace

int main() {
  util::Rng rng(0xFA017);

  std::printf(
      "== Detection rate per fault class (%% of %d corrupted messages "
      "caught, %zu-byte message) ==\n\n",
      kTrials, kMsgBytes);
  core::TextTable t({"fault class", "TCP det%", "F-255 det%", "F-256 det%",
                     "CRC-32 det%", "K-Dual det%", "K-Single det%"});

  MissCounts guard_tcp;  // bursts <= 15 bits, for the §2 assertion
  MissCounts guard_crc;  // bursts <= 31 bits

  // --- Bit-burst rows (core::apply_burst inside the message). ---
  for (const unsigned len : {1u, 8u, 15u, 16u, 17u, 31u, 32u, 33u, 48u}) {
    MissCounts mc;
    for (int trial = 0; trial < kTrials; ++trial) {
      util::Bytes msg(kMsgBytes);
      rng.fill(msg);
      const Values good = measure(util::ByteView(msg));
      core::apply_burst(msg, core::random_burst(rng, 8 * kMsgBytes, len));
      score(good, util::ByteView(msg), mc);
    }
    t.add_row({"burst-" + std::to_string(len), det(mc.tcp, mc.trials),
               det(mc.f255, mc.trials), det(mc.f256, mc.trials),
               det(mc.crc, mc.trials), det(mc.kd, mc.trials),
               det(mc.ks, mc.trials)});
    if (len <= 15) guard_tcp.tcp += mc.tcp, guard_tcp.trials += mc.trials;
    if (len <= 31) guard_crc.crc += mc.crc, guard_crc.trials += mc.trials;
  }
  t.add_separator();

  // --- Cell-level rows. Each fault rearranges whole 48-byte blocks,
  // exactly what the corresponding channel fault does to the
  // reassembled byte stream. A second independent message provides the
  // foreign cells for splice/misdelivery. ---
  enum class CellFault { kDuplicate, kReorder, kDelete, kTruncate,
                         kSplice, kMisdeliver };
  const struct { CellFault fault; const char* label; } kCellRows[] = {
      {CellFault::kDuplicate, "cell-duplicate"},
      {CellFault::kReorder, "cell-reorder"},
      {CellFault::kDelete, "cell-delete"},
      {CellFault::kTruncate, "truncate-tail"},
      {CellFault::kSplice, "splice"},
      {CellFault::kMisdeliver, "misdeliver-cell"},
  };
  for (const auto& row : kCellRows) {
    MissCounts mc;
    for (int trial = 0; trial < kTrials; ++trial) {
      util::Bytes msg(kMsgBytes), other(kMsgBytes);
      rng.fill(msg);
      rng.fill(other);
      const Values good = measure(util::ByteView(msg));
      util::Bytes bad;
      const std::size_t i = rng.below(kCells);
      switch (row.fault) {
        case CellFault::kDuplicate:
          bad = msg;
          bad.insert(bad.begin() + static_cast<std::ptrdiff_t>(i * kCell),
                     msg.begin() + static_cast<std::ptrdiff_t>(i * kCell),
                     msg.begin() + static_cast<std::ptrdiff_t>((i + 1) * kCell));
          break;
        case CellFault::kReorder: {
          bad = msg;
          const std::size_t j = (i + 1 + rng.below(kCells - 1)) % kCells;
          for (std::size_t b = 0; b < kCell; ++b)
            std::swap(bad[i * kCell + b], bad[j * kCell + b]);
          break;
        }
        case CellFault::kDelete:
          bad = msg;
          bad.erase(bad.begin() + static_cast<std::ptrdiff_t>(i * kCell),
                    bad.begin() + static_cast<std::ptrdiff_t>((i + 1) * kCell));
          break;
        case CellFault::kTruncate:
          // Keep at least one cell.
          bad.assign(msg.begin(),
                     msg.begin() + static_cast<std::ptrdiff_t>(
                                       (1 + rng.below(kCells - 1)) * kCell));
          break;
        case CellFault::kSplice: {
          // Head of msg + tail of the other message (the paper's fused
          // PDU, with a cell-count-consistent total length).
          const std::size_t head = 1 + rng.below(kCells - 1);
          bad.assign(msg.begin(),
                     msg.begin() + static_cast<std::ptrdiff_t>(head * kCell));
          bad.insert(bad.end(),
                     other.begin() + static_cast<std::ptrdiff_t>(head * kCell),
                     other.end());
          break;
        }
        case CellFault::kMisdeliver:
          // One cell replaced by a foreign stream's cell.
          bad = msg;
          std::memcpy(bad.data() + i * kCell, other.data() + i * kCell,
                      kCell);
          break;
      }
      score(good, util::ByteView(bad), mc);
    }
    t.add_row({row.label, det(mc.tcp, mc.trials), det(mc.f255, mc.trials),
               det(mc.f256, mc.trials), det(mc.crc, mc.trials),
               det(mc.kd, mc.trials), det(mc.ks, mc.trials)});
  }

  t.print(std::cout);
  std::printf(
      "\nExpected shape: burst rows show the §2 guarantee cliffs (TCP "
      "100%% through 15 bits, CRC-32 100%% through 31); reordering and "
      "equal-length substitutions sit at each code's uniform rate; the "
      "position-independent TCP sum is blind to cell reordering "
      "(~0%% detection) while the Fletcher codes' positional term and "
      "CRC-32 catch it. The Koopman large-block sums (arXiv 2302.13432) "
      "track their prime-modulus uniform rates: K-Dual's positional B "
      "term sees reordering, the position-independent K-Single does "
      "not.\n");

  if (guard_tcp.tcp != 0) {
    std::fprintf(stderr,
                 "FAIL: %llu bursts of <= 15 bits escaped the Internet "
                 "checksum (must be 0 per §2)\n",
                 static_cast<unsigned long long>(guard_tcp.tcp));
    return 1;
  }
  if (guard_crc.crc != 0) {
    std::fprintf(stderr,
                 "FAIL: %llu bursts of < 32 bits escaped CRC-32 "
                 "(must be 0 per §2)\n",
                 static_cast<unsigned long long>(guard_crc.crc));
    return 1;
  }
  return 0;
}
