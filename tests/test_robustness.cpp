// Robustness ("never crash on hostile input") tests for every parser
// in the library: random garbage and mutated valid inputs must yield a
// clean rejection — an exception type we define or a disengaged
// optional — never a crash or hang.
#include <gtest/gtest.h>

#include <array>
#include <set>

#include "atm/aal34.hpp"
#include "atm/cell.hpp"
#include "atm/reassembler.hpp"
#include "compress/lzw.hpp"
#include "net/fragment.hpp"
#include "net/tcp_options.hpp"
#include "net/udp.hpp"
#include "net/validate.hpp"
#include "util/rng.hpp"

namespace cksum {
namespace {

using util::ByteView;
using util::Bytes;

Bytes random_bytes(util::Rng& rng, std::size_t n) {
  Bytes b(n);
  rng.fill(b);
  return b;
}

TEST(Robustness, LzwDecompressRandomGarbage) {
  util::Rng rng(1);
  for (int trial = 0; trial < 300; ++trial) {
    Bytes garbage = random_bytes(rng, rng.below(2000));
    try {
      (void)compress::lzw_decompress(ByteView(garbage));
    } catch (const compress::CorruptStream&) {
      // expected
    }
  }
}

TEST(Robustness, LzwDecompressMutatedValidStream) {
  util::Rng data_rng(2);
  const Bytes input = random_bytes(data_rng, 5000);
  util::Rng rng(3);
  const Bytes packed = compress::lzw_compress(ByteView(input));
  for (int trial = 0; trial < 300; ++trial) {
    Bytes mutated = packed;
    mutated[4 + rng.below(mutated.size() - 4)] ^=
        static_cast<std::uint8_t>(1 + rng.below(255));
    try {
      const Bytes out = compress::lzw_decompress(ByteView(mutated));
      // A mutated stream may still decode (LZW has no integrity
      // check) — that's fine; it must just not crash.
      (void)out;
    } catch (const compress::CorruptStream&) {
    }
  }
}

TEST(Robustness, TcpOptionParserRandomGarbage) {
  util::Rng rng(4);
  for (int trial = 0; trial < 1000; ++trial) {
    Bytes garbage = random_bytes(rng, rng.below(41));
    (void)net::TcpOptionList::parse(ByteView(garbage));  // must not crash
  }
}

TEST(Robustness, HeaderChecksRandomGarbage) {
  util::Rng rng(5);
  for (int trial = 0; trial < 1000; ++trial) {
    Bytes garbage = random_bytes(rng, 40 + rng.below(300));
    (void)net::check_headers(ByteView(garbage), garbage.size(), true);
  }
}

TEST(Robustness, UdpVerifierRandomGarbage) {
  util::Rng rng(6);
  for (int trial = 0; trial < 1000; ++trial) {
    Bytes garbage = random_bytes(rng, rng.below(200));
    (void)net::verify_udp_datagram(ByteView(garbage));
  }
}

TEST(Robustness, UdpVerifierRejectsLengthPastBuffer) {
  // A well-formed 28-byte datagram whose IP and UDP length fields
  // claim 1000 and 980 bytes: the verifier must reject it without
  // summing past the end of the buffer.
  Bytes dgram = net::build_udp_datagram(0x0a000001, 0x0a000002, 1, 2, {});
  ASSERT_EQ(dgram.size(), 28u);
  ASSERT_EQ(net::verify_udp_datagram(ByteView(dgram)),
            net::UdpCheckResult::kValid);
  util::store_be16(dgram.data() + 2, 1000);
  util::store_be16(dgram.data() + 24, 980);
  EXPECT_EQ(net::verify_udp_datagram(ByteView(dgram)),
            net::UdpCheckResult::kInvalid);
  // A claimed length shorter than the two headers is rejected too.
  util::store_be16(dgram.data() + 2, 8);
  EXPECT_EQ(net::verify_udp_datagram(ByteView(dgram)),
            net::UdpCheckResult::kInvalid);
}

TEST(Robustness, CellParserRejectsBadHec) {
  util::Rng rng(7);
  int accepted = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    Bytes garbage = random_bytes(rng, atm::kCellLen);
    if (atm::Cell::from_bytes(ByteView(garbage)).has_value()) ++accepted;
  }
  // Random 5th byte matches the HEC of random headers 1/256 of the
  // time; far more would indicate the check is not being applied.
  EXPECT_LT(accepted, 40);
}

TEST(Robustness, ReassemblerSurvivesRandomCellStreams) {
  util::Rng rng(8);
  atm::Reassembler r;
  for (int trial = 0; trial < 5000; ++trial) {
    atm::Cell cell;
    rng.fill(cell.payload);
    cell.header.set_end_of_message(rng.chance(0.05));
    const auto done = r.push(cell);
    if (done) {
      // Random fused PDUs must essentially never pass both checks.
      EXPECT_FALSE(done->length_ok && done->crc_ok);
    }
  }
}

TEST(Robustness, Aal34CellDecodeRandomGarbage) {
  util::Rng rng(10);
  int accepted = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    // Both exact 48-byte buffers and arbitrary lengths (short ones
    // must be rejected outright).
    Bytes garbage = random_bytes(rng, trial % 2 ? 48 : rng.below(100));
    if (atm::Sar34Cell::decode(ByteView(garbage)).has_value()) ++accepted;
  }
  // A random CRC-10 matches ~1/1024 of the time (and the LI range
  // check rejects some of those); far more would mean the CRC isn't
  // being applied.
  EXPECT_LT(accepted, 12);
}

TEST(Robustness, Cpcs34ParseRandomGarbage) {
  util::Rng rng(11);
  int accepted = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    Bytes garbage = random_bytes(rng, rng.below(300));
    if (atm::cpcs34_parse(ByteView(garbage)).has_value()) ++accepted;
  }
  // Btag==Etag alone is a 1/256 accident; the BASize/Length/pad checks
  // cut it further.
  EXPECT_LT(accepted, 8);
}

TEST(Robustness, Aal34ReassemblerSurvivesRandomSegmentSoup) {
  // Structurally arbitrary (but CRC-valid) cells: random segment
  // types, sequence numbers and lengths must never crash the
  // reassembler, and nothing it completes may exceed what was pushed.
  util::Rng rng(12);
  atm::Aal34Reassembler r;
  std::size_t pushed_bytes = 0;
  for (int trial = 0; trial < 5000; ++trial) {
    atm::Sar34Cell cell;
    cell.st = static_cast<atm::SegmentType>(rng.below(4));
    cell.sn = static_cast<std::uint8_t>(rng.below(16));
    cell.mid = static_cast<std::uint16_t>(rng.below(1024));
    cell.li = static_cast<std::uint8_t>(rng.below(atm::kSar34Payload + 1));
    rng.fill(cell.payload);
    pushed_bytes += cell.li;
    const auto out = r.push(cell);
    if (out) {
      EXPECT_LE(out->bytes.size(), pushed_bytes);
      // A randomly fused CPCS-PDU must essentially never validate.
      (void)atm::cpcs34_parse(ByteView(out->bytes));
    }
  }
}

TEST(Robustness, Aal34MutatedValidStream) {
  // Encode a valid multi-PDU SAR stream, flip one random bit per cell
  // copy, and feed whatever still decodes through the reassembler:
  // mirrors the LZW mutated-valid-stream case. Completed PDUs must
  // either be an original or fail CPCS validation.
  util::Rng rng(13);
  std::vector<std::array<std::uint8_t, 48>> wire;
  std::set<Bytes> originals;
  std::uint8_t sn = 0;
  for (int p = 0; p < 8; ++p) {
    Bytes payload = random_bytes(rng, 100 + rng.below(400));
    const Bytes pdu =
        atm::cpcs34_frame(ByteView(payload), static_cast<std::uint8_t>(p));
    originals.insert(pdu);
    const auto cells = atm::aal34_segment(ByteView(pdu), 7, sn);
    for (const auto& cell : cells) wire.push_back(cell.encode());
    sn = static_cast<std::uint8_t>((sn + cells.size()) & 0xf);
  }
  for (int trial = 0; trial < 300; ++trial) {
    atm::Aal34Reassembler r;
    for (auto cell_bytes : wire) {
      if (rng.chance(0.3)) {
        // 1-3 flipped bits: single-bit errors are always CRC-10
        // caught; multi-bit ones occasionally slip through and reach
        // the reassembler with corrupt fields.
        const std::uint64_t flips = 1 + rng.below(3);
        for (std::uint64_t f = 0; f < flips; ++f) {
          const std::uint64_t bit = rng.below(8 * cell_bytes.size());
          cell_bytes[bit / 8] ^=
              static_cast<std::uint8_t>(0x80u >> (bit % 8));
        }
      }
      const auto cell = atm::Sar34Cell::decode(
          ByteView(cell_bytes.data(), cell_bytes.size()));
      if (!cell) continue;  // CRC-10 caught it — receiver drops
      const auto out = r.push(*cell);
      if (out && atm::cpcs34_parse(ByteView(out->bytes)).has_value()) {
        // Validated PDUs must be bit-identical to an original.
        EXPECT_TRUE(originals.count(out->bytes))
            << "mutated stream produced a validated non-original PDU";
      }
    }
  }
}

TEST(Robustness, ReassembleRejectsOverlappingFragmentSoup) {
  // Fragments with random offsets/sizes: reassemble must either
  // cleanly fail or produce a structurally consistent datagram.
  util::Rng rng(9);
  for (int trial = 0; trial < 500; ++trial) {
    std::vector<net::Fragment> frags;
    const std::size_t n = 1 + rng.below(5);
    for (std::size_t i = 0; i < n; ++i) {
      net::Fragment f;
      f.header.frag_off = static_cast<std::uint16_t>(rng.below(0x4000));
      f.payload = random_bytes(rng, 8 * (1 + rng.below(16)));
      frags.push_back(std::move(f));
    }
    const auto out = net::reassemble(std::move(frags));
    if (out) {
      EXPECT_GE(out->size(), net::kIpv4HeaderLen);
    }
  }
}

}  // namespace
}  // namespace cksum
