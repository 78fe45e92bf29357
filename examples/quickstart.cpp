// Quickstart: the checksum library's public API in one file.
//
//   $ ./examples/quickstart
//
// Computes all the paper's check codes over a sample message and
// demonstrates the incremental and block-combination APIs that power
// the splice simulator.
#include <cstdio>
#include <string_view>

#include "checksum/checksum.hpp"
#include "util/bytes.hpp"

using namespace cksum;

int main() {
  static constexpr std::string_view kMessage =
      "Checksum and CRC algorithms have historically been studied under "
      "the assumption that the data fed to the algorithms was uniformly "
      "distributed.";
  const util::ByteView data(
      reinterpret_cast<const std::uint8_t*>(kMessage.data()),
      kMessage.size());

  // --- One-shot computation. ---
  std::printf("message: %zu bytes of decidedly non-uniform English\n\n",
              data.size());
  std::printf("Internet (TCP/IP) sum : 0x%04x  (check field: 0x%04x)\n",
              alg::internet_sum(data), alg::internet_checksum(data));
  const auto f255 = alg::kern::fletcher_block(data, alg::FletcherMod::kOnes255);
  const auto f256 = alg::kern::fletcher_block(data, alg::FletcherMod::kTwos256);
  std::printf("Fletcher mod 255      : A=0x%02x B=0x%02x\n", f255.a, f255.b);
  std::printf("Fletcher mod 256      : A=0x%02x B=0x%02x\n", f256.a, f256.b);
  std::printf("CRC-32 (AAL5/IEEE)    : 0x%08x\n", alg::kern::crc32(data));
  std::printf("Adler-32              : 0x%08x\n", alg::kern::adler32(1, data));
  const alg::GenericCrc crc10(10, alg::standard_poly(10));
  std::printf("CRC-10 (ATM OAM poly) : 0x%03x\n\n", crc10.compute(data));

  // --- Incremental computation: feed data in arbitrary chunks. ---
  alg::InternetSum inet;
  inet.update(data.first(7));   // odd-length chunk: parity is tracked
  inet.update(data.subspan(7));
  std::printf("incremental Internet sum matches: %s\n",
              inet.fold() == alg::internet_sum(data) ? "yes" : "NO");

  // --- Block combination: checksum of a concatenation from parts. ---
  const auto left = data.first(60);
  const auto right = data.subspan(60);
  const std::uint16_t combined = alg::internet_combine(
      alg::internet_sum(left), alg::internet_sum(right),
      /*a_odd_length=*/left.size() % 2 == 1);
  std::printf("combined Internet sum matches   : %s\n",
              combined == alg::internet_sum(data) ? "yes" : "NO");

  const std::uint32_t crc_combined = alg::crc32_combine(
      alg::kern::crc32(left), alg::kern::crc32(right), right.size());
  std::printf("combined CRC-32 matches         : %s\n",
              crc_combined == alg::kern::crc32(data) ? "yes" : "NO");

  const auto fl = alg::kern::fletcher_block(left, alg::FletcherMod::kTwos256);
  const auto fr = alg::kern::fletcher_block(right, alg::FletcherMod::kTwos256);
  const auto fc = alg::fletcher_combine(fl, fr, right.size(),
                                        alg::FletcherMod::kTwos256);
  std::printf("combined Fletcher matches       : %s\n",
              fc == f256 ? "yes" : "NO");

  // --- The structural weakness the paper studies. ---
  util::Bytes swapped(data.begin(), data.end());
  std::swap(swapped[0], swapped[2]);  // transpose two 16-bit words' bytes
  std::swap(swapped[1], swapped[3]);
  std::printf(
      "\nswap two 16-bit words:\n"
      "  Internet sum unchanged (undetected): %s\n"
      "  Fletcher-256 changed   (detected)  : %s\n"
      "  CRC-32 changed         (detected)  : %s\n",
      alg::internet_sum(util::ByteView(swapped)) == alg::internet_sum(data)
          ? "yes"
          : "NO",
      alg::kern::fletcher_block(util::ByteView(swapped),
                          alg::FletcherMod::kTwos256) != f256
          ? "yes"
          : "NO",
      alg::kern::crc32(util::ByteView(swapped)) != alg::kern::crc32(data) ? "yes" : "NO");
  return 0;
}
