// RFC 1146 alternate-checksum negotiation walkthrough (the paper's
// reference [13]): a connection negotiates the 8-bit Fletcher
// checksum via TCP options, and a TP4 association uses the same sum
// natively — then both watch a word-swap corruption that the standard
// Internet checksum cannot see.
//
//   $ ./examples/alt_checksum
#include <cstdio>

#include "checksum/checksum.hpp"
#include "net/tcp_options.hpp"
#include "net/tp4.hpp"
#include "util/rng.hpp"

using namespace cksum;

int main() {
  // --- 1. The SYN carries an Alternate Checksum Request. ---
  net::TcpOptionList syn_opts;
  syn_opts.add_mss(1460);
  syn_opts.add_nop();
  syn_opts.add_alt_checksum_request(net::AltChecksum::kFletcher8);
  const util::Bytes wire = syn_opts.serialize();
  std::printf("SYN options (%zu bytes): requesting alternate checksum\n",
              wire.size());

  const auto parsed = net::TcpOptionList::parse(util::ByteView(wire));
  if (!parsed || parsed->requested_alt_checksum() !=
                     net::AltChecksum::kFletcher8) {
    std::printf("negotiation failed!\n");
    return 1;
  }
  std::printf("receiver agrees: connection will use 8-bit Fletcher\n\n");

  // --- 2. Why anyone would bother: transposition. ---
  util::Bytes payload(256);
  util::Rng rng(7);
  rng.fill(payload);
  util::Bytes swapped = payload;
  // Transpose two 16-bit words — a classic DMA/buffer-management bug.
  std::swap(swapped[10], swapped[50]);
  std::swap(swapped[11], swapped[51]);

  const bool tcp_sees =
      alg::internet_sum(util::ByteView(payload)) !=
      alg::internet_sum(util::ByteView(swapped));
  const bool fletcher_sees =
      alg::kern::fletcher_block(util::ByteView(payload),
                          alg::FletcherMod::kOnes255) !=
      alg::kern::fletcher_block(util::ByteView(swapped),
                          alg::FletcherMod::kOnes255);
  std::printf("transpose words 5 and 25 of the payload:\n");
  std::printf("  Internet checksum notices: %s\n", tcp_sees ? "yes" : "NO");
  std::printf("  Fletcher notices         : %s\n\n",
              fletcher_sees ? "yes" : "NO");

  // --- 3. The same sum in its native habitat: a TP4 DT TPDU. ---
  net::Tp4Dt dt;
  dt.dst_ref = 0x0042;
  dt.seq = 1;
  dt.end_of_tsdu = true;
  dt.user_data = payload;
  const util::Bytes tpdu = net::build_tp4_dt(dt);
  std::printf("TP4 DT TPDU: %zu bytes, checksum parameter verifies: %s\n",
              tpdu.size(),
              net::verify_tp4_checksum(util::ByteView(tpdu)) ? "yes" : "NO");

  util::Bytes corrupted = tpdu;
  std::swap(corrupted[20], corrupted[60]);
  std::swap(corrupted[21], corrupted[61]);
  std::printf("after transposing two words            : %s\n",
              net::verify_tp4_checksum(util::ByteView(corrupted))
                  ? "verifies (!!)"
                  : "rejected");

  std::printf(
      "\n(the paper's caveat applies: Fletcher-255's 0x00/0xFF blindness\n"
      "means black-and-white bitmaps can defeat it completely — see\n"
      "bench_pathology and Table 8's smeg:/u1 row)\n");
  return 0;
}
