#include "net/tp4.hpp"

#include <stdexcept>

#include "checksum/kernels/kernel.hpp"

namespace cksum::net {

namespace {
// Fixed part: code(1) + DST-REF(2) + NR(1); variable part: checksum
// parameter (2 + 2 bytes). LI excludes itself.
constexpr std::size_t kFixedLen = 4;
constexpr std::size_t kChecksumParamLen = 4;  // code, len, X, Y
constexpr std::size_t kHeaderLen = 1 + kFixedLen + kChecksumParamLen;
}  // namespace

util::Bytes build_tp4_dt(const Tp4Dt& dt, alg::FletcherMod mod) {
  util::Bytes out(kHeaderLen + dt.user_data.size());
  out[0] = static_cast<std::uint8_t>(kFixedLen + kChecksumParamLen);  // LI
  out[1] = kTp4DtCode;
  util::store_be16(out.data() + 2, dt.dst_ref);
  out[4] = static_cast<std::uint8_t>((dt.end_of_tsdu ? 0x80 : 0x00) |
                                     (dt.seq & 0x7f));
  out[5] = kTp4ChecksumParam;
  out[6] = 2;
  out[7] = 0;  // X placeholder
  out[8] = 0;  // Y placeholder
  std::copy(dt.user_data.begin(), dt.user_data.end(),
            out.begin() + kHeaderLen);

  // Solve the check octets over the whole TPDU (offset-from-end weight
  // of X: everything after it plus itself).
  const alg::FletcherPair rest = alg::kern::fletcher_block(util::ByteView(out), mod);
  const std::size_t u = out.size() - 7;
  const auto [x, y] = alg::fletcher_check_bytes(rest, u, mod);
  out[7] = x;
  out[8] = y;
  return out;
}

std::optional<Tp4Dt> parse_tp4_dt(util::ByteView tpdu) {
  if (tpdu.size() < 1 + kFixedLen) return std::nullopt;
  const std::size_t li = tpdu[0];
  if (li < kFixedLen || 1 + li > tpdu.size()) return std::nullopt;
  if (tpdu[1] != kTp4DtCode) return std::nullopt;

  Tp4Dt dt;
  dt.dst_ref = util::load_be16(tpdu.data() + 2);
  dt.end_of_tsdu = (tpdu[4] & 0x80) != 0;
  dt.seq = static_cast<std::uint8_t>(tpdu[4] & 0x7f);

  // Walk the variable part (validates parameter framing).
  std::size_t i = 1 + kFixedLen;
  const std::size_t header_end = 1 + li;
  while (i < header_end) {
    if (i + 2 > header_end) return std::nullopt;
    const std::size_t plen = tpdu[i + 1];
    if (i + 2 + plen > header_end) return std::nullopt;
    i += 2 + plen;
  }

  dt.user_data.assign(tpdu.begin() + header_end, tpdu.end());
  return dt;
}

bool verify_tp4_checksum(util::ByteView tpdu, alg::FletcherMod mod) {
  if (!parse_tp4_dt(tpdu)) return false;
  // Locate the checksum parameter to confirm it exists.
  const std::size_t header_end = 1 + tpdu[0];
  bool has_param = false;
  std::size_t i = 5;
  while (i + 2 <= header_end) {
    if (tpdu[i] == kTp4ChecksumParam && tpdu[i + 1] == 2) {
      has_param = true;
      break;
    }
    i += 2 + tpdu[i + 1];
  }
  if (!has_param) return false;
  return alg::fletcher_verify(tpdu, mod);
}

}  // namespace cksum::net
