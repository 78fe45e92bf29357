#include "atm/splice.hpp"

namespace cksum::atm {

util::Bytes materialize_splice(util::ByteView p1, util::ByteView p2,
                               const SpliceSpec& s) {
  const std::size_t n1 = p1.size() / kCellPayload;
  const std::size_t n2 = p2.size() / kCellPayload;
  util::Bytes out;
  out.reserve((s.k1 + s.k2 + 1) * kCellPayload);
  const auto put = [&](util::ByteView pdu, std::size_t i) {
    const util::ByteView cell = pdu.subspan(i * kCellPayload, kCellPayload);
    out.insert(out.end(), cell.begin(), cell.end());
  };
  for (std::size_t i = 0; i + 1 < n1; ++i)
    if (s.mask1 & (1u << i)) put(p1, i);
  for (std::size_t j = 0; j + 1 < n2; ++j)
    if (s.mask2 & (1u << j)) put(p2, j);
  put(p2, n2 - 1);
  return out;
}

}  // namespace cksum::atm
