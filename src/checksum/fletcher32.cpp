#include "checksum/fletcher32.hpp"

#include "checksum/kernels/kernel.hpp"

namespace cksum::alg {

namespace {
constexpr std::uint64_t kMod = 65535;
}  // namespace

Fletcher32Pair fletcher32_combine(Fletcher32Pair x, Fletcher32Pair y,
                                  std::size_t y_len_words) noexcept {
  Fletcher32Pair out;
  out.a = static_cast<std::uint32_t>((x.a + y.a) % kMod);
  out.b = static_cast<std::uint32_t>(
      (x.b + (static_cast<std::uint64_t>(y_len_words) % kMod) * x.a + y.b) %
      kMod);
  return out;
}

void fletcher32_check_words(Fletcher32Pair rest, std::size_t u,
                            std::uint16_t& x, std::uint16_t& y) noexcept {
  // Same algebra as the 8-bit solver: X ≡ (u-1)A - B, Y ≡ B - uA.
  const std::uint64_t a = rest.a % kMod;
  const std::uint64_t b = rest.b % kMod;
  const std::uint64_t w = static_cast<std::uint64_t>(u) % kMod;
  const std::uint64_t wm1 = (w + kMod - 1) % kMod;
  x = static_cast<std::uint16_t>((wm1 * a % kMod + kMod - b) % kMod);
  y = static_cast<std::uint16_t>((b + kMod - w * a % kMod) % kMod);
}

bool fletcher32_verify(util::ByteView msg) noexcept {
  const Fletcher32Pair p = kern::fletcher32_block(msg);
  return p.a == 0 && p.b == 0;
}

}  // namespace cksum::alg
