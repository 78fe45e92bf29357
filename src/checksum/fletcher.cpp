#include "checksum/fletcher.hpp"

#include "checksum/kernels/kernel.hpp"

namespace cksum::alg {

FletcherPair fletcher_combine(FletcherPair x, FletcherPair y,
                              std::size_t y_len, FletcherMod mod) noexcept {
  const std::uint64_t m = modulus(mod);
  FletcherPair out;
  out.a = static_cast<std::uint32_t>((x.a + y.a) % m);
  out.b = static_cast<std::uint32_t>(
      (x.b + (static_cast<std::uint64_t>(y_len) % m) * x.a + y.b) % m);
  return out;
}

FletcherPair fletcher_shift(FletcherPair x, std::size_t tail_len,
                            FletcherMod mod) noexcept {
  const std::uint64_t m = modulus(mod);
  return {x.a, static_cast<std::uint32_t>(
                   (x.b + (static_cast<std::uint64_t>(tail_len) % m) * x.a) % m)};
}

std::pair<std::uint8_t, std::uint8_t> fletcher_check_bytes(
    FletcherPair rest, std::size_t u, FletcherMod mod) noexcept {
  // Solve  X + Y ≡ -A  and  u·X + (u-1)·Y ≡ -B  (mod m); the system's
  // determinant is 1, so it is solvable in both moduli:
  //   X ≡ (u-1)·A - B,   Y ≡ B - u·A.
  const std::uint64_t m = modulus(mod);
  const std::uint64_t a = rest.a % m;
  const std::uint64_t b = rest.b % m;
  const std::uint64_t w = static_cast<std::uint64_t>(u) % m;
  const std::uint64_t wm1 = (w + m - 1) % m;
  const std::uint64_t x = (wm1 * a % m + m - b) % m;
  const std::uint64_t y = (b + m - w * a % m) % m;
  return {static_cast<std::uint8_t>(x), static_cast<std::uint8_t>(y)};
}

bool fletcher_verify(util::ByteView msg, FletcherMod mod) noexcept {
  return fletcher_is_zero(kern::fletcher_block(msg, mod));
}

}  // namespace cksum::alg
