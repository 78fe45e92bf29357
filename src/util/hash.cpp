#include "util/hash.hpp"

namespace cksum::util {

std::uint64_t fnv1a64(std::span<const std::uint8_t> data) noexcept {
  std::uint64_t h = kFnvOffsetBasis;
  for (std::uint8_t byte : data) {
    h ^= byte;
    h *= kFnvPrime;
  }
  return h;
}

std::uint64_t hash64(std::span<const std::uint8_t> data) noexcept {
  return hash64_finish(fnv1a64(data), data.size());
}

std::uint64_t hash64(std::string_view text) noexcept {
  return hash64(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(text.data()), text.size()));
}

}  // namespace cksum::util
