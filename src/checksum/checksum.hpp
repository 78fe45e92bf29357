// Umbrella header and common vocabulary for the checksum algorithms
// studied by the paper.
#pragma once

#include <string_view>

#include "checksum/adler32.hpp"
#include "checksum/crc32.hpp"
#include "checksum/fletcher.hpp"
#include "checksum/fletcher32.hpp"
#include "checksum/generic_crc.hpp"
#include "checksum/internet.hpp"
#include "checksum/kernels/kernel.hpp"
#include "checksum/koopman.hpp"

namespace cksum::alg {

/// The transport checksum algorithms the splice simulator races.
enum class Algorithm {
  kInternet,     ///< 16-bit ones-complement (TCP/IP/UDP)
  kFletcher255,  ///< Fletcher, ones-complement bytes (mod 255)
  kFletcher256,  ///< Fletcher, twos-complement bytes (mod 256)
  kCrc32,        ///< AAL5 CRC-32 (link-layer role in the paper)
};

constexpr std::string_view name(Algorithm a) noexcept {
  switch (a) {
    case Algorithm::kInternet: return "TCP";
    case Algorithm::kFletcher255: return "F-255";
    case Algorithm::kFletcher256: return "F-256";
    case Algorithm::kCrc32: return "CRC-32";
  }
  return "?";
}

/// Expected miss probability over uniformly distributed data
/// (1 / size of value space) — the baseline every table compares to.
constexpr double uniform_miss_rate(Algorithm a) noexcept {
  switch (a) {
    case Algorithm::kInternet: return 1.0 / 65535.0;  // mod-65535 classes
    case Algorithm::kFletcher255: return 1.0 / (255.0 * 255.0);
    case Algorithm::kFletcher256: return 1.0 / 65536.0;
    case Algorithm::kCrc32: return 1.0 / 4294967296.0;
  }
  return 0.0;
}

}  // namespace cksum::alg
