#include "checksum/internet.hpp"

namespace cksum::alg {

void InternetSum::update(util::ByteView data) noexcept {
  std::size_t i = 0;
  const std::size_t n = data.size();
  if (odd_ && n > 0) {
    // Complete the pending high byte: this byte is the low half of the
    // current 16-bit word.
    acc_ += data[0];
    odd_ = false;
    i = 1;
  }
  // Main loop: big-endian 16-bit words. Accumulate into 64 bits; with
  // at most 2^48 bytes per fold we cannot overflow, and fold() does the
  // end-around carries once at the end.
  for (; i + 1 < n; i += 2) {
    acc_ += static_cast<std::uint32_t>((data[i] << 8) | data[i + 1]);
  }
  if (i < n) {
    acc_ += static_cast<std::uint32_t>(data[i]) << 8;
    odd_ = true;
  }
}

void InternetSum::update_sum(std::uint16_t block_sum,
                             bool block_odd_length) noexcept {
  acc_ += odd_ ? ones_swap(block_sum) : block_sum;
  if (block_odd_length) odd_ = !odd_;
}

void InternetSum::update_word(std::uint16_t word) noexcept {
  acc_ += odd_ ? ones_swap(word) : word;
}

std::uint16_t InternetSum::fold() const noexcept {
  std::uint64_t sum = acc_;
  while (sum >> 16) sum = (sum & 0xffffu) + (sum >> 16);
  return static_cast<std::uint16_t>(sum);
}

std::uint16_t internet_sum(util::ByteView data) noexcept {
  InternetSum s;
  s.update(data);
  return s.fold();
}

}  // namespace cksum::alg
