#include "checksum/koopman.hpp"

#include <cstring>

namespace cksum::alg {

namespace {

/// The (zero-padded) 64-bit big-endian value of one block; `len` may
/// be short for the final partial block.
std::uint64_t block_value(const std::uint8_t* p, std::size_t len) noexcept {
  if (len >= kKoopmanBlockBytes) return util::load_be64(p);
  std::uint8_t padded[kKoopmanBlockBytes] = {};
  std::memcpy(padded, p, len);
  return util::load_be64(padded);
}

void dual_step(std::uint32_t& a, std::uint32_t& b, std::uint64_t v) noexcept {
  a = static_cast<std::uint32_t>(
      (a + v % kKoopmanDualMod) % kKoopmanDualMod);
  b = (b + a) % kKoopmanDualMod;
}

}  // namespace

KoopmanDualPair koopman_dual_naive(util::ByteView data) noexcept {
  std::uint32_t a = 0, b = 0;
  for (std::size_t i = 0; i < data.size(); i += kKoopmanBlockBytes)
    dual_step(a, b, block_value(data.data() + i, data.size() - i));
  return {a, b};
}

std::uint64_t koopman_single_naive(util::ByteView data) noexcept {
  std::uint64_t s = 0;
  for (std::size_t i = 0; i < data.size(); i += kKoopmanBlockBytes)
    s = (s + block_value(data.data() + i, data.size() - i) %
                 kKoopmanSingleMod) %
        kKoopmanSingleMod;
  return s;
}

KoopmanDualPair koopman_dual_shift(KoopmanDualPair x,
                                   std::uint64_t tail_blocks) noexcept {
  const std::uint64_t shift =
      (tail_blocks % kKoopmanDualMod) * static_cast<std::uint64_t>(x.a);
  return {x.a, static_cast<std::uint32_t>(
                   (static_cast<std::uint64_t>(x.b) + shift) %
                   kKoopmanDualMod)};
}

void KoopmanDualSum::update(util::ByteView data) noexcept {
  std::size_t i = 0;
  if (npending_ > 0) {
    while (npending_ < kKoopmanBlockBytes && i < data.size())
      pending_[npending_++] = data[i++];
    if (npending_ < kKoopmanBlockBytes) return;
    dual_step(a_, b_, util::load_be64(pending_));
    npending_ = 0;
  }
  for (; i + kKoopmanBlockBytes <= data.size(); i += kKoopmanBlockBytes)
    dual_step(a_, b_, util::load_be64(data.data() + i));
  while (i < data.size()) pending_[npending_++] = data[i++];
}

KoopmanDualPair KoopmanDualSum::pair() const noexcept {
  std::uint32_t a = a_, b = b_;
  if (npending_ > 0) dual_step(a, b, block_value(pending_, npending_));
  return {a, b};
}

void KoopmanDualSum::reset() noexcept {
  a_ = b_ = 0;
  npending_ = 0;
}

void KoopmanSingleSum::update(util::ByteView data) noexcept {
  std::size_t i = 0;
  if (npending_ > 0) {
    while (npending_ < kKoopmanBlockBytes && i < data.size())
      pending_[npending_++] = data[i++];
    if (npending_ < kKoopmanBlockBytes) return;
    sum_ = (sum_ + util::load_be64(pending_) % kKoopmanSingleMod) %
           kKoopmanSingleMod;
    npending_ = 0;
  }
  for (; i + kKoopmanBlockBytes <= data.size(); i += kKoopmanBlockBytes)
    sum_ = (sum_ + util::load_be64(data.data() + i) % kKoopmanSingleMod) %
           kKoopmanSingleMod;
  while (i < data.size()) pending_[npending_++] = data[i++];
}

std::uint64_t KoopmanSingleSum::value() const noexcept {
  std::uint64_t s = sum_;
  if (npending_ > 0)
    s = (s + block_value(pending_, npending_) % kKoopmanSingleMod) %
        kKoopmanSingleMod;
  return s;
}

void KoopmanSingleSum::reset() noexcept {
  sum_ = 0;
  npending_ = 0;
}

}  // namespace cksum::alg
