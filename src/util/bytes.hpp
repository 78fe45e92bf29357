// Byte-buffer helpers: big-endian loads/stores (network order),
// hex formatting, span slicing with bounds checks, and the one bounded
// whole-file reader.
#pragma once

#include <cassert>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace cksum::util {

using Bytes = std::vector<std::uint8_t>;
using ByteView = std::span<const std::uint8_t>;

/// Load a 16-bit big-endian (network order) value.
constexpr std::uint16_t load_be16(const std::uint8_t* p) noexcept {
  return static_cast<std::uint16_t>((p[0] << 8) | p[1]);
}

/// Load a 32-bit big-endian value.
constexpr std::uint32_t load_be32(const std::uint8_t* p) noexcept {
  return (static_cast<std::uint32_t>(p[0]) << 24) |
         (static_cast<std::uint32_t>(p[1]) << 16) |
         (static_cast<std::uint32_t>(p[2]) << 8) |
         static_cast<std::uint32_t>(p[3]);
}

/// Load a 64-bit big-endian value.
constexpr std::uint64_t load_be64(const std::uint8_t* p) noexcept {
  return (static_cast<std::uint64_t>(load_be32(p)) << 32) |
         static_cast<std::uint64_t>(load_be32(p + 4));
}

/// Store a 16-bit value big-endian.
constexpr void store_be16(std::uint8_t* p, std::uint16_t v) noexcept {
  p[0] = static_cast<std::uint8_t>(v >> 8);
  p[1] = static_cast<std::uint8_t>(v & 0xff);
}

/// Store a 32-bit value big-endian.
constexpr void store_be32(std::uint8_t* p, std::uint32_t v) noexcept {
  p[0] = static_cast<std::uint8_t>(v >> 24);
  p[1] = static_cast<std::uint8_t>(v >> 16);
  p[2] = static_cast<std::uint8_t>(v >> 8);
  p[3] = static_cast<std::uint8_t>(v);
}

/// Checked subspan: asserts the range is inside `data`.
inline ByteView slice(ByteView data, std::size_t offset, std::size_t len) {
  assert(offset <= data.size() && len <= data.size() - offset);
  return data.subspan(offset, len);
}

/// Render bytes as lowercase hex, optionally grouped.
std::string to_hex(ByteView data, std::size_t group = 0);

/// Parse hex (whitespace tolerated). Throws std::invalid_argument on
/// malformed input.
Bytes from_hex(std::string_view hex);

/// Append the bytes of a string to a buffer.
void append(Bytes& out, std::string_view text);

/// The first `max_bytes` bytes of the file at `path` (all of it if
/// shorter). The buffer is sized from the open file's size, then grown
/// geometrically until EOF or the cap, so a file whose reported size is
/// wrong (procfs reports 0, a pipe reports nothing, a file can grow
/// while open) still reads whole, and nothing is allocated beyond the
/// bytes read plus one chunk. An empty file is an empty buffer;
/// std::nullopt, with `*error` set to "cannot open <path>" or "read
/// error on <path>", means the file could not be opened or read.
std::optional<Bytes> read_file(const std::string& path, std::size_t max_bytes,
                               std::string* error = nullptr);

}  // namespace cksum::util
