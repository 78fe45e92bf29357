// Synthetic file generators — the substitute for the real 1995 UNIX
// filesystems the paper measured (see DESIGN.md §2).
//
// Each generator produces one *class* of file the paper names, tuned
// to reproduce the statistical properties that drive the paper's
// results: skewed byte-value distributions, long runs of 0x00/0xFF,
// repeated lines and 48/64/2^k-byte structures, and strong locality
// (nearby blocks drawn from the same local distribution).
//
// All generators are deterministic functions of (kind, seed, size).
#pragma once

#include <cstdint>
#include <string_view>

#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace cksum::fsgen {

enum class FileKind {
  kText,           ///< English-like prose (skewed ASCII, repeated phrases)
  kCSource,        ///< C source code (heavy structural repetition)
  kExecutable,     ///< ELF-like binary: code, zero-filled bss, string table
  kGmonProfile,    ///< profiling data: almost all zeros, sparse repeated counts
  kPbmImage,       ///< black/white raster: bytes are only 0x00/0xFF (F-255 pathology)
  kHexPostscript,  ///< hex-encoded bitmap, 2^k+1-byte lines (F-256 pathology)
  kBinhex,         ///< BinHex-style 64-byte near-identical lines
  kWordProcessor,  ///< text sections separated by ~200-byte 0x00/0xFF runs
  kRandom,         ///< already-compressed/encrypted data (uniform bytes)
  kTarArchive,     ///< tar: 512-byte blocks, NUL padding, repeated headers
  kMailSpool,      ///< mbox: near-identical RFC-822 header stanzas
};

inline constexpr FileKind kAllKinds[] = {
    FileKind::kText,          FileKind::kCSource,
    FileKind::kExecutable,    FileKind::kGmonProfile,
    FileKind::kPbmImage,      FileKind::kHexPostscript,
    FileKind::kBinhex,        FileKind::kWordProcessor,
    FileKind::kRandom,        FileKind::kTarArchive,
    FileKind::kMailSpool,
};

constexpr std::string_view name(FileKind k) noexcept {
  switch (k) {
    case FileKind::kText: return "text";
    case FileKind::kCSource: return "c-source";
    case FileKind::kExecutable: return "executable";
    case FileKind::kGmonProfile: return "gmon-profile";
    case FileKind::kPbmImage: return "pbm-image";
    case FileKind::kHexPostscript: return "hex-postscript";
    case FileKind::kBinhex: return "binhex";
    case FileKind::kWordProcessor: return "word-processor";
    case FileKind::kRandom: return "random";
    case FileKind::kTarArchive: return "tar-archive";
    case FileKind::kMailSpool: return "mail-spool";
  }
  return "?";
}

/// Generate one file of roughly `approx_size` bytes (generators honour
/// the target within a structural unit — a line, record or section).
util::Bytes generate_file(FileKind kind, std::uint64_t seed,
                          std::size_t approx_size);

/// Individual generators (exposed for targeted tests and the
/// pathology bench).
util::Bytes generate_text(util::Rng& rng, std::size_t approx_size);
util::Bytes generate_c_source(util::Rng& rng, std::size_t approx_size);
util::Bytes generate_executable(util::Rng& rng, std::size_t approx_size);
util::Bytes generate_gmon_profile(util::Rng& rng, std::size_t approx_size);
util::Bytes generate_pbm_image(util::Rng& rng, std::size_t approx_size);
util::Bytes generate_hex_postscript(util::Rng& rng, std::size_t approx_size);
util::Bytes generate_binhex(util::Rng& rng, std::size_t approx_size);
util::Bytes generate_word_processor(util::Rng& rng, std::size_t approx_size);
util::Bytes generate_random(util::Rng& rng, std::size_t approx_size);
util::Bytes generate_tar_archive(util::Rng& rng, std::size_t approx_size);
util::Bytes generate_mail_spool(util::Rng& rng, std::size_t approx_size);

/// The word-frequency table generate_text draws every word from
/// (exposed so tests can check WeightedTable on the real weights).
const util::WeightedTable& text_word_table();

}  // namespace cksum::fsgen
