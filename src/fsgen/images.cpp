// Image and text-encoding generators for the paper's §5.5 pathologies.
//
//  * PBM/PGM black-and-white plots: "several 8-bit .pbm graphs of
//    Internet-backbone RTT measurements ... plotted as black-and-
//    white, and thus each byte is either 0 or 255". Fletcher mod-255
//    treats 0 and 255 as congruent, so these files defeat it almost
//    completely.
//  * Hex-encoded PostScript bitmaps: ASCII lines of hex pairs whose
//    width is a power of two plus a newline; rows repeat ("font
//    definitions appear to be a particularly common case"), which
//    happens to defeat Fletcher mod-256 at the 48-byte cell size.
//  * BinHex-encoded Macintosh documents: "very similar lines of 64
//    bytes followed by an ASCII newline".
#include <string>

#include "fsgen/generator.hpp"

namespace cksum::fsgen {

namespace {

void append_str(util::Bytes& out, std::string_view s) {
  out.insert(out.end(), s.begin(), s.end());
}

}  // namespace

util::Bytes generate_pbm_image(util::Rng& rng, std::size_t approx_size) {
  util::Bytes out;
  out.reserve(approx_size + 512);

  // 8-bit binary greymap header, like the paper's graph files.
  const std::size_t width = 256u << rng.below(2);  // 256 or 512
  const std::size_t height = std::max<std::size_t>(
      8, approx_size > 32 ? (approx_size - 32) / width : 0);
  std::string header = "P5\n# rtt plot\n" + std::to_string(width) + " " +
                       std::to_string(height) + "\n255\n";
  append_str(out, header);

  // Plot: white background (255), black axis and a scattered
  // measurement trace. Every byte is 0x00 or 0xFF — all of them are
  // zeros mod 255, which is what defeats Fletcher-255 — but the black
  // pixel positions vary from row to row like a real RTT scatter plot,
  // so rows are not trivially congruent under the other sums.
  const std::size_t y_axis_col = 12;
  for (std::size_t row = 0; row < height; ++row) {
    const std::size_t row_start = out.size();
    out.insert(out.end(), width, 0xff);
    std::uint8_t* px = out.data() + row_start;
    px[y_axis_col] = 0x00;
    if (row % 64 == 0) {
      // Dotted gridline.
      for (std::size_t x = y_axis_col; x < width; x += 4) px[x] = 0x00;
    }
    // This row's measurement samples: a random number of points at
    // random columns.
    const std::size_t points = 8 + rng.below(24);
    for (std::size_t p = 0; p < points; ++p)
      px[y_axis_col + 1 + rng.below(width - y_axis_col - 1)] = 0x00;
  }
  return out;
}

util::Bytes generate_hex_postscript(util::Rng& rng, std::size_t approx_size) {
  util::Bytes out;
  out.reserve(approx_size + 1024);
  append_str(out,
             "%!PS-Adobe-2.0 EPSF-1.2\n"
             "%%BoundingBox: 0 0 612 792\n"
             "/picstr 128 string def\n"
             "gsave 306 396 translate\n"
             "128 128 1 [128 0 0 -128 0 128]\n"
             "{currentfile picstr readhexstring pop} image\n");

  // Hex rows: width a power of two *characters* plus a newline, as the
  // paper describes. Rows are mostly FF with a sparse fixed pattern
  // (horizontal strokes of a glyph); identical rows repeat heavily.
  const std::size_t line_chars = 64u << rng.below(3);  // 64/128/256 + '\n'
  static constexpr std::string_view kSparse[] = {"F7", "7F", "FE", "EF",
                                                 "F0", "0F", "C3"};
  std::string current_row;
  auto fresh_row = [&] {
    current_row.assign(line_chars, 'F');
    const std::size_t strokes = 1 + rng.below(3);
    for (std::size_t s = 0; s < strokes; ++s) {
      const std::size_t at = rng.below(line_chars / 2) * 2;
      const auto pat = kSparse[rng.below(std::size(kSparse))];
      current_row[at] = pat[0];
      current_row[at + 1] = pat[1];
    }
  };
  fresh_row();
  while (out.size() < approx_size) {
    // Repeat the same row several times (solid blocks / parallel
    // lines), then pick a new one.
    if (rng.chance(0.25)) fresh_row();
    append_str(out, current_row);
    out.push_back('\n');
  }
  append_str(out, "grestore showpage\n");
  return out;
}

util::Bytes generate_binhex(util::Rng& rng, std::size_t approx_size) {
  util::Bytes out;
  out.reserve(approx_size + 256);
  append_str(out, "(This file must be converted with BinHex 4.0)\n\n:");

  static constexpr std::string_view kAlphabet =
      "!\"#$%&'()*+,-012345689@ABCDEFGHIJKLMNPQRSTUVXYZ[`abcdefhijklmpqr";
  const std::size_t line_len = 64;

  std::string line(line_len, '!');
  for (char& c : line) c = kAlphabet[rng.below(kAlphabet.size())];

  while (out.size() < approx_size) {
    // Each line is the previous line with a few characters mutated —
    // BinHex of structured documents produces exactly this shape.
    const std::size_t mutations = 1 + rng.below(6);
    for (std::size_t m = 0; m < mutations; ++m)
      line[rng.below(line_len)] = kAlphabet[rng.below(kAlphabet.size())];
    append_str(out, line);
    out.push_back('\n');
  }
  out.push_back(':');
  out.push_back('\n');
  return out;
}

}  // namespace cksum::fsgen
