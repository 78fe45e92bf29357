// Figure 3: PDF of the TCP checksum, Fletcher-255 and Fletcher-256
// over 48-byte cells in smeg.stanford.edu:/u1 — most common 256
// values, sorted by decreasing frequency. All three have similarly
// skewed single-cell distributions (the figure's point: Fletcher's
// advantage does NOT come from a flatter cell distribution).
#include <cstdio>
#include <string_view>

#include "core/dircorpus.hpp"
#include "core/experiments.hpp"

using namespace cksum;

int main(int argc, char** argv) {
  const bool csv = argc > 1 && std::string_view(argv[1]) == "--csv";
  const double scale = core::scale_from_env();
  core::CellStatsConfig cfg;
  cfg.ks = {1};
  const auto stats = core::collect_cell_stats(
      core::SpliceCorpus(
          {core::CorpusKind::kProfile, "smeg.stanford.edu:/u1", scale}),
      cfg);

  const auto tcp = stats.tcp_cells().sorted_pdf();
  const auto f255 = stats.f255_cells().sorted_pdf();
  const auto f256 = stats.f256_cells().sorted_pdf();

  if (csv) {
    std::printf("rank,tcp,f255,f256\n");
    for (std::size_t r = 0; r < 4096; ++r)
      std::printf("%zu,%.6e,%.6e,%.6e\n", r + 1, tcp[r], f255[r], f256[r]);
    return 0;
  }

  std::printf(
      "== Figure 3: PDF over 48-byte cells, most common 256 values "
      "(smeg:/u1) ==\n\n");
  std::printf("%6s  %12s  %12s  %12s\n", "rank", "IP/TCP", "F255", "F256");
  for (std::size_t rank = 1; rank <= 256; rank *= 2) {
    std::printf("%6zu  %12.4e  %12.4e  %12.4e\n", rank, tcp[rank - 1],
                f255[rank - 1], f256[rank - 1]);
  }
  std::printf(
      "\nmatch probabilities over single cells (paper: ~0.011%% TCP, "
      "~0.016%% F255, ~0.013%% F256 — all similar):\n"
      "  TCP   %.4f%%\n  F255  %.4f%%\n  F256  %.4f%%\n",
      100 * stats.tcp_cells().match_probability(),
      100 * stats.f255_cells().match_probability(),
      100 * stats.f256_cells().match_probability());
  return 0;
}
