// Table 4: Probability (%) of checksum match for substitutions of
// length k cells — Uniform / Predicted (iid convolution of the
// measured single-cell distribution) / Measured (global k-block
// congruence), over smeg:/u1.
#include <iostream>

#include "core/dircorpus.hpp"
#include "core/experiments.hpp"
#include "core/report.hpp"
#include "stats/distribution.hpp"

using namespace cksum;

int main() {
  const double scale = core::scale_from_env();
  core::CellStatsConfig cfg;
  cfg.ks = {1, 2, 3, 4, 5};
  const auto stats = core::collect_cell_stats(
      core::SpliceCorpus(
          {core::CorpusKind::kProfile, "smeg.stanford.edu:/u1", scale}),
      cfg);

  const auto d1 = stats::Distribution::from_histogram(stats.tcp_cells());

  std::printf(
      "== Table 4: P[checksum match] (%%) for substitutions of length k "
      "cells (smeg:/u1) ==\n\n");
  core::TextTable t({"Length k", "Uniform", "Predicted", "Measured"});
  for (std::size_t k = 1; k <= 5; ++k) {
    const double uniform = 1.0 / 65535.0;
    const double predicted = d1.self_convolve(k).match_probability();
    const double measured = stats.tcp_blocks(k).match_probability();
    t.add_row({std::to_string(k), core::fmt_pct(uniform),
               core::fmt_pct(predicted), core::fmt_pct(measured)});
  }
  t.print(std::cout);
  std::printf(
      "\nExpected shape (paper): Predicted falls toward Uniform as k grows; "
      "Measured stays well above Predicted (local correlation).\n");
  return 0;
}
