// Table 5: Probability (%) of checksum match for substitutions of
// length k cells based on LOCAL data — globally congruent vs locally
// congruent (within 512 bytes) vs locally congruent excluding
// identical blocks. Over smeg:/u1.
#include <iostream>

#include "core/dircorpus.hpp"
#include "core/experiments.hpp"
#include "core/report.hpp"

using namespace cksum;

int main() {
  const double scale = core::scale_from_env();
  core::CellStatsConfig cfg;
  cfg.ks = {1, 2, 3, 4, 5};
  cfg.local_window_bytes = 512;
  const auto stats = core::collect_cell_stats(
      core::SpliceCorpus(
          {core::CorpusKind::kProfile, "smeg.stanford.edu:/u1", scale}),
      cfg);

  std::printf(
      "== Table 5: P[checksum match] (%%) for k-cell substitutions, local "
      "data (smeg:/u1) ==\n(window: 512 bytes; uniform expectation "
      "0.0015%% everywhere)\n\n");
  core::TextTable t({"Length k", "Globally congruent", "Locally congruent",
                     "Excluding identical"});
  for (std::size_t k = 1; k <= 5; ++k) {
    const double global = stats.tcp_blocks(k).match_probability();
    const auto& lc = stats.local(k);
    t.add_row({std::to_string(k), core::fmt_pct(global),
               core::fmt_pct(lc.p_congruent()),
               core::fmt_pct(lc.p_congruent_excluding_identical())});
  }
  t.print(std::cout);
  std::printf(
      "\nExpected shape (paper): Local >> Global; excluding identical "
      "lowers it but it stays far above uniform. Identical blocks are the "
      "dominant congruence source (20-40x).\n");
  return 0;
}
