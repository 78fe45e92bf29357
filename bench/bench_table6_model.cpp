// Table 6: Checksum failures on real data — predicted (iid
// convolution), measured global/local congruence (with identical
// exclusion), and the ACTUAL splice-simulation failure rate, per
// substitution length k, for four filesystems. Includes the §5.4
// cell-colouring correction: only substitutions that do not pull in
// packet 2's header cell can fail, scaling the sample prediction by
// C(c-2, k-1)/C(c-1, k-1).
#include <iostream>

#include "core/dircorpus.hpp"
#include "core/experiments.hpp"
#include "core/report.hpp"
#include "stats/distribution.hpp"
#include "util/math.hpp"

using namespace cksum;

namespace {

void one_filesystem(const fsgen::FsProfile& prof, double scale) {
  core::CellStatsConfig cfg;
  cfg.ks = {1, 2, 3, 4, 5};
  const auto stats = core::collect_cell_stats(
      core::SpliceCorpus(
          {core::CorpusKind::kProfile, prof.full_name(), scale}),
      cfg);
  const auto d1 = stats::Distribution::from_histogram(stats.tcp_cells());

  const net::PacketConfig pkt_cfg;
  const core::SpliceStats sim = core::run_profile(prof, pkt_cfg, scale);

  std::printf("%s\n", prof.full_name().c_str());
  core::TextTable t({"k", "Predicted", "Global", "Local", "Excl. identical",
                     "Coloured model", "Actual"});
  for (std::size_t k = 1; k <= 5; ++k) {
    const double predicted = d1.self_convolve(k).match_probability();
    const double global = stats.tcp_blocks(k).match_probability();
    const auto& lc = stats.local(k);
    const double excl = lc.p_congruent_excluding_identical();
    // §5.4: a k-cell substitution inserts the EOM plus k-1 of packet
    // 2's 6 non-EOM cells (1 header + 5 data); only header-free
    // choices can produce a congruent data-for-data swap.
    const double colour_factor =
        static_cast<double>(util::binomial(5, k - 1)) /
        static_cast<double>(util::binomial(6, k - 1));
    const double coloured = excl * colour_factor;
    const double actual =
        sim.remaining_by_k[k] == 0
            ? 0.0
            : static_cast<double>(sim.missed_by_k[k]) /
                  static_cast<double>(sim.remaining_by_k[k]);
    t.add_row({std::to_string(k), core::fmt_pct(predicted),
               core::fmt_pct(global), core::fmt_pct(lc.p_congruent()),
               core::fmt_pct(excl), core::fmt_pct(coloured),
               core::fmt_pct(actual)});
  }
  t.print(std::cout);

  // §5.3 cross-check: splices containing packet 2's header cell are
  // far less likely to pass the checksum.
  const double with_hdr2 =
      sim.remaining_with_hdr2 == 0
          ? 0.0
          : static_cast<double>(sim.missed_with_hdr2) /
                static_cast<double>(sim.remaining_with_hdr2);
  const std::uint64_t rem_wo = sim.remaining - sim.remaining_with_hdr2;
  const std::uint64_t miss_wo = sim.missed_transport - sim.missed_with_hdr2;
  const double without_hdr2 =
      rem_wo == 0 ? 0.0
                  : static_cast<double>(miss_wo) / static_cast<double>(rem_wo);
  std::printf(
      "  splices with pkt2's header cell: miss %s%%; without: %s%% "
      "(paper: header-bearing splices are ~100x harder to miss)\n\n",
      core::fmt_pct(with_hdr2).c_str(), core::fmt_pct(without_hdr2).c_str());
}

}  // namespace

int main() {
  const double scale = core::scale_from_env();
  std::printf(
      "== Table 6: checksum-failure model vs actual (probability %% of "
      "congruence, blocks of k cells) ==\n\n");
  for (const char* name :
       {"smeg.stanford.edu:/u1", "sics.se:/opt", "sics.se:/src1",
        "sics.se:/src2"}) {
    one_filesystem(fsgen::profile(name), scale);
  }
  std::printf(
      "Expected shape (paper): Predicted < Global < Local; excluding "
      "identical shrinks Local but stays >> uniform; the coloured model "
      "tracks Actual.\n");
  return 0;
}
