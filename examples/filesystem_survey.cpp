// Filesystem survey: run the paper's full measurement pipeline over
// one synthetic filesystem profile and report everything the paper
// reports about a filesystem — splice-classification counts, miss
// rates for all four check codes, distribution skew, and locality.
//
//   $ ./examples/filesystem_survey [profile] [scale]
//   $ ./examples/filesystem_survey sics.se:/opt 2.0
//
// Run with no arguments for the default (smeg.stanford.edu:/u1) and a
// list of available profiles.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "core/dircorpus.hpp"
#include "core/experiments.hpp"
#include "core/report.hpp"
#include "stats/distribution.hpp"
#include "stats/uniformity.hpp"

using namespace cksum;

int main(int argc, char** argv) {
  const char* name = argc > 1 ? argv[1] : "smeg.stanford.edu:/u1";
  const double scale = argc > 2 ? std::atof(argv[2]) : 1.0;

  const fsgen::FsProfile* prof = nullptr;
  try {
    prof = &fsgen::profile(name);
  } catch (const std::out_of_range&) {
    std::printf("unknown profile '%s'; available:\n", name);
    for (const auto& p : fsgen::all_profiles())
      std::printf("  %s\n", p.full_name().c_str());
    return 1;
  }

  const fsgen::Filesystem fs(*prof, scale);
  std::printf("== survey of %s (%zu files, ~%zu KiB) ==\n\n",
              prof->full_name().c_str(), fs.file_count(),
              fs.approx_total_bytes() / 1024);

  // --- Splice simulation under all four transports. ---
  std::printf("splice simulation (256-byte segments over AAL5):\n");
  core::TextTable t({"checksum", "remaining", "missed", "miss %",
                     "x uniform"});
  for (const alg::Algorithm a :
       {alg::Algorithm::kInternet, alg::Algorithm::kFletcher255,
        alg::Algorithm::kFletcher256}) {
    net::PacketConfig cfg;
    cfg.transport = a;
    const core::SpliceStats st = core::run_profile(*prof, cfg, scale);
    const double rate = st.remaining
                            ? static_cast<double>(st.missed_transport) /
                                  static_cast<double>(st.remaining)
                            : 0.0;
    char xunif[32];
    std::snprintf(xunif, sizeof xunif, "%.1f",
                  rate / alg::uniform_miss_rate(a));
    t.add_row({std::string(alg::name(a)), core::fmt_count(st.remaining),
               core::fmt_count(st.missed_transport), core::fmt_pct(rate),
               xunif});
    if (a == alg::Algorithm::kInternet) {
      std::printf(
          "  (header checks caught %s; identical-data splices %s; CRC-32 "
          "missed %s)\n",
          core::fmt_count(st.caught_by_header).c_str(),
          core::fmt_count(st.identical).c_str(),
          core::fmt_count(st.missed_crc).c_str());
    }
  }
  t.print(std::cout);

  // --- Distribution skew (Figure 2's headline numbers). ---
  core::CellStatsConfig ccfg;
  ccfg.ks = {1, 2, 4};
  const auto stats = core::collect_cell_stats(
      core::SpliceCorpus(
          {core::CorpusKind::kProfile, prof->full_name(), scale}),
      ccfg);
  const auto& h = stats.tcp_cells();
  std::printf(
      "\nchecksum-value distribution over 48-byte cells:\n"
      "  cells               %llu\n"
      "  most common value   0x%04x (%.3f%% of cells; uniform: 0.0015%%)\n"
      "  top 0.1%% of values  %.2f%% of all cells\n"
      "  entropy             %.1f bits of 16\n"
      "  uniformity p-value  %.2e\n",
      static_cast<unsigned long long>(stats.cells_seen()), h.mode(),
      100.0 * h.pmax(), 100.0 * h.top_fraction_mass(0.001), h.entropy_bits(),
      stats::uniformity_p_value(h));

  // --- §5.5 locality of failure: per-file spikes. ---
  // "Sampling the checksum statistics incrementally during each
  // whole-filesystem run showed sharp spikes in the rate of undetected
  // splices, at the level of individual directories or even files."
  {
    core::SpliceRunConfig run_cfg;
    run_cfg.flow = core::paper_flow_config();
    struct Spike {
      std::size_t index;
      double rate;
      std::uint64_t missed;
    };
    std::vector<Spike> spikes;
    for (std::size_t i = 0; i < fs.file_count(); ++i) {
      const util::Bytes file = fs.file(i);
      const core::SpliceStats one =
          core::run_file(run_cfg, util::ByteView(file));
      if (one.remaining == 0 || one.missed_transport == 0) continue;
      spikes.push_back({i,
                        static_cast<double>(one.missed_transport) /
                            static_cast<double>(one.remaining),
                        one.missed_transport});
    }
    std::sort(spikes.begin(), spikes.end(),
              [](const Spike& a, const Spike& b) { return a.rate > b.rate; });
    std::printf(
        "\nlocality of failure (paper §5.5): %zu of %zu files produce any "
        "TCP miss at all; the worst offenders:\n",
        spikes.size(), fs.file_count());
    for (std::size_t i = 0; i < std::min<std::size_t>(5, spikes.size()); ++i) {
      const auto& s = spikes[i];
      std::printf("  file #%zu (%s, %zu bytes): %s%% missed (%s splices)\n",
                  s.index, std::string(fsgen::name(fs.spec(s.index).kind)).c_str(),
                  fs.spec(s.index).size, core::fmt_pct(s.rate).c_str(),
                  core::fmt_count(s.missed).c_str());
    }
  }

  // --- Locality (Table 5's headline). ---
  const auto& lc = stats.local(2);
  std::printf(
      "\n2-cell blocks within 512 bytes of each other:\n"
      "  P[congruent]            %s%%\n"
      "  P[congruent, not identical] %s%%  (uniform: 0.0015%%)\n",
      core::fmt_pct(lc.p_congruent()).c_str(),
      core::fmt_pct(lc.p_congruent_excluding_identical()).c_str());
  return 0;
}
