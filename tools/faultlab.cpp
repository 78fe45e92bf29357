// faultlab — fault-injection soak driver over the full receiver stack.
//
//   faultlab soak [options]        randomized scenarios until the
//                                  fault budget is spent; exit 1 (and
//                                  print one reproducer line) on any
//                                  invariant violation
//   faultlab replay --seed S --scenario N [options]
//                                  re-run exactly one scenario
//   faultlab distkill [options]    distributed-run fault drill: spawn a
//                                  job service + N workers, SIGKILL one
//                                  worker mid-lease, and assert the
//                                  merged report still equals the
//                                  single-process run bit for bit
//   faultlab arq [options]         ARQ frontier: run every (policy,
//                                  checksum) pair across a fault-rate
//                                  grid and report the residual-error
//                                  rate and goodput/latency cost of
//                                  each (docs/ARQ.md)
//   faultlab arqsoak [options]     randomized ARQ soak over all three
//                                  retransmission policies; exit 1 and
//                                  print a reproducer on any guarantee
//                                  violation (add --scenario N to
//                                  replay exactly one scenario)
//
// options:
//   --seed <n>        master seed                    (default 0xC0FFEE)
//   --faults <n>      injected-fault-event target    (default 1000000)
//   --max-scenarios <n>  hard scenario cap           (default unlimited)
//   --channels <n>    pin the demux channel cap      (default per-scenario)
//   --budget <n>      pin the demux pending budget   (default per-scenario)
//   --repro-file <p>  also write the reproducer line to this file
//   --metrics-out <p> write the telemetry run manifest (and a
//                     <p>.jsonl progress stream); docs/OBSERVABILITY.md
//   --progress        force the live one-line ticker on stderr
//   --quiet           summary line only
//
// Invariants checked (see docs/FAULTS.md): no crash, demux memory
// bounded by its budget, and no undetected corruption — every PDU
// passing length+CRC must match a payload that was actually sent.
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include <fstream>

#include "arq/sim.hpp"
#include "arq/soak.hpp"
#include "atm/demux.hpp"
#include "checksum/checksum.hpp"
#include "checksum/kernels/kernel.hpp"
#include "cli.hpp"
#include "core/dircorpus.hpp"
#include "core/experiments.hpp"
#include "core/report.hpp"
#include "dist/service.hpp"
#include "dist/spawn.hpp"
#include "faults/channel.hpp"
#include "faults/soak.hpp"
#include "kernel_cli.hpp"
#include "storage/frontier.hpp"

using namespace cksum;

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: faultlab soak [--seed n] [--faults n] [--max-scenarios n]\n"
      "                     [--channels n] [--budget n] [--repro-file p]\n"
      "                     [--metrics-out p] [--progress] [--quiet]\n"
      "       faultlab replay --seed n --scenario n [--channels n] "
      "[--budget n]\n"
      "       faultlab distkill [--workers n] [--profile p]\n"
      "                         [--scale x] [--shard-files n] [--quick]\n"
      "                         [--verbose] [--metrics-out p]\n"
      "       faultlab arq [--seed n] [--payloads n] [--quick] [--json]\n"
      "                    [--metrics-out p] [--progress] [--quiet]\n"
      "       faultlab arqsoak [--seed n] [--faults n] [--max-scenarios n]\n"
      "                        [--scenario n] [--repro-file p]\n"
      "                        [--metrics-out p] [--progress] [--quiet]\n"
      "       faultlab storage [--seed n] [--trials n] [--threads n]\n"
      "                        [--quick] [--json] [--metrics-out p]\n"
      "                        [--progress] [--quiet]\n"
      "all accept --kernel best|scalar|list\n"
      "(or the CKSUM_KERNEL environment variable) to pick the checksum\n"
      "kernels; `list` prints every algorithm's implementations\n");
  return 2;
}

/// What a soak or frontier prints and exports, beside its config.
struct RunFlags {
  std::string repro_file;
  std::string metrics_out;
  bool progress = false;
  bool quiet = false;
  bool quick = false;
  bool json = false;
};

/// The closing lines every soak prints: `summary`, then on a violation
/// its detail and reproducer line, also written to `--repro-file`.
/// Returns the exit code.
int soak_verdict(bool ok, const std::string& summary,
                 const std::string& detail, const std::string& reproducer,
                 const std::string& repro_file) {
  std::printf("%s\n", summary.c_str());
  if (ok) return 0;
  std::printf("  %s\n  reproduce with: %s\n", detail.c_str(),
              reproducer.c_str());
  if (!repro_file.empty()) {
    std::ofstream out(repro_file);
    out << reproducer << "\n";
  }
  return 1;
}

void print_totals(const faults::ScenarioResult& t) {
  const faults::FaultStats& f = t.faults;
  core::TextTable inj({"fault class", "injected"});
  inj.add_row({"payload burst", core::fmt_count(f.payload_bursts)});
  inj.add_row({"HEC corruption", core::fmt_count(f.hec_corruptions)});
  inj.add_row({"  dropped by HEC", core::fmt_count(f.hec_dropped)});
  inj.add_row({"  miscorrected", core::fmt_count(f.hec_miscorrected)});
  inj.add_row({"duplication", core::fmt_count(f.duplicates)});
  inj.add_row({"reordering", core::fmt_count(f.reorders)});
  inj.add_row({"EOM flip", core::fmt_count(f.eom_flips)});
  inj.add_row({"misdelivery", core::fmt_count(f.misdeliveries)});
  inj.add_row({"truncation", core::fmt_count(f.truncations)});
  inj.add_separator();
  inj.add_row({"total fault events", core::fmt_count(f.total_faults())});
  inj.print(std::cout);

  std::printf("\n");
  core::TextTable rx({"receiver", "count"});
  rx.add_row({"cells into channel", core::fmt_count(f.cells_in)});
  rx.add_row({"cells out of channel", core::fmt_count(f.cells_out)});
  rx.add_row({"cells lost on link", core::fmt_count(t.loss.cells_lost)});
  rx.add_row({"cells policy-dropped",
              core::fmt_count(t.loss.cells_policy_drop)});
  rx.add_row({"cells into demux", core::fmt_count(t.cells_to_demux)});
  rx.add_row({"budget drops", core::fmt_count(t.demux.budget_drops)});
  rx.add_row({"channel evictions", core::fmt_count(t.demux.evictions)});
  rx.add_row({"oversize discards", core::fmt_count(t.oversize_discards)});
  rx.add_row({"payloads sent", core::fmt_count(t.payloads_sent)});
  rx.add_row({"candidate PDUs", core::fmt_count(t.pdus_delivered)});
  rx.add_row({"PDUs passing checks", core::fmt_count(t.pdus_ok)});
  rx.print(std::cout);
}

/// Live one-line view of a soak run. Fault events are summed over the
/// per-class `faults.*.injected` counters — the same definition as
/// FaultStats::total_faults().
std::string soak_ticker_line(const obs::Snapshot& snap, double elapsed) {
  std::uint64_t events = 0;
  for (const obs::MetricValue& m : snap.metrics) {
    if (m.name.size() > 9 &&
        m.name.compare(m.name.size() - 9, 9, ".injected") == 0)
      events += m.value;
  }
  char buf[160];
  std::snprintf(
      buf, sizeof buf,
      "soak: %llu scenarios  %llu fault events  %llu cells  "
      "%llu violations  %.1fs",
      static_cast<unsigned long long>(snap.value("soak.scenarios")),
      static_cast<unsigned long long>(events),
      static_cast<unsigned long long>(snap.value("faults.cells_in")),
      static_cast<unsigned long long>(snap.value("soak.violations")),
      elapsed);
  return buf;
}

/// `faultlab soak`, or with `replay` exactly one scenario of it.
int cmd_soak(const std::vector<std::string>& args, bool replay) {
  faults::SoakConfig cfg;
  RunFlags f;
  std::uint64_t scenario = 0;
  bool have_scenario = false;
  std::vector<tools::Opt> table = {
      {"--seed", &cfg.seed, 0},
      {"--faults", &cfg.target_faults},
      {"--max-scenarios", &cfg.max_scenarios},
      {"--channels", &cfg.max_channels},
      {"--budget", &cfg.max_pending_cells},
      {"--repro-file", &f.repro_file},
      {"--metrics-out", &f.metrics_out},
      {"--progress", &f.progress},
      {"--quiet", &f.quiet}};
  if (replay) table.push_back({"--scenario", &scenario, 0, &have_scenario});
  if (!tools::parse_options(args, table, "faultlab") ||
      (replay && !have_scenario))
    return usage();

  faults::register_fault_metrics();
  atm::register_atm_metrics();
  alg::kern::register_kernel_metrics();
  tools::RunManifest manifest(f.metrics_out, f.progress, soak_ticker_line);
  faults::SoakResult res;
  if (replay) {
    res.scenarios = 1;
    res.totals = faults::run_scenario(cfg, scenario);
    if (res.totals.violations > 0)
      res.reproducer = faults::reproducer_line(cfg, scenario);
  } else {
    res = faults::run_soak(cfg);
  }
  if (!f.quiet) {
    print_totals(res.totals);
    std::printf("\n");
  }
  const int rc = soak_verdict(
      res.ok(),
      std::to_string(res.scenarios) + " scenarios, " +
          core::fmt_count(res.totals.faults.total_faults()) +
          " fault events, " + core::fmt_count(res.totals.faults.cells_in) +
          " cells: " +
          (res.ok() ? "all invariants held" : "INVARIANT VIOLATED"),
      res.totals.violation_detail, res.reproducer, f.repro_file);
  // Scenario corpora are seed-derived.
  return manifest.finish(replay ? "faultlab replay" : "faultlab soak",
                         "fsgen-random", cfg.seed, 1)
             ? rc
             : 1;
}

// --- faultlab arq / arqsoak -----------------------------------------

/// The options of `faultlab arq` and `faultlab arqsoak`; each verb's
/// table takes only the ones its usage line lists.
struct ArqOpts {
  arq::ArqSoakConfig cfg;
  std::uint64_t scenario = 0;
  bool have_scenario = false;
  std::size_t payloads = 48;
  RunFlags f;
};

std::string arq_ticker_line(const obs::Snapshot& snap, double elapsed) {
  char buf[160];
  std::snprintf(
      buf, sizeof buf,
      "arq: %llu runs  %llu delivered  %llu retransmits  "
      "%llu residual  %llu gave up  %.1fs",
      static_cast<unsigned long long>(snap.value("arq.runs")),
      static_cast<unsigned long long>(snap.value("arq.delivered_ok")),
      static_cast<unsigned long long>(snap.value("arq.retransmits")),
      static_cast<unsigned long long>(snap.value("arq.residual_undetected") +
                                      snap.value("arq.residual_lost")),
      static_cast<unsigned long long>(snap.value("arq.gave_up")), elapsed);
  return buf;
}

/// One cell of the frontier: (policy, checksum) at a link fault rate.
struct ArqCell {
  arq::Policy policy;
  alg::Algorithm checksum;
  double rate;
  arq::SimResult sim;
};

/// All fault classes scaled off one knob so "fault rate" means one
/// thing across the whole table: at rate r the data direction corrupts
/// r of its frames, drops r/2, duplicates r/4, truncates r/4, and
/// reorders r/2 of them; the ACK direction runs the same plan at half
/// strength.
faults::LinkPlan frontier_plan(double rate, bool ack) {
  const double r = ack ? rate / 2 : rate;
  faults::LinkPlan p;
  p.corrupt_rate = r;
  p.burst_bits_max = 32;
  p.drop_rate = r / 2;
  p.duplicate_rate = r / 4;
  p.truncate_rate = r / 4;
  p.reorder_rate = r / 2;
  p.reorder_delay_max = 24;
  return p;
}

std::string json_escape_free_number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

std::string arq_cell_json(const ArqCell& c) {
  const arq::SimResult& s = c.sim;
  std::string j = "{";
  j += "\"policy\": \"" + std::string(arq::manifest_key(c.policy)) + "\"";
  j += ", \"checksum\": \"" + std::string(alg::name(c.checksum)) + "\"";
  j += ", \"fault_rate\": " + json_escape_free_number(c.rate);
  const auto add = [&](const char* k, std::uint64_t v) {
    j += ", \"" + std::string(k) +
         "\": " + std::to_string(static_cast<unsigned long long>(v));
  };
  add("offered", s.payloads_offered);
  add("delivered_ok", s.delivered_ok);
  add("residual_undetected", s.residual_undetected);
  add("residual_lost", s.residual_lost);
  add("gave_up", s.gave_up);
  add("retransmits", s.sender.retransmits);
  add("timeouts", s.sender.timeouts);
  add("check_rejects", s.receiver.check_rejects);
  add("ticks", s.ticks);
  j += ", \"goodput\": " + json_escape_free_number(s.goodput());
  j += ", \"mean_latency\": " + json_escape_free_number(s.mean_latency());
  j += std::string(", \"terminated\": ") + (s.terminated ? "true" : "false");
  j += "}";
  return j;
}

/// The frontier the paper's data motivates one layer up: how much
/// retransmission each policy spends, and what residual error each
/// checksum leaks, as the link degrades.
int arq_frontier(const ArqOpts& o, std::string& rows) {
  const std::vector<double> rates =
      o.f.quick ? std::vector<double>{0.0, 0.05}
              : std::vector<double>{0.0, 0.01, 0.02, 0.05, 0.10};
  const std::vector<alg::Algorithm> checks =
      o.f.quick ? std::vector<alg::Algorithm>{alg::Algorithm::kCrc32,
                                            alg::Algorithm::kInternet}
              : std::vector<alg::Algorithm>{alg::Algorithm::kCrc32,
                                            alg::Algorithm::kInternet,
                                            alg::Algorithm::kFletcher256};
  constexpr arq::Policy kPolicies[] = {arq::Policy::kStopAndWait,
                                       arq::Policy::kGoBackN,
                                       arq::Policy::kSelectiveRepeat};

  // One shared payload set so every cell moves identical data.
  const std::size_t n = o.f.quick ? std::min<std::size_t>(o.payloads, 16)
                                : o.payloads;
  util::Rng prng = util::Rng(o.cfg.seed).child(0xFEED);
  std::vector<util::Bytes> payloads;
  payloads.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    util::Bytes p(1 + prng.below(1024));
    prng.fill(p);
    payloads.push_back(std::move(p));
  }

  std::vector<ArqCell> cells;
  std::uint64_t combo = 0;
  for (const arq::Policy policy : kPolicies) {
    for (const alg::Algorithm check : checks) {
      for (const double rate : rates) {
        arq::SimConfig c;
        c.arq.policy = policy;
        c.arq.checksum = check;
        c.data_link = frontier_plan(rate, false);
        c.ack_link = frontier_plan(rate, true);
        c.seed = util::Rng(o.cfg.seed).child(1000 + combo++).next();
        cells.push_back({policy, check, rate, arq::run_sim(c, payloads)});
      }
    }
  }

  bool failed = false;
  std::string detail;
  const auto gate = [&](const ArqCell& c, bool bad, const std::string& what) {
    if (!bad) return;
    failed = true;
    if (detail.empty())
      detail = std::string(arq::name(c.policy)) + "/" +
               std::string(alg::name(c.checksum)) + " @ " +
               json_escape_free_number(c.rate) + ": " + what;
  };
  for (const ArqCell& c : cells) {
    gate(c, !c.sim.terminated, "failed to terminate");
    gate(c, !c.sim.violation.empty(), c.sim.violation);
    if (c.rate == 0.0) {
      gate(c, c.sim.delivered_ok != c.sim.payloads_offered,
           "fault-free cell lost payloads");
      gate(c, c.sim.sender.retransmits != 0,
           "fault-free cell retransmitted");
    }
    if (c.checksum == alg::Algorithm::kCrc32)
      gate(c, c.sim.residual_undetected + c.sim.residual_lost != 0,
           "residual error under CRC-32");
  }

  if (!o.f.quiet) {
    core::TextTable t({"policy", "check", "rate", "ok", "resid", "lost",
                       "gaveup", "rexmit", "goodput", "latency"});
    for (const ArqCell& c : cells) {
      char rate[16], good[24], lat[24];
      std::snprintf(rate, sizeof rate, "%.2f", c.rate);
      std::snprintf(good, sizeof good, "%.4f", c.sim.goodput());
      std::snprintf(lat, sizeof lat, "%.0f", c.sim.mean_latency());
      t.add_row({std::string(arq::name(c.policy)),
                 std::string(alg::name(c.checksum)), rate,
                 core::fmt_count(c.sim.delivered_ok),
                 core::fmt_count(c.sim.residual_undetected),
                 core::fmt_count(c.sim.residual_lost),
                 core::fmt_count(c.sim.gave_up),
                 core::fmt_count(c.sim.sender.retransmits), good, lat});
    }
    t.print(std::cout);
    std::printf("\n");
  }

  rows = "[";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i != 0) rows += ", ";
    rows += arq_cell_json(cells[i]);
  }
  rows += "]";
  if (o.f.json) std::printf("%s\n", rows.c_str());

  std::printf("arq frontier: %zu cells, %zu payloads each: %s\n",
              cells.size(), payloads.size(),
              failed ? "GUARANTEE VIOLATED" : "all guarantees held");
  if (failed) {
    std::printf("  %s\n", detail.c_str());
    return 1;
  }
  return 0;
}

int arq_soak(const ArqOpts& o) {
  arq::ArqSoakResult res;
  if (o.have_scenario) {
    res.add(arq::run_arq_scenario(o.cfg, o.scenario));
    if (!res.ok()) res.reproducer = arq::arq_reproducer_line(o.cfg, o.scenario);
  } else {
    res = arq::run_arq_soak(o.cfg);
  }
  if (!o.f.quiet) {
    core::TextTable t({"arq soak", "count"});
    t.add_row({"scenarios", core::fmt_count(res.scenarios)});
    t.add_row({"link faults injected", core::fmt_count(res.faults_injected)});
    t.add_row({"payloads offered", core::fmt_count(res.payloads_offered)});
    t.add_row({"delivered intact", core::fmt_count(res.delivered_ok)});
    t.add_row({"residual undetected",
               core::fmt_count(res.residual_undetected)});
    t.add_row({"residual lost", core::fmt_count(res.residual_lost)});
    t.add_row({"abandoned (gave up)", core::fmt_count(res.gave_up)});
    t.add_row({"retransmissions", core::fmt_count(res.retransmits)});
    t.print(std::cout);
    std::printf("\n");
  }
  return soak_verdict(
      res.ok(),
      std::to_string(res.scenarios) + " scenarios, " +
          core::fmt_count(res.faults_injected) + " link faults: " +
          (res.ok() ? "all guarantees held" : "GUARANTEE VIOLATED"),
      res.violation_detail, res.reproducer, o.f.repro_file);
}

/// `faultlab arq` (the frontier), or with `soak` the ARQ soak.
int cmd_arq(const std::vector<std::string>& args, bool soak) {
  ArqOpts o;
  std::vector<tools::Opt> table = {{"--seed", &o.cfg.seed, 0},
                                   {"--metrics-out", &o.f.metrics_out},
                                   {"--progress", &o.f.progress},
                                   {"--quiet", &o.f.quiet}};
  if (soak) {
    table.insert(table.end(),
                 {{"--faults", &o.cfg.target_faults},
                  {"--max-scenarios", &o.cfg.max_scenarios},
                  {"--scenario", &o.scenario, 0, &o.have_scenario},
                  {"--repro-file", &o.f.repro_file}});
  } else {
    table.insert(table.end(), {{"--payloads", &o.payloads},
                               {"--quick", &o.f.quick},
                               {"--json", &o.f.json}});
  }
  if (!tools::parse_options(args, table, "faultlab")) return usage();
  arq::register_arq_metrics();
  alg::kern::register_kernel_metrics();
  tools::RunManifest manifest(o.f.metrics_out, o.f.progress, arq_ticker_line);
  std::string rows;  // the frontier's manifest member
  const int rc = soak ? arq_soak(o) : arq_frontier(o, rows);
  const char* tool = !soak              ? "faultlab arq"
                     : o.have_scenario ? "faultlab arqsoak replay"
                                       : "faultlab arqsoak";
  // Payloads are seed-derived.
  return manifest.finish(tool, "arq-random", o.cfg.seed, 1,
                         rows.empty() ? "" : ", \"arq\": " + rows)
             ? rc
             : 1;
}

std::string storage_ticker_line(const obs::Snapshot& snap, double elapsed) {
  char buf[160];
  std::snprintf(
      buf, sizeof buf,
      "storage: %llu trials  %llu detected  %llu undetected  "
      "%llu violations  %.1fs",
      static_cast<unsigned long long>(snap.value("storage.trials")),
      static_cast<unsigned long long>(snap.value("storage.detected")),
      static_cast<unsigned long long>(snap.value("storage.undetected")),
      static_cast<unsigned long long>(snap.value("storage.violations")),
      elapsed);
  return buf;
}

/// The paper's question asked of commit blocks: which checksums leak
/// which storage faults, on real file contents (docs/STORAGE.md).
int storage_frontier(const storage::FrontierConfig& cfg, const RunFlags& f,
                     std::string& rows) {
  const storage::FrontierResult res = storage::run_frontier(cfg);

  bool failed = res.violations != 0;
  std::string detail =
      failed ? std::to_string(res.violations) + " accounting violations"
             : std::string();
  for (const storage::CellResult& c : res.cells) {
    if (c.trials != c.benign + c.detected + c.undetected && !failed) {
      failed = true;
      detail = std::string(storage::name(c.alg)) + "/" +
               std::string(storage::name(c.fault)) +
               ": outcome counts do not sum to trials";
    }
  }

  if (!f.quiet) {
    core::TextTable t({"block", "fault", "check", "trials", "benign", "det",
                       "undet", "miss", "runheavy miss"});
    std::size_t last_block = 0;
    for (const storage::CellResult& c : res.cells) {
      if (last_block != 0 && c.block_size != last_block) t.add_separator();
      last_block = c.block_size;
      t.add_row({std::to_string(c.block_size),
                 std::string(storage::name(c.fault)),
                 std::string(storage::name(c.alg)), core::fmt_count(c.trials),
                 core::fmt_count(c.benign), core::fmt_count(c.detected),
                 core::fmt_count(c.undetected),
                 core::fmt_pct(c.undetected, c.scored()),
                 core::fmt_pct(c.run_heavy_undetected, c.run_heavy_scored)});
    }
    t.print(std::cout);
    std::printf("\n");
    // The headline: the paper's Fletcher run pathology, relocated to
    // torn commit blocks. On 0x00/0xFF-heavy payloads a tear swaps
    // content the ones'-complement sums cannot see.
    std::printf("torn-write pathology, run-heavy slice (undetected/scored):\n");
    for (const storage::CellResult& c : res.cells) {
      if (c.fault != storage::FaultClass::kTorn) continue;
      std::printf("  %-8s %6zu B: %s (%llu/%llu)\n",
                  std::string(storage::name(c.alg)).c_str(), c.block_size,
                  core::fmt_pct(c.run_heavy_undetected, c.run_heavy_scored)
                      .c_str(),
                  static_cast<unsigned long long>(c.run_heavy_undetected),
                  static_cast<unsigned long long>(c.run_heavy_scored));
    }
    std::printf("\n");
  }

  rows = storage::frontier_json(cfg, res);
  if (f.json) std::printf("%s\n", rows.c_str());

  std::printf("storage frontier: %zu cells, %llu trials, %llu undetected: "
              "%s\n",
              res.cells.size(),
              static_cast<unsigned long long>(res.trials_total),
              static_cast<unsigned long long>(res.undetected_total),
              failed ? "ACCOUNTING VIOLATED" : "accounting held");
  if (failed) {
    std::printf("  %s\n", detail.c_str());
    return 1;
  }
  return 0;
}

int cmd_storage(const std::vector<std::string>& args) {
  storage::FrontierConfig cfg;
  std::size_t trials = 0;  // per cell, both block sizes (0 = defaults)
  RunFlags f;
  if (!tools::parse_options(args,
                            {{"--seed", &cfg.seed, 0},
                             {"--trials", &trials},
                             {"--threads", &cfg.threads},
                             {"--quick", &cfg.quick},
                             {"--json", &f.json},
                             {"--metrics-out", &f.metrics_out},
                             {"--progress", &f.progress},
                             {"--quiet", &f.quiet}},
                            "faultlab"))
    return usage();
  cfg.trials = {trials, trials};
  storage::register_storage_metrics();
  alg::kern::register_kernel_metrics();
  tools::RunManifest manifest(f.metrics_out, f.progress, storage_ticker_line);
  std::string rows;
  const int rc = storage_frontier(cfg, f, rows);
  // Payload pairs are seed-derived.
  return manifest.finish("faultlab storage", "fsgen-storage", cfg.seed,
                         cfg.threads, ", \"storage\": " + rows)
             ? rc
             : 1;
}

/// The worker-loss drill (docs/DIST.md failure matrix): a named job
/// runs on a pool of worker processes, and one worker is SIGKILLed the
/// moment the first result lands. The job must still merge bitwise
/// equal to its single-process oracle, and the kill must be confirmed
/// at reap time.
int cmd_distkill(const std::vector<std::string>& args) {
  unsigned workers = 3;
  std::string profile = "nsc05";
  double scale = 0.1;
  std::size_t shard_files = 1;  // one file per lease: everyone leases
  bool verbose = false;
  bool quick = false;  // the defaults already are the quick corpus
  std::string metrics_out;
  if (!tools::parse_options(args,
                            {{"--workers", &workers},
                             {"--profile", &profile},
                             {"--scale", &scale},
                             {"--shard-files", &shard_files},
                             {"--metrics-out", &metrics_out},
                             {"--quick", &quick},
                             {"--verbose", &verbose}},
                            "faultlab"))
    return usage();
  if (workers < 2) {
    std::fprintf(stderr, "faultlab distkill: needs --workers >= 2\n");
    return 2;
  }
  faults::register_fault_metrics();
  atm::register_atm_metrics();
  alg::kern::register_kernel_metrics();
  core::register_splice_metrics();
  dist::register_dist_metrics();

  core::SpliceRunConfig run;
  run.flow = core::paper_flow_config();
  run.threads = 1;
  const core::SpliceCorpus corpus({core::CorpusKind::kProfile, profile, scale});
  const core::SpliceStats oracle = corpus.run_range(run, 0, corpus.file_count());
  // The oracle run above bumped the same global splice counters the
  // service run is about to use; re-baseline so the exported manifest
  // holds the accounting identity "aggregate == the job's per-worker
  // sum" (check_manifest --require-dist enforces it).
  obs::Registry::global().reset();

  tools::RunManifest manifest(metrics_out, false);

  dist::JobSpec spec;
  spec.name = profile + "@" + std::to_string(scale);
  spec.run.corpus_kind = dist::CorpusKind::kProfile;
  spec.run.corpus = profile;
  spec.run.scale = scale;
  spec.run.threads = 1;
  spec.nfiles = corpus.file_count();
  spec.shard_files = shard_files;
  dist::ServiceConfig sc;
  sc.expected_workers = workers;
  dist::JobService svc(sc, std::move(spec));

  std::atomic<pid_t> killed_pid{-1};
  std::vector<pid_t> pids;
  svc.set_event_hook([&](const dist::ServiceEvent& ev) {
    if (verbose)
      std::fprintf(stderr, "distkill: event %d worker %llu shard %zu\n",
                   static_cast<int>(ev.kind),
                   static_cast<unsigned long long>(ev.worker_id), ev.shard);
    if (ev.kind != dist::ServiceEvent::Kind::kResultAccepted ||
        killed_pid.load() != -1)
      return;
    // The expected_workers barrier held every grant until the whole
    // pool was connected, so any pid other than the deliverer provably
    // holds a lease right now (modulo the benign race where its own
    // result is already in flight — the epoch check makes that
    // harmless either way).
    for (const pid_t p : pids) {
      if (static_cast<std::uint64_t>(p) == ev.pid) continue;
      dist::kill_process(p);
      killed_pid.store(p);
      std::fprintf(stderr, "distkill: SIGKILLed worker pid %d after first "
                           "accepted result\n",
                   static_cast<int>(p));
      break;
    }
  });

  const std::string exe = dist::self_exe_path();
  if (exe.empty()) {
    std::fprintf(stderr, "faultlab: cannot locate own executable\n");
    return 1;
  }
  for (unsigned i = 0; i < workers; ++i) {
    const pid_t pid = dist::spawn_process(
        {exe, "distworker", "--connect",
         "127.0.0.1:" + std::to_string(svc.port()), "--worker-id",
         std::to_string(i + 1), "--kernel",
         std::string(alg::kern::selection_name())});
    if (pid < 0) {
      std::fprintf(stderr, "faultlab: cannot spawn worker %u\n", i + 1);
      return 1;
    }
    pids.push_back(pid);
  }

  const dist::JobReport rep = svc.wait();
  bool killed_confirmed = false;
  for (const pid_t p : pids) {
    const int code = dist::wait_process(p);
    if (p == killed_pid.load() && code == 128 + 9) killed_confirmed = true;
  }

  const dist::DistReport& r = rep.report;
  const bool ok = rep.state == dist::JobState::kDone && r.complete &&
                  r.stats == oracle;
  std::printf("distkill: %u workers, %zu shards, %zu reassigned, "
              "%zu stale results\n",
              workers, r.shards, r.reassigned, r.stale_results);
  std::printf("worker killed mid-run: %s\n",
              killed_confirmed ? "yes (SIGKILL confirmed)" : "NO");
  std::printf("run complete: %s\n", r.complete ? "yes" : "NO");
  std::printf("merged report identical to single-process run: %s\n",
              r.stats == oracle ? "yes" : "NO");

  if (!manifest.finish("faultlab distkill", profile, 0, 1,
                       ",\n  \"dist\": " + svc.jobs_json()))
    return 1;
  return ok && killed_confirmed ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  // Kernel selection is stripped before the subcommand split, so
  // `faultlab --kernel list` works bare and a bad --kernel (or
  // CKSUM_KERNEL) fails fast on every subcommand alike.
  std::vector<std::string> all_args(argv + 1, argv + argc);
  const int krc = tools::apply_kernel_args(all_args, "faultlab");
  if (krc != 0) return krc == 1 ? 0 : 2;
  if (all_args.empty()) return usage();
  const std::string cmd = all_args.front();
  const std::vector<std::string> args(all_args.begin() + 1, all_args.end());
  try {
    if (cmd == "soak" || cmd == "replay")
      return cmd_soak(args, cmd == "replay");
    if (cmd == "arq" || cmd == "arqsoak")
      return cmd_arq(args, cmd == "arqsoak");
    if (cmd == "storage") return cmd_storage(args);
    if (cmd == "distkill") return cmd_distkill(args);
    if (cmd == "distworker") {
      // Hidden: one worker of a distkill drill (or of `cksumlab splice
      // --serve`; both serve through the same JobService).
      const auto w = tools::parse_worker(args, "faultlab",
                                         "faultlab distworker");
      return w ? dist::run_worker(*w) : usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "faultlab: %s\n", e.what());
    return 1;
  }
  return usage();
}
