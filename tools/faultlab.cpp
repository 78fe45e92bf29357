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
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <fstream>

#include "arq/sim.hpp"
#include "arq/soak.hpp"
#include "atm/demux.hpp"
#include "checksum/checksum.hpp"
#include "checksum/kernels/kernel.hpp"
#include "core/dircorpus.hpp"
#include "core/experiments.hpp"
#include "core/report.hpp"
#include "dist/service.hpp"
#include "dist/spawn.hpp"
#include "dist/worker.hpp"
#include "faults/channel.hpp"
#include "faults/soak.hpp"
#include "kernel_cli.hpp"
#include "obs/exporter.hpp"
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
      "       faultlab distkill [--workers n] [--jobs n] [--profile p]\n"
      "                         [--scale x] [--shard-files n] [--quick]\n"
      "                         [--verbose] [--metrics-out p]\n"
      "       faultlab arq [--seed n] [--payloads n] [--quick] [--json]\n"
      "                    [--metrics-out p] [--quiet]\n"
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

struct Opts {
  faults::SoakConfig cfg;
  std::uint64_t scenario = 0;
  bool have_scenario = false;
  std::string repro_file;
  std::string metrics_out;
  bool progress = false;
  bool quiet = false;
  bool ok = true;
};

Opts parse(const std::vector<std::string>& args) {
  Opts o;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= args.size()) {
        o.ok = false;
        return "0";
      }
      return args[++i];
    };
    if (a == "--seed") {
      o.cfg.seed = std::stoull(next(), nullptr, 0);
    } else if (a == "--faults") {
      o.cfg.target_faults = std::stoull(next());
    } else if (a == "--max-scenarios") {
      o.cfg.max_scenarios = std::stoull(next());
    } else if (a == "--channels") {
      o.cfg.max_channels = std::stoull(next());
    } else if (a == "--budget") {
      o.cfg.max_pending_cells = std::stoull(next());
    } else if (a == "--scenario") {
      o.scenario = std::stoull(next(), nullptr, 0);
      o.have_scenario = true;
    } else if (a == "--repro-file") {
      o.repro_file = next();
    } else if (a == "--metrics-out") {
      o.metrics_out = next();
    } else if (a == "--progress") {
      o.progress = true;
    } else if (a == "--quiet") {
      o.quiet = true;
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", a.c_str());
      o.ok = false;
    }
  }
  return o;
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

int report(const faults::SoakConfig& cfg, const faults::SoakResult& res,
           const Opts& o) {
  if (!o.quiet) {
    print_totals(res.totals);
    std::printf("\n");
  }
  std::printf("%llu scenarios, %s fault events, %s cells: %s\n",
              static_cast<unsigned long long>(res.scenarios),
              core::fmt_count(res.totals.faults.total_faults()).c_str(),
              core::fmt_count(res.totals.faults.cells_in).c_str(),
              res.ok() ? "all invariants held" : "INVARIANT VIOLATED");
  if (!res.ok()) {
    std::printf("  %s\n  reproduce with: %s\n",
                res.totals.violation_detail.c_str(),
                res.reproducer.c_str());
    if (!o.repro_file.empty()) {
      std::ofstream f(o.repro_file);
      f << res.reproducer << "\n";
    }
    return 1;
  }
  (void)cfg;
  return 0;
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
  const auto get = [&](std::string_view name) -> std::uint64_t {
    const obs::MetricValue* m = snap.find(name);
    return m != nullptr ? m->value : 0;
  };
  char buf[160];
  std::snprintf(
      buf, sizeof buf,
      "soak: %llu scenarios  %llu fault events  %llu cells  "
      "%llu violations  %.1fs",
      static_cast<unsigned long long>(get("soak.scenarios")),
      static_cast<unsigned long long>(events),
      static_cast<unsigned long long>(get("faults.cells_in")),
      static_cast<unsigned long long>(get("soak.violations")), elapsed);
  return buf;
}

/// Starts the exporter (when asked for) around `run`, finishing with a
/// manifest identifying this soak/replay configuration.
template <typename Run>
int with_metrics(const Opts& o, const char* tool, Run run) {
  faults::register_fault_metrics();
  atm::register_atm_metrics();
  alg::kern::register_kernel_metrics();
  std::unique_ptr<obs::MetricsExporter> exporter;
  if (!o.metrics_out.empty() || o.progress) {
    obs::MetricsExporter::Options eo;
    eo.manifest_path = o.metrics_out;
    eo.ticker = o.progress || isatty(2) != 0;
    eo.ticker_line = soak_ticker_line;
    exporter = std::make_unique<obs::MetricsExporter>(obs::Registry::global(),
                                                      std::move(eo));
  }
  const int rc = run();
  if (exporter) {
    obs::RunInfo info;
    info.tool = tool;
    info.corpus = "fsgen-random";  // scenario corpora are seed-derived
    info.seed = o.cfg.seed;
    info.threads = 1;
    info.extra_json = alg::kern::kernel_manifest_json();
    if (!exporter->finish(std::move(info))) {
      std::fprintf(stderr, "faultlab: cannot write manifest to %s\n",
                   o.metrics_out.c_str());
      return 1;
    }
  }
  return rc;
}

int cmd_soak(const Opts& o) {
  return with_metrics(o, "faultlab soak", [&] {
    const faults::SoakResult res = faults::run_soak(o.cfg);
    return report(o.cfg, res, o);
  });
}

int cmd_replay(const Opts& o) {
  if (!o.have_scenario) return usage();
  return with_metrics(o, "faultlab replay", [&] {
    const faults::ScenarioResult r = faults::run_scenario(o.cfg, o.scenario);
    faults::SoakResult res;
    res.scenarios = 1;
    res.totals = r;
    if (r.violations > 0)
      res.reproducer = faults::reproducer_line(o.cfg, o.scenario);
    return report(o.cfg, res, o);
  });
}

// --- faultlab arq / arqsoak -----------------------------------------

struct ArqOpts {
  arq::ArqSoakConfig cfg;
  std::uint64_t scenario = 0;
  bool have_scenario = false;
  std::size_t payloads = 48;
  std::string repro_file;
  std::string metrics_out;
  bool progress = false;
  bool quiet = false;
  bool quick = false;
  bool json = false;
  bool ok = true;
};

ArqOpts parse_arq(const std::vector<std::string>& args) {
  ArqOpts o;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= args.size()) {
        o.ok = false;
        return "0";
      }
      return args[++i];
    };
    if (a == "--seed") {
      o.cfg.seed = std::stoull(next(), nullptr, 0);
    } else if (a == "--faults") {
      o.cfg.target_faults = std::stoull(next());
    } else if (a == "--max-scenarios") {
      o.cfg.max_scenarios = std::stoull(next());
    } else if (a == "--scenario") {
      o.scenario = std::stoull(next(), nullptr, 0);
      o.have_scenario = true;
    } else if (a == "--payloads") {
      o.payloads = std::stoull(next());
    } else if (a == "--repro-file") {
      o.repro_file = next();
    } else if (a == "--metrics-out") {
      o.metrics_out = next();
    } else if (a == "--progress") {
      o.progress = true;
    } else if (a == "--quiet") {
      o.quiet = true;
    } else if (a == "--quick") {
      o.quick = true;
    } else if (a == "--json") {
      o.json = true;
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", a.c_str());
      o.ok = false;
    }
  }
  return o;
}

std::string arq_ticker_line(const obs::Snapshot& snap, double elapsed) {
  const auto get = [&](std::string_view name) -> std::uint64_t {
    const obs::MetricValue* m = snap.find(name);
    return m != nullptr ? m->value : 0;
  };
  char buf[160];
  std::snprintf(
      buf, sizeof buf,
      "arq: %llu runs  %llu delivered  %llu retransmits  "
      "%llu residual  %llu gave up  %.1fs",
      static_cast<unsigned long long>(get("arq.runs")),
      static_cast<unsigned long long>(get("arq.delivered_ok")),
      static_cast<unsigned long long>(get("arq.retransmits")),
      static_cast<unsigned long long>(get("arq.residual_undetected") +
                                      get("arq.residual_lost")),
      static_cast<unsigned long long>(get("arq.gave_up")), elapsed);
  return buf;
}

/// Exporter wrapper for the arq subcommands. `extra_rows`, when
/// non-empty after run(), is spliced into the manifest as the "arq"
/// top-level member (docs/OBSERVABILITY.md).
template <typename Run>
int with_arq_metrics(const ArqOpts& o, const char* tool,
                     const std::string* extra_rows, Run run) {
  arq::register_arq_metrics();
  alg::kern::register_kernel_metrics();
  std::unique_ptr<obs::MetricsExporter> exporter;
  if (!o.metrics_out.empty() || o.progress) {
    obs::MetricsExporter::Options eo;
    eo.manifest_path = o.metrics_out;
    eo.ticker = o.progress || isatty(2) != 0;
    eo.ticker_line = arq_ticker_line;
    exporter = std::make_unique<obs::MetricsExporter>(obs::Registry::global(),
                                                      std::move(eo));
  }
  const int rc = run();
  if (exporter) {
    obs::RunInfo info;
    info.tool = tool;
    info.corpus = "arq-random";  // payloads are seed-derived
    info.seed = o.cfg.seed;
    info.threads = 1;
    info.extra_json = alg::kern::kernel_manifest_json();
    if (extra_rows != nullptr && !extra_rows->empty())
      info.extra_json += ", \"arq\": " + *extra_rows;
    if (!exporter->finish(std::move(info))) {
      std::fprintf(stderr, "faultlab: cannot write manifest to %s\n",
                   o.metrics_out.c_str());
      return 1;
    }
  }
  return rc;
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
int cmd_arq(const ArqOpts& o, std::string* extra_rows) {
  const std::vector<double> rates =
      o.quick ? std::vector<double>{0.0, 0.05}
              : std::vector<double>{0.0, 0.01, 0.02, 0.05, 0.10};
  const std::vector<alg::Algorithm> checks =
      o.quick ? std::vector<alg::Algorithm>{alg::Algorithm::kCrc32,
                                            alg::Algorithm::kInternet}
              : std::vector<alg::Algorithm>{alg::Algorithm::kCrc32,
                                            alg::Algorithm::kInternet,
                                            alg::Algorithm::kFletcher256};
  constexpr arq::Policy kPolicies[] = {arq::Policy::kStopAndWait,
                                       arq::Policy::kGoBackN,
                                       arq::Policy::kSelectiveRepeat};

  // One shared payload set so every cell moves identical data.
  const std::size_t n = o.quick ? std::min<std::size_t>(o.payloads, 16)
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

  if (!o.quiet) {
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

  std::string rows = "[";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i != 0) rows += ", ";
    rows += arq_cell_json(cells[i]);
  }
  rows += "]";
  if (o.json) std::printf("%s\n", rows.c_str());
  if (extra_rows != nullptr) *extra_rows = rows;

  std::printf("arq frontier: %zu cells, %zu payloads each: %s\n",
              cells.size(), payloads.size(),
              failed ? "GUARANTEE VIOLATED" : "all guarantees held");
  if (failed) {
    std::printf("  %s\n", detail.c_str());
    return 1;
  }
  return 0;
}

int arq_soak_report(const arq::ArqSoakResult& res, const ArqOpts& o) {
  if (!o.quiet) {
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
  std::printf("%llu scenarios, %s link faults: %s\n",
              static_cast<unsigned long long>(res.scenarios),
              core::fmt_count(res.faults_injected).c_str(),
              res.ok() ? "all guarantees held" : "GUARANTEE VIOLATED");
  if (!res.ok()) {
    std::printf("  %s\n  reproduce with: %s\n", res.violation_detail.c_str(),
                res.reproducer.c_str());
    if (!o.repro_file.empty()) {
      std::ofstream f(o.repro_file);
      f << res.reproducer << "\n";
    }
    return 1;
  }
  return 0;
}

int cmd_arqsoak(const ArqOpts& o) {
  return with_arq_metrics(o, o.have_scenario ? "faultlab arqsoak replay"
                                             : "faultlab arqsoak",
                          nullptr, [&] {
    if (o.have_scenario) {
      const arq::ArqScenarioResult r =
          arq::run_arq_scenario(o.cfg, o.scenario);
      arq::ArqSoakResult res;
      res.scenarios = 1;
      res.faults_injected = r.faults_injected;
      res.payloads_offered = r.sim.payloads_offered;
      res.delivered_ok = r.sim.delivered_ok;
      res.residual_undetected = r.sim.residual_undetected;
      res.residual_lost = r.sim.residual_lost;
      res.gave_up = r.sim.gave_up;
      res.retransmits = r.sim.sender.retransmits;
      res.violations = r.violations;
      res.violation_detail = r.violation_detail;
      if (r.violations > 0)
        res.reproducer = arq::arq_reproducer_line(o.cfg, o.scenario);
      return arq_soak_report(res, o);
    }
    return arq_soak_report(arq::run_arq_soak(o.cfg), o);
  });
}

struct StorageOpts {
  std::uint64_t seed = 0xC0FFEE;
  std::size_t trials = 0;  ///< per cell, both block sizes (0 = defaults)
  unsigned threads = 1;
  bool quick = false;
  bool json = false;
  std::string metrics_out;
  bool progress = false;
  bool quiet = false;
  bool ok = true;
};

StorageOpts parse_storage(const std::vector<std::string>& args) {
  StorageOpts o;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= args.size()) {
        o.ok = false;
        return "0";
      }
      return args[++i];
    };
    if (a == "--seed") {
      o.seed = std::stoull(next(), nullptr, 0);
    } else if (a == "--trials") {
      o.trials = std::stoull(next());
    } else if (a == "--threads") {
      o.threads = static_cast<unsigned>(std::stoul(next()));
    } else if (a == "--quick") {
      o.quick = true;
    } else if (a == "--json") {
      o.json = true;
    } else if (a == "--metrics-out") {
      o.metrics_out = next();
    } else if (a == "--progress") {
      o.progress = true;
    } else if (a == "--quiet") {
      o.quiet = true;
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", a.c_str());
      o.ok = false;
    }
  }
  return o;
}

std::string storage_ticker_line(const obs::Snapshot& snap, double elapsed) {
  const auto get = [&](std::string_view name) -> std::uint64_t {
    const obs::MetricValue* m = snap.find(name);
    return m != nullptr ? m->value : 0;
  };
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "storage: %llu trials  %llu detected  %llu undetected  "
                "%llu violations  %.1fs",
                static_cast<unsigned long long>(get("storage.trials")),
                static_cast<unsigned long long>(get("storage.detected")),
                static_cast<unsigned long long>(get("storage.undetected")),
                static_cast<unsigned long long>(get("storage.violations")),
                elapsed);
  return buf;
}

/// Exporter wrapper for the storage frontier. `extra_rows`, when
/// non-empty after run(), is spliced into the manifest as the
/// "storage" top-level member (docs/OBSERVABILITY.md).
template <typename Run>
int with_storage_metrics(const StorageOpts& o, const char* tool,
                         const std::string* extra_rows, Run run) {
  storage::register_storage_metrics();
  alg::kern::register_kernel_metrics();
  std::unique_ptr<obs::MetricsExporter> exporter;
  if (!o.metrics_out.empty() || o.progress) {
    obs::MetricsExporter::Options eo;
    eo.manifest_path = o.metrics_out;
    eo.ticker = o.progress || isatty(2) != 0;
    eo.ticker_line = storage_ticker_line;
    exporter = std::make_unique<obs::MetricsExporter>(obs::Registry::global(),
                                                      std::move(eo));
  }
  const int rc = run();
  if (exporter) {
    obs::RunInfo info;
    info.tool = tool;
    info.corpus = "fsgen-storage";  // payload pairs are seed-derived
    info.seed = o.seed;
    info.threads = o.threads;
    info.extra_json = alg::kern::kernel_manifest_json();
    if (extra_rows != nullptr && !extra_rows->empty())
      info.extra_json += ", \"storage\": " + *extra_rows;
    if (!exporter->finish(std::move(info))) {
      std::fprintf(stderr, "faultlab: cannot write manifest to %s\n",
                   o.metrics_out.c_str());
      return 1;
    }
  }
  return rc;
}

/// The paper's question asked of commit blocks: which checksums leak
/// which storage faults, on real file contents (docs/STORAGE.md).
int cmd_storage(const StorageOpts& o, std::string* extra_rows) {
  storage::FrontierConfig cfg;
  cfg.seed = o.seed;
  cfg.trials = {o.trials, o.trials};
  cfg.threads = o.threads;
  cfg.quick = o.quick;
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

  if (!o.quiet) {
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

  const std::string rows = storage::frontier_json(cfg, res);
  if (o.json) std::printf("%s\n", rows.c_str());
  if (extra_rows != nullptr) *extra_rows = rows;

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

/// Hidden subcommand: one worker process of a distkill drill (also
/// usable against `cksumlab splice --serve` — both serve through the
/// same JobService).
int cmd_distworker(const std::vector<std::string>& args) {
  dist::WorkerOptions w;
  w.tool = "faultlab distworker";
  std::string hostport;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    auto next = [&]() -> std::string {
      return i + 1 < args.size() ? args[++i] : std::string();
    };
    if (a == "--connect") {
      hostport = next();
    } else if (a == "--worker-id") {
      w.worker_id = std::stoull(next());
    } else if (a == "--metrics-out") {
      w.metrics_out = next();
    } else {
      return usage();
    }
  }
  const std::size_t colon = hostport.rfind(':');
  if (colon == std::string::npos) return usage();
  w.host = hostport.substr(0, colon);
  w.port = static_cast<std::uint16_t>(std::stoul(hostport.substr(colon + 1)));
  return dist::run_worker(w);
}

/// The worker-loss drill (docs/DIST.md failure matrix): `--jobs` named
/// jobs run on one shared pool of worker processes, and one worker is
/// SIGKILLed the moment the first result lands anywhere. Every job
/// must still merge bitwise equal to its own single-process oracle,
/// and the kill must be confirmed at reap time. With --jobs >= 2 two
/// probes arm: the last job is cancelled after its first merged shard,
/// and an over-limit submit must be rejected up front.
int cmd_distkill(const std::vector<std::string>& args) {
  unsigned workers = 3;
  unsigned jobs = 1;
  std::string profile = "nsc05";
  double scale = 0.1;
  std::size_t shard_files = 1;  // one file per lease: everyone leases
  bool verbose = false;
  std::string metrics_out;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    auto next = [&]() -> std::string {
      return i + 1 < args.size() ? args[++i] : std::string("0");
    };
    if (a == "--workers") {
      workers = static_cast<unsigned>(std::stoul(next()));
    } else if (a == "--jobs") {
      jobs = static_cast<unsigned>(std::stoul(next()));
    } else if (a == "--profile") {
      profile = next();
    } else if (a == "--scale") {
      scale = std::stod(next());
    } else if (a == "--shard-files") {
      shard_files = std::stoull(next());
    } else if (a == "--metrics-out") {
      metrics_out = next();
    } else if (a == "--quick") {
      // defaults already are the quick corpus; accepted for symmetry
    } else if (a == "--verbose") {
      verbose = true;
    } else {
      std::fprintf(stderr, "unknown option '%s'\n", a.c_str());
      return usage();
    }
  }
  if (workers < 2) {
    std::fprintf(stderr, "faultlab distkill: needs --workers >= 2\n");
    return 2;
  }
  jobs = std::max(1u, jobs);
  const bool probes = jobs >= 2;  // cancel + over-limit submit
  faults::register_fault_metrics();
  atm::register_atm_metrics();
  alg::kern::register_kernel_metrics();
  core::register_splice_metrics();
  dist::register_dist_metrics();

  // Per-job corpora: same profile, distinct scales, so each oracle is
  // a genuinely different report and cross-job leakage cannot cancel
  // out.
  std::vector<double> scales(jobs);
  std::vector<core::SpliceStats> oracles(jobs);
  std::vector<std::size_t> nfiles(jobs);
  for (unsigned j = 0; j < jobs; ++j) {
    scales[j] = scale * (1.0 - 0.2 * j);
    core::SpliceRunConfig run;
    run.flow = core::paper_flow_config();
    run.threads = 1;
    const core::SpliceCorpus corpus(
        {core::CorpusKind::kProfile, profile, scales[j]});
    nfiles[j] = corpus.file_count();
    oracles[j] = corpus.run_range(run, 0, nfiles[j]);
  }
  // The oracle runs above bumped the same global splice counters the
  // service run is about to use; re-baseline so the exported manifest
  // holds the accounting identity "aggregate == sum over jobs"
  // (check_manifest --require-dist enforces it).
  obs::Registry::global().reset();

  std::unique_ptr<obs::MetricsExporter> exporter;
  if (!metrics_out.empty()) {
    obs::MetricsExporter::Options eo;
    eo.manifest_path = metrics_out;
    eo.ticker = false;
    exporter = std::make_unique<obs::MetricsExporter>(obs::Registry::global(),
                                                      std::move(eo));
  }

  dist::ServiceConfig sc;
  sc.expected_workers = workers;
  sc.limits.max_jobs = jobs;  // the probe submit below must bounce
  dist::JobService svc(sc);

  std::vector<std::uint64_t> ids;
  for (unsigned j = 0; j < jobs; ++j) {
    dist::JobSpec spec;
    spec.name = profile + "@" + std::to_string(scales[j]);
    spec.run.corpus_kind = dist::CorpusKind::kProfile;
    spec.run.corpus = profile;
    spec.run.scale = scales[j];
    spec.run.threads = 1;
    spec.nfiles = nfiles[j];
    spec.shard_files = shard_files;
    const auto id = svc.submit(spec);
    if (!id.has_value()) {
      std::fprintf(stderr, "distkill: job %u unexpectedly rejected\n", j + 1);
      return 1;
    }
    ids.push_back(*id);
  }
  // The cancel probe's victim; 0 (no job) when the probes are off.
  const std::uint64_t victim = probes ? ids.back() : 0;
  const unsigned survivors = probes ? jobs - 1 : jobs;

  // Admission probe: the table is full, so one more submit must be
  // rejected (observable as dist.jobs_rejected).
  bool admission_rejected = true;
  if (probes) {
    dist::JobSpec extra;
    extra.name = "over-limit";
    extra.run.corpus_kind = dist::CorpusKind::kProfile;
    extra.run.corpus = profile;
    extra.run.scale = scales[0];
    extra.nfiles = nfiles[0];
    admission_rejected = !svc.submit(extra).has_value();
  }

  std::atomic<pid_t> killed_pid{-1};
  std::atomic<bool> victim_started{false};
  std::vector<pid_t> pids;
  svc.set_event_hook([&](const dist::ServiceEvent& ev) {
    if (verbose)
      std::fprintf(stderr, "distkill: event %d worker %llu job %llu "
                           "shard %zu\n",
                   static_cast<int>(ev.kind),
                   static_cast<unsigned long long>(ev.worker_id),
                   static_cast<unsigned long long>(ev.job), ev.shard);
    if (ev.kind != dist::ServiceEvent::Kind::kResultAccepted) return;
    if (ev.job == victim) victim_started.store(true);
    if (killed_pid.load() == -1) {
      // The expected_workers barrier held every grant until the whole
      // pool was connected, so any pid other than the deliverer
      // provably holds a lease of SOME job right now (modulo the
      // benign race where its own result is already in flight — the
      // epoch check makes that harmless either way).
      for (const pid_t p : pids) {
        if (static_cast<std::uint64_t>(p) == ev.pid) continue;
        dist::kill_process(p);
        killed_pid.store(p);
        std::fprintf(stderr, "distkill: SIGKILLed worker pid %d after "
                             "first accepted result\n",
                     static_cast<int>(p));
        break;
      }
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

  // Cancel the victim from this thread (the hook runs inside the
  // service loop) once one of its shards has merged — mid-flight by
  // construction unless the job already raced to done.
  bool cancelled = false;
  if (probes) {
    while (!victim_started.load() &&
           svc.status(victim)->state == dist::JobState::kRunning) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    cancelled = svc.cancel(victim);
  }

  bool survivors_ok = true;
  dist::DistReport first;  // job 1's report, for the single-job summary
  for (unsigned j = 0; j < survivors; ++j) {
    const dist::JobReport rep = svc.wait(ids[j]);
    const bool ok = rep.state == dist::JobState::kDone &&
                    rep.report.complete && rep.report.stats == oracles[j];
    if (!ok)
      std::fprintf(stderr, "distkill: job %llu (%s) FAILED its oracle\n",
                   static_cast<unsigned long long>(rep.job),
                   rep.name.c_str());
    survivors_ok = survivors_ok && ok;
    if (j == 0) first = rep.report;
  }
  bool victim_ok = true;
  if (probes) {
    const dist::JobReport vic = svc.wait(victim);
    victim_ok = cancelled ? vic.state == dist::JobState::kCancelled
                          : (vic.state == dist::JobState::kDone &&
                             vic.report.stats == oracles[jobs - 1]);
  }

  svc.drain();
  bool killed_confirmed = false;
  for (const pid_t p : pids) {
    const int code = dist::wait_process(p);
    if (p == killed_pid.load() && code == 128 + 9) killed_confirmed = true;
  }

  if (!probes) {
    std::printf("distkill: %u workers, %zu shards, %zu reassigned, "
                "%zu stale results\n",
                workers, first.shards, first.reassigned, first.stale_results);
    std::printf("worker killed mid-run: %s\n",
                killed_confirmed ? "yes (SIGKILL confirmed)" : "NO");
    std::printf("run complete: %s\n", first.complete ? "yes" : "NO");
    std::printf("merged report identical to single-process run: %s\n",
                first.stats == oracles[0] ? "yes" : "NO");
  } else {
    const auto counter = [](std::string_view name) -> std::uint64_t {
      const obs::Snapshot snap = obs::Registry::global().snapshot();
      const obs::MetricValue* m = snap.find(name);
      return m != nullptr ? m->value : 0;
    };
    std::printf("distkill: %u jobs on %u pooled workers\n", jobs, workers);
    std::printf("survivor jobs bitwise-equal to oracles: %s\n",
                survivors_ok ? "yes" : "NO");
    std::printf("victim job %s: %s\n",
                cancelled ? "cancelled mid-flight" : "raced to done",
                victim_ok ? "ok" : "WRONG STATE");
    std::printf("worker killed mid-run: %s\n",
                killed_confirmed ? "yes (SIGKILL confirmed)" : "NO");
    std::printf("over-limit submit rejected: %s\n",
                admission_rejected ? "yes" : "NO");
    std::printf(
        "dist counters: submitted %llu, rejected %llu, cancelled "
        "%llu, completed %llu, write-queue hwm %llu, grants "
        "deferred %llu\n",
        static_cast<unsigned long long>(counter("dist.jobs_submitted")),
        static_cast<unsigned long long>(counter("dist.jobs_rejected")),
        static_cast<unsigned long long>(counter("dist.jobs_cancelled")),
        static_cast<unsigned long long>(counter("dist.jobs_completed")),
        static_cast<unsigned long long>(counter("dist.write_queue_hwm")),
        static_cast<unsigned long long>(counter("dist.grants_deferred")));
  }

  if (exporter) {
    obs::RunInfo info;
    info.tool = "faultlab distkill";
    info.corpus = profile;
    info.seed = 0;
    info.threads = 1;
    info.extra_json =
        alg::kern::kernel_manifest_json() + ",\n  \"dist\": " + svc.jobs_json();
    if (!exporter->finish(std::move(info))) {
      std::fprintf(stderr, "faultlab: cannot write manifest to %s\n",
                   metrics_out.c_str());
      return 1;
    }
  }
  return (survivors_ok && victim_ok && killed_confirmed &&
          admission_rejected)
             ? 0
             : 1;
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
  std::vector<std::string> args(all_args.begin() + 1, all_args.end());
  if (cmd == "distworker" || cmd == "distkill") {
    try {
      return cmd == "distworker" ? cmd_distworker(args) : cmd_distkill(args);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "faultlab: %s\n", e.what());
      return 1;
    }
  }
  if (cmd == "storage") {
    StorageOpts so;
    try {
      so = parse_storage(args);
    } catch (const std::exception&) {
      std::fprintf(stderr,
                   "faultlab: expected a number after the last option\n");
      return usage();
    }
    if (!so.ok) return usage();
    try {
      std::string rows;
      return with_storage_metrics(so, "faultlab storage", &rows,
                                  [&] { return cmd_storage(so, &rows); });
    } catch (const std::exception& e) {
      std::fprintf(stderr, "faultlab: %s\n", e.what());
      return 1;
    }
  }
  if (cmd == "arq" || cmd == "arqsoak") {
    ArqOpts ao;
    try {
      ao = parse_arq(args);
    } catch (const std::exception&) {
      std::fprintf(stderr,
                   "faultlab: expected a number after the last option\n");
      return usage();
    }
    if (!ao.ok) return usage();
    try {
      if (cmd == "arqsoak") return cmd_arqsoak(ao);
      std::string rows;
      return with_arq_metrics(ao, "faultlab arq", &rows,
                              [&] { return cmd_arq(ao, &rows); });
    } catch (const std::exception& e) {
      std::fprintf(stderr, "faultlab: %s\n", e.what());
      return 1;
    }
  }
  Opts o;
  try {
    o = parse(args);
  } catch (const std::exception&) {
    std::fprintf(stderr, "faultlab: expected a number after the last option\n");
    return usage();
  }
  if (!o.ok) return usage();
  try {
    if (cmd == "soak") return cmd_soak(o);
    if (cmd == "replay") return cmd_replay(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "faultlab: %s\n", e.what());
    return 1;
  }
  return usage();
}
