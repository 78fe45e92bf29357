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

#include "atm/demux.hpp"
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
      "all accept --kernel best|scalar|list\n"
      "(or the CKSUM_KERNEL environment variable) to pick the checksum\n"
      "kernels; `list` prints every algorithm's implementations\n");
  return 2;
}

/// What a soak prints and exports, beside its config.
struct RunFlags {
  std::string repro_file;
  std::string metrics_out;
  bool progress = false;
  bool quiet = false;
};

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
  std::printf("%llu scenarios, %s fault events, %s cells: %s\n",
              static_cast<unsigned long long>(res.scenarios),
              core::fmt_count(res.totals.faults.total_faults()).c_str(),
              core::fmt_count(res.totals.faults.cells_in).c_str(),
              res.ok() ? "all invariants held" : "INVARIANT VIOLATED");
  int rc = 0;
  if (!res.ok()) {
    std::printf("  %s\n  reproduce with: %s\n",
                res.totals.violation_detail.c_str(), res.reproducer.c_str());
    if (!f.repro_file.empty()) {
      std::ofstream out(f.repro_file);
      out << res.reproducer << "\n";
    }
    rc = 1;
  }
  // Scenario corpora are seed-derived.
  return manifest.finish(replay ? "faultlab replay" : "faultlab soak",
                         "fsgen-random", cfg.seed, 1)
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
