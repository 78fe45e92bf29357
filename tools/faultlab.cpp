// faultlab — the distributed-run fault drill.
//
//   faultlab distkill [options]    spawn a job service + N workers,
//                                  SIGKILL one worker mid-lease, and
//                                  assert the merged report still
//                                  equals the single-process run bit
//                                  for bit (docs/DIST.md)
//
// options:
//   --workers <n>      worker processes, at least 2  (default 3)
//   --profile <p>      corpus profile                (default nsc05)
//   --scale <x>        corpus scale                  (default 0.1)
//   --shard-files <n>  files per lease               (default 1)
//   --quick            alias for the defaults above
//   --verbose          print every service event on stderr
//   --metrics-out <p>  write the telemetry run manifest (and a
//                      <p>.jsonl progress stream); docs/OBSERVABILITY.md
#include <atomic>
#include <cstdio>
#include <string>
#include <vector>

#include "atm/demux.hpp"
#include "checksum/kernels/kernel.hpp"
#include "cli.hpp"
#include "core/dircorpus.hpp"
#include "core/experiments.hpp"
#include "dist/service.hpp"
#include "dist/spawn.hpp"
#include "kernel_cli.hpp"

using namespace cksum;

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: faultlab distkill [--workers n] [--profile p]\n"
      "                         [--scale x] [--shard-files n] [--quick]\n"
      "                         [--verbose] [--metrics-out p]\n"
      "accepts --kernel best|scalar|list\n"
      "(or the CKSUM_KERNEL environment variable) to pick the checksum\n"
      "kernels; `list` prints every algorithm's implementations\n");
  return 2;
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
