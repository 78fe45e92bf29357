// cksumlab — command-line multitool over the library.
//
//   cksumlab sum <file>...                 all check codes per file
//   cksumlab profiles                      list synthetic filesystems
//   cksumlab gen <kind> <bytes> [seed]     synthetic file to stdout
//   cksumlab splice --profile <name> [opts]
//   cksumlab splice --dir <path>    [opts] the paper's experiment on
//                                          YOUR files
//   cksumlab dist   --profile <name> | --dir <path>
//
// splice/dist options:
//   --transport tcp|f255|f256   transport checksum   (default tcp)
//   --trailer                   trailer placement    (default header)
//   --scale <x>                 profile scale        (default 1.0)
//   --segment <bytes>           TCP segment size     (default 256)
//   --threads <n>               worker threads; 0 = all cores (default)
//   --verbose                   evaluator internals (splice: path mix)
//   --json                      machine-readable splice report on stdout
//   --metrics-out <path>        write the telemetry run manifest there
//                               (plus a <path>.jsonl progress stream);
//                               see docs/OBSERVABILITY.md
//   --progress                  force the live one-line ticker on stderr
//                               (on by default when stderr is a tty and
//                               telemetry export is active)
//   --quick                     CI shorthand: nsc05 profile at scale 0.1
//                               when no corpus source is given
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <fstream>

#include "atm/demux.hpp"
#include "checksum/kernels/kernel.hpp"
#include "cli.hpp"
#include "core/dircorpus.hpp"
#include "kernel_cli.hpp"
#include "core/experiments.hpp"
#include "core/report.hpp"
#include "dist/service.hpp"
#include "dist/spawn.hpp"
#include "faults/channel.hpp"
#include "fsgen/corpus_store.hpp"
#include "stats/uniformity.hpp"
#include "trace/ingest.hpp"
#include "trace/pcap_reader.hpp"
#include "trace/profile.hpp"
#include "util/pcap.hpp"

using namespace cksum;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: cksumlab sum <file>...\n"
               "       cksumlab profiles\n"
               "       cksumlab gen <kind> <bytes> [seed]\n"
               "       cksumlab manifest <profile> [scale]\n"
               "       cksumlab pcap <out.pcap> [profile] [max-packets] "
               "[--link raw|eth] [--scale x] [--segment n] "
               "[--transport ...] [--trailer]\n"
               "       cksumlab trace (info|profile|ingest) <capture.pcap> "
               "[--transport ...] [--trailer] [--segment n] [--json] "
               "[--metrics-out <path>]\n"
               "       cksumlab corpus build (--profile <name> | --manifest <file> | --from-pcap <capture> | --quick) "
               "--out <path> [--compress] [--scale x] [--segment n] "
               "[--transport ...] [--trailer]\n"
               "       cksumlab corpus info <path>\n"
               "       cksumlab splice (--profile <name> | --dir <path> | --manifest <file> | --corpus <store> | --quick) "
               "[--transport tcp|f255|f256] [--trailer] [--scale x] "
               "[--segment n] [--threads n] [--verbose] [--json] "
               "[--metrics-out <path>] [--progress]\n"
               "               [--serve] [--workers n] [--port n] "
               "[--lease-timeout ms] [--shard-files n]   distributed run\n"
               "       cksumlab splice --connect <host:port> "
               "[--worker-id n] [--metrics-out <path>]    worker mode\n"
               "       cksumlab dist (--profile <name> | --dir <path>)\n"
               "options accepted by every subcommand:\n"
               "       --kernel best|scalar|list\n"
               "       (or the CKSUM_KERNEL environment variable);\n"
               "       `list` prints every algorithm's implementations\n");
  return 2;
}

int cmd_sum(const std::vector<std::string>& args) {
  if (args.empty()) return usage();
  core::TextTable t({"file", "bytes", "internet", "F-255", "F-256",
                     "Fletcher-32", "CRC-32", "Adler-32"});
  for (const auto& path : args) {
    const util::Bytes data =
        core::read_file_prefix(path, 1ull << 31);
    const util::ByteView view(data.data(), data.size());
    char inet[8], f255[8], f256[8], f32[16], crc[16], adler[16];
    std::snprintf(inet, sizeof inet, "0x%04x", alg::kern::internet_sum(view));
    const auto p255 =
        alg::kern::fletcher_block(view, alg::FletcherMod::kOnes255);
    const auto p256 =
        alg::kern::fletcher_block(view, alg::FletcherMod::kTwos256);
    std::snprintf(f255, sizeof f255, "0x%04x", alg::fletcher_value(p255));
    std::snprintf(f256, sizeof f256, "0x%04x", alg::fletcher_value(p256));
    std::snprintf(f32, sizeof f32, "0x%08x",
                  alg::fletcher32_value(alg::kern::fletcher32_block(view)));
    std::snprintf(crc, sizeof crc, "0x%08x", alg::kern::crc32(view));
    std::snprintf(adler, sizeof adler, "0x%08x",
                  alg::kern::adler32(1u, view));
    t.add_row({path, core::fmt_count(data.size()), inet, f255, f256, f32,
               crc, adler});
  }
  t.print(std::cout);
  return 0;
}

int cmd_profiles() {
  core::TextTable t({"profile", "files", "approx size", "mix"});
  for (const auto& prof : fsgen::all_profiles()) {
    const fsgen::Filesystem fs(prof, 1.0);
    std::string mix;
    for (const auto& kw : prof.mix) {
      if (!mix.empty()) mix += ", ";
      mix += std::string(fsgen::name(kw.kind)) + ":" +
             std::to_string(static_cast<int>(kw.weight * 100 + 0.5)) + "%";
    }
    t.add_row({prof.full_name(), std::to_string(fs.file_count()),
               core::fmt_count(fs.approx_total_bytes()), mix});
  }
  t.print(std::cout);
  return 0;
}

int cmd_gen(const std::vector<std::string>& args) {
  if (args.size() < 2) return usage();
  const fsgen::FileKind* kind = nullptr;
  for (const auto& k : fsgen::kAllKinds) {
    if (args[0] == fsgen::name(k)) {
      kind = &k;
      break;
    }
  }
  if (kind == nullptr) {
    std::fprintf(stderr, "unknown kind '%s'; available:", args[0].c_str());
    for (const auto& k : fsgen::kAllKinds)
      std::fprintf(stderr, " %s", std::string(fsgen::name(k)).c_str());
    std::fprintf(stderr, "\n");
    return 2;
  }
  std::size_t size = 0;
  std::uint64_t seed = 1;
  if (!tools::read_number("cksumlab", "gen <bytes>", args[1], size) ||
      (args.size() > 2 &&
       !tools::read_number("cksumlab", "gen [seed]", args[2], seed)))
    return usage();
  const util::Bytes out = fsgen::generate_file(*kind, seed, size);
  std::fwrite(out.data(), 1, out.size(), stdout);
  return 0;
}

struct CommonOpts {
  std::string profile;
  std::string dir;
  std::string manifest;  // corpus pinned by `cksumlab manifest`
  std::string corpus;    // prebuilt store from `cksumlab corpus build`
  std::string from_pcap; // capture file (corpus build only)
  std::string metrics_out;  // telemetry run-manifest path ("" = off)
  net::PacketConfig pkt;
  double scale = 1.0;
  std::size_t segment = 256;
  unsigned threads = 0;  // 0 = all hardware threads
  bool verbose = false;  // evaluator internals (path mix, pair count)
  bool json = false;     // machine-readable report on stdout
  bool progress = false; // force the stderr ticker even without a tty
  // Distributed mode (docs/DIST.md). --workers implies
  // --serve; --serve alone waits for externally started workers.
  bool serve = false;
  unsigned workers = 0;        // workers to self-spawn (and barrier on)
  std::uint16_t port = 0;      // 0 = ephemeral
  std::uint64_t lease_timeout_ms = 15000;
  std::size_t shard_files = 0; // files per lease; 0 = auto
};

/// The options splice, corpus build and dist share, plus `extra`
/// (corpus build's own). False on a usage error, including anything
/// but exactly one corpus source.
bool parse_common(std::span<const std::string> args, CommonOpts& o,
                  std::vector<tools::Opt> extra = {}) {
  bool quick = false;
  bool scale_set = false;
  std::vector<tools::Opt> table = {
      {"--profile", &o.profile},
      {"--manifest", &o.manifest},
      {"--dir", &o.dir},
      {"--corpus", &o.corpus},
      {"--from-pcap", &o.from_pcap},
      {"--scale", &o.scale, 10, &scale_set},
      {"--segment", &o.segment},
      {"--threads", &o.threads},
      {"--trailer", &o.pkt.placement},
      {"--transport", &o.pkt.transport},
      {"--verbose", &o.verbose},
      {"--json", &o.json},
      {"--progress", &o.progress},
      {"--metrics-out", &o.metrics_out},
      {"--serve", &o.serve},
      {"--workers", &o.workers, 10, &o.serve},
      {"--port", &o.port},
      {"--lease-timeout", &o.lease_timeout_ms},
      {"--shard-files", &o.shard_files},
      {"--quick", &quick}};
  table.insert(table.end(), extra.begin(), extra.end());
  if (!tools::parse_options(args, table, "cksumlab")) return false;
  if (o.lease_timeout_ms == 0) {
    std::fprintf(stderr,
                 "cksumlab: --lease-timeout must be a positive "
                 "millisecond count\n");
    return false;
  }
  int sources = (!o.profile.empty() ? 1 : 0) + (!o.dir.empty() ? 1 : 0) +
                (!o.manifest.empty() ? 1 : 0) + (!o.corpus.empty() ? 1 : 0) +
                (!o.from_pcap.empty() ? 1 : 0);
  if (quick && sources == 0) {
    // CI shorthand: a corpus small enough for smoke jobs.
    o.profile = "nsc05";
    if (!scale_set) o.scale = 0.1;
    sources = 1;
  }
  return sources == 1;  // exactly one corpus source
}

void print_splice_stats(const core::SpliceStats& st,
                        const net::PacketConfig& pkt, bool verbose) {
  core::TextTable t({"", "count", "% remaining"});
  t.add_row({"files", core::fmt_count(st.files), ""});
  t.add_row({"packets", core::fmt_count(st.packets), ""});
  t.add_row({"splices", core::fmt_count(st.total), ""});
  t.add_row({"caught by header", core::fmt_count(st.caught_by_header), ""});
  t.add_row({"identical data", core::fmt_count(st.identical), ""});
  t.add_row({"remaining", core::fmt_count(st.remaining), "100"});
  t.add_row({"missed by CRC-32", core::fmt_count(st.missed_crc),
             core::fmt_pct(st.missed_crc, st.remaining)});
  const std::string name = "missed by " + std::string(alg::name(pkt.transport));
  t.add_row({name, core::fmt_count(st.missed_transport),
             core::fmt_pct(st.missed_transport, st.remaining)});
  t.add_row({"missed by K-Dual", core::fmt_count(st.missed_koopman_dual),
             core::fmt_pct(st.missed_koopman_dual, st.remaining)});
  t.add_row({"missed by K-Single", core::fmt_count(st.missed_koopman_single),
             core::fmt_pct(st.missed_koopman_single, st.remaining)});
  t.print(std::cout);
  std::printf("uniform-data expectation for %s: %s%%\n",
              std::string(alg::name(pkt.transport)).c_str(),
              core::fmt_pct(alg::uniform_miss_rate(pkt.transport)).c_str());
  if (verbose) {
    std::printf("checksum kernel:    %s\n",
                std::string(alg::kern::selection_name()).c_str());
    std::printf("pairs evaluated:    %s\n", core::fmt_count(st.pairs).c_str());
    std::printf("evaluator path mix: %s\n",
                core::fmt_path_mix(st.fast_path, st.slow_path).c_str());
  }
}

int cmd_manifest(const std::vector<std::string>& args) {
  if (args.empty()) return usage();
  double scale = 1.0;
  if (args.size() > 1 &&
      !tools::read_number("cksumlab", "manifest [scale]", args[1], scale))
    return usage();
  const fsgen::Filesystem fs(fsgen::profile(args[0]), scale);
  std::fputs(fs.to_manifest().c_str(), stdout);
  return 0;
}

int cmd_pcap(const std::vector<std::string>& args) {
  // cksumlab pcap <out.pcap> [profile] [max-packets]
  //               [--link raw|eth] [--scale x] [--segment n]
  //               [--transport tcp|f255|f256] [--trailer]
  // Writes a synthetic capture whose datagrams carry the configured
  // flow — the fixture generator for the trace lab (docs/TRACE.md).
  std::vector<std::string> pos;
  std::string link_name = "raw";
  double scale = 0.2;
  std::size_t max_pkts = 200;
  net::FlowConfig flow = core::paper_flow_config();
  if (!tools::parse_options(args,
                            {{"--link", &link_name},
                             {"--scale", &scale},
                             {"--segment", &flow.segment_size},
                             {"--trailer", &flow.packet.placement},
                             {"--transport", &flow.packet.transport}},
                            "cksumlab", &pos) ||
      pos.empty() ||
      (pos.size() > 2 && !tools::read_number("cksumlab", "pcap [max-packets]",
                                             pos[2], max_pkts)))
    return usage();
  if (link_name != "raw" && link_name != "eth") {
    std::fprintf(stderr, "cksumlab: --link wants raw or eth\n");
    return usage();
  }
  const util::PcapLink link =
      link_name == "raw" ? util::PcapLink::kRaw : util::PcapLink::kEthernet;
  const std::string prof_name = pos.size() > 1 ? pos[1] : "sics.se:/opt";
  const fsgen::Filesystem fs(fsgen::profile(prof_name), scale);

  std::ofstream out(pos[0], std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "cannot open %s\n", pos[0].c_str());
    return 1;
  }
  util::PcapWriter pcap(out, link);
  for (std::size_t f = 0; f < fs.file_count(); ++f) {
    if (pcap.packets_written() >= max_pkts) break;
    const util::Bytes file = fs.file(f);
    for (const auto& p : net::segment_file(flow, util::ByteView(file))) {
      if (pcap.packets_written() >= max_pkts) break;
      pcap.write_packet(p.ip_bytes());
    }
  }
  if (!pcap.ok()) {
    std::fprintf(stderr, "cksumlab: write error on %s\n", pos[0].c_str());
    return 1;
  }
  std::fprintf(stderr, "%zu packets -> %s (%s)\n", pcap.packets_written(),
               pos[0].c_str(),
               link == util::PcapLink::kRaw ? "LINKTYPE_RAW"
                                            : "LINKTYPE_ETHERNET");
  return 0;
}

/// The manifest's "trace" member: capture shape, the full ingest
/// accounting (records == accepted + rejected; rejected == sum of the
/// reject classes — identities check_manifest.py --require-trace
/// enforces) and the data profile of the accepted payload bytes.
std::string trace_json(const std::string& capture, const trace::PcapInfo& pi,
                       const trace::IngestCounts& c, std::size_t files,
                       const trace::DataProfile& prof) {
  const auto b = [](bool v) { return v ? "true" : "false"; };
  std::string j = "{\"capture\": \"" + obs::json_escape(capture) + "\"";
  j += ", \"linktype\": " + std::to_string(pi.linktype);
  j += ", \"swapped\": " + std::string(b(pi.swapped));
  j += ", \"nanos\": " + std::string(b(pi.nanos));
  j += ", \"snaplen\": " + std::to_string(pi.snaplen);
  j += ", \"records\": " + std::to_string(c.records);
  j += ", \"accepted\": " + std::to_string(c.accepted);
  j += ", \"rejected\": " + std::to_string(c.rejected);
  j += ", \"files\": " + std::to_string(files);
  j += ", \"rejects\": {";
  j += "\"truncated\": " + std::to_string(c.truncated);
  j += ", \"link_too_short\": " + std::to_string(c.link_too_short);
  j += ", \"non_ipv4\": " + std::to_string(c.non_ipv4);
  j += ", \"header\": " + std::to_string(c.header_fail);
  j += ", \"checksum\": " + std::to_string(c.checksum_fail);
  j += ", \"orphan\": " + std::to_string(c.orphan);
  j += "}, \"profile\": " + prof.json() + "}";
  return j;
}

/// Fold every accepted packet's payload into the profiler. The profile
/// is over delivered payload bytes (what the paper's Figure 2/3 data
/// characterises), not headers or AAL5 framing.
trace::DataProfile profile_ingest(const trace::IngestResult& res) {
  trace::DataProfile prof;
  for (const auto& file : res.files)
    for (const core::SimPacket& sp : file) prof.add_payload(sp.pkt.payload());
  return prof;
}

int cmd_trace(const std::vector<std::string>& args) {
  // cksumlab trace (info|profile|ingest) <capture.pcap> [options]
  if (args.size() < 2) return usage();
  const std::string verb = args[0];
  const std::string capture = args[1];
  if (verb != "info" && verb != "profile" && verb != "ingest") {
    std::fprintf(stderr, "unknown trace verb '%s'\n", verb.c_str());
    return usage();
  }
  net::FlowConfig flow = core::paper_flow_config();
  bool json = false;
  std::string metrics_out;
  if (!tools::parse_options(std::span(args).subspan(2),
                            {{"--segment", &flow.segment_size},
                             {"--trailer", &flow.packet.placement},
                             {"--transport", &flow.packet.transport},
                             {"--json", &json},
                             {"--metrics-out", &metrics_out}},
                            "cksumlab"))
    return usage();

  trace::register_trace_metrics();
  alg::kern::register_kernel_metrics();
  tools::RunManifest manifest(metrics_out, false);

  std::string err;
  const auto pcap = trace::PcapReader::open(capture, &err);
  if (!pcap) {
    std::fprintf(stderr, "cksumlab: trace %s: %s\n", capture.c_str(),
                 err.c_str());
    return 1;
  }
  const trace::PcapInfo& pi = pcap->info();

  if (verb == "info") {
    std::printf("capture      %s\n", capture.c_str());
    std::printf("version      %u.%u\n", pi.version_major, pi.version_minor);
    std::printf("byte order   %s\n", pi.swapped ? "swapped" : "native");
    std::printf("resolution   %s\n",
                pi.nanos ? "nanoseconds" : "microseconds");
    std::printf("snaplen      %u\n", pi.snaplen);
    std::printf("linktype     %s (%u)\n",
                pi.linktype == trace::kLinkRaw ? "LINKTYPE_RAW"
                                               : "LINKTYPE_ETHERNET",
                pi.linktype);
    std::printf("records      %s\n", core::fmt_count(pi.records).c_str());
    std::printf("datagrams    %s\n", core::fmt_count(pi.datagrams).c_str());
    std::printf("truncated    %s\n", core::fmt_count(pi.truncated).c_str());
    std::printf("frame bytes  %s\n", core::fmt_count(pi.frame_bytes).c_str());
    return 0;
  }

  trace::IngestConfig icfg;
  icfg.flow = flow;
  const trace::IngestResult res = trace::ingest_capture(*pcap, icfg);
  const trace::DataProfile prof = profile_ingest(res);
  const std::string tj =
      trace_json(capture, pi, res.counts, res.files.size(), prof);

  if (!manifest.finish("cksumlab trace", capture, 0, 1, ", \"trace\": " + tj))
    return 1;

  if (json) {
    std::printf("%s\n", tj.c_str());
    return 0;
  }
  if (verb == "ingest") {
    const trace::IngestCounts& c = res.counts;
    core::TextTable t({"", "count"});
    t.add_row({"records", core::fmt_count(c.records)});
    t.add_row({"accepted", core::fmt_count(c.accepted)});
    t.add_row({"rejected", core::fmt_count(c.rejected)});
    t.add_row({"  snap-truncated", core::fmt_count(c.truncated)});
    t.add_row({"  link too short", core::fmt_count(c.link_too_short)});
    t.add_row({"  non-IPv4", core::fmt_count(c.non_ipv4)});
    t.add_row({"  header check", core::fmt_count(c.header_fail)});
    t.add_row({"  bad checksum", core::fmt_count(c.checksum_fail)});
    t.add_row({"  orphan data", core::fmt_count(c.orphan)});
    t.add_row({"file transfers", core::fmt_count(res.files.size())});
    t.print(std::cout);
    return 0;
  }
  // verb == "profile"
  std::printf("payload bytes     %s\n", core::fmt_count(prof.bytes()).c_str());
  std::printf("byte entropy      %.2f bits of 8\n",
              prof.byte_values().entropy_bits());
  std::printf("word entropy      %.2f bits of 16\n",
              prof.word_values().entropy_bits());
  std::printf("zero bytes        %s%%  (%s runs, longest %s)\n",
              core::fmt_pct(prof.byte_fraction(0x00)).c_str(),
              core::fmt_count(prof.zero_runs().runs).c_str(),
              core::fmt_count(prof.zero_runs().max_run).c_str());
  std::printf("0xFF bytes        %s%%  (%s runs, longest %s)\n",
              core::fmt_pct(prof.byte_fraction(0xFF)).c_str(),
              core::fmt_count(prof.ff_runs().runs).c_str(),
              core::fmt_count(prof.ff_runs().max_run).c_str());
  std::printf("48-byte cells     %s\n", core::fmt_count(prof.cells()).c_str());
  std::printf("cell entropy      %.2f bits of 16\n",
              prof.cell_checksums().entropy_bits());
  std::printf("most common cell  0x%04x (%s%% of cells)\n",
              prof.cell_checksums().mode(),
              core::fmt_pct(prof.cell_checksums().pmax()).c_str());
  return 0;
}

/// Live one-line view of a splice run, built from the same snapshot
/// the JSONL progress stream is written from.
std::string splice_ticker_line(const obs::Snapshot& snap, double elapsed) {
  const std::uint64_t fast = snap.value("splice.fast_path");
  const std::uint64_t slow = snap.value("splice.slow_path");
  const std::uint64_t evaluated = fast + slow;
  char buf[160];
  std::snprintf(
      buf, sizeof buf,
      "splice: %llu files  %llu pairs  %llu splices  %.2f%% fast  %.1fs",
      static_cast<unsigned long long>(snap.value("splice.files")),
      static_cast<unsigned long long>(snap.value("splice.pairs")),
      static_cast<unsigned long long>(snap.value("splice.total")),
      evaluated == 0 ? 0.0
                     : 100.0 * static_cast<double>(fast) /
                           static_cast<double>(evaluated),
      elapsed);
  return buf;
}

/// The corpus source the splice options name (a manifest as its text,
/// so dist workers need no shared filesystem).
core::CorpusSource corpus_source(const CommonOpts& o) {
  core::CorpusSource src;
  if (!o.corpus.empty()) {
    src = {core::CorpusKind::kCorpusFile, o.corpus};
  } else if (!o.profile.empty()) {
    src = {core::CorpusKind::kProfile, o.profile, o.scale};
  } else if (!o.manifest.empty()) {
    const util::Bytes text = core::read_file_prefix(o.manifest, 1u << 24);
    src = {core::CorpusKind::kManifest, std::string(text.begin(), text.end())};
  } else {
    src = {core::CorpusKind::kDirectory, o.dir};
  }
  return src;
}

/// Serving side of `cksumlab splice --serve`: submit the corpus as the
/// one job of a JobService, self-spawn `--workers` worker processes
/// (0 = externally started), and wait for the merge. On success `st`
/// and `dist_json` hold the merged stats and the manifest's "dist"
/// member.
int run_distributed(const CommonOpts& o, const core::CorpusSource& src,
                    const std::string& name, const core::SpliceRunConfig& cfg,
                    std::size_t nfiles, core::SpliceStats& st,
                    std::string& dist_json) {
  dist::JobSpec spec;
  dist::ConfigMsg& run = spec.run;
  run.corpus_kind = src.kind;
  run.corpus = src.corpus;
  run.scale = src.scale;
  run.segment = cfg.flow.segment_size;
  run.transport = static_cast<std::uint8_t>(cfg.flow.packet.transport);
  run.trailer = cfg.flow.packet.placement == net::ChecksumPlacement::kTrailer;
  spec.nfiles = nfiles;
  spec.name = name;
  spec.shard_files = o.shard_files;
  // Split the machine across the fleet unless --threads pinned it.
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  run.threads =
      o.threads != 0 ? o.threads
                     : std::max(1u, o.workers != 0 ? hw / o.workers : hw);

  // Sized for exactly this one job, so no corpus is too wide to admit.
  dist::ServiceConfig sc;
  sc.port = o.port;
  sc.expected_workers = o.workers;
  sc.lease_timeout_ms = o.lease_timeout_ms;
  sc.limits.max_jobs = 1;
  sc.limits.max_queued_shards = dist::job_shard_count(spec, o.workers);
  dist::JobService svc(sc);
  if (o.verbose) {
    svc.set_event_hook([](const dist::ServiceEvent& ev) {
      const char* what = "";
      switch (ev.kind) {
        case dist::ServiceEvent::Kind::kWorkerConnected: what = "connected"; break;
        case dist::ServiceEvent::Kind::kResultAccepted: what = "result"; break;
        case dist::ServiceEvent::Kind::kLeaseReassigned: what = "reassigned"; break;
        case dist::ServiceEvent::Kind::kWorkerLost: what = "lost"; break;
        case dist::ServiceEvent::Kind::kJobDone: what = "finished"; break;
        case dist::ServiceEvent::Kind::kJobCancelled: what = "cancelled"; break;
      }
      std::fprintf(stderr, "dist: worker %llu (pid %llu) %s shard %zu\n",
                   static_cast<unsigned long long>(ev.worker_id),
                   static_cast<unsigned long long>(ev.pid), what, ev.shard);
    });
  }
  const std::optional<std::uint64_t> job = svc.submit(spec);
  if (!job) {
    std::fprintf(stderr, "cksumlab: the job service rejected the run\n");
    return 1;
  }

  std::vector<pid_t> pids;
  if (o.workers > 0) {
    const std::string exe = dist::self_exe_path();
    if (exe.empty()) {
      std::fprintf(stderr, "cksumlab: cannot locate own executable\n");
      return 1;
    }
    for (unsigned i = 0; i < o.workers; ++i) {
      std::vector<std::string> argv = {
          exe,
          "splice",
          "--connect",
          "127.0.0.1:" + std::to_string(svc.port()),
          "--worker-id",
          std::to_string(i + 1),
          "--kernel",
          std::string(alg::kern::selection_name())};
      if (!o.metrics_out.empty()) {
        argv.push_back("--metrics-out");
        argv.push_back(o.metrics_out + ".worker" + std::to_string(i + 1) +
                       ".json");
      }
      const pid_t pid = dist::spawn_process(argv);
      if (pid < 0) {
        std::fprintf(stderr, "cksumlab: cannot spawn worker %u\n", i + 1);
        return 1;
      }
      pids.push_back(pid);
    }
  } else {
    std::fprintf(stderr, "cksumlab: serving on 127.0.0.1:%u, waiting for "
                         "workers (--connect)\n",
                 svc.port());
  }

  const dist::JobReport rep = svc.wait(*job);
  svc.drain();
  for (const pid_t pid : pids) dist::wait_process(pid);
  if (rep.state != dist::JobState::kDone) {
    std::fprintf(stderr,
                 "cksumlab: distributed run aborted incomplete "
                 "(%zu shards, %zu reassigned)\n",
                 rep.report.shards, rep.report.reassigned);
    return 1;
  }
  st = rep.report.stats;
  dist_json = svc.jobs_json();
  return 0;
}

int cmd_splice(const std::vector<std::string>& args) {
  if (std::find(args.begin(), args.end(), "--connect") != args.end()) {
    const auto w = tools::parse_worker(args, "cksumlab",
                                       "cksumlab splice-worker");
    return w ? dist::run_worker(*w) : usage();
  }
  CommonOpts o;
  if (!parse_common(args, o)) return usage();
  if (!o.from_pcap.empty()) {
    std::fprintf(stderr,
                 "cksumlab: splice does not read captures directly; seal one "
                 "first with `corpus build --from-pcap`, then --corpus\n");
    return 2;
  }

  // Register every metric family up front so exported manifests carry
  // complete (if zero-valued) families, not just the ones touched.
  core::register_splice_metrics();
  faults::register_fault_metrics();
  atm::register_atm_metrics();
  alg::kern::register_kernel_metrics();
  dist::register_dist_metrics();

  const core::CorpusSource src = corpus_source(o);
  const std::string corpus_name = o.manifest.empty() ? src.corpus : o.manifest;
  const core::SpliceCorpus corpus(src);
  core::SpliceRunConfig requested;
  requested.flow = core::paper_flow_config();
  requested.flow.segment_size = o.segment;
  requested.flow.packet = o.pkt;
  requested.threads = o.threads;
  const core::SpliceRunConfig cfg = corpus.run_config(requested);
  const unsigned resolved_threads =
      o.threads != 0 ? o.threads
                     : std::max(1u, std::thread::hardware_concurrency());

  tools::RunManifest manifest(o.metrics_out, o.progress, splice_ticker_line);

  core::SpliceStats st;
  std::string dist_json;  // "dist" manifest member for --serve runs
  if (o.serve) {
    const int rc = run_distributed(o, src, corpus_name, cfg,
                                   corpus.file_count(), st, dist_json);
    if (rc != 0) return rc;
  } else {
    st = corpus.run_range(cfg, 0, corpus.file_count());
  }

  const std::string report =
      core::splice_stats_json(st, alg::name(cfg.flow.packet.transport));
  std::string members = ", \"report\": " + report;
  if (!dist_json.empty()) members += ",\n  \"dist\": " + dist_json;
  // Splice corpora are pinned by profile/scale, not seed.
  if (!manifest.finish("cksumlab splice", corpus_name, 0, resolved_threads,
                       members))
    return 1;

  if (o.json) {
    std::printf("%s\n", report.c_str());
  } else {
    print_splice_stats(st, cfg.flow.packet, o.verbose);
  }
  return 0;
}

/// `cksumlab corpus build --out <path>` / `cksumlab corpus info <path>`
/// — write and inspect the precomputed splice-corpus store
/// (docs/CORPUS.md). Build packetises a synthetic source exactly once;
/// `splice --corpus <path>` then streams it without re-checksumming.
int cmd_corpus(const std::vector<std::string>& args) {
  if (args.empty()) return usage();
  const std::string verb = args.front();

  if (verb == "info") {
    if (args.size() < 2) return usage();
    std::string err;
    const auto rd = fsgen::CorpusReader::open(args[1], &err);
    if (!rd) {
      std::fprintf(stderr, "cksumlab: corpus store %s: %s\n",
                   args[1].c_str(), err.c_str());
      return 1;
    }
    const fsgen::CorpusInfo& in = rd->info();
    std::printf("store       %s\n", args[1].c_str());
    std::printf("version     %u\n", in.version);
    std::printf("file size   %s bytes\n",
                core::fmt_count(in.file_size).c_str());
    std::printf("files       %s\n", core::fmt_count(in.files).c_str());
    std::printf("packets     %s\n", core::fmt_count(in.packets).c_str());
    std::printf("cells       %s\n", core::fmt_count(in.cells).c_str());
    std::printf("pdu bytes   %s\n", core::fmt_count(in.pdu_bytes).c_str());
    std::printf("profile     %s\n", in.params.profile.c_str());
    std::printf("scale       %g\n", in.params.scale);
    std::printf("transport   %s\n",
                std::string(alg::name(in.params.flow.packet.transport))
                    .c_str());
    std::printf("placement   %s\n",
                in.params.flow.packet.placement ==
                        net::ChecksumPlacement::kTrailer
                    ? "trailer"
                    : "header");
    std::printf("segment     %zu\n", in.params.flow.segment_size);
    std::printf("compress    %s\n", in.params.compress ? "lzw" : "off");
    return 0;
  }

  if (verb != "build") {
    std::fprintf(stderr, "unknown corpus verb '%s'\n", verb.c_str());
    return usage();
  }
  std::string out_path;
  bool compress = false;
  CommonOpts o;
  if (!parse_common(std::span(args).subspan(1), o,
                    {{"--out", &out_path}, {"--compress", &compress}}) ||
      out_path.empty())
    return usage();
  if (!o.dir.empty() || !o.corpus.empty()) {
    std::fprintf(stderr,
                 "cksumlab: corpus build wants a reproducible synthetic "
                 "source (--profile/--manifest/--from-pcap), not --dir or "
                 "--corpus\n");
    return 2;
  }
  if (!o.from_pcap.empty() && compress) {
    std::fprintf(stderr,
                 "cksumlab: --compress is a packetisation step; a capture "
                 "already carries the bytes that crossed the wire\n");
    return 2;
  }

  fsgen::CorpusBuildParams params;
  params.scale = o.scale;
  params.compress = compress;
  params.flow = core::paper_flow_config();
  params.flow.segment_size = o.segment;
  params.flow.packet = o.pkt;

  std::string err;
  bool built = false;
  if (!o.from_pcap.empty()) {
    // Capture -> ingest -> seal: real packets enter the exact store the
    // synthetic path writes, so `splice --corpus` (and --serve, and
    // faultlab) run over them bitwise-identically (docs/TRACE.md).
    trace::register_trace_metrics();
    const auto pcap = trace::PcapReader::open(o.from_pcap, &err);
    if (!pcap) {
      std::fprintf(stderr, "cksumlab: trace %s: %s\n", o.from_pcap.c_str(),
                   err.c_str());
      return 1;
    }
    trace::IngestConfig icfg;
    icfg.flow = params.flow;
    const trace::IngestResult res = trace::ingest_capture(*pcap, icfg);
    if (res.files.empty()) {
      std::fprintf(stderr,
                   "cksumlab: no complete file transfer ingested from %s "
                   "(%llu records: %llu accepted, %llu rejected) — check "
                   "--transport/--trailer/--segment against the capture\n",
                   o.from_pcap.c_str(),
                   static_cast<unsigned long long>(res.counts.records),
                   static_cast<unsigned long long>(res.counts.accepted),
                   static_cast<unsigned long long>(res.counts.rejected));
      return 1;
    }
    // Display name: the capture's basename, clipped to the header field.
    const std::size_t slash = o.from_pcap.find_last_of('/');
    params.profile =
        o.from_pcap.substr(slash == std::string::npos ? 0 : slash + 1);
    if (params.profile.size() > 64) params.profile.resize(64);
    std::fprintf(stderr, "%s: %llu records, %llu accepted, %llu rejected\n",
                 o.from_pcap.c_str(),
                 static_cast<unsigned long long>(res.counts.records),
                 static_cast<unsigned long long>(res.counts.accepted),
                 static_cast<unsigned long long>(res.counts.rejected));
    built = fsgen::build_corpus(params, res.files, out_path, &err);
  } else {
    params.profile = o.profile.empty() ? o.manifest : o.profile;
    built = fsgen::build_corpus(
        params, *core::open_filesystem(corpus_source(o)), out_path, &err);
  }
  if (!built) {
    std::fprintf(stderr, "cksumlab: corpus build failed: %s\n", err.c_str());
    return 1;
  }
  // Self-check: a store we cannot reopen and validate is not a store.
  const auto rd = fsgen::CorpusReader::open(out_path, &err);
  if (!rd) {
    std::fprintf(stderr,
                 "cksumlab: built store fails validation (%s) — removing\n",
                 err.c_str());
    std::remove(out_path.c_str());
    return 1;
  }
  std::fprintf(stderr,
               "%s: %llu files, %llu packets, %llu cells (%s bytes)\n",
               out_path.c_str(),
               static_cast<unsigned long long>(rd->info().files),
               static_cast<unsigned long long>(rd->info().packets),
               static_cast<unsigned long long>(rd->info().cells),
               core::fmt_count(rd->info().file_size).c_str());
  return 0;
}

int cmd_dist(const std::vector<std::string>& args) {
  CommonOpts o;
  if (!parse_common(args, o) || !o.from_pcap.empty()) return usage();
  core::CellStatsConfig cfg;
  cfg.ks = {1, 2, 4};
  cfg.segment_size = o.segment;

  core::CellStatsCollector stats =
      !o.profile.empty()
          ? core::collect_cell_stats(fsgen::profile(o.profile), o.scale, cfg)
          : core::collect_directory_stats(o.dir, cfg);

  const auto& h = stats.tcp_cells();
  std::printf("cells                 %s\n",
              core::fmt_count(stats.cells_seen()).c_str());
  std::printf("most common checksum  0x%04x (%s%% of cells)\n", h.mode(),
              core::fmt_pct(h.pmax()).c_str());
  std::printf("top 0.1%% of values    %s%% of cells\n",
              core::fmt_pct(h.top_fraction_mass(0.001)).c_str());
  std::printf("entropy               %.2f bits of 16\n", h.entropy_bits());
  std::printf("uniformity p-value    %.3e\n", stats::uniformity_p_value(h));
  std::printf("P[2 cells congruent]  %s%%   (uniform 0.0015%%)\n",
              core::fmt_pct(h.match_probability()).c_str());
  const auto& lc = stats.local(2);
  std::printf("local 2-block match   %s%%, excluding identical %s%%\n",
              core::fmt_pct(lc.p_congruent()).c_str(),
              core::fmt_pct(lc.p_congruent_excluding_identical()).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  // Kernel selection is handled before the subcommand is even looked
  // at, so `cksumlab --kernel list` works bare and a bad --kernel (or
  // CKSUM_KERNEL) fails fast on every subcommand alike.
  std::vector<std::string> args(argv + 1, argv + argc);
  const int krc = tools::apply_kernel_args(args, "cksumlab");
  if (krc != 0) return krc == 1 ? 0 : 2;
  if (args.empty()) return usage();
  const std::string cmd = args.front();
  args.erase(args.begin());
  try {
    if (cmd == "sum") return cmd_sum(args);
    if (cmd == "profiles") return cmd_profiles();
    if (cmd == "gen") return cmd_gen(args);
    if (cmd == "manifest") return cmd_manifest(args);
    if (cmd == "pcap") return cmd_pcap(args);
    if (cmd == "trace") return cmd_trace(args);
    if (cmd == "splice") return cmd_splice(args);
    if (cmd == "corpus") return cmd_corpus(args);
    if (cmd == "dist") return cmd_dist(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cksumlab: %s\n", e.what());
    return 1;
  }
  return usage();
}
