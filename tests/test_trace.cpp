// Trace-lab conformance tier (docs/TRACE.md): util::PcapWriter and
// trace::PcapReader must round-trip captures on both supported link
// types, the reader must reject every corrupted capture with a
// targeted reason (never by faulting), and a capture of a synthetic
// flow must ingest into SimPackets — and a sealed corpus — bitwise
// identical to the in-memory packetisation path.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "core/experiments.hpp"
#include "core/report.hpp"
#include "core/splice_sim.hpp"
#include "fsgen/corpus_store.hpp"
#include "fsgen/profile.hpp"
#include "net/flow.hpp"
#include "trace/ingest.hpp"
#include "trace/pcap_reader.hpp"
#include "trace/profile.hpp"
#include "util/pcap.hpp"

namespace cksum {
namespace {

void append_le32(util::Bytes& b, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    b.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void append_be32(util::Bytes& b, std::uint32_t v) {
  for (int i = 3; i >= 0; --i)
    b.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void append_le16(util::Bytes& b, std::uint16_t v) {
  b.push_back(static_cast<std::uint8_t>(v));
  b.push_back(static_cast<std::uint8_t>(v >> 8));
}

void append_be16(util::Bytes& b, std::uint16_t v) {
  b.push_back(static_cast<std::uint8_t>(v >> 8));
  b.push_back(static_cast<std::uint8_t>(v));
}

/// Hand-built native-order global header (magic 0xa1b2c3d4, v2.4).
util::Bytes native_header(std::uint32_t snaplen = 65535,
                          std::uint32_t linktype = trace::kLinkRaw) {
  util::Bytes b;
  append_le32(b, 0xa1b2c3d4u);
  append_le16(b, 2);
  append_le16(b, 4);
  append_le32(b, 0);  // thiszone
  append_le32(b, 0);  // sigfigs
  append_le32(b, snaplen);
  append_le32(b, linktype);
  return b;
}

void append_record(util::Bytes& b, util::ByteView payload,
                   std::uint32_t original_len) {
  append_le32(b, 0);  // ts_sec
  append_le32(b, 0);  // ts_frac
  append_le32(b, static_cast<std::uint32_t>(payload.size()));
  append_le32(b, original_len);
  b.insert(b.end(), payload.begin(), payload.end());
}

/// Capture every segment of every file of `fs` under `flow`, the same
/// loop `cksumlab pcap` runs.
util::Bytes capture_filesystem(const fsgen::Filesystem& fs,
                               const net::FlowConfig& flow,
                               util::PcapLink link) {
  std::ostringstream os;
  util::PcapWriter w(os, link);
  for (std::size_t f = 0; f < fs.file_count(); ++f) {
    const util::Bytes file = fs.file(f);
    for (const auto& p : net::segment_file(flow, util::ByteView(file)))
      EXPECT_TRUE(w.write_packet(p.ip_bytes()));
  }
  EXPECT_TRUE(w.ok());
  const std::string s = os.str();
  return util::Bytes(s.begin(), s.end());
}

util::Bytes read_all(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return util::Bytes(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

std::string parse_error(util::Bytes capture) {
  std::string err;
  const auto r = trace::PcapReader::parse(std::move(capture), &err);
  EXPECT_EQ(r, nullptr);
  return err;
}

// ---------------------------------------------------------------------------
// Writer -> reader round trip.
// ---------------------------------------------------------------------------

TEST(PcapRoundTrip, RawLink) {
  const net::FlowConfig flow = core::paper_flow_config();
  const util::Bytes file = fsgen::generate_file(
      fsgen::kAllKinds[0], /*seed=*/7, /*size=*/1500);
  const auto pkts = net::segment_file(flow, util::ByteView(file));
  ASSERT_GT(pkts.size(), 1u);

  std::ostringstream os;
  util::PcapWriter w(os, util::PcapLink::kRaw);
  for (const auto& p : pkts) ASSERT_TRUE(w.write_packet(p.ip_bytes()));
  EXPECT_EQ(w.packets_written(), pkts.size());

  const std::string s = os.str();
  std::string err;
  const auto r =
      trace::PcapReader::parse(util::Bytes(s.begin(), s.end()), &err);
  ASSERT_NE(r, nullptr) << err;
  EXPECT_EQ(r->info().linktype, trace::kLinkRaw);
  EXPECT_FALSE(r->info().swapped);
  EXPECT_EQ(r->info().records, pkts.size());
  EXPECT_EQ(r->info().datagrams, pkts.size());
  EXPECT_EQ(r->info().truncated, 0u);
  for (std::size_t i = 0; i < pkts.size(); ++i) {
    const trace::TraceRecord& rec = r->record(i);
    EXPECT_EQ(rec.cls, trace::RecordClass::kDatagram);
    EXPECT_FALSE(rec.truncated);
    const util::ByteView want = pkts[i].ip_bytes();
    ASSERT_EQ(rec.datagram.size(), want.size());
    EXPECT_EQ(0, std::memcmp(rec.datagram.data(), want.data(), want.size()));
  }
}

TEST(PcapRoundTrip, EthernetLink) {
  const net::FlowConfig flow = core::paper_flow_config();
  const util::Bytes file = fsgen::generate_file(
      fsgen::kAllKinds[0], /*seed=*/9, /*size=*/900);
  const auto pkts = net::segment_file(flow, util::ByteView(file));
  ASSERT_FALSE(pkts.empty());

  std::ostringstream os;
  util::PcapWriter w(os, util::PcapLink::kEthernet);
  for (const auto& p : pkts) ASSERT_TRUE(w.write_packet(p.ip_bytes()));

  const std::string s = os.str();
  std::string err;
  const auto r =
      trace::PcapReader::parse(util::Bytes(s.begin(), s.end()), &err);
  ASSERT_NE(r, nullptr) << err;
  EXPECT_EQ(r->info().linktype, trace::kLinkEthernet);
  EXPECT_EQ(r->info().datagrams, pkts.size());
  for (std::size_t i = 0; i < pkts.size(); ++i) {
    const trace::TraceRecord& rec = r->record(i);
    ASSERT_EQ(rec.cls, trace::RecordClass::kDatagram);
    // 14-byte Ethernet II header precedes the datagram.
    EXPECT_EQ(rec.frame.size(), pkts[i].ip_bytes().size() + 14);
    ASSERT_EQ(rec.datagram.size(), pkts[i].ip_bytes().size());
    EXPECT_EQ(0, std::memcmp(rec.datagram.data(), pkts[i].ip_bytes().data(),
                             rec.datagram.size()));
  }
}

TEST(PcapRoundTrip, EmptyCapture) {
  std::ostringstream os;
  util::PcapWriter w(os);
  EXPECT_EQ(w.packets_written(), 0u);
  const std::string s = os.str();
  EXPECT_EQ(s.size(), 24u);
  std::string err;
  const auto r =
      trace::PcapReader::parse(util::Bytes(s.begin(), s.end()), &err);
  ASSERT_NE(r, nullptr) << err;
  EXPECT_EQ(r->info().records, 0u);
  EXPECT_EQ(r->record_count(), 0u);
}

TEST(PcapRoundTrip, ByteSwappedCapture) {
  // A capture written on a big-endian host: every header field in
  // big-endian order under the swapped-magic signature.
  util::Bytes b;
  append_be32(b, 0xa1b2c3d4u);  // reads back as 0xd4c3b2a1 -> swapped
  append_be16(b, 2);
  append_be16(b, 4);
  append_be32(b, 0);
  append_be32(b, 0);
  append_be32(b, 65535);
  append_be32(b, trace::kLinkRaw);
  const util::Bytes payload = {0x45, 0x00, 0x00, 0x04};
  append_be32(b, 11);  // ts_sec
  append_be32(b, 22);  // ts_frac
  append_be32(b, static_cast<std::uint32_t>(payload.size()));
  append_be32(b, static_cast<std::uint32_t>(payload.size()));
  b.insert(b.end(), payload.begin(), payload.end());

  std::string err;
  const auto r = trace::PcapReader::parse(std::move(b), &err);
  ASSERT_NE(r, nullptr) << err;
  EXPECT_TRUE(r->info().swapped);
  EXPECT_EQ(r->info().snaplen, 65535u);
  EXPECT_EQ(r->info().linktype, trace::kLinkRaw);
  ASSERT_EQ(r->record_count(), 1u);
  EXPECT_EQ(r->record(0).ts_sec, 11u);
  EXPECT_EQ(r->record(0).ts_frac, 22u);
  EXPECT_EQ(r->record(0).captured_len, 4u);
}

TEST(PcapRoundTrip, NanosecondMagic) {
  util::Bytes b = native_header();
  b[3] = 0xa1; b[2] = 0xb2; b[1] = 0x3c; b[0] = 0x4d;  // 0xa1b23c4d LE
  std::string err;
  const auto r = trace::PcapReader::parse(std::move(b), &err);
  ASSERT_NE(r, nullptr) << err;
  EXPECT_TRUE(r->info().nanos);
  EXPECT_FALSE(r->info().swapped);
}

TEST(PcapRoundTrip, SnapTruncationSurfacedPerRecord) {
  util::Bytes b = native_header();
  const util::Bytes payload(40, 0xaa);
  append_record(b, util::ByteView(payload), /*original_len=*/1500);
  std::string err;
  const auto r = trace::PcapReader::parse(std::move(b), &err);
  ASSERT_NE(r, nullptr) << err;
  ASSERT_EQ(r->record_count(), 1u);
  EXPECT_TRUE(r->record(0).truncated);
  EXPECT_EQ(r->info().truncated, 1u);
}

TEST(PcapRoundTrip, EthernetClassification) {
  util::Bytes b = native_header(65535, trace::kLinkEthernet);
  // Record 0: frame shorter than the 14-byte Ethernet header.
  const util::Bytes runt(8, 0x55);
  append_record(b, util::ByteView(runt), 8);
  // Record 1: ARP ethertype (0x0806) — not an IPv4 datagram.
  util::Bytes arp(20, 0x00);
  arp[12] = 0x08;
  arp[13] = 0x06;
  append_record(b, util::ByteView(arp), 20);
  std::string err;
  const auto r = trace::PcapReader::parse(std::move(b), &err);
  ASSERT_NE(r, nullptr) << err;
  ASSERT_EQ(r->record_count(), 2u);
  EXPECT_EQ(r->record(0).cls, trace::RecordClass::kLinkTooShort);
  EXPECT_EQ(r->record(1).cls, trace::RecordClass::kNonIpv4);
  EXPECT_EQ(r->info().datagrams, 0u);
}

// ---------------------------------------------------------------------------
// Corruption matrix: every malformed capture is diagnosed, not crashed
// on, and the reason names the violated invariant.
// ---------------------------------------------------------------------------

TEST(PcapCorruption, TruncatedGlobalHeader) {
  util::Bytes b = native_header();
  b.resize(10);
  EXPECT_NE(parse_error(std::move(b)).find("shorter than the pcap global"),
            std::string::npos);
  EXPECT_NE(parse_error(util::Bytes{}).find("shorter than the pcap global"),
            std::string::npos);
}

TEST(PcapCorruption, BadMagic) {
  util::Bytes b = native_header();
  b[0] = 0xde;
  const std::string err = parse_error(std::move(b));
  EXPECT_NE(err.find("bad magic"), std::string::npos);
  EXPECT_NE(err.find("not a classic pcap capture"), std::string::npos);
}

TEST(PcapCorruption, UnsupportedVersion) {
  util::Bytes b = native_header();
  b[4] = 3;  // version_major
  EXPECT_NE(parse_error(std::move(b)).find("unsupported pcap version 3"),
            std::string::npos);
}

TEST(PcapCorruption, AbsurdSnaplen) {
  util::Bytes zero = native_header(0);
  EXPECT_NE(parse_error(std::move(zero)).find("absurd snap length 0"),
            std::string::npos);
  util::Bytes huge = native_header(1u << 21);
  EXPECT_NE(parse_error(std::move(huge)).find("absurd snap length"),
            std::string::npos);
}

TEST(PcapCorruption, UnsupportedLinkType) {
  util::Bytes b = native_header(65535, /*linktype=*/147);
  EXPECT_NE(parse_error(std::move(b)).find("unsupported link type 147"),
            std::string::npos);
}

TEST(PcapCorruption, TruncatedRecordHeader) {
  util::Bytes b = native_header();
  const util::Bytes payload(4, 0x11);
  append_record(b, util::ByteView(payload), 4);
  b.resize(b.size() + 7);  // 7 stray bytes: a second header cut short
  const std::string err = parse_error(std::move(b));
  EXPECT_NE(err.find("truncated record header (record 1"), std::string::npos);
  EXPECT_NE(err.find("7 of 16 bytes"), std::string::npos);
}

TEST(PcapCorruption, CapturedExceedsSnaplen) {
  util::Bytes b = native_header(/*snaplen=*/64);
  const util::Bytes payload(100, 0x22);
  append_record(b, util::ByteView(payload), 100);
  const std::string err = parse_error(std::move(b));
  EXPECT_NE(err.find("captured length 100 exceeds the snap length 64"),
            std::string::npos);
}

TEST(PcapCorruption, MidRecordEof) {
  util::Bytes b = native_header();
  const util::Bytes payload(64, 0x33);
  append_record(b, util::ByteView(payload), 64);
  b.resize(b.size() - 10);  // cut the record body short
  const std::string err = parse_error(std::move(b));
  EXPECT_NE(err.find("mid-record EOF"), std::string::npos);
  EXPECT_NE(err.find("promises 64 bytes, 54 remain"), std::string::npos);
}

TEST(PcapCorruption, OriginalShorterThanCaptured) {
  util::Bytes b = native_header();
  const util::Bytes payload(32, 0x44);
  append_record(b, util::ByteView(payload), /*original_len=*/16);
  EXPECT_NE(parse_error(std::move(b)).find("shorter than captured"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// PcapWriter failure accounting (the packets_written contract).
// ---------------------------------------------------------------------------

TEST(PcapWriterGuard, DeadStreamWritesNothing) {
  std::ostringstream os;
  os.setstate(std::ios::badbit);
  util::PcapWriter w(os);
  EXPECT_FALSE(w.ok());
  const util::Bytes pkt(40, 0x45);
  EXPECT_FALSE(w.write_packet(util::ByteView(pkt)));
  EXPECT_EQ(w.packets_written(), 0u);
}

TEST(PcapWriterGuard, MidStreamFailureStopsTheCount) {
  std::ostringstream os;
  util::PcapWriter w(os);
  const util::Bytes pkt(40, 0x45);
  ASSERT_TRUE(w.write_packet(util::ByteView(pkt)));
  EXPECT_EQ(w.packets_written(), 1u);
  // The sink dies; packets_written must not over-report what landed.
  os.setstate(std::ios::badbit);
  EXPECT_FALSE(w.write_packet(util::ByteView(pkt)));
  EXPECT_FALSE(w.write_packet(util::ByteView(pkt)));  // failure is sticky
  EXPECT_EQ(w.packets_written(), 1u);
  EXPECT_FALSE(w.ok());
}

// ---------------------------------------------------------------------------
// Ingest: capture -> PDU model, bitwise-equal to the in-memory path.
// ---------------------------------------------------------------------------

TEST(Ingest, CaptureMatchesPacketizeFile) {
  const net::FlowConfig flow = core::paper_flow_config();
  const fsgen::Filesystem fs(fsgen::profile("nsc05"), 0.05);
  util::Bytes cap =
      capture_filesystem(fs, flow, util::PcapLink::kEthernet);
  std::string err;
  const auto r = trace::PcapReader::parse(std::move(cap), &err);
  ASSERT_NE(r, nullptr) << err;

  trace::IngestConfig icfg;
  icfg.flow = flow;
  const trace::IngestResult res = trace::ingest_capture(*r, icfg);
  EXPECT_EQ(res.counts.records, r->info().records);
  EXPECT_EQ(res.counts.rejected, 0u);
  EXPECT_EQ(res.counts.accepted, r->info().records);
  ASSERT_EQ(res.files.size(), fs.file_count());

  // Sealing both sides must produce byte-identical stores: the
  // capture-ingested SimPackets carry exactly what packetize_file
  // computes, and build_corpus persists nothing else.
  fsgen::CorpusBuildParams params;
  params.profile = "parity";
  params.scale = 0.05;
  params.flow = flow;
  const std::string mem_path = "trace_parity_mem.ckcorp";
  const std::string cap_path = "trace_parity_cap.ckcorp";
  ASSERT_TRUE(fsgen::build_corpus(params, fs, mem_path, &err)) << err;
  ASSERT_TRUE(fsgen::build_corpus(params, res.files, cap_path, &err)) << err;
  const util::Bytes a = read_all(mem_path);
  const util::Bytes b = read_all(cap_path);
  std::remove(mem_path.c_str());
  std::remove(cap_path.c_str());
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a, b);
}

TEST(Ingest, SpliceReportParity) {
  const net::FlowConfig flow = core::paper_flow_config();
  const fsgen::Filesystem fs(fsgen::profile("nsc05"), 0.05);
  util::Bytes cap = capture_filesystem(fs, flow, util::PcapLink::kRaw);
  std::string err;
  const auto r = trace::PcapReader::parse(std::move(cap), &err);
  ASSERT_NE(r, nullptr) << err;
  trace::IngestConfig icfg;
  icfg.flow = flow;
  const trace::IngestResult res = trace::ingest_capture(*r, icfg);

  fsgen::CorpusBuildParams params;
  params.profile = "parity";
  params.scale = 0.05;
  params.flow = flow;
  const std::string path = "trace_splice_parity.ckcorp";
  ASSERT_TRUE(fsgen::build_corpus(params, res.files, path, &err)) << err;
  const auto store = fsgen::CorpusReader::open(path, &err);
  ASSERT_NE(store, nullptr) << err;
  // Readahead is advisory; asking for everything up front must not
  // perturb the result (run_corpus_range calls it per lease anyway).
  store->advise_will_need(0, store->file_count());

  core::SpliceRunConfig cfg;
  cfg.flow = flow;
  cfg.threads = 1;
  const core::SpliceStats mem = core::run_filesystem(cfg, fs);
  const core::SpliceStats streamed =
      core::run_corpus_range(cfg, *store, 0, store->file_count());
  std::remove(path.c_str());
  EXPECT_EQ(core::splice_stats_json(mem, "tcp"),
            core::splice_stats_json(streamed, "tcp"));
}

TEST(Ingest, OrphanBeforeFirstFlowStart) {
  const net::FlowConfig flow = core::paper_flow_config();
  const util::Bytes file = fsgen::generate_file(
      fsgen::kAllKinds[0], /*seed=*/3, /*size=*/1200);
  const auto pkts = net::segment_file(flow, util::ByteView(file));
  ASSERT_GT(pkts.size(), 2u);
  // Capture joins the flow mid-transfer: the first datagram carries a
  // non-initial sequence number and has no file to belong to.
  util::Bytes b = native_header();
  for (std::size_t i = 1; i < pkts.size(); ++i)
    append_record(b, pkts[i].ip_bytes(),
                  static_cast<std::uint32_t>(pkts[i].ip_bytes().size()));
  std::string err;
  const auto r = trace::PcapReader::parse(std::move(b), &err);
  ASSERT_NE(r, nullptr) << err;
  trace::IngestConfig icfg;
  icfg.flow = flow;
  const trace::IngestResult res = trace::ingest_capture(*r, icfg);
  EXPECT_EQ(res.counts.orphan, pkts.size() - 1);
  EXPECT_EQ(res.counts.accepted, 0u);
  EXPECT_TRUE(res.files.empty());
  EXPECT_EQ(res.counts.records,
            res.counts.accepted + res.counts.rejected);
}

TEST(Ingest, RejectsCorruptedChecksumAndTruncatedRecords) {
  const net::FlowConfig flow = core::paper_flow_config();
  const util::Bytes file = fsgen::generate_file(
      fsgen::kAllKinds[0], /*seed=*/5, /*size=*/700);
  const auto pkts = net::segment_file(flow, util::ByteView(file));
  ASSERT_GT(pkts.size(), 1u);
  util::Bytes b = native_header();
  // Record 0: intact flow start.
  append_record(b, pkts[0].ip_bytes(),
                static_cast<std::uint32_t>(pkts[0].ip_bytes().size()));
  // Record 1: one payload byte flipped — the transport checksum no
  // longer verifies.
  util::Bytes bad(pkts[1].ip_bytes().begin(), pkts[1].ip_bytes().end());
  bad[45] ^= 0x01;
  append_record(b, util::ByteView(bad),
                static_cast<std::uint32_t>(bad.size()));
  // Record 2: snap-length-cut copy of the same packet.
  append_record(b, pkts[1].ip_bytes().subspan(0, 40),
                static_cast<std::uint32_t>(pkts[1].ip_bytes().size()));
  std::string err;
  const auto r = trace::PcapReader::parse(std::move(b), &err);
  ASSERT_NE(r, nullptr) << err;
  trace::IngestConfig icfg;
  icfg.flow = flow;
  const trace::IngestResult res = trace::ingest_capture(*r, icfg);
  EXPECT_EQ(res.counts.accepted, 1u);
  EXPECT_EQ(res.counts.checksum_fail, 1u);
  EXPECT_EQ(res.counts.truncated, 1u);
  EXPECT_EQ(res.counts.records,
            res.counts.accepted + res.counts.rejected);
  ASSERT_EQ(res.files.size(), 1u);
  EXPECT_EQ(res.files[0].size(), 1u);
}

// ---------------------------------------------------------------------------
// Data profile.
// ---------------------------------------------------------------------------

TEST(DataProfile, CountsRunsWordsAndCells) {
  trace::DataProfile prof;
  util::Bytes payload(100, 0x00);
  payload.insert(payload.end(), 4, 0xFF);
  payload.push_back('a');
  payload.push_back('b');
  prof.add_payload(util::ByteView(payload));

  EXPECT_EQ(prof.bytes(), 106u);
  EXPECT_EQ(prof.zero_runs().runs, 1u);
  EXPECT_EQ(prof.zero_runs().max_run, 100u);
  EXPECT_EQ(prof.ff_runs().runs, 1u);
  EXPECT_EQ(prof.ff_runs().max_run, 4u);
  EXPECT_NEAR(prof.byte_fraction(0x00), 100.0 / 106.0, 1e-12);
  // 53 non-overlapping big-endian words; the first 50 are 0x0000.
  EXPECT_EQ(prof.word_values().count(0x0000), 50u);
  EXPECT_EQ(prof.word_values().count(0xFFFF), 2u);
  // Two full 48-byte cells (the 10-byte tail is skipped); both lie in
  // the first 100 zero bytes, so both land in congruence class 0.
  EXPECT_EQ(prof.cells(), 2u);
  EXPECT_EQ(prof.cell_checksums().count(0), 2u);
  // Runs do not continue across packets.
  prof.add_payload(util::ByteView(payload));
  EXPECT_EQ(prof.zero_runs().runs, 2u);
  EXPECT_EQ(prof.zero_runs().max_run, 100u);
}

TEST(DataProfile, JsonIsWellFormedAndComplete) {
  trace::DataProfile prof;
  const util::Bytes payload(96, 0x5a);
  prof.add_payload(util::ByteView(payload));
  const std::string j = prof.json();
  for (const char* key :
       {"\"bytes\"", "\"byte_entropy_bits\"", "\"word_entropy_bits\"",
        "\"zero_fraction\"", "\"zero_runs\"", "\"max_zero_run\"",
        "\"ff_runs\"", "\"max_ff_run\"", "\"cells\"",
        "\"cell_entropy_bits\"", "\"cell_pmax\"", "\"cell_mode\""})
    EXPECT_NE(j.find(key), std::string::npos) << key;
  EXPECT_NE(j.find("\"bytes\": 96"), std::string::npos);
  EXPECT_NE(j.find("\"cells\": 2"), std::string::npos);
}

}  // namespace
}  // namespace cksum
