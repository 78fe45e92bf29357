#include "fsgen/corpus_store.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <bit>
#include <cstdio>
#include <cstring>

#include "checksum/kernels/kernel.hpp"
#include "compress/lzw.hpp"
#include "obs/registry.hpp"

namespace cksum::fsgen {

namespace {

/// Native-endian on-disk header. Zero-initialised before filling so
/// padding bytes are deterministic (the header CRC covers them).
struct CorpusHeader {
  char magic[8];
  std::uint32_t endian_tag;
  std::uint32_t version;
  std::uint64_t total_size;  ///< whole-file byte count
  std::uint32_t header_crc;  ///< crc32 of this struct, field zeroed
  std::uint32_t seal_crc;    ///< crc32 of bytes [sizeof(header), total_size)
  std::uint32_t section_count;
  std::uint32_t flags;
  std::uint64_t files;
  std::uint64_t packets;
  std::uint64_t cells;
  // Build params.
  std::uint64_t scale_bits;  ///< bit pattern of the double
  std::uint32_t segment_size;
  std::uint32_t initial_seq;
  std::uint16_t initial_ip_id;
  std::uint8_t transport;
  std::uint8_t placement;
  std::uint8_t invert_checksum;
  std::uint8_t fill_ip_header;
  std::uint8_t legacy95_headers;
  std::uint8_t compress;
  std::uint32_t src_addr;
  std::uint32_t dst_addr;
  std::uint16_t src_port;
  std::uint16_t dst_port;
  std::uint16_t window;
  std::uint16_t profile_len;
  char profile[64];
};
static_assert(sizeof(CorpusHeader) == 168);

constexpr std::uint32_t kSectionCount = 5;

constexpr std::uint64_t align_up(std::uint64_t v) {
  return (v + kCorpusAlign - 1) & ~static_cast<std::uint64_t>(kCorpusAlign - 1);
}

std::uint32_t crc_of(const void* p, std::size_t n) {
  return alg::kern::crc32(
      util::ByteView(static_cast<const std::uint8_t*>(p), n));
}

void fail(std::string* error, std::string why) {
  if (error != nullptr) *error = std::move(why);
}

// ---------------------------------------------------------------------------
// Writer.
// ---------------------------------------------------------------------------

/// The sections of a store under construction. Every build source
/// (synthetic filesystem, capture-ingested SimPackets) flattens
/// through the same add_file, so the sealed bytes are identical for
/// identical packets regardless of where they came from.
struct FlatCorpus {
  std::vector<CorpusFileRec> files;
  std::vector<StoredPacket> packets;
  std::vector<core::CellPartial> cells;
  std::vector<std::uint8_t> hdr_ok, pdu_bytes;

  void add_file(const std::vector<core::SimPacket>& pkts) {
    files.push_back({packets.size(), pkts.size()});
    for (const core::SimPacket& sp : pkts) {
      packets.push_back({cells.size(), hdr_ok.size(), pdu_bytes.size(),
                         static_cast<std::uint32_t>(sp.cells.size()), 0, sp});
      cells.insert(cells.end(), sp.cells.begin(), sp.cells.end());
      hdr_ok.insert(hdr_ok.end(), sp.hdr_ok_self.begin(),
                    sp.hdr_ok_self.end());
      const util::ByteView pb = sp.pdu.bytes();
      pdu_bytes.insert(pdu_bytes.end(), pb.begin(), pb.end());
    }
  }
};

bool write_corpus(const CorpusBuildParams& params, const FlatCorpus& flat,
                  const std::string& path, std::string* error) {
  if (params.profile.size() > sizeof(CorpusHeader{}.profile)) {
    fail(error, "profile name too long (max 64 bytes)");
    return false;
  }
  const auto& [files, packets, cells, hdr_ok, pdu_bytes] = flat;

  // Layout: header, section table, then each section 64-byte aligned.
  struct Sect {
    CorpusSection kind;
    const void* data;
    std::uint64_t size;
  };
  const Sect sects[kSectionCount] = {
      {CorpusSection::kFiles, files.data(), files.size() * sizeof(files[0])},
      {CorpusSection::kPackets, packets.data(),
       packets.size() * sizeof(packets[0])},
      {CorpusSection::kCells, cells.data(), cells.size() * sizeof(cells[0])},
      {CorpusSection::kHdrOk, hdr_ok.data(), hdr_ok.size()},
      {CorpusSection::kPduBytes, pdu_bytes.data(), pdu_bytes.size()},
  };

  const std::uint64_t table_off = sizeof(CorpusHeader);
  const std::uint64_t table_end =
      table_off + kSectionCount * sizeof(CorpusSectionRec);
  CorpusSectionRec table[kSectionCount];
  std::uint64_t off = align_up(table_end);
  for (std::uint32_t s = 0; s < kSectionCount; ++s) {
    table[s] = {static_cast<std::uint32_t>(sects[s].kind), 0, off,
                sects[s].size};
    off = align_up(off + sects[s].size);
  }
  const std::uint64_t total = off;

  // Assemble the body (everything after the header) so the seal CRC
  // is one pass, then fill the header last.
  util::Bytes body(total - sizeof(CorpusHeader), 0);
  std::memcpy(body.data(), table, sizeof(table));
  for (std::uint32_t s = 0; s < kSectionCount; ++s) {
    if (sects[s].size != 0) {
      std::memcpy(body.data() + (table[s].offset - sizeof(CorpusHeader)),
                  sects[s].data, sects[s].size);
    }
  }

  CorpusHeader hdr;
  std::memset(&hdr, 0, sizeof(hdr));
  std::memcpy(hdr.magic, kCorpusMagic, sizeof(kCorpusMagic));
  hdr.endian_tag = kCorpusEndianTag;
  hdr.version = kCorpusVersion;
  hdr.total_size = total;
  hdr.section_count = kSectionCount;
  hdr.files = files.size();
  hdr.packets = packets.size();
  hdr.cells = cells.size();
  hdr.scale_bits = std::bit_cast<std::uint64_t>(params.scale);
  hdr.segment_size = static_cast<std::uint32_t>(params.flow.segment_size);
  hdr.initial_seq = params.flow.initial_seq;
  hdr.initial_ip_id = params.flow.initial_ip_id;
  hdr.transport = static_cast<std::uint8_t>(params.flow.packet.transport);
  hdr.placement = static_cast<std::uint8_t>(params.flow.packet.placement);
  hdr.invert_checksum = params.flow.packet.invert_checksum ? 1 : 0;
  hdr.fill_ip_header = params.flow.packet.fill_ip_header ? 1 : 0;
  hdr.legacy95_headers = params.flow.packet.legacy95_headers ? 1 : 0;
  hdr.compress = params.compress ? 1 : 0;
  hdr.src_addr = params.flow.packet.src_addr;
  hdr.dst_addr = params.flow.packet.dst_addr;
  hdr.src_port = params.flow.packet.src_port;
  hdr.dst_port = params.flow.packet.dst_port;
  hdr.window = params.flow.packet.window;
  hdr.profile_len = static_cast<std::uint16_t>(params.profile.size());
  std::memcpy(hdr.profile, params.profile.data(), params.profile.size());
  hdr.seal_crc = crc_of(body.data(), body.size());
  hdr.header_crc = 0;
  hdr.header_crc = crc_of(&hdr, sizeof(hdr));

  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    fail(error, "cannot open output file " + path);
    return false;
  }
  const bool ok = std::fwrite(&hdr, sizeof(hdr), 1, f) == 1 &&
                  (body.empty() ||
                   std::fwrite(body.data(), body.size(), 1, f) == 1) &&
                  std::fclose(f) == 0;
  if (!ok) {
    fail(error, "write failed for " + path);
    std::remove(path.c_str());
    return false;
  }
  return true;
}

}  // namespace

bool build_corpus(const CorpusBuildParams& params, const Filesystem& fs,
                  const std::string& path, std::string* error) {
  // Gather: run the packetiser once over every file and flatten the
  // results into the sections.
  FlatCorpus flat;
  flat.files.reserve(fs.file_count());
  for (std::size_t i = 0; i < fs.file_count(); ++i) {
    util::Bytes data = fs.file(i);
    if (params.compress) data = compress::lzw_compress(util::ByteView(data));
    flat.add_file(core::packetize_file(params.flow, util::ByteView(data)));
  }
  return write_corpus(params, flat, path, error);
}

bool build_corpus(const CorpusBuildParams& params,
                  const std::vector<std::vector<core::SimPacket>>& files,
                  const std::string& path, std::string* error) {
  FlatCorpus flat;
  flat.files.reserve(files.size());
  for (const auto& pkts : files) flat.add_file(pkts);
  return write_corpus(params, flat, path, error);
}

// ---------------------------------------------------------------------------
// Reader.
// ---------------------------------------------------------------------------

CorpusReader::~CorpusReader() {
  if (base_ != nullptr)
    ::munmap(const_cast<std::uint8_t*>(base_), map_len_);
}

std::unique_ptr<CorpusReader> CorpusReader::open(const std::string& path,
                                                 std::string* error) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    fail(error, "cannot open " + path);
    return nullptr;
  }
  struct stat st{};
  if (::fstat(fd, &st) != 0 || st.st_size < 0) {
    ::close(fd);
    fail(error, "cannot stat " + path);
    return nullptr;
  }
  const std::size_t len = static_cast<std::size_t>(st.st_size);
  if (len < sizeof(CorpusHeader)) {
    ::close(fd);
    fail(error, "truncated file: shorter than the corpus header");
    return nullptr;
  }
  void* map = ::mmap(nullptr, len, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);
  if (map == MAP_FAILED) {
    fail(error, "mmap failed for " + path);
    return nullptr;
  }

  auto r = std::unique_ptr<CorpusReader>(new CorpusReader());
  r->base_ = static_cast<const std::uint8_t*>(map);
  r->map_len_ = len;
  const std::uint8_t* base = r->base_;

  CorpusHeader hdr;
  std::memcpy(&hdr, base, sizeof(hdr));
  if (std::memcmp(hdr.magic, kCorpusMagic, sizeof(kCorpusMagic)) != 0) {
    fail(error, "bad magic: not a corpus store");
    return nullptr;
  }
  if (hdr.endian_tag != kCorpusEndianTag) {
    std::uint32_t swapped = kCorpusEndianTag;
    swapped = __builtin_bswap32(swapped);
    fail(error, hdr.endian_tag == swapped
                    ? "endianness mismatch: built on a foreign-endian host"
                    : "bad endian tag");
    return nullptr;
  }
  if (hdr.version != kCorpusVersion) {
    fail(error, "unsupported corpus version " + std::to_string(hdr.version) +
                    " (expected " + std::to_string(kCorpusVersion) + ")");
    return nullptr;
  }
  {
    CorpusHeader check = hdr;
    check.header_crc = 0;
    if (crc_of(&check, sizeof(check)) != hdr.header_crc) {
      fail(error, "header checksum mismatch");
      return nullptr;
    }
  }
  if (hdr.total_size != len) {
    fail(error, "truncated file: header records " +
                    std::to_string(hdr.total_size) + " bytes, file has " +
                    std::to_string(len));
    return nullptr;
  }
  if (hdr.section_count != kSectionCount) {
    fail(error, "unexpected section count " +
                    std::to_string(hdr.section_count));
    return nullptr;
  }
  const std::uint64_t table_end =
      sizeof(CorpusHeader) + kSectionCount * sizeof(CorpusSectionRec);
  if (table_end > len) {
    fail(error, "truncated file: section table out of bounds");
    return nullptr;
  }
  if (crc_of(base + sizeof(CorpusHeader), len - sizeof(CorpusHeader)) !=
      hdr.seal_crc) {
    fail(error, "body seal checksum mismatch");
    return nullptr;
  }
  if (hdr.profile_len > sizeof(hdr.profile)) {
    fail(error, "corrupt profile name length");
    return nullptr;
  }

  // Section table: every expected kind exactly once, aligned, in
  // bounds, with a size consistent with the header's counts.
  CorpusSectionRec table[kSectionCount];
  std::memcpy(table, base + sizeof(CorpusHeader), sizeof(table));
  const std::uint64_t expect_size[kSectionCount] = {
      hdr.files * sizeof(CorpusFileRec),
      hdr.packets * sizeof(StoredPacket),
      hdr.cells * sizeof(core::CellPartial),
      0,  // kHdrOk: ragged, validated against packet records below
      0,  // kPduBytes: ditto
  };
  const std::uint8_t* sect[kSectionCount] = {};
  std::uint64_t sect_size[kSectionCount] = {};
  for (std::uint32_t s = 0; s < kSectionCount; ++s) {
    const CorpusSectionRec& t = table[s];
    if (t.kind != s + 1) {
      fail(error, "unexpected section kind " + std::to_string(t.kind) +
                      " at slot " + std::to_string(s));
      return nullptr;
    }
    if (t.offset % kCorpusAlign != 0) {
      fail(error, "misaligned section (kind " + std::to_string(t.kind) +
                      ", offset " + std::to_string(t.offset) + ")");
      return nullptr;
    }
    if (t.offset < table_end || t.offset > len || t.size > len - t.offset) {
      fail(error, "section out of bounds (kind " + std::to_string(t.kind) +
                      ")");
      return nullptr;
    }
    if (expect_size[s] != 0 && t.size != expect_size[s]) {
      fail(error, "section size mismatch (kind " + std::to_string(t.kind) +
                      ": " + std::to_string(t.size) + " bytes, expected " +
                      std::to_string(expect_size[s]) + ")");
      return nullptr;
    }
    sect[s] = base + t.offset;
    sect_size[s] = t.size;
  }

  r->files_ = reinterpret_cast<const CorpusFileRec*>(sect[0]);
  r->packets_ = reinterpret_cast<const StoredPacket*>(sect[1]);
  r->cells_ = reinterpret_cast<const core::CellPartial*>(sect[2]);
  r->hdr_ok_ = sect[3];
  r->pdu_bytes_ = sect[4];

  // Packet and file indexes: every range in bounds, so file_views
  // can run unchecked.
  const std::uint64_t hdr_ok_size = sect_size[3];
  for (std::uint64_t p = 0; p < hdr.packets; ++p) {
    const StoredPacket& pr = r->packets_[p];
    if (pr.cell_count == 0 ||
        pr.cell_begin > hdr.cells ||
        pr.cell_count > hdr.cells - pr.cell_begin ||
        pr.hdr_begin > hdr_ok_size ||
        static_cast<std::uint64_t>(pr.cell_count) - 1 >
            hdr_ok_size - pr.hdr_begin ||
        pr.pdu_offset > sect_size[4] ||
        static_cast<std::uint64_t>(pr.cell_count) * atm::kCellPayload >
            sect_size[4] - pr.pdu_offset) {
      fail(error, "corrupt packet index (packet " + std::to_string(p) + ")");
      return nullptr;
    }
  }
  for (std::uint64_t fidx = 0; fidx < hdr.files; ++fidx) {
    const CorpusFileRec& fr = r->files_[fidx];
    if (fr.packet_begin > hdr.packets ||
        fr.packet_count > hdr.packets - fr.packet_begin) {
      fail(error, "corrupt file index (file " + std::to_string(fidx) + ")");
      return nullptr;
    }
  }

  CorpusInfo& info = r->info_;
  info.version = hdr.version;
  info.file_size = hdr.total_size;
  info.files = hdr.files;
  info.packets = hdr.packets;
  info.cells = hdr.cells;
  info.pdu_bytes = sect_size[4];
  info.params.profile.assign(hdr.profile, hdr.profile_len);
  info.params.scale = std::bit_cast<double>(hdr.scale_bits);
  info.params.compress = hdr.compress != 0;
  net::FlowConfig& flow = info.params.flow;
  flow.segment_size = hdr.segment_size;
  flow.initial_seq = hdr.initial_seq;
  flow.initial_ip_id = hdr.initial_ip_id;
  flow.packet.transport = static_cast<alg::Algorithm>(hdr.transport);
  flow.packet.placement = static_cast<net::ChecksumPlacement>(hdr.placement);
  flow.packet.invert_checksum = hdr.invert_checksum != 0;
  flow.packet.fill_ip_header = hdr.fill_ip_header != 0;
  flow.packet.legacy95_headers = hdr.legacy95_headers != 0;
  flow.packet.src_addr = hdr.src_addr;
  flow.packet.dst_addr = hdr.dst_addr;
  flow.packet.src_port = hdr.src_port;
  flow.packet.dst_port = hdr.dst_port;
  flow.packet.window = hdr.window;
  return r;
}

std::vector<core::PacketView> CorpusReader::file_views(std::size_t i) const {
  std::vector<core::PacketView> out;
  if (i >= info_.files) return out;
  const CorpusFileRec& fr = files_[i];
  out.reserve(fr.packet_count);
  for (std::uint64_t p = fr.packet_begin; p < fr.packet_begin + fr.packet_count;
       ++p) {
    const StoredPacket& r = packets_[p];
    out.push_back({&r.partials,
                   {cells_ + r.cell_begin, r.cell_count},
                   {hdr_ok_ + r.hdr_begin, r.cell_count - 1},
                   {pdu_bytes_ + r.pdu_offset,
                    std::size_t{r.cell_count} * atm::kCellPayload}});
  }
  return out;
}

std::vector<core::SimPacket> CorpusReader::file_packets(std::size_t i) const {
  const std::vector<core::PacketView> views = file_views(i);
  std::vector<core::SimPacket> out;
  out.reserve(views.size());
  for (const core::PacketView& v : views) {
    core::SimPacket& sp = out.emplace_back();
    static_cast<core::PacketPartials&>(sp) = *v.partials;
    sp.pdu =
        *atm::CpcsPdu::from_bytes(util::Bytes(v.pdu.begin(), v.pdu.end()));
    sp.cells.assign(v.cells.begin(), v.cells.end());
    sp.hdr_ok_self.assign(v.hdr_ok_self.begin(), v.hdr_ok_self.end());
  }
  return out;
}

namespace {

/// Shard readahead telemetry. Tagged scheduling, not deterministic:
/// lease boundaries (and therefore advised ranges) differ between a
/// local run and a distributed one.
struct ReadaheadMetrics {
  obs::Counter calls;
  obs::Counter bytes;
};

const ReadaheadMetrics& rmx() {
  static const ReadaheadMetrics m = [] {
    obs::Registry& r = obs::Registry::global();
    ReadaheadMetrics mx;
    mx.calls = r.counter("corpus.readahead_calls", obs::Tag::kScheduling);
    mx.bytes = r.counter("corpus.readahead_bytes", obs::Tag::kScheduling);
    return mx;
  }();
  return m;
}

/// posix_madvise(WILLNEED) over [p, p+n), widened to page boundaries.
/// Advisory only — errors are deliberately ignored.
std::uint64_t advise_range(const void* p, std::uint64_t n) {
  if (n == 0) return 0;
  static const std::uintptr_t page =
      static_cast<std::uintptr_t>(::sysconf(_SC_PAGESIZE));
  const auto addr = reinterpret_cast<std::uintptr_t>(p);
  const std::uintptr_t start = addr & ~(page - 1);
  const std::uintptr_t end = (addr + n + page - 1) & ~(page - 1);
  (void)::posix_madvise(reinterpret_cast<void*>(start), end - start,
                        POSIX_MADV_WILLNEED);
  return end - start;
}

}  // namespace

void CorpusReader::advise_will_need(std::size_t begin, std::size_t end) const {
  end = std::min<std::size_t>(end, info_.files);
  begin = std::min(begin, end);
  if (begin == end) return;
  const CorpusFileRec& fb = files_[begin];
  const CorpusFileRec& fe = files_[end - 1];
  const std::uint64_t p0 = fb.packet_begin;
  const std::uint64_t p1 = fe.packet_begin + fe.packet_count;
  if (p0 >= p1) return;  // a shard of empty files touches nothing
  const StoredPacket& r0 = packets_[p0];
  const StoredPacket& r1 = packets_[p1 - 1];
  const std::uint64_t c0 = r0.cell_begin;
  const std::uint64_t c1 = r1.cell_begin + r1.cell_count;
  const std::uint64_t h0 = r0.hdr_begin;
  const std::uint64_t h1 = r1.hdr_begin + (r1.cell_count - 1);
  const std::uint64_t d0 = r0.pdu_offset;
  const std::uint64_t d1 =
      r1.pdu_offset +
      static_cast<std::uint64_t>(r1.cell_count) * atm::kCellPayload;

  std::uint64_t advised = 0;
  advised += advise_range(packets_ + p0, (p1 - p0) * sizeof(StoredPacket));
  advised += advise_range(cells_ + c0, (c1 - c0) * sizeof(core::CellPartial));
  advised += advise_range(hdr_ok_ + h0, h1 - h0);
  advised += advise_range(pdu_bytes_ + d0, d1 - d0);

  const ReadaheadMetrics& mx = rmx();
  mx.calls.add(1);
  mx.bytes.add(advised);
}

}  // namespace cksum::fsgen
