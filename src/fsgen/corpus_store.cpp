#include "fsgen/corpus_store.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <utility>

#include "checksum/kernels/kernel.hpp"
#include "compress/lzw.hpp"
#include "obs/registry.hpp"
#include "util/parallel.hpp"

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

/// The store file under construction. A zero header holds the place of
/// the real one, which finish() writes last, so a build cut short
/// leaves a file that open() rejects: empty, or with a zero header,
/// which is "bad magic". Every record goes from its SimPacket to the
/// file through one copy, into a staging buffer that is folded into
/// the seal CRC and written when full. The stream is unbuffered and
/// the stage holds the placeholder header too, so the file goes out
/// in whole 1 MiB writes at 1 MiB offsets: the page cache keeps a file
/// in folios no larger than the writes that made it, and a run that
/// maps small folios takes more page faults (docs/PERF.md, "Corpus
/// build").
class StoreFile {
 public:
  explicit StoreFile(const std::string& path)
      : stage_(kStageBytes), f_(std::fopen(path.c_str(), "wb")) {
    ok_ = f_ != nullptr && std::setvbuf(f_, nullptr, _IONBF, 0) == 0;
    std::memset(stage_.data(), 0, sizeof(CorpusHeader));
    used_ = crc_begin_ = sizeof(CorpusHeader);
  }
  ~StoreFile() {
    if (f_ != nullptr) std::fclose(f_);
  }
  StoreFile(const StoreFile&) = delete;
  StoreFile& operator=(const StoreFile&) = delete;

  bool is_open() const noexcept { return f_ != nullptr; }

  void put(const void* p, std::size_t n) {
    stage(static_cast<const std::uint8_t*>(p), n);
  }
  /// Every element of a contiguous container, as it is in memory.
  template <class C>
  void put_all(const C& c) {
    put(std::data(c), std::size(c) * sizeof(*std::data(c)));
  }
  /// Zeros up to file offset `off`: a section's start, or the end.
  void pad_to(std::uint64_t off) { stage(nullptr, off - pos_); }

  /// Writes what is staged; the CRC of the whole body so far.
  std::uint32_t seal() {
    if (used_ != 0 && ok_) {
      crc_ = alg::kern::crc32(crc_, util::ByteView(stage_.data() + crc_begin_,
                                                   used_ - crc_begin_));
      ok_ = std::fwrite(stage_.data(), used_, 1, f_) == 1;
    }
    used_ = crc_begin_ = 0;
    return crc_;
  }

  /// After seal(): writes `hdr` at offset 0 and closes the file. False
  /// if any write, the seek or the close failed.
  bool finish(const CorpusHeader& hdr) {
    bool ok = ok_ && used_ == 0 && std::fseek(f_, 0, SEEK_SET) == 0 &&
              std::fwrite(&hdr, sizeof(hdr), 1, f_) == 1;
    ok = std::fclose(std::exchange(f_, nullptr)) == 0 && ok;
    return ok;
  }

 private:
  static constexpr std::size_t kStageBytes = std::size_t{1} << 20;

  /// n bytes from src, or n zeros when src is null.
  void stage(const std::uint8_t* src, std::uint64_t n) {
    pos_ += n;
    while (n != 0) {
      const std::size_t k = static_cast<std::size_t>(
          std::min<std::uint64_t>(n, stage_.size() - used_));
      if (src != nullptr) {
        std::memcpy(stage_.data() + used_, src, k);
        src += k;
      } else {
        std::memset(stage_.data() + used_, 0, k);
      }
      used_ += k;
      n -= k;
      if (used_ == stage_.size()) seal();
    }
  }

  util::Bytes stage_;
  std::size_t used_ = 0;
  std::size_t crc_begin_ = 0;  ///< the staged header is outside the seal
  std::FILE* f_;
  bool ok_ = false;
  std::uint64_t pos_ = sizeof(CorpusHeader);  ///< file offset of the next byte
  std::uint32_t crc_ = 0;                     ///< of the bytes written so far
};

template <class Fn>
void for_each_packet(const std::vector<std::vector<core::SimPacket>>& files,
                     Fn fn) {
  for (const auto& pkts : files)
    for (const core::SimPacket& sp : pkts) fn(sp);
}

}  // namespace

bool build_corpus(const CorpusBuildParams& params, const Filesystem& fs,
                  const std::string& path, std::string* error) {
  // Generate and packetise the files on every hardware thread, each
  // into its own slot, then seal them in file order.
  std::vector<std::vector<core::SimPacket>> files(fs.file_count());
  util::for_each_index(files.size(), 0, [&](unsigned, std::size_t i) {
    util::Bytes data = fs.file(i);
    if (params.compress) data = compress::lzw_compress(util::ByteView(data));
    files[i] = core::packetize_file(params.flow, util::ByteView(data));
  });
  return build_corpus(params, files, path, error);
}

bool build_corpus(const CorpusBuildParams& params,
                  const std::vector<std::vector<core::SimPacket>>& files,
                  const std::string& path, std::string* error) {
  if (params.profile.size() > sizeof(CorpusHeader{}.profile)) {
    fail(error, "profile name too long (max 64 bytes)");
    return false;
  }

  // Layout: header, section table, then each section (kinds 1..5 in
  // file order) 64-byte aligned and zero padded, the last one too.
  std::uint64_t packets = 0, cells = 0, hdr_ok = 0, pdu_bytes = 0;
  for_each_packet(files, [&](const core::SimPacket& sp) {
    ++packets;
    cells += sp.cells.size();
    hdr_ok += sp.hdr_ok_self.size();
    pdu_bytes += sp.pdu.bytes().size();
  });
  const std::uint64_t sizes[kSectionCount] = {
      files.size() * sizeof(CorpusFileRec), packets * sizeof(StoredPacket),
      cells * sizeof(core::CellPartial), hdr_ok, pdu_bytes};
  CorpusSectionRec table[kSectionCount];
  std::uint64_t off = align_up(sizeof(CorpusHeader) + sizeof(table));
  for (std::uint32_t s = 0; s < kSectionCount; ++s) {
    table[s] = {s + 1, 0, off, sizes[s]};
    off = align_up(off + sizes[s]);
  }
  const std::uint64_t total = off;

  StoreFile out(path);
  if (!out.is_open()) {
    fail(error, "cannot open output file " + path);
    return false;
  }
  // Each section straight from the packets, in file order.
  out.put(table, sizeof(table));
  out.pad_to(table[0].offset);
  std::uint64_t packet_begin = 0;
  for (const auto& pkts : files) {
    const CorpusFileRec rec{packet_begin, pkts.size()};
    out.put(&rec, sizeof(rec));
    packet_begin += pkts.size();
  }
  out.pad_to(table[1].offset);
  std::uint64_t cell_begin = 0, hdr_begin = 0, pdu_offset = 0;
  for_each_packet(files, [&](const core::SimPacket& sp) {
    const StoredPacket rec{cell_begin, hdr_begin, pdu_offset,
                           static_cast<std::uint32_t>(sp.cells.size()), 0,
                           sp};
    out.put(&rec, sizeof(rec));
    cell_begin += sp.cells.size();
    hdr_begin += sp.hdr_ok_self.size();
    pdu_offset += sp.pdu.bytes().size();
  });
  out.pad_to(table[2].offset);
  for_each_packet(files,
                  [&](const core::SimPacket& sp) { out.put_all(sp.cells); });
  out.pad_to(table[3].offset);
  for_each_packet(files, [&](const core::SimPacket& sp) {
    out.put_all(sp.hdr_ok_self);
  });
  out.pad_to(table[4].offset);
  for_each_packet(files, [&](const core::SimPacket& sp) {
    out.put_all(sp.pdu.bytes());
  });
  out.pad_to(total);

  CorpusHeader hdr;
  std::memset(&hdr, 0, sizeof(hdr));
  std::memcpy(hdr.magic, kCorpusMagic, sizeof(kCorpusMagic));
  hdr.endian_tag = kCorpusEndianTag;
  hdr.version = kCorpusVersion;
  hdr.total_size = total;
  hdr.section_count = kSectionCount;
  hdr.files = files.size();
  hdr.packets = packets;
  hdr.cells = cells;
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
  hdr.seal_crc = out.seal();
  hdr.header_crc = 0;
  hdr.header_crc = crc_of(&hdr, sizeof(hdr));

  if (!out.finish(hdr)) {
    fail(error, "write failed for " + path);
    std::remove(path.c_str());
    return false;
  }
  return true;
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

  // Counts first: one that cannot fit the file could wrap the size
  // products below back to a real section's size.
  const struct {
    std::uint64_t count;
    std::size_t record;
    const char* section;
  } counts[] = {{hdr.files, sizeof(CorpusFileRec), "files"},
                {hdr.packets, sizeof(StoredPacket), "packets"},
                {hdr.cells, sizeof(core::CellPartial), "cells"}};
  for (const auto& c : counts) {
    if (c.count > len / c.record) {
      fail(error, std::string("corrupt ") + c.section + " count: " +
                      std::to_string(c.count) + " records cannot fit a " +
                      std::to_string(len) + "-byte file");
      return nullptr;
    }
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
