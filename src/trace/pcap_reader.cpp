#include "trace/pcap_reader.hpp"

#include <cstdio>
#include <limits>

#include "trace/metrics.hpp"
#include "util/bytes.hpp"

namespace cksum::trace {

namespace {

constexpr std::size_t kGlobalHeaderLen = 24;
constexpr std::size_t kRecordHeaderLen = 16;

// Classic pcap magics as they appear when read little-endian first.
constexpr std::uint32_t kMagicUsec = 0xa1b2c3d4u;
constexpr std::uint32_t kMagicUsecSwapped = 0xd4c3b2a1u;
constexpr std::uint32_t kMagicNsec = 0xa1b23c4du;
constexpr std::uint32_t kMagicNsecSwapped = 0x4d3cb2a1u;

std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

std::uint16_t load_le16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] |
                                    (static_cast<std::uint16_t>(p[1]) << 8));
}

void fail(std::string* error, std::string why) {
  if (error != nullptr) *error = std::move(why);
}

std::string hex32(std::uint32_t v) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "0x%08x", v);
  return buf;
}

}  // namespace

std::unique_ptr<PcapReader> PcapReader::open(const std::string& path,
                                             std::string* error) {
  std::optional<util::Bytes> data =
      util::read_file(path, std::numeric_limits<std::size_t>::max(), error);
  if (!data) return nullptr;
  return parse(std::move(*data), error);
}

std::unique_ptr<PcapReader> PcapReader::parse(util::Bytes bytes,
                                              std::string* error) {
  auto r = std::unique_ptr<PcapReader>(new PcapReader());
  r->data_ = std::move(bytes);
  const util::Bytes& data = r->data_;
  PcapInfo& info = r->info_;

  if (data.size() < kGlobalHeaderLen) {
    fail(error, "truncated file: shorter than the pcap global header (" +
                    std::to_string(data.size()) + " of " +
                    std::to_string(kGlobalHeaderLen) + " bytes)");
    return nullptr;
  }

  const std::uint32_t magic = load_le32(data.data());
  switch (magic) {
    case kMagicUsec: break;
    case kMagicNsec: info.nanos = true; break;
    case kMagicUsecSwapped: info.swapped = true; break;
    case kMagicNsecSwapped:
      info.swapped = true;
      info.nanos = true;
      break;
    default:
      fail(error, "bad magic " + hex32(magic) +
                      ": not a classic pcap capture");
      return nullptr;
  }
  // All further fields honour the capture's byte order.
  const auto get32 = [&](std::size_t off) {
    const std::uint32_t v = load_le32(data.data() + off);
    return info.swapped ? __builtin_bswap32(v) : v;
  };
  const auto get16 = [&](std::size_t off) {
    const std::uint16_t v = load_le16(data.data() + off);
    return info.swapped ? static_cast<std::uint16_t>(__builtin_bswap16(v))
                        : v;
  };

  info.version_major = get16(4);
  info.version_minor = get16(6);
  if (info.version_major != 2) {
    fail(error, "unsupported pcap version " +
                    std::to_string(info.version_major) + "." +
                    std::to_string(info.version_minor) + " (expected 2.x)");
    return nullptr;
  }
  info.snaplen = get32(16);
  if (info.snaplen == 0 || info.snaplen > kMaxSnaplen) {
    fail(error, "absurd snap length " + std::to_string(info.snaplen) +
                    " (accepted range 1.." + std::to_string(kMaxSnaplen) +
                    ")");
    return nullptr;
  }
  info.linktype = get32(20);
  if (info.linktype != kLinkRaw && info.linktype != kLinkEthernet) {
    fail(error, "unsupported link type " + std::to_string(info.linktype) +
                    " (expected LINKTYPE_RAW=101 or LINKTYPE_ETHERNET=1)");
    return nullptr;
  }

  // Records: every header fully present, every captured length within
  // the snap length and within the file.
  std::size_t off = kGlobalHeaderLen;
  while (off < data.size()) {
    const std::size_t idx = r->records_.size();
    const std::size_t remain = data.size() - off;
    if (remain < kRecordHeaderLen) {
      fail(error, "truncated record header (record " + std::to_string(idx) +
                      ": " + std::to_string(remain) + " of " +
                      std::to_string(kRecordHeaderLen) + " bytes at offset " +
                      std::to_string(off) + ")");
      return nullptr;
    }
    TraceRecord rec;
    rec.ts_sec = get32(off);
    rec.ts_frac = get32(off + 4);
    rec.captured_len = get32(off + 8);
    rec.original_len = get32(off + 12);
    off += kRecordHeaderLen;
    if (rec.captured_len > info.snaplen) {
      fail(error, "record " + std::to_string(idx) + ": captured length " +
                      std::to_string(rec.captured_len) +
                      " exceeds the snap length " +
                      std::to_string(info.snaplen));
      return nullptr;
    }
    if (rec.captured_len > data.size() - off) {
      fail(error, "record " + std::to_string(idx) +
                      ": mid-record EOF (header promises " +
                      std::to_string(rec.captured_len) + " bytes, " +
                      std::to_string(data.size() - off) + " remain)");
      return nullptr;
    }
    if (rec.original_len < rec.captured_len) {
      fail(error, "record " + std::to_string(idx) + ": original length " +
                      std::to_string(rec.original_len) +
                      " shorter than captured " +
                      std::to_string(rec.captured_len));
      return nullptr;
    }
    rec.truncated = rec.captured_len < rec.original_len;
    rec.frame = util::ByteView(data.data() + off, rec.captured_len);
    off += rec.captured_len;

    // Link-layer disposition: where is the IP datagram?
    if (info.linktype == kLinkRaw) {
      rec.cls = RecordClass::kDatagram;
      rec.datagram = rec.frame;
    } else if (rec.frame.size() < kEthernetHeaderLen) {
      rec.cls = RecordClass::kLinkTooShort;
    } else if (util::load_be16(rec.frame.data() + 12) != 0x0800) {
      rec.cls = RecordClass::kNonIpv4;
    } else {
      rec.cls = RecordClass::kDatagram;
      rec.datagram = rec.frame.subspan(kEthernetHeaderLen);
    }

    info.records += 1;
    info.frame_bytes += rec.captured_len;
    if (rec.truncated) info.truncated += 1;
    if (rec.cls == RecordClass::kDatagram) info.datagrams += 1;
    r->records_.push_back(rec);
  }

  const TraceMetrics& mx = tmx();
  mx.captures.add(1);
  mx.records.add(info.records);
  mx.frame_bytes.add(info.frame_bytes);
  mx.truncated.add(info.truncated);
  return r;
}

}  // namespace cksum::trace
