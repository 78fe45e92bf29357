#include "util/bytes.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <stdexcept>

namespace cksum::util {

std::string to_hex(ByteView data, std::size_t group) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(data.size() * 2 + (group ? data.size() / group : 0));
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (group != 0 && i != 0 && i % group == 0) out.push_back(' ');
    out.push_back(kDigits[data[i] >> 4]);
    out.push_back(kDigits[data[i] & 0xf]);
  }
  return out;
}

namespace {
int hex_value(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}
}  // namespace

Bytes from_hex(std::string_view hex) {
  Bytes out;
  int pending = -1;
  for (char c : hex) {
    if (std::isspace(static_cast<unsigned char>(c))) continue;
    const int v = hex_value(c);
    if (v < 0) throw std::invalid_argument("from_hex: bad character");
    if (pending < 0) {
      pending = v;
    } else {
      out.push_back(static_cast<std::uint8_t>((pending << 4) | v));
      pending = -1;
    }
  }
  if (pending >= 0) throw std::invalid_argument("from_hex: odd digit count");
  return out;
}

void append(Bytes& out, std::string_view text) {
  out.insert(out.end(), text.begin(), text.end());
}

std::optional<Bytes> read_file(const std::string& path, std::size_t max_bytes,
                               std::string* error) {
  const auto fail = [&](const char* why) -> std::optional<Bytes> {
    if (error != nullptr) *error = why + path;
    return std::nullopt;
  };
  struct File {
    int fd;
    ~File() {
      if (fd >= 0) ::close(fd);
    }
  } const f{::open(path.c_str(), O_RDONLY | O_CLOEXEC)};
  if (f.fd < 0) return fail("cannot open ");

  // One byte past the reported size lets a file of exactly that size
  // see EOF without growing the buffer.
  struct stat st {};
  const std::size_t hint =
      ::fstat(f.fd, &st) == 0 && S_ISREG(st.st_mode)
          ? static_cast<std::size_t>(st.st_size)
          : 0;
  Bytes out(std::min(max_bytes, hint + 1));
  std::size_t got = 0;
  for (;;) {
    if (got == out.size()) {
      if (got == max_bytes) break;
      constexpr std::size_t kMinChunk = 4096;
      out.resize(got + std::min(max_bytes - got, std::max(got, kMinChunk)));
    }
    const ssize_t n = ::read(f.fd, out.data() + got, out.size() - got);
    if (n == 0) break;
    if (n < 0) {
      if (errno == EINTR) continue;
      return fail("read error on ");
    }
    got += static_cast<std::size_t>(n);
  }
  out.resize(got);
  return out;
}

}  // namespace cksum::util
