// TCP options / RFC 1146 alternate-checksum negotiation.
#include <gtest/gtest.h>

#include "checksum/checksum.hpp"
#include "net/tcp_options.hpp"
#include "util/rng.hpp"

namespace cksum::net {
namespace {

using util::ByteView;
using util::Bytes;

TEST(TcpOptions, SerializeParseRoundTrip) {
  TcpOptionList list;
  list.add_mss(1460);
  list.add_nop();
  list.add_alt_checksum_request(AltChecksum::kFletcher8);
  const Bytes wire = list.serialize();
  EXPECT_EQ(wire.size() % 4, 0u);
  const auto parsed = TcpOptionList::parse(ByteView(wire));
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->options().size(), 3u);
  EXPECT_EQ(parsed->options()[0].kind, 2);
  EXPECT_EQ(util::load_be16(parsed->options()[0].data.data()), 1460);
  EXPECT_EQ(parsed->requested_alt_checksum(), AltChecksum::kFletcher8);
}

TEST(TcpOptions, EmptyListSerializesEmpty) {
  TcpOptionList list;
  EXPECT_TRUE(list.serialize().empty());
  EXPECT_FALSE(list.requested_alt_checksum().has_value());
}

TEST(TcpOptions, EolTerminatesParsing) {
  const Bytes wire = {2, 4, 0x05, 0xb4, 0 /*EOL*/, 14, 3, 1};
  const auto parsed = TcpOptionList::parse(ByteView(wire));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->options().size(), 1u);  // option after EOL ignored
}

TEST(TcpOptions, MalformedLengthRejected) {
  EXPECT_FALSE(TcpOptionList::parse(ByteView(Bytes{14})).has_value());
  EXPECT_FALSE(TcpOptionList::parse(ByteView(Bytes{14, 1})).has_value());
  EXPECT_FALSE(TcpOptionList::parse(ByteView(Bytes{14, 9, 1})).has_value());
}

TEST(TcpOptions, FortyByteLimitEnforced) {
  TcpOptionList list;
  Bytes big(39, 0xaa);
  list.add_alt_checksum_data(ByteView(big));
  EXPECT_THROW(list.serialize(), std::length_error);
}

TEST(TcpOptions, AltChecksumDataCarriesWiderValues) {
  // RFC 1146: the 16-bit Fletcher (our fletcher32) needs 4 check
  // bytes, which do not fit the 2-byte TCP checksum field — they ride
  // in the Alternate Checksum Data option instead.
  Bytes payload(100, 0x5a);
  const auto pair = alg::kern::fletcher32_block(ByteView(payload));
  Bytes value(4);
  util::store_be32(value.data(), alg::fletcher32_value(pair));

  TcpOptionList list;
  list.add_alt_checksum_request(AltChecksum::kFletcher16);
  list.add_alt_checksum_data(ByteView(value));
  const Bytes wire = list.serialize();
  const auto parsed = TcpOptionList::parse(ByteView(wire));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->requested_alt_checksum(), AltChecksum::kFletcher16);
  const auto& data_opt = parsed->options()[1];
  ASSERT_EQ(data_opt.data.size(), 4u);
  EXPECT_EQ(util::load_be32(data_opt.data.data()),
            alg::fletcher32_value(pair));
}

TEST(TcpOptions, NegotiationNumbersMapToImplementations) {
  // The registry the paper's [13] defines, tied to our algorithms.
  Bytes data(64);
  util::Rng rng(1);
  rng.fill(data);
  // number 1 = 8-bit Fletcher (two 8-bit sums).
  const auto f8 = alg::kern::fletcher_block(ByteView(data),
                                      alg::FletcherMod::kOnes255);
  EXPECT_LT(f8.a, 255u);
  EXPECT_LT(f8.b, 255u);
  // number 2 = 16-bit Fletcher (two 16-bit sums).
  const auto f16 = alg::kern::fletcher32_block(ByteView(data));
  EXPECT_LT(f16.a, 65535u);
  EXPECT_LT(f16.b, 65535u);
}

}  // namespace
}  // namespace cksum::net
