// The shared byte codec (common/wire.h): byte order on every host, the
// bounds-checked span reader, the fail-closed stream reader and header, and
// the hash. The formats built on it are swept by file_format_fuzz_test.
#include "common/wire.h"

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace flock {
namespace {

using wire::Endian;

TEST(Wire, FieldsUseTheNamedByteOrderOnEveryHost) {
  std::vector<std::uint8_t> le, be;
  wire::put<std::uint32_t>(le, 0x01020304u);
  wire::put<std::uint32_t, Endian::kBig>(be, 0x01020304u);
  EXPECT_EQ(le, (std::vector<std::uint8_t>{4, 3, 2, 1}));
  EXPECT_EQ(be, (std::vector<std::uint8_t>{1, 2, 3, 4}));
  EXPECT_EQ((wire::load<std::uint32_t, Endian::kBig>(be.data())), 0x01020304u);
  EXPECT_EQ(wire::load<std::uint32_t>(le.data()), 0x01020304u);

  std::vector<std::uint8_t> mixed;
  wire::put<std::int32_t>(mixed, -2);
  wire::put<double>(mixed, 1.0);  // IEEE 754: 0x3FF0000000000000
  wire::put<std::uint16_t, Endian::kBig>(mixed, 0xABCD);
  EXPECT_EQ(mixed, (std::vector<std::uint8_t>{0xFE, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0, 0, 0, 0xF0,
                                              0x3F, 0xAB, 0xCD}));
  EXPECT_EQ(wire::load<std::int32_t>(mixed.data()), -2);
  EXPECT_EQ(wire::load<double>(mixed.data() + 4), 1.0);

  std::ostringstream os;
  wire::put<std::uint64_t>(os, 0x0807060504030201ull);
  EXPECT_EQ(os.str(), std::string("\x01\x02\x03\x04\x05\x06\x07\x08", 8));
}

TEST(Wire, SpanReaderNeverMovesPastItsBuffer) {
  const std::uint8_t bytes[] = {0x12, 0x34, 0x56, 0x78, 0x9A};
  wire::SpanReader<Endian::kBig> r{bytes, sizeof bytes};
  std::uint32_t v32 = 0;
  ASSERT_TRUE(r.get(v32));
  EXPECT_EQ(v32, 0x12345678u);
  std::uint16_t v16 = 0;
  EXPECT_FALSE(r.get(v16));  // one byte left: refused, cursor unmoved
  EXPECT_EQ(r.remaining, 1u);
  std::uint64_t wide = 0;
  EXPECT_FALSE(r.read_uint(2, wide));
  ASSERT_TRUE(r.read_uint(1, wide));
  EXPECT_EQ(wide, 0x9Au);
  EXPECT_FALSE(r.skip(1));

  wire::SpanReader<Endian::kLittle> le{bytes, sizeof bytes};
  ASSERT_TRUE(le.read_uint(3, wide));
  EXPECT_EQ(wide, 0x563412u);
}

TEST(Wire, StreamReaderAndHeaderFailClosed) {
  constexpr wire::Magic kMagic = {'T', 'E', 'S', 'T'};
  std::ostringstream os;
  wire::put_header(os, kMagic, 2);
  wire::put<std::uint16_t>(os, 7);

  std::istringstream good(os.str());
  wire::StreamReader in(good, "test");
  EXPECT_EQ(wire::get_header(in, kMagic, 2), 2u);
  EXPECT_EQ(in.get<std::uint16_t>(), 7u);
  try {
    (void)in.get<std::uint8_t>();
    ADD_FAILURE() << "read past the end";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "test: truncated input");
  }

  std::istringstream future(os.str());
  wire::StreamReader newer(future, "test");
  EXPECT_THROW(wire::get_header(newer, kMagic, 1), std::runtime_error);
  std::istringstream foreign(os.str());
  wire::StreamReader other(foreign, "test");
  EXPECT_THROW(wire::get_header(other, {'F', 'L', 'K', 'D'}, 2), std::runtime_error);
}

TEST(Wire, Fnv1aIsByteWiseFnv1a) {
  // Published FNV-1a 64 vector: the byte 'a' from the standard offset basis
  // hashes to 0xaf63dc4c8601ec8c. fnv1a() then continues over the seven
  // zero high bytes of the value.
  constexpr std::uint64_t kStandardBasis = 14695981039346656037ull;
  constexpr std::uint64_t kPrime = 1099511628211ull;
  std::uint64_t h = (kStandardBasis ^ 'a') * kPrime;
  EXPECT_EQ(h, 0xaf63dc4c8601ec8cull);
  for (int i = 0; i < 7; ++i) h *= kPrime;
  EXPECT_EQ(wire::fnv1a(kStandardBasis, 'a'), h);
}

}  // namespace
}  // namespace flock
