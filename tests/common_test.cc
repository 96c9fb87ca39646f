#include <gtest/gtest.h>

#include "common/coding.h"
#include "common/result.h"
#include "common/status.h"
#include "common/strings.h"

namespace ode {
namespace {

// --- Status ---------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
  EXPECT_EQ(status.message(), "");
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status status = Status::NotFound("employee 42");
  EXPECT_FALSE(status.ok());
  EXPECT_TRUE(status.IsNotFound());
  EXPECT_EQ(status.message(), "employee 42");
  EXPECT_EQ(status.ToString(), "not found: employee 42");
}

TEST(StatusTest, CopyPreservesState) {
  Status status = Status::Corruption("bad page");
  Status copy = status;
  EXPECT_TRUE(copy.IsCorruption());
  EXPECT_EQ(copy.message(), "bad page");
  EXPECT_TRUE(status.IsCorruption());  // source unchanged
}

TEST(StatusTest, MoveLeavesSourceOk) {
  Status status = Status::IOError("disk");
  Status moved = std::move(status);
  EXPECT_FALSE(moved.ok());
  EXPECT_EQ(moved.code(), StatusCode::kIOError);
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kDisplayFault); ++c) {
    EXPECT_NE(StatusCodeToString(static_cast<StatusCode>(c)), "unknown");
  }
}

TEST(StatusTest, PredicatesMatchCodes) {
  EXPECT_TRUE(Status::InvalidArgument("x").IsInvalidArgument());
  EXPECT_TRUE(Status::OutOfRange("x").IsOutOfRange());
  EXPECT_TRUE(Status::DisplayFault("x").IsDisplayFault());
  EXPECT_TRUE(Status::ConstraintViolation("x").IsConstraintViolation());
  EXPECT_FALSE(Status::OK().IsNotFound());
}

// --- Result ----------------------------------------------------------

TEST(ResultTest, HoldsValue) {
  Result<int> result(7);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(*result, 7);
  EXPECT_TRUE(result.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> result(Status::NotFound("nope"));
  EXPECT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsNotFound());
  EXPECT_EQ(result.value_or(-1), -1);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> result(std::string("payload"));
  std::string taken = std::move(result).value();
  EXPECT_EQ(taken, "payload");
}

Result<int> Half(int v) {
  if (v % 2 != 0) return Status::InvalidArgument("odd");
  return v / 2;
}

Result<int> Quarter(int v) {
  ODE_ASSIGN_OR_RETURN(int half, Half(v));
  ODE_ASSIGN_OR_RETURN(int quarter, Half(half));
  return quarter;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(*Quarter(8), 2);
  EXPECT_TRUE(Quarter(6).status().IsInvalidArgument());
  EXPECT_TRUE(Quarter(7).status().IsInvalidArgument());
}

// --- Coding ----------------------------------------------------------

TEST(CodingTest, Fixed16RoundTrip) {
  std::string buf;
  PutFixed16(&buf, 0xBEEF);
  ASSERT_EQ(buf.size(), 2u);
  EXPECT_EQ(DecodeFixed16(buf.data()), 0xBEEF);
}

TEST(CodingTest, Fixed32RoundTrip) {
  std::string buf;
  PutFixed32(&buf, 0xDEADBEEFu);
  EXPECT_EQ(DecodeFixed32(buf.data()), 0xDEADBEEFu);
}

TEST(CodingTest, Fixed64RoundTrip) {
  std::string buf;
  PutFixed64(&buf, 0x0123456789ABCDEFull);
  EXPECT_EQ(DecodeFixed64(buf.data()), 0x0123456789ABCDEFull);
}

class VarintRoundTrip : public ::testing::TestWithParam<uint64_t> {};

TEST_P(VarintRoundTrip, RoundTrips) {
  std::string buf;
  PutVarint64(&buf, GetParam());
  Decoder decoder(buf);
  uint64_t decoded = 0;
  ASSERT_TRUE(decoder.GetVarint64(&decoded).ok());
  EXPECT_EQ(decoded, GetParam());
  EXPECT_TRUE(decoder.empty());
}

INSTANTIATE_TEST_SUITE_P(
    Boundaries, VarintRoundTrip,
    ::testing::Values(0ull, 1ull, 127ull, 128ull, 129ull, 16383ull,
                      16384ull, (1ull << 32) - 1, 1ull << 32,
                      (1ull << 63), UINT64_MAX));

TEST(CodingTest, VarintTruncationDetected) {
  std::string buf;
  PutVarint64(&buf, 1ull << 40);
  buf.resize(buf.size() - 1);
  Decoder decoder(buf);
  uint64_t v = 0;
  EXPECT_TRUE(decoder.GetVarint64(&v).IsCorruption());
}

TEST(CodingTest, Varint32Overflow) {
  std::string buf;
  PutVarint64(&buf, 1ull << 33);
  Decoder decoder(buf);
  uint32_t v = 0;
  EXPECT_TRUE(decoder.GetVarint32(&v).IsCorruption());
}

TEST(CodingTest, LengthPrefixedRoundTrip) {
  std::string buf;
  PutLengthPrefixed(&buf, "hello");
  PutLengthPrefixed(&buf, "");
  PutLengthPrefixed(&buf, std::string(1000, 'x'));
  Decoder decoder(buf);
  std::string_view a, b, c;
  ASSERT_TRUE(decoder.GetLengthPrefixed(&a).ok());
  ASSERT_TRUE(decoder.GetLengthPrefixed(&b).ok());
  ASSERT_TRUE(decoder.GetLengthPrefixed(&c).ok());
  EXPECT_EQ(a, "hello");
  EXPECT_EQ(b, "");
  EXPECT_EQ(c.size(), 1000u);
  EXPECT_TRUE(decoder.empty());
}

TEST(CodingTest, LengthPrefixTruncationDetected) {
  std::string buf;
  PutLengthPrefixed(&buf, "hello world");
  buf.resize(5);
  Decoder decoder(buf);
  std::string_view v;
  EXPECT_TRUE(decoder.GetLengthPrefixed(&v).IsCorruption());
}

TEST(CodingTest, DoubleRoundTrip) {
  for (double d : {0.0, -1.5, 3.14159, 1e300, -1e-300}) {
    std::string buf;
    PutDouble(&buf, d);
    Decoder decoder(buf);
    double decoded = 0;
    ASSERT_TRUE(decoder.GetDouble(&decoded).ok());
    EXPECT_EQ(decoded, d);
  }
}

TEST(CodingTest, GetRawBounds) {
  Decoder decoder("abc");
  std::string_view v;
  EXPECT_TRUE(decoder.GetRaw(2, &v).ok());
  EXPECT_EQ(v, "ab");
  EXPECT_TRUE(decoder.GetRaw(2, &v).IsCorruption());
}

// --- CRC-32C ----------------------------------------------------------

using CrcFn = uint32_t (*)(std::string_view, uint32_t);

// RFC 3720 §B.4 vectors and the catalogue check value of "123456789",
// on the dispatching entry point and on the table path every CPU has.
TEST(Crc32cTest, KnownVectors) {
  std::string ascending(32, '\0');
  std::string descending(32, '\0');
  for (int i = 0; i < 32; ++i) {
    ascending[i] = static_cast<char>(i);
    descending[i] = static_cast<char>(31 - i);
  }
  for (CrcFn crc : {CrcFn{&Crc32c}, CrcFn{&internal::Crc32cTable}}) {
    EXPECT_EQ(crc(std::string(32, '\x00'), 0), 0x8A9136AAu);
    EXPECT_EQ(crc(std::string(32, '\xff'), 0), 0x62A8AB43u);
    EXPECT_EQ(crc(ascending, 0), 0x46DD794Eu);
    EXPECT_EQ(crc(descending, 0), 0x113FDB5Cu);
    EXPECT_EQ(crc("123456789", 0), 0xE3069283u);
    EXPECT_EQ(crc("", 0), 0u);
  }
}

TEST(Crc32cTest, SeedChainsAcrossBuffers) {
  const std::string bytes = "OdeView browses Ode's persistent objects.";
  for (size_t split = 0; split <= bytes.size(); ++split) {
    const std::string a = bytes.substr(0, split);
    const std::string b = bytes.substr(split);
    EXPECT_EQ(Crc32c(b, Crc32c(a)), Crc32c(a + b)) << "split " << split;
  }
}

TEST(Crc32cTest, HardwareAndTablePathsAgree) {
  if (!internal::Crc32cHardwareAvailable()) {
    GTEST_SKIP() << "this CPU has no SSE4.2 crc32 instruction";
  }
  constexpr size_t kMaxLength = 300;
  constexpr size_t kOffsets = 8;
  std::string buffer(kMaxLength + kOffsets, '\0');
  uint32_t state = 0x9E3779B9u;
  for (char& c : buffer) {
    state = state * 1664525u + 1013904223u;
    c = static_cast<char>(state >> 24);
  }
  for (size_t offset = 0; offset < kOffsets; ++offset) {
    for (size_t length = 0; length <= kMaxLength; ++length) {
      std::string_view bytes(buffer.data() + offset, length);
      for (uint32_t seed : {0u, 0xDEADBEEFu}) {
        ASSERT_EQ(internal::Crc32cHardware(bytes, seed),
                  internal::Crc32cTable(bytes, seed))
            << "offset " << offset << " length " << length << " seed "
            << seed;
      }
    }
  }
}

// --- Strings ----------------------------------------------------------

TEST(StringsTest, StripWhitespace) {
  EXPECT_EQ(StripWhitespace("  a b \n"), "a b");
  EXPECT_EQ(StripWhitespace(""), "");
  EXPECT_EQ(StripWhitespace(" \t "), "");
  EXPECT_EQ(StripWhitespace("x"), "x");
}

TEST(StringsTest, SplitKeepsEmptyPieces) {
  EXPECT_EQ(Split("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split("abc", ','), (std::vector<std::string>{"abc"}));
}

TEST(StringsTest, JoinInverseOfSplit) {
  std::vector<std::string> parts{"x", "y", "z"};
  EXPECT_EQ(Join(parts, ","), "x,y,z");
  EXPECT_EQ(Split(Join(parts, ","), ','), parts);
}

TEST(StringsTest, AffixChecks) {
  EXPECT_TRUE(StartsWith("employee", "emp"));
  EXPECT_FALSE(StartsWith("emp", "employee"));
  EXPECT_TRUE(EndsWith("schema.odl", ".odl"));
  EXPECT_FALSE(EndsWith("x", "xx"));
}

TEST(StringsTest, PadToExactWidth) {
  EXPECT_EQ(PadTo("ab", 5), "ab   ");
  EXPECT_EQ(PadTo("abcdef", 3), "abc");
  EXPECT_EQ(PadTo("", 2), "  ");
}

TEST(StringsTest, WrapTextBreaksAtSpaces) {
  std::vector<std::string> lines = WrapText("the quick brown fox", 10);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "the quick");
  EXPECT_EQ(lines[1], "brown fox");
}

TEST(StringsTest, WrapTextHardBreaksLongWords) {
  std::vector<std::string> lines = WrapText("abcdefghij", 4);
  ASSERT_GE(lines.size(), 3u);
  EXPECT_EQ(lines[0], "abcd");
}

TEST(StringsTest, WrapTextHonorsNewlines) {
  std::vector<std::string> lines = WrapText("a\n\nb", 10);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[1], "");
}

TEST(StringsTest, AppendJsonEscapedPinsEachRule) {
  auto escaped = [](std::string_view s) {
    std::string out = "x:";  // appends: what is already there stays
    AppendJsonEscaped(&out, s);
    return out;
  };
  EXPECT_EQ(escaped("plain"), "x:plain");
  EXPECT_EQ(escaped("\""), "x:\\\"");
  EXPECT_EQ(escaped("\\"), "x:\\\\");
  EXPECT_EQ(escaped("\n"), "x:\\n");
  EXPECT_EQ(escaped("\r"), "x:\\r");
  EXPECT_EQ(escaped("\t"), "x:\\t");
  EXPECT_EQ(escaped(std::string_view("\x00\x01\x1f", 3)),
            "x:\\u0000\\u0001\\u001f");
  EXPECT_EQ(escaped("\x7f"), "x:\x7f");
  // Bytes >= 0x80 pass through, so UTF-8 stays UTF-8.
  EXPECT_EQ(escaped("caf\xc3\xa9 \x80\xff"), "x:caf\xc3\xa9 \x80\xff");
}

}  // namespace
}  // namespace ode
