/// Named regression tests for the crashers the fuzz harnesses found
/// (and the bug shapes fixed alongside them). Each case inlines the
/// exact hostile bytes so the regression runs on every toolchain and
/// build type — the same inputs also live as files under
/// `fuzz/corpus/` for the coverage-guided runs. See
/// docs/STATIC_ANALYSIS.md for the fuzzing workflow.

#include <cstring>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "common/access_log.h"
#include "common/coding.h"
#include "common/telemetry_http.h"
#include "odb/buffer_pool.h"
#include "odb/catalog.h"
#include "odb/ddl_parser.h"
#include "odb/heap_file.h"
#include "odb/object_record.h"
#include "odb/page.h"
#include "odb/pager.h"
#include "odb/predicate.h"
#include "odb/slotted_page.h"
#include "odb/value_codec.h"
#include "odb/wal.h"

namespace ode::odb {
namespace {

// --- value codec -------------------------------------------------------

// A struct tag followed by varint field count 2^60 and nothing else.
// Pre-fix, DecodeValue reserve()d the full forged count (~16 EiB of
// Field objects) before reading a single field — instant bad_alloc /
// OOM-kill on hostile input. The clamp bounds the reserve by the
// bytes actually remaining.
TEST(DecodeCorpusTest, ValueForgedStructFieldCount) {
  std::string bytes;
  bytes.push_back(6);  // ValueKind::kStruct
  PutVarint64(&bytes, uint64_t{1} << 60);
  Result<Value> value = DecodeValue(bytes);
  EXPECT_FALSE(value.ok());
}

// Same shape through the array path.
TEST(DecodeCorpusTest, ValueForgedArrayElementCount) {
  std::string bytes;
  bytes.push_back(7);  // ValueKind::kArray
  PutVarint64(&bytes, uint64_t{1} << 59);
  Result<Value> value = DecodeValue(bytes);
  EXPECT_FALSE(value.ok());
}

// --- object record -----------------------------------------------------

// Version plus a history count of 2^59 with no history bytes: the
// decode loop must fail on the missing first entry, not pre-size
// anything to the forged count.
TEST(DecodeCorpusTest, ObjectRecordForgedHistoryCount) {
  std::string bytes;
  PutVarint32(&bytes, 1);
  PutVarint64(&bytes, uint64_t{1} << 59);
  EXPECT_FALSE(DecodeObjectRecord(bytes).ok());
  EXPECT_FALSE(DecodeObjectRecordProjected(bytes, nullptr).ok());
}

// Mutation-fuzzer find: a record whose history interior is garbage
// (tag 0xc0 is no ValueKind) but whose framing is intact. The full
// decode rejects it; the projected decode skips history by length
// prefix without decoding it, so it accepts the record — that
// asymmetry is the documented projection contract, pinned here.
TEST(DecodeCorpusTest, ObjectRecordHistoryInteriorGarbage) {
  const unsigned char raw[] = {0x03, 0x02, 0x01, 0x02, 0x02, 0x14,
                               0x02, 0x02, 0xc0, 0x28, 0x02, 0x3c};
  std::string bytes(reinterpret_cast<const char*>(raw), sizeof(raw));
  EXPECT_FALSE(DecodeObjectRecord(bytes).ok());
  Result<ProjectedRecord> projected =
      DecodeObjectRecordProjected(bytes, nullptr);
  ASSERT_TRUE(projected.ok()) << projected.status().message();
  EXPECT_EQ(projected->version, 3u);
}

// --- slotted page ------------------------------------------------------

// Fuzzer crasher (fuzz/corpus/slotted_page/forged_slot_count): a page
// image claiming 65535 slots. The slot array for that count would be
// 256 KiB — 64x the page. Pre-fix, Get()/FreeSpace() walked the raw
// header count and read slot entries far off the page (SIGSEGV under
// the replay driver, heap-buffer-overflow under ASan). Accessors now
// clamp to kMaxSlotCount and Validate() rejects the image.
TEST(DecodeCorpusTest, SlottedPageForgedSlotCount) {
  Page page;
  page.Zero();
  page.bytes()[4] = static_cast<char>(0xff);  // slot_count = 0xffff
  page.bytes()[5] = static_cast<char>(0xff);
  SlottedPage sp(&page);
  EXPECT_FALSE(sp.Validate().ok());
  // The pre-fix crash sites: none of these may read off the page.
  EXPECT_FALSE(sp.Get(40000).ok());
  (void)sp.FreeSpace();
  (void)sp.ContiguousFreeSpace();
}

// A live slot whose [offset, offset+length) hangs past the usable
// page area: Validate() rejects it, and Get() re-checks the slot it
// touches even without a prior Validate().
TEST(DecodeCorpusTest, SlottedPageSlotPastEnd) {
  Page page;
  page.Zero();
  SlottedPage sp(&page);
  sp.Init();
  auto* bytes = page.bytes();
  bytes[4] = 1;  // slot_count = 1
  bytes[8] = 1;  // live_count = 1
  // slot 0: offset 4000, length 500 -> ends at 4500 > kPageUsableSize.
  bytes[SlottedPage::kHeaderSize] = static_cast<char>(4000 & 0xff);
  bytes[SlottedPage::kHeaderSize + 1] = static_cast<char>(4000 >> 8);
  bytes[SlottedPage::kHeaderSize + 2] = static_cast<char>(500 & 0xff);
  bytes[SlottedPage::kHeaderSize + 3] = static_cast<char>(500 >> 8);
  EXPECT_FALSE(sp.Validate().ok());
  Result<std::string_view> record = sp.Get(0);
  ASSERT_FALSE(record.ok());
  EXPECT_TRUE(record.status().IsCorruption());
}

// --- WAL recovery ------------------------------------------------------

/// zlib's CRC-32, the checksum of version-1 logs and ODEACC01
/// captures (version 2 and ODEACC02 use CRC-32C).
uint32_t ZlibCrc32(std::string_view bytes, uint32_t seed = 0) {
  uint32_t crc = ~seed;
  for (char c : bytes) {
    crc ^= static_cast<uint8_t>(c);
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1) ? 0xEDB88320u : 0);
    }
  }
  return ~crc;
}

/// The checksum a log of `version` carries.
uint32_t WalCrc(uint32_t version, std::string_view bytes, uint32_t seed = 0) {
  return version == 1 ? ZlibCrc32(bytes, seed) : Crc32c(bytes, seed);
}

std::string WalHeaderBytes(uint32_t version = 2) {
  std::string header;
  PutFixed64(&header, uint64_t{0x4f4445574c303155});  // kWalMagic
  PutFixed32(&header, version);
  PutFixed32(&header, 0);  // reserved
  PutFixed64(&header, 0);  // base_lsn
  PutFixed32(&header, WalCrc(version, header));
  PutFixed32(&header, 0);  // pad
  return header;
}

std::string WalRecordBytes(uint8_t type, uint64_t txn,
                           const std::string& payload, uint32_t version = 2) {
  std::string rec;
  PutFixed32(&rec, static_cast<uint32_t>(payload.size()));
  rec.push_back(static_cast<char>(type));
  PutFixed64(&rec, txn);
  uint32_t crc = WalCrc(version, std::string_view(rec).substr(4));
  crc = WalCrc(version, payload, crc);
  PutFixed32(&rec, crc);
  rec += payload;
  return rec;
}

// A committed page image for page 2^31 in an empty database
// (fuzz/corpus/wal_replay/forged_page_id). Redo must refuse to grow
// the file toward a forged page id — pre-fix this attempted to
// materialize two billion pages (8 TiB) through the pager.
TEST(DecodeCorpusTest, WalRecoveryForgedPageIdRejected) {
  std::string image_payload;
  PutFixed32(&image_payload, uint32_t{1} << 31);
  image_payload.append(kPageSize, '\0');
  std::string log = WalHeaderBytes() +
                    WalRecordBytes(1, 3, image_payload) +
                    WalRecordBytes(2, 3, "");

  auto store = std::make_unique<MemWalStore>();
  ASSERT_TRUE(store->Append(log).ok());
  MemPager pager;
  WalRecoveryStats stats;
  auto wal =
      Wal::OpenAndRecover(std::move(store), &pager, WalOptions{}, &stats);
  EXPECT_FALSE(wal.ok());
  EXPECT_EQ(pager.page_count(), 0u) << "recovery must not grow the file";
}

// The same forged-page-id log parses fine as bytes: Inspect() is the
// pure scan and takes no position on page ids.
TEST(DecodeCorpusTest, WalInspectAcceptsForgedPageId) {
  std::string image_payload;
  PutFixed32(&image_payload, uint32_t{1} << 31);
  image_payload.append(kPageSize, '\0');
  std::string log = WalHeaderBytes() +
                    WalRecordBytes(1, 3, image_payload) +
                    WalRecordBytes(2, 3, "");
  auto records = Wal::Inspect(log);
  ASSERT_TRUE(records.ok());
  EXPECT_EQ(records->size(), 2u);
}

// A committed transaction in a version-1 log, as a version-1 build
// wrote it (fuzz/corpus/wal_replay/v1_header). Recovery must refuse it
// with a typed status naming both versions and leave both files alone:
// before the refusal, every unreadable header was a torn tail, so the
// committed image was silently dropped.
TEST(DecodeCorpusTest, WalRecoveryRefusesVersion1Log) {
  std::string image_payload;
  PutFixed32(&image_payload, 0);
  image_payload.append(kPageSize, '\x42');
  std::string log = WalHeaderBytes(1) +
                    WalRecordBytes(1, 7, image_payload, 1) +
                    WalRecordBytes(2, 7, "", 1);

  auto store = std::make_unique<MemWalStore>();
  ASSERT_TRUE(store->Append(log).ok());
  MemPager pager;
  auto wal = Wal::OpenAndRecover(std::move(store), &pager, WalOptions{});
  ASSERT_FALSE(wal.ok());
  EXPECT_EQ(wal.status().code(), StatusCode::kUnimplemented);
  EXPECT_EQ(wal.status().message(),
            "unsupported wal version 1 (this build reads version 2)");
  EXPECT_EQ(pager.page_count(), 0u) << "nothing may be redone";
}

// --- heap chain --------------------------------------------------------

// Two pages whose next_page pointers form a cycle. Pre-fix,
// HeapFile::Open's chain walk looped forever; it now fails with
// Corruption naming the revisited page.
TEST(DecodeCorpusTest, HeapChainCycleDetected) {
  MemPager pager;
  Page page;
  for (int i = 0; i < 2; ++i) {
    page.Zero();
    SlottedPage sp(&page);
    sp.Init();
    sp.set_next_page(i == 0 ? 1 : 0);  // 0 -> 1 -> 0
    auto id = pager.Allocate();
    ASSERT_TRUE(id.ok());
    ASSERT_TRUE(pager.Write(*id, page).ok());
  }
  BufferPool pool(&pager, /*capacity=*/8);
  FreeList free_list(&pool, kNoPage);
  auto heap = HeapFile::Open(&pool, &free_list, /*first_page=*/0);
  ASSERT_FALSE(heap.ok());
  EXPECT_TRUE(heap.status().IsCorruption());
}

}  // namespace
}  // namespace ode::odb

namespace ode::obs {
namespace {

// --- ODEACC02 access trace --------------------------------------------

// A frame length claiming 2^31 bytes in a 30-byte file: the reader
// must treat it as a torn tail, not trust the length.
TEST(DecodeCorpusTest, AccessTraceLyingFrameLength) {
  std::string bytes = "ODEACC02";
  PutFixed32(&bytes, uint32_t{1} << 31);
  bytes.append(18, '\0');
  auto trace = ParseAccessTrace(bytes);
  ASSERT_TRUE(trace.ok()) << trace.status().message();
  EXPECT_TRUE(trace->records.empty());
  EXPECT_GT(trace->torn_tail_bytes, 0u);
}

// A well-CRC'd frame whose interior is a truncated event record: the
// frame passes the checksum but the record decode must fail cleanly.
TEST(DecodeCorpusTest, AccessTraceTornEventInsideValidFrame) {
  std::string payload;
  payload.push_back(2);  // kCaptureEvent
  payload.push_back(0);  // op varint
  payload.push_back(static_cast<char>(0xff));  // cut mid-varint
  std::string bytes = "ODEACC02";
  PutFixed32(&bytes, static_cast<uint32_t>(payload.size()));
  bytes += payload;
  PutFixed32(&bytes, Crc32c(payload));
  EXPECT_FALSE(ParseAccessTrace(bytes).ok());
}

// A well-formed ODEACC01 capture (fuzz/corpus/access_trace/v1_magic):
// one class-def frame under the older zlib CRC-32. The reader names
// the version it cannot read instead of calling it a non-capture.
TEST(DecodeCorpusTest, AccessTraceRefusesVersion01) {
  std::string payload;
  payload.push_back(1);  // kCaptureClassDef
  PutVarint32(&payload, 1);
  PutLengthPrefixed(&payload, "Employee");
  std::string bytes = "ODEACC01";
  PutFixed32(&bytes, static_cast<uint32_t>(payload.size()));
  bytes += payload;
  PutFixed32(&bytes, odb::ZlibCrc32(payload));
  auto trace = ParseAccessTrace(bytes);
  ASSERT_FALSE(trace.ok());
  EXPECT_EQ(trace.status().code(), StatusCode::kUnimplemented);
  EXPECT_EQ(trace.status().message(),
            "unsupported capture version ODEACC01 (this build reads "
            "ODEACC02)");
}

// --- telemetry HTTP ----------------------------------------------------

TEST(DecodeCorpusTest, RequestPathParsesAndDefaults) {
  EXPECT_EQ(ParseRequestPath("GET /metrics HTTP/1.0\r\n"), "/metrics");
  EXPECT_EQ(ParseRequestPath("GET /healthz HTTP/1.1\r\nHost: x\r\n"),
            "/healthz");
  // Degenerate request lines all fall back to "/" (never empty, never
  // a view outside the input).
  EXPECT_EQ(ParseRequestPath(""), "/");
  EXPECT_EQ(ParseRequestPath("GARBAGE\r\n"), "/");
  EXPECT_EQ(ParseRequestPath("   \r\n"), "/");
  EXPECT_EQ(ParseRequestPath("GET  HTTP/1.0\r\n"), "/");
  EXPECT_EQ(ParseRequestPath(std::string("GET /\x00x HTTP/1.0\r\n", 19)),
            std::string("/\x00x", 3));
}

}  // namespace
}  // namespace ode::obs

namespace ode::odb {
namespace {

// --- DDL / predicate depth caps ---------------------------------------

// 600 levels of set< nesting: pre-fix this recursed once per level
// and overflowed the stack; now it fails at the documented cap.
TEST(DecodeCorpusTest, DdlDeepTypeNestingRejected) {
  std::string source = "class T { ";
  for (int i = 0; i < 600; ++i) source += "set<";
  source += "int";
  source.append(600, '>');
  source += " x; };";
  EXPECT_FALSE(ParseSchema(source).ok());
}

// Nesting inside the cap still parses.
TEST(DecodeCorpusTest, DdlModerateTypeNestingAccepted) {
  std::string source = "class T { set<set<set<array<int, 4>>>> x; };";
  auto schema = ParseSchema(source);
  ASSERT_TRUE(schema.ok()) << schema.status().message();
}

// 4000 parens around a comparison: the predicate parser's cap turns a
// stack overflow into InvalidArgument.
TEST(DecodeCorpusTest, PredicateDeepParensRejected) {
  std::string text(4000, '(');
  text += "a == 1";
  text.append(4000, ')');
  EXPECT_FALSE(ParsePredicate(text).ok());
}

TEST(DecodeCorpusTest, PredicateModerateNestingAccepted) {
  std::string text = "!(!(a == 1 && (b > 2 || !(c != 3))))";
  auto predicate = ParsePredicate(text);
  ASSERT_TRUE(predicate.ok()) << predicate.status().message();
}

}  // namespace
}  // namespace ode::odb
