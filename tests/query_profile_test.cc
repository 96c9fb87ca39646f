// Tests for the query-profiling layer: OpProfile charge propagation
// (storage / WAL / lock / executor charge sites), per-session resource
// accounting and the /sessions inspector, the slow-operation ring,
// EXPLAIN / EXPLAIN ANALYZE (including the per-operator-vs-totals
// equivalence the join plan promises), latency-percentile windows, and
// the telemetry endpoint's new surfaces and error paths.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/journal.h"
#include "common/metrics.h"
#include "common/op_profile.h"
#include "common/telemetry_http.h"
#include "common/threading.h"
#include "odb/database.h"
#include "odb/exec/executor.h"
#include "odb/exec/explain.h"
#include "odb/labdb.h"
#include "odb/predicate.h"

namespace ode::odb {
namespace {

/// Restores the slow-op threshold on scope exit; several tests lower
/// it to capture everything and must not leak that into neighbors.
class ScopedSlowThreshold {
 public:
  explicit ScopedSlowThreshold(uint64_t ns)
      : previous_(obs::SlowOpLog::Global().threshold_ns()) {
    obs::SlowOpLog::Global().set_threshold_ns(ns);
  }
  ~ScopedSlowThreshold() {
    obs::SlowOpLog::Global().set_threshold_ns(previous_);
  }

 private:
  uint64_t previous_;
};

std::string StatsJson(const obs::OpProfile& stats) {
  std::ostringstream os;
  obs::AppendOpProfileStatsJson(os, stats);
  return os.str();
}

/// 600 objects of ~700 bytes each behind an 8-frame pool: a walk
/// keeps stepping onto pages the pool no longer holds, so sequential
/// read-ahead really goes to the prefetcher.
std::unique_ptr<Database> SmallPoolDb() {
  DatabaseOptions options;
  options.buffer_pool_pages = 8;
  auto db = std::move(*Database::CreateInMemory("small_pool", options));
  EXPECT_TRUE(
      db->DefineSchema("persistent class item { public: string pad; };").ok());
  Session session = db->OpenSession();
  for (int i = 0; i < 600; ++i) {
    std::string pad(700, static_cast<char>('a' + i % 26));
    Value item = Value::Struct({{"pad", Value::String(std::move(pad))}});
    EXPECT_TRUE(session.CreateObject("item", std::move(item)).ok());
  }
  return db;
}

class QueryProfileSuite : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::move(*Database::CreateInMemory("lab"));
    LabDbConfig config;
    ASSERT_TRUE(BuildLabDatabase(db_.get(), config).ok());
  }

  std::unique_ptr<Database> db_;
};

// --- OpProfile core ---------------------------------------------------

TEST(OpProfileTest, ChargesSnapshotAndMerge) {
  obs::OpProfile profile;
  profile.pool_lookups = 2;
  profile.pool_hits = 1;
  profile.pool_misses = 1;
  profile.pager_reads = 1;
  profile.pager_writes = 3;
  profile.heap_records = 7;
  profile.arena_bytes = 123;
  profile.cluster_prefetches = 4;
  profile.rows_scanned = 10;
  profile.rows_matched = 4;
  profile.rows_skipped_decode = 6;
  profile.predicate_evals = 10;
  profile.batches = 2;
  profile.join_build_rows = 3;
  profile.join_probe_rows = 5;
  profile.join_pairs = 2;
  profile.lock_wait_ns = 1000;
  profile.wal_commit_wait_ns = 2000;
  profile.wal_bytes_logged = 64;

  // Merging is `+=`, over every counter.
  obs::OpProfile dest;
  dest += profile;
  dest += profile;
  for (const obs::OpProfileCounter& c : obs::kOpProfileCounters) {
    EXPECT_EQ(dest.*c.member, 2 * (profile.*c.member)) << c.json_name;
  }
  EXPECT_EQ(dest.pool_lookups, 4u);
  EXPECT_EQ(dest.wal_bytes_logged, 128u);

  // A session's totals add the same way; their snapshot is a plain copy.
  obs::SessionTotals totals;
  totals.Add(profile);
  totals.Add(profile);
  EXPECT_EQ(StatsJson(totals.Snapshot()), StatsJson(dest));
}

// The JSON body `/sessions`, `/slow` and EXPLAIN carry, pinned byte for
// byte: field order, each name on its own counter, and `pool_misses`
// exported as "pages_read".
TEST(OpProfileTest, JsonNamesEveryCounterInOrder) {
  obs::OpProfile profile;
  profile.pool_lookups = 101;
  profile.pool_hits = 102;
  profile.pool_misses = 103;
  profile.pager_reads = 104;
  profile.pager_writes = 105;
  profile.heap_records = 106;
  profile.arena_bytes = 107;
  profile.cluster_prefetches = 108;
  profile.rows_scanned = 109;
  profile.rows_matched = 110;
  profile.rows_skipped_decode = 111;
  profile.predicate_evals = 112;
  profile.batches = 113;
  profile.join_build_rows = 115;
  profile.join_probe_rows = 116;
  profile.join_pairs = 117;
  profile.lock_wait_ns = 118;
  profile.wal_commit_wait_ns = 119;
  profile.wal_bytes_logged = 120;
  EXPECT_EQ(StatsJson(profile),
            "\"pool_lookups\":101,\"pool_hits\":102,\"pages_read\":103,"
            "\"pager_reads\":104,\"pager_writes\":105,"
            "\"heap_records\":106,\"arena_bytes\":107,"
            "\"cluster_prefetches\":108,\"rows_scanned\":109,"
            "\"rows_matched\":110,\"rows_skipped_decode\":111,"
            "\"predicate_evals\":112,\"batches\":113,"
            "\"join_build_rows\":115,\"join_probe_rows\":116,"
            "\"join_pairs\":117,\"lock_wait_ns\":118,"
            "\"wal_commit_wait_ns\":119,\"wal_bytes_logged\":120");
}

TEST(OpProfileTest, ScopeInstallsAndRestores) {
  EXPECT_EQ(obs::CurrentOpProfile(), nullptr);
  obs::OpProfile outer, inner;
  {
    obs::OpContextScope a(obs::OpContext{
        .trace_id = 5, .span_id = 6, .session_id = 7, .profile = &outer});
    EXPECT_EQ(obs::CurrentOpProfile(), &outer);
    EXPECT_EQ(obs::CurrentSessionId(), 7u);
    EXPECT_EQ(obs::CurrentTraceContext().trace_id, 5u);
    EXPECT_EQ(obs::CurrentTraceContext().span_id, 6u);
    {
      obs::OpContextScope b(obs::OpContext{.profile = &inner});
      EXPECT_EQ(obs::CurrentOpProfile(), &inner);
      // A default context turns profiling off and detaches the scope.
      obs::OpContextScope off(obs::OpContext{});
      EXPECT_EQ(obs::CurrentOpProfile(), nullptr);
      EXPECT_EQ(obs::CurrentSessionId(), 0u);
    }
    // The whole context comes back, not only the profile.
    EXPECT_EQ(obs::CurrentOpProfile(), &outer);
    EXPECT_EQ(obs::CurrentSessionId(), 7u);
    EXPECT_EQ(obs::CurrentTraceContext().span_id, 6u);
  }
  EXPECT_EQ(obs::CurrentOpProfile(), nullptr);
  EXPECT_EQ(obs::CurrentSessionId(), 0u);
}

TEST(OpProfileTest, ProfiledOpMergesIntoParentAndSession) {
  ScopedSlowThreshold quiet(0);  // 0 disables slow capture
  obs::SessionEntry session(/*session_id=*/77, /*trace_id=*/0,
                            /*opened_ns=*/0);
  obs::OpProfile outer;
  obs::OpContextScope scope(obs::OpContext{.profile = &outer});
  {
    obs::ProfiledOp op(&session, "test_op");
    EXPECT_EQ(session.current_op(), std::string("test_op"));
    ++obs::CurrentOpProfile()->pager_reads;
    obs::CurrentOpProfile()->rows_scanned += 5;
  }
  EXPECT_EQ(session.current_op(), nullptr);
  EXPECT_EQ(session.ops_completed(), 1u);
  // Charges aggregate upward into the enclosing profile AND into the
  // session's cumulative totals.
  EXPECT_EQ(outer.pager_reads, 1u);
  EXPECT_EQ(outer.rows_scanned, 5u);
  EXPECT_EQ(session.totals().Snapshot().pager_reads, 1u);
}

TEST(OpProfileTest, ContendedLockWaitIsCharged) {
  obs::OpProfile profile;
  Mutex mu(LockRank::kPager);
  std::atomic<bool> held{false};
  std::thread holder([&] {
    mu.Lock();
    held.store(true, std::memory_order_release);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    mu.Unlock();
  });
  while (!held.load(std::memory_order_acquire)) std::this_thread::yield();
  {
    obs::OpContextScope scope(obs::OpContext{.profile = &profile});
    MutexLock blocked(mu);  // contended: the timed slow path runs
  }
  holder.join();
  EXPECT_GT(profile.lock_wait_ns, 0u);

  // Uncontended acquisition takes the try_lock fast path: no charge.
  obs::OpProfile cheap;
  {
    obs::OpContextScope scope(obs::OpContext{.profile = &cheap});
    MutexLock uncontended(mu);
  }
  EXPECT_EQ(cheap.lock_wait_ns, 0u);
}

// --- Executor / storage charge sites ---------------------------------

TEST_F(QueryProfileSuite, SelectChargesAttachedProfile) {
  Predicate predicate = *ParsePredicate("age > 40");
  obs::OpProfile profile;
  {
    obs::OpContextScope scope(obs::OpContext{.profile = &profile});
    auto result = db_->Select("employee", predicate);
    ASSERT_TRUE(result.ok());
    EXPECT_FALSE(result->empty());
  }
  const obs::OpProfile& s = profile;
  EXPECT_GT(s.rows_scanned, 0u);
  EXPECT_GT(s.rows_matched, 0u);
  EXPECT_GT(s.predicate_evals, 0u);
  EXPECT_GT(s.batches, 0u);
  EXPECT_GT(s.heap_records, 0u);
  EXPECT_GT(s.arena_bytes, 0u);
  EXPECT_GT(s.pool_lookups, 0u);
  EXPECT_EQ(s.rows_scanned, s.heap_records);
}

TEST_F(QueryProfileSuite, NoProfileAttachedStaysCheapAndSafe) {
  ASSERT_EQ(obs::CurrentOpProfile(), nullptr);
  Predicate predicate = *ParsePredicate("age > 40");
  auto result = db_->Select("employee", predicate);
  ASSERT_TRUE(result.ok());  // every charge site tolerates nullptr
}

// --- EXPLAIN / EXPLAIN ANALYZE ---------------------------------------

TEST_F(QueryProfileSuite, ExplainSelectDescribesPlanWithoutRunning) {
  Predicate predicate = *ParsePredicate("age > 40");
  auto explained = db_->ExplainSelect("employee", predicate, false);
  ASSERT_TRUE(explained.ok());
  EXPECT_FALSE(explained->analyzed);
  std::string text = explained->RenderText();
  EXPECT_NE(text.find("scan"), std::string::npos);
  EXPECT_NE(text.find("class: employee"), std::string::npos);
  EXPECT_NE(text.find("predicate: "), std::string::npos);
  EXPECT_NE(text.find("strategy: batched-decode"), std::string::npos);
  EXPECT_NE(text.find("masked (1 attributes)"), std::string::npos);
  EXPECT_EQ(text.find("actual:"), std::string::npos) << text;
  std::string json = explained->RenderJson();
  EXPECT_NE(json.find("\"analyzed\":false"), std::string::npos);
  EXPECT_NE(json.find("\"op\":\"scan\""), std::string::npos);
}

// Two dotted paths into one attribute mask that attribute once, as the
// scan decodes it: EXPLAIN reports the mask ExecuteScan runs with, for
// a scan and for a join's input.
TEST(ExplainProjectionTest, DottedPathsSharingAnAttributeMaskItOnce) {
  auto db = std::move(*Database::CreateInMemory("shapes"));
  ASSERT_TRUE(db->DefineSchema(R"(
class point { public: int x; int y; };
class shape { public: string name; point origin; int area; };
)")
                  .ok());
  for (int i = 0; i < 10; ++i) {
    Value origin =
        Value::Struct({{"x", Value::Int(i)}, {"y", Value::Int(2 * i)}});
    ASSERT_TRUE(db->CreateObject(
                      "shape",
                      Value::Struct({{"name", Value::String("s")},
                                     {"origin", std::move(origin)},
                                     {"area", Value::Int(i)}}))
                    .ok());
  }
  Predicate predicate = *ParsePredicate("origin.x > 2 && origin.y < 14");
  auto plan = db->ExplainSelect("shape", predicate, false);
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->RenderText().find("projection: masked (1 attributes)"),
            std::string::npos)
      << plan->RenderText();

  // The scan keeps `origin` and skips `name` and `area` in every row.
  auto analyzed = db->ExplainSelect("shape", predicate, true);
  ASSERT_TRUE(analyzed.ok());
  EXPECT_EQ(analyzed->totals.rows_scanned, 10u);
  EXPECT_EQ(analyzed->totals.rows_skipped_decode, 20u);
  EXPECT_EQ(analyzed->root.rows_out, 4u);  // x = 3, 4, 5, 6

  Predicate join = *ParsePredicate(
      "left.origin.x == right.origin.y && left.origin.y < 10");
  auto join_plan = db->ExplainJoin("shape", "shape", join, false);
  ASSERT_TRUE(join_plan.ok());
  ASSERT_EQ(join_plan->root.children.size(), 2u);
  for (const exec::PlanNode& side : join_plan->root.children) {
    bool masked_once = false;
    for (const auto& [key, value] : side.props) {
      if (key == "projection") masked_once = value == "masked (1 attributes)";
    }
    EXPECT_TRUE(masked_once) << join_plan->RenderText();
  }
}

TEST_F(QueryProfileSuite, ExplainPredictsIdsOnlyFastPath) {
  auto explained =
      db_->ExplainSelect("employee", Predicate::True(), false);
  ASSERT_TRUE(explained.ok());
  EXPECT_NE(explained->RenderText().find("strategy: ids-only"),
            std::string::npos);
}

TEST_F(QueryProfileSuite, ExplainAnalyzeSelectReportsActuals) {
  Predicate predicate = *ParsePredicate("age > 40");
  auto expected = db_->Select("employee", predicate);
  ASSERT_TRUE(expected.ok());
  auto explained = db_->ExplainSelect("employee", predicate, true);
  ASSERT_TRUE(explained.ok());
  EXPECT_TRUE(explained->analyzed);
  EXPECT_GT(explained->total_ns, 0u);
  EXPECT_EQ(explained->root.rows_out, expected->size());
  EXPECT_GT(explained->totals.rows_scanned, 0u);
  EXPECT_GT(explained->totals.pool_lookups, 0u);
  // Single-operator plan: root actuals ARE the totals.
  EXPECT_EQ(StatsJson(explained->root.actual),
            StatsJson(explained->totals));
  std::string text = explained->RenderText();
  EXPECT_NE(text.find("actual: rows="), std::string::npos);
  EXPECT_NE(text.find("totals: time="), std::string::npos);
  std::string json = explained->RenderJson();
  EXPECT_NE(json.find("\"rows_scanned\":"), std::string::npos);
  EXPECT_NE(json.find("\"pages_read\":"), std::string::npos);
}

TEST_F(QueryProfileSuite, ExplainAnalyzeMergesIntoEnclosingProfile) {
  Predicate predicate = *ParsePredicate("age > 40");
  obs::OpProfile outer;
  obs::OpContextScope scope(obs::OpContext{.profile = &outer});
  auto explained = db_->ExplainSelect("employee", predicate, true);
  ASSERT_TRUE(explained.ok());
  // The nested analysis profile merged back: session totals would not
  // lose the work EXPLAIN ANALYZE performed.
  EXPECT_EQ(outer.rows_scanned, explained->totals.rows_scanned);
}

TEST_F(QueryProfileSuite, ExplainJoinPredictsStrategy) {
  Predicate hash = *ParsePredicate("left.age == right.age");
  auto explained = db_->ExplainJoin("employee", "manager", hash, false);
  ASSERT_TRUE(explained.ok());
  EXPECT_EQ(explained->root.op, "hash-join");
  ASSERT_EQ(explained->root.children.size(), 2u);
  EXPECT_EQ(explained->root.children[0].op, "scan");
  EXPECT_NE(explained->RenderText().find("key: left.age = right.age"),
            std::string::npos);

  Predicate loop = *ParsePredicate("left.age < right.age");
  auto nested = db_->ExplainJoin("employee", "manager", loop, false);
  ASSERT_TRUE(nested.ok());
  EXPECT_EQ(nested->root.op, "nested-loop-join");
}

// The acceptance property: per-operator actuals sum to exactly the
// query totals — no charge is double-counted or dropped between the
// two scan phases, the match phase, and the whole-query profile.
TEST_F(QueryProfileSuite, ExplainAnalyzeJoinActualsSumToTotals) {
  Predicate predicate = *ParsePredicate("left.age == right.age");
  auto explained = db_->ExplainJoin("employee", "manager", predicate, true);
  ASSERT_TRUE(explained.ok());
  ASSERT_TRUE(explained->analyzed);
  ASSERT_EQ(explained->root.children.size(), 2u);

  obs::OpProfile sum;
  sum += explained->root.children[0].actual;  // left scan
  sum += explained->root.children[1].actual;  // right scan
  sum += explained->root.actual;              // match phase
  EXPECT_EQ(StatsJson(sum), StatsJson(explained->totals));

  // And the operator attribution is sane: scans carry the storage
  // charges, the match phase carries the join-row charges.
  EXPECT_GT(explained->root.children[0].actual.rows_scanned, 0u);
  EXPECT_GT(explained->root.children[1].actual.rows_scanned, 0u);
  EXPECT_EQ(explained->root.actual.rows_scanned, 0u);
  EXPECT_GT(explained->root.actual.join_probe_rows, 0u);
  EXPECT_EQ(explained->root.children[0].actual.join_probe_rows, 0u);
}

/// The global metric `name` summed over its instruments (0 if none).
uint64_t GlobalCounter(std::string_view name) {
  for (const obs::MetricSample& s : obs::Registry::Global().Snapshot()) {
    if (s.name == name) return static_cast<uint64_t>(s.value);
  }
  return 0;
}

/// One cursor step as one session op, in a frame of its own, the way a
/// `Session` method runs an op: when the step returns, the op and the
/// profile on its stack are gone, while read-ahead the step scheduled
/// may still be queued.
[[gnu::noinline]] Result<ObjectBuffer> ProfiledStep(Session* session,
                                                   ObjectCursor* cursor) {
  obs::ProfiledOp op(session->entry(), "cursor_next");
  return cursor->Next();
}

// The profile's charges must agree with the engine's global metrics.
// Read-ahead runs on the never-joined prefetcher and is billed to no op
// (the step that scheduled it may be gone when it runs), so each
// prefetch is one global pool lookup that the session totals do not
// see.
TEST_F(QueryProfileSuite, ProfileAgreesWithGlobalCounters) {
  std::unique_ptr<Database> db = SmallPoolDb();
  db_->buffer_pool()->WaitForPrefetches();
  db->buffer_pool()->WaitForPrefetches();

  uint64_t lookups_before = GlobalCounter("pool.fetch.lookups");
  uint64_t prefetches_before = GlobalCounter("pool.prefetches");
  uint64_t records_before = GlobalCounter("heap.batch_records");
  Session session = db->OpenSession();
  ObjectCursor cursor(db.get(), "item");
  size_t steps = 0;
  while (ProfiledStep(&session, &cursor).ok()) ++steps;
  EXPECT_EQ(steps, 600u);
  // Every read-ahead has run before the counters are read, so one that
  // still charged a step's profile would show in the session totals.
  db->buffer_pool()->WaitForPrefetches();
  uint64_t lookups = GlobalCounter("pool.fetch.lookups") - lookups_before;
  uint64_t prefetches = GlobalCounter("pool.prefetches") - prefetches_before;
  uint64_t records = GlobalCounter("heap.batch_records") - records_before;
  obs::OpProfile s = session.entry()->totals().Snapshot();
  EXPECT_GT(s.pool_lookups, 0u);
  EXPECT_GT(prefetches, 0u);
  // Other tests don't run concurrently in this process, so the global
  // deltas are this walk's work.
  EXPECT_EQ(lookups, s.pool_lookups + prefetches);
  EXPECT_EQ(records, s.heap_records);
}

// Twenty cursor walks, each step its own session op. The read-ahead a
// step schedules runs on the prefetcher after the step's `ProfiledOp`
// (and the profile on its stack) may be gone, so it must be billed to
// no op. Under ASan with detect_stack_use_after_return=1 a prefetch
// that still held the op's profile reports a write into the finished
// op's frame; without ASan its lookup lands in a later step's profile
// and breaks the equality below.
TEST(PrefetchBillingTest, NextObjectWalkBillsReadAheadToNoOp) {
  std::unique_ptr<Database> db = SmallPoolDb();
  db->buffer_pool()->WaitForPrefetches();
  uint64_t lookups_before = GlobalCounter("pool.fetch.lookups");
  uint64_t prefetches_before = GlobalCounter("pool.prefetches");
  Session session = db->OpenSession();
  for (int walk = 0; walk < 20; ++walk) {
    ObjectCursor cursor(db.get(), "item");
    Result<ObjectBuffer> at = ProfiledStep(&session, &cursor);
    ASSERT_TRUE(at.ok());
    while (at.ok()) at = ProfiledStep(&session, &cursor);
    EXPECT_TRUE(at.status().IsOutOfRange()) << at.status().ToString();
  }
  db->buffer_pool()->WaitForPrefetches();
  uint64_t lookups = GlobalCounter("pool.fetch.lookups") - lookups_before;
  uint64_t prefetches = GlobalCounter("pool.prefetches") - prefetches_before;
  EXPECT_GT(prefetches, 0u);
  EXPECT_EQ(lookups,
            session.entry()->totals().Snapshot().pool_lookups + prefetches);
}

// --- Session accounting ----------------------------------------------

TEST_F(QueryProfileSuite, SessionRegistryTracksOpenSessions) {
  obs::SessionRegistry& registry = obs::SessionRegistry::Global();
  size_t before = registry.size();
  {
    Session session = db_->OpenSession();
    ASSERT_NE(session.entry(), nullptr);
    EXPECT_EQ(registry.size(), before + 1);
    EXPECT_EQ(session.entry()->session_id(), session.id());
    EXPECT_EQ(session.entry()->current_op(), nullptr);

    Predicate predicate = *ParsePredicate("age > 40");
    ASSERT_TRUE(session.Select("employee", predicate).ok());
    ASSERT_TRUE(session.ScanCluster("employee").ok());
    EXPECT_EQ(session.entry()->ops_completed(), 2u);
    EXPECT_GT(session.entry()->busy_ns(), 0u);
    EXPECT_GT(session.entry()->totals().Snapshot().rows_scanned, 0u);

    std::string json = registry.RenderJson();
    EXPECT_NE(json.find("\"session_id\":" + std::to_string(session.id())),
              std::string::npos);
    EXPECT_NE(json.find("\"ops_completed\":"), std::string::npos);
    EXPECT_NE(json.find("\"totals\":{"), std::string::npos);
  }
  EXPECT_EQ(registry.size(), before);  // close unregisters
}

TEST_F(QueryProfileSuite, MovedSessionKeepsSingleRegistration) {
  obs::SessionRegistry& registry = obs::SessionRegistry::Global();
  size_t before = registry.size();
  Session a = db_->OpenSession();
  uint64_t id = a.id();
  Session b = std::move(a);
  EXPECT_EQ(registry.size(), before + 1);
  EXPECT_EQ(b.entry()->session_id(), id);
  b = db_->OpenSession();  // overwriting unregisters the old entry
  EXPECT_EQ(registry.size(), before + 1);
  EXPECT_NE(b.entry()->session_id(), id);
}

// --- Slow-operation log ----------------------------------------------

TEST_F(QueryProfileSuite, SlowOpsParkFullProfileInRing) {
  obs::SlowOpLog::Global().ResetForTest();
  ScopedSlowThreshold capture_everything(1);

  Session session = db_->OpenSession();
  Predicate predicate = *ParsePredicate("age > 40");
  ASSERT_TRUE(session.Select("employee", predicate).ok());

  ASSERT_GE(obs::SlowOpLog::Global().recorded(), 1u);
  std::vector<obs::SlowOpRecord> records =
      obs::SlowOpLog::Global().Snapshot();
  ASSERT_FALSE(records.empty());
  const obs::SlowOpRecord& slow = records.back();
  EXPECT_STREQ(slow.op, "select");
  EXPECT_EQ(slow.session_id, session.id());
  EXPECT_GT(slow.duration_ns, 0u);
  EXPECT_GT(slow.stats.rows_scanned, 0u);

  // The journal carries the threshold crossing too.
  bool journaled = false;
  for (const obs::JournalRecord& r : obs::Journal::Global().Snapshot()) {
    if (r.type == obs::JournalEvent::kSlowOp &&
        r.arg1 == static_cast<int64_t>(session.id())) {
      journaled = true;
    }
  }
  EXPECT_TRUE(journaled);

  std::string json = obs::SlowOpLog::Global().RenderJson();
  EXPECT_NE(json.find("\"op\":\"select\""), std::string::npos);
  EXPECT_NE(json.find("\"stats\":{"), std::string::npos);
}

TEST(SlowOpLogTest, ZeroThresholdDisablesCapture) {
  obs::SlowOpLog::Global().ResetForTest();
  ScopedSlowThreshold disabled(0);
  obs::ProfiledOp op(nullptr, "never_recorded");
  // (destructor runs at scope end)
}

TEST(SlowOpLogTest, RingOverwritesOldestBeyondCapacity) {
  obs::SlowOpLog& log = obs::SlowOpLog::Global();
  log.ResetForTest();
  obs::OpProfile stats;
  const uint64_t total = obs::SlowOpLog::kCapacity + 22;
  for (uint64_t i = 0; i < total; ++i) {
    stats.rows_scanned = i;
    log.Record("ring_test", /*session_id=*/i, /*trace_id=*/0,
               /*duration_ns=*/100 + i, stats);
  }
  EXPECT_EQ(log.recorded(), total);
  std::vector<obs::SlowOpRecord> records = log.Snapshot();
  ASSERT_EQ(records.size(), obs::SlowOpLog::kCapacity);
  // Oldest first, and exactly the newest kCapacity survive.
  EXPECT_EQ(records.front().seq, total - obs::SlowOpLog::kCapacity + 1);
  EXPECT_EQ(records.back().seq, total);
  for (size_t i = 1; i < records.size(); ++i) {
    EXPECT_EQ(records[i].seq, records[i - 1].seq + 1);
  }
  log.ResetForTest();
}

// --- Percentile windows ----------------------------------------------

TEST(MetricsWindowTest, WindowsRotateAndTrackRecentSamples) {
  obs::Registry& registry = obs::Registry::Global();
  registry.SetWindowDurationNs(0);  // rotate every snapshot
  obs::Histogram* h = registry.histogram("obs_test.profile.window");
  for (int i = 0; i < 100; ++i) h->Record(1000);

  auto window_of = [&](const char* name) {
    obs::MetricSample out;
    for (const obs::MetricSample& s : registry.Snapshot()) {
      if (s.name == name) out = s;
    }
    return out;
  };

  obs::MetricSample first = window_of("obs_test.profile.window");
  EXPECT_EQ(first.window_count, 100u);
  EXPECT_GT(first.window_p50, 0u);

  // A burst of much slower samples dominates the *next* window even
  // though the lifetime histogram is still mostly fast samples.
  for (int i = 0; i < 10; ++i) h->Record(1u << 20);
  obs::MetricSample second = window_of("obs_test.profile.window");
  EXPECT_EQ(second.window_count, 10u);
  EXPECT_GT(second.window_p50, first.window_p50 * 100);
  EXPECT_GT(second.window_p99, first.window_p99);
  // Lifetime quantiles still reflect the full population.
  EXPECT_LT(second.p50, second.window_p50);

  // With rotate-every-snapshot, an idle interval closes as an *empty*
  // window — the quantiles honestly say "nothing ran", they don't
  // replay stale samples.
  obs::MetricSample third = window_of("obs_test.profile.window");
  EXPECT_EQ(third.window_count, 0u);
  EXPECT_EQ(third.window_p99, 0u);

  registry.SetWindowDurationNs(60ull * 1000 * 1000 * 1000);
}

TEST(MetricsWindowTest, PrometheusAndJsonCarryWindowQuantiles) {
  obs::Registry& registry = obs::Registry::Global();
  registry.SetWindowDurationNs(0);
  obs::Histogram* h = registry.histogram("obs_test.profile.window_export");
  h->Record(5000);
  (void)registry.Snapshot();  // close a window containing the sample

  std::string prometheus = registry.RenderPrometheus();
  EXPECT_NE(prometheus.find("obs_test_profile_window_export_window_p95"),
            std::string::npos);
  std::string json = registry.RenderJson();
  EXPECT_NE(json.find("\"window\":{"), std::string::npos);
  EXPECT_NE(json.find("\"p95\":"), std::string::npos);
  registry.SetWindowDurationNs(60ull * 1000 * 1000 * 1000);
}

TEST(MetricsWindowTest, JsonExportsBucketBoundaries) {
  obs::Registry& registry = obs::Registry::Global();
  obs::Histogram* h = registry.histogram("obs_test.profile.buckets");
  h->Record(1);     // bucket le=1
  h->Record(1000);  // mid bucket
  std::string json = registry.RenderJson();
  EXPECT_NE(json.find("\"buckets\":[{"), std::string::npos);
  EXPECT_NE(json.find("\"le\":1,"), std::string::npos);
  EXPECT_NE(json.find("\"count\":"), std::string::npos);
}

// --- Telemetry endpoint ----------------------------------------------

std::string HttpGet(uint16_t port, const std::string& path) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
  (void)::send(fd, request.data(), request.size(), 0);
  std::string response;
  char buffer[4096];
  ssize_t n;
  while ((n = ::recv(fd, buffer, sizeof(buffer), 0)) > 0) {
    response.append(buffer, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

/// Sends `payload` raw (no trailing CRLF added) and returns the
/// response — for the malformed-request tests.
std::string HttpRaw(uint16_t port, const std::string& payload) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  (void)::send(fd, payload.data(), payload.size(), 0);
  ::shutdown(fd, SHUT_WR);
  std::string response;
  char buffer[4096];
  ssize_t n;
  while ((n = ::recv(fd, buffer, sizeof(buffer), 0)) > 0) {
    response.append(buffer, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

TEST_F(QueryProfileSuite, TelemetryServesSessionsSlowAndHealth) {
  obs::SlowOpLog::Global().ResetForTest();
  ScopedSlowThreshold capture_everything(1);
  Session session = db_->OpenSession();
  Predicate predicate = *ParsePredicate("age > 40");
  ASSERT_TRUE(session.Select("employee", predicate).ok());

  obs::TelemetryServer server;
  ASSERT_TRUE(server.Start(/*port=*/0).ok());

  std::string sessions = HttpGet(server.port(), "/sessions");
  EXPECT_NE(sessions.find("200 OK"), std::string::npos);
  EXPECT_NE(sessions.find("application/json"), std::string::npos);
  EXPECT_NE(
      sessions.find("\"session_id\":" + std::to_string(session.id())),
      std::string::npos);

  std::string slow = HttpGet(server.port(), "/slow");
  EXPECT_NE(slow.find("200 OK"), std::string::npos);
  EXPECT_NE(slow.find("\"op\":\"select\""), std::string::npos);
  EXPECT_NE(slow.find("\"rows_scanned\":"), std::string::npos);

  std::string health = HttpGet(server.port(), "/healthz");
  EXPECT_NE(health.find("200 OK"), std::string::npos);
  EXPECT_NE(health.find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(health.find("\"wal\":{\"recovery_runs\":"), std::string::npos);
  EXPECT_NE(health.find("\"torn_bytes\":"), std::string::npos);

  std::string metrics_json = HttpGet(server.port(), "/metrics.json");
  EXPECT_NE(metrics_json.find("200 OK"), std::string::npos);
  EXPECT_NE(metrics_json.find("\"counters\":{"), std::string::npos);

  server.Stop();
}

TEST(TelemetryErrorPathTest, UnknownPathReturns404) {
  obs::TelemetryServer server;
  ASSERT_TRUE(server.Start(0).ok());
  std::string response = HttpGet(server.port(), "/definitely-not-a-page");
  EXPECT_NE(response.find("404 Not Found"), std::string::npos);
  server.Stop();
}

TEST(TelemetryErrorPathTest, OversizedRequestLineRejected) {
  obs::TelemetryServer server;
  ASSERT_TRUE(server.Start(0).ok());
  // 8 KiB without a CRLF: the server must reject, not buffer forever.
  std::string huge = "GET /" + std::string(8192, 'a');
  std::string response = HttpRaw(server.port(), huge);
  EXPECT_NE(response.find("400 Bad Request"), std::string::npos);
  EXPECT_NE(response.find("request line too long"), std::string::npos);
  server.Stop();
}

TEST(TelemetryErrorPathTest, TruncatedRequestGetsNoResponse) {
  obs::TelemetryServer server;
  ASSERT_TRUE(server.Start(0).ok());
  // Connection closed before the request line completes: the server
  // just drops it (and must not crash or stall the accept loop).
  std::string response = HttpRaw(server.port(), "GET /metrics");
  EXPECT_EQ(response, "");
  // The listener is still healthy afterwards.
  std::string ok = HttpGet(server.port(), "/healthz");
  EXPECT_NE(ok.find("200 OK"), std::string::npos);
  server.Stop();
}

}  // namespace
}  // namespace ode::odb
