// Access-observatory battery: the sampled access recorder (heat
// tables, affinity edges, loss accounting), workload capture files
// (round-trip, torn tails), the capture→replay driver, and the
// metrics-history time-series store.
//
// Tests that need the *global* recorder (charge sites record into
// `AccessLog::Global()`) reset it up front; instance-level behavior
// uses private `AccessLog` objects so nothing leaks between tests.

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/access_log.h"
#include "common/journal.h"
#include "common/metrics.h"
#include "common/op_profile.h"
#include "common/timeseries.h"
#include "common/trace.h"
#include "odb/database.h"
#include "odb/exec/executor.h"
#include "odb/predicate.h"
#include "odb/replay.h"

namespace ode::obs {
namespace {

using odb::Database;
using odb::ObjectBuffer;
using odb::Oid;
using odb::Session;
using odb::Value;

constexpr char kObsSchema[] = R"(
persistent class dept {
public:
  string name;
};
persistent class person {
public:
  string name;
  int age;
  dept* dept_ref;
};
)";

std::unique_ptr<Database> ObsDb() {
  auto db = std::move(*Database::CreateInMemory("obs"));
  EXPECT_TRUE(db->DefineSchema(kObsSchema).ok());
  return db;
}

Value Person(std::string name, int64_t age, Oid dept = Oid::Null()) {
  return Value::Struct({
      {"name", Value::String(std::move(name))},
      {"age", Value::Int(age)},
      {"dept_ref", Value::Ref(dept, "dept")},
  });
}

Value Dept(std::string name) {
  return Value::Struct({{"name", Value::String(std::move(name))}});
}

/// Object-attributed page heat as a map (pool touches excluded — the
/// replay regenerates its own pool traffic).
std::map<uint64_t, uint64_t> ObjectPageHeat(const AccessProfile& profile) {
  std::map<uint64_t, uint64_t> out;
  for (const PageHeat& heat : profile.pages) {
    if (heat.object_accesses > 0) out[heat.page] = heat.object_accesses;
  }
  return out;
}

/// Hottest `n` object-accessed pages (the acceptance criterion's
/// "top-10 set").
std::set<uint64_t> TopObjectPages(const AccessProfile& profile, size_t n) {
  std::vector<std::pair<uint64_t, uint64_t>> by_heat;  // (count, page)
  for (const PageHeat& heat : profile.pages) {
    if (heat.object_accesses > 0) {
      by_heat.emplace_back(heat.object_accesses, heat.page);
    }
  }
  std::sort(by_heat.begin(), by_heat.end(),
            [](const auto& a, const auto& b) {
              if (a.first != b.first) return a.first > b.first;
              return a.second < b.second;
            });
  std::set<uint64_t> out;
  for (size_t i = 0; i < by_heat.size() && i < n; ++i) {
    out.insert(by_heat[i].second);
  }
  return out;
}

// --- Recorder basics ---------------------------------------------------

TEST(AccessLogTest, OpNamesAreStable) {
  EXPECT_STREQ(AccessOpName(AccessOp::kGet), "get");
  EXPECT_STREQ(AccessOpName(AccessOp::kScan), "scan");
  EXPECT_STREQ(AccessOpName(AccessOp::kCreate), "create");
  EXPECT_STREQ(AccessOpName(AccessOp::kUpdate), "update");
  EXPECT_STREQ(AccessOpName(AccessOp::kDelete), "delete");
}

TEST(AccessLogTest, DisabledRecorderRecordsNothing) {
  AccessLog log;
  log.Record(AccessOp::kGet, 1, 1, Journal::InternLabel("x"), 1);
  log.RecordPageTouch(1);
  log.RecordAffinity(1, 1, nullptr, 2, 2, nullptr);
  EXPECT_EQ(log.recorded(), 0u);
  AccessProfile profile = log.SnapshotProfile();
  EXPECT_TRUE(profile.pages.empty());
  EXPECT_TRUE(profile.classes.empty());
  EXPECT_TRUE(profile.edges.empty());
}

TEST(AccessLogTest, SamplingThinsTheStream) {
  AccessLog log;
  log.Start(/*sample_period=*/4);
  const char* label = Journal::InternLabel("sampled");
  for (uint64_t i = 0; i < 100; ++i) {
    log.Record(AccessOp::kScan, 1, i, label, i % 7);
  }
  // Deterministic modulo sampling: exactly one in four events lands.
  EXPECT_EQ(log.recorded(), 25u);
  EXPECT_EQ(log.sample_period(), 4u);
}

TEST(AccessLogTest, HeatTablesAggregateByPageAndClass) {
  AccessLog log;
  log.Start();
  const char* emp = Journal::InternLabel("employee");
  const char* dept = Journal::InternLabel("department");
  log.Record(AccessOp::kGet, 1, 1, emp, 10);
  log.Record(AccessOp::kGet, 1, 2, emp, 10);
  log.Record(AccessOp::kScan, 1, 3, emp, 11);
  log.Record(AccessOp::kCreate, 2, 1, dept, 20);
  log.RecordPageTouch(10);
  log.RecordPageTouch(99);

  AccessProfile profile = log.SnapshotProfile();
  ASSERT_EQ(profile.classes.size(), 2u);
  EXPECT_EQ(profile.classes[0].class_label, emp);  // hottest first
  EXPECT_EQ(profile.classes[0].total, 3u);
  EXPECT_EQ(profile.classes[0].by_op[static_cast<size_t>(AccessOp::kGet)],
            2u);
  EXPECT_EQ(profile.classes[0].by_op[static_cast<size_t>(AccessOp::kScan)],
            1u);
  EXPECT_EQ(profile.classes[1].total, 1u);
  EXPECT_EQ(profile.class_counts.at("employee"), 3u);
  EXPECT_EQ(profile.class_counts.at("department"), 1u);

  // Page 10: 2 object accesses + 1 pool touch — hottest. Page 99 is
  // pool-touch only.
  ASSERT_FALSE(profile.pages.empty());
  EXPECT_EQ(profile.pages[0].page, 10u);
  EXPECT_EQ(profile.pages[0].object_accesses, 2u);
  EXPECT_EQ(profile.pages[0].pool_touches, 1u);
  std::map<uint64_t, uint64_t> object_heat = ObjectPageHeat(profile);
  EXPECT_EQ(object_heat.count(99), 0u);  // no object access there
}

TEST(AccessLogTest, AffinityEdgesDeduplicateAndRank) {
  AccessLog log;
  log.Start();
  const char* a = Journal::InternLabel("a");
  const char* b = Journal::InternLabel("b");
  log.RecordAffinity(1, 10, a, 2, 20, b);
  log.RecordAffinity(1, 10, a, 2, 20, b);  // same edge again
  log.RecordAffinity(1, 11, a, 2, 21, b);
  AccessProfile profile = log.SnapshotProfile();
  ASSERT_EQ(profile.edges.size(), 2u);
  EXPECT_EQ(profile.edges[0].count, 2u);  // heaviest first
  EXPECT_EQ(profile.edges[0].src_local, 10u);
  EXPECT_EQ(profile.edges[0].dst_local, 20u);
  EXPECT_EQ(profile.edges[0].src_class, a);
  EXPECT_EQ(profile.edges[0].dst_class, b);
  EXPECT_EQ(profile.edges[1].count, 1u);
}

TEST(AccessLogTest, HeatmapJsonCarriesStateHeatAndEdges) {
  AccessLog log;
  log.Start(/*sample_period=*/2);
  const char* label = Journal::InternLabel("renderable");
  log.Record(AccessOp::kGet, 3, 5, label, 12);
  log.RecordAffinity(3, 5, label, 3, 6, label);
  std::string json = log.RenderHeatmapJson();
  EXPECT_NE(json.find("\"enabled\":true"), std::string::npos);
  EXPECT_NE(json.find("\"sample_period\":2"), std::string::npos);
  EXPECT_NE(json.find("\"capturing\":false"), std::string::npos);
  EXPECT_NE(json.find("\"recorded\":1"), std::string::npos);
  EXPECT_NE(json.find("\"page\":12"), std::string::npos);
  EXPECT_NE(json.find("\"class\":\"renderable\""), std::string::npos);
  EXPECT_NE(json.find("\"get\":1"), std::string::npos);
  EXPECT_NE(json.find("\"src\":\"c3:o5\""), std::string::npos);
  EXPECT_NE(json.find("\"dst\":\"c3:o6\""), std::string::npos);
  std::string text = log.RenderHeatmapText();
  EXPECT_NE(text.find("renderable"), std::string::npos);
  EXPECT_NE(text.find("page 12"), std::string::npos);
}

TEST(AccessLogTest, StartAndStopAreJournaled) {
  AccessLog log;
  log.Start(/*sample_period=*/3);
  const char* label = Journal::InternLabel("spill");
  for (uint64_t i = 0; i < 64; ++i) {
    log.Record(AccessOp::kGet, 1, i, label, i);
  }
  log.Stop();
  bool saw_start = false, saw_stop = false;
  for (const JournalRecord& r : Journal::Global().Snapshot()) {
    if (r.type == JournalEvent::kAccessRecorderStart && r.arg0 == 3) {
      saw_start = true;
    }
    if (r.type == JournalEvent::kAccessRecorderStop) saw_stop = true;
  }
  EXPECT_TRUE(saw_start);
  EXPECT_TRUE(saw_stop);
}

// --- Capture files -----------------------------------------------------

TEST(AccessCaptureTest, CaptureRoundTripsEventsAndAffinity) {
  std::string path = testing::TempDir() + "/ode_access_capture_rt.trace";
  AccessLog log;
  ASSERT_TRUE(log.StartCapture(path).ok());
  EXPECT_TRUE(log.enabled());  // capture force-enables the recorder
  EXPECT_TRUE(log.capturing());
  const char* emp = Journal::InternLabel("employee");
  const char* dept = Journal::InternLabel("department");
  log.Record(AccessOp::kCreate, 1, 7, emp, 30);
  log.Record(AccessOp::kGet, 2, 9, dept, 31);
  log.RecordAffinity(1, 7, emp, 2, 9, dept);
  Result<uint64_t> written = log.StopCapture();
  ASSERT_TRUE(written.ok());
  // 2 class-def records + 2 events + 1 affinity.
  EXPECT_EQ(*written, 5u);
  EXPECT_FALSE(log.capturing());
  EXPECT_EQ(log.recorded(), 2u);
  EXPECT_EQ(log.dropped(), 0u);

  Result<AccessTrace> trace = ReadAccessTrace(path);
  ASSERT_TRUE(trace.ok());
  EXPECT_EQ(trace->torn_tail_bytes, 0u);
  ASSERT_EQ(trace->records.size(), 3u);
  const AccessTraceRecord& first = trace->records[0];
  EXPECT_EQ(first.kind, AccessTraceRecord::Kind::kEvent);
  EXPECT_EQ(first.event.op, AccessOp::kCreate);
  EXPECT_EQ(first.event.cluster, 1u);
  EXPECT_EQ(first.event.local, 7u);
  EXPECT_EQ(first.event.page, 30u);
  EXPECT_STREQ(first.event.class_label, "employee");
  EXPECT_GT(first.event.ts_ns, 0u);
  const AccessTraceRecord& second = trace->records[1];
  EXPECT_EQ(second.event.op, AccessOp::kGet);
  EXPECT_STREQ(second.event.class_label, "department");
  const AccessTraceRecord& edge = trace->records[2];
  EXPECT_EQ(edge.kind, AccessTraceRecord::Kind::kAffinity);
  EXPECT_EQ(edge.src_cluster, 1u);
  EXPECT_EQ(edge.src_local, 7u);
  EXPECT_EQ(edge.dst_cluster, 2u);
  EXPECT_EQ(edge.dst_local, 9u);
  EXPECT_STREQ(edge.src_class, "employee");
  EXPECT_STREQ(edge.dst_class, "department");
  std::remove(path.c_str());
}

TEST(AccessCaptureTest, GarbageTailIsReportedNotFatal) {
  std::string path = testing::TempDir() + "/ode_access_capture_garbage.trace";
  AccessLog log;
  ASSERT_TRUE(log.StartCapture(path).ok());
  log.Record(AccessOp::kGet, 1, 1, Journal::InternLabel("t"), 1);
  ASSERT_TRUE(log.StopCapture().ok());
  {
    std::FILE* f = std::fopen(path.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    std::fwrite("garbage", 1, 7, f);
    std::fclose(f);
  }
  Result<AccessTrace> trace = ReadAccessTrace(path);
  ASSERT_TRUE(trace.ok());
  EXPECT_EQ(trace->records.size(), 1u);  // class-def + event → 1 event
  EXPECT_EQ(trace->torn_tail_bytes, 7u);
  std::remove(path.c_str());
}

TEST(AccessCaptureTest, TruncatedFinalRecordIsDropped) {
  std::string path = testing::TempDir() + "/ode_access_capture_torn.trace";
  AccessLog log;
  ASSERT_TRUE(log.StartCapture(path).ok());
  const char* label = Journal::InternLabel("torn");
  log.Record(AccessOp::kGet, 1, 1, label, 1);
  log.Record(AccessOp::kGet, 1, 2, label, 2);
  ASSERT_TRUE(log.StopCapture().ok());

  // Chop two bytes off the final record's CRC: a torn write.
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  long size = std::ftell(f);
  std::fclose(f);
  ASSERT_GT(size, 2);
  ASSERT_EQ(truncate(path.c_str(), size - 2), 0);

  Result<AccessTrace> trace = ReadAccessTrace(path);
  ASSERT_TRUE(trace.ok());
  EXPECT_EQ(trace->records.size(), 1u);  // second event lost
  EXPECT_GT(trace->torn_tail_bytes, 0u);
  std::remove(path.c_str());
}

TEST(AccessCaptureTest, NonCaptureFileIsRejected) {
  std::string path = testing::TempDir() + "/ode_access_not_a_capture";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fwrite("definitely not a capture", 1, 24, f);
  std::fclose(f);
  Result<AccessTrace> trace = ReadAccessTrace(path);
  EXPECT_FALSE(trace.ok());
  EXPECT_TRUE(trace.status().IsCorruption());
  std::remove(path.c_str());
}

// --- Charge sites ------------------------------------------------------

TEST(AccessChargeTest, DatabaseOperationsChargeTheGlobalRecorder) {
  AccessLog& log = AccessLog::Global();
  log.ResetForTest();
  auto db = ObsDb();
  log.Start();
  Session session = db->OpenSession();
  Result<Oid> dept = session.CreateObject("dept", Dept("lab"));
  ASSERT_TRUE(dept.ok());
  Result<Oid> alice =
      session.CreateObject("person", Person("alice", 31, *dept));
  ASSERT_TRUE(alice.ok());
  Result<ObjectBuffer> fetched = session.GetObject(*alice);
  ASSERT_TRUE(fetched.ok());
  ASSERT_TRUE(session.UpdateObject(*alice, Person("alice", 32, *dept)).ok());

  AccessProfile profile = log.SnapshotProfile();
  // create + explicit get + update (whose read-modify-write charges one
  // more get for the old-version read).
  EXPECT_EQ(profile.class_counts.at("person"), 4u);
  EXPECT_EQ(profile.class_counts.at("dept"), 1u);  // create
  bool found_person = false;
  for (const ClassHeat& heat : profile.classes) {
    if (std::string_view(heat.class_label) == "person") {
      found_person = true;
      EXPECT_EQ(heat.by_op[static_cast<size_t>(AccessOp::kCreate)], 1u);
      EXPECT_EQ(heat.by_op[static_cast<size_t>(AccessOp::kGet)], 2u);
      EXPECT_EQ(heat.by_op[static_cast<size_t>(AccessOp::kUpdate)], 1u);
    }
  }
  EXPECT_TRUE(found_person);
  // Object accesses land on real heap pages, and the pool fetches
  // underneath them tally as pool touches.
  EXPECT_FALSE(ObjectPageHeat(profile).empty());
  log.ResetForTest();
}

TEST(AccessChargeTest, EventsCarryTheSessionId) {
  AccessLog& log = AccessLog::Global();
  log.ResetForTest();
  auto db = ObsDb();
  std::string path = testing::TempDir() + "/ode_access_session_id.trace";
  ASSERT_TRUE(log.StartCapture(path).ok());
  Session session = db->OpenSession();
  Result<Oid> oid = session.CreateObject("dept", Dept("ops"));
  ASSERT_TRUE(oid.ok());
  ASSERT_TRUE(session.GetObject(*oid).ok());
  ASSERT_TRUE(log.StopCapture().ok());
  Result<AccessTrace> trace = ReadAccessTrace(path);
  ASSERT_TRUE(trace.ok());
  ASSERT_FALSE(trace->records.empty());
  const AccessEvent& last = trace->records.back().event;
  EXPECT_EQ(last.op, AccessOp::kGet);
  EXPECT_EQ(last.session_id, session.id());
  log.ResetForTest();
  std::remove(path.c_str());
}

// A batched scan reads each record once, over several batch reads, and
// every event carries the session of the op that scanned.
TEST(AccessChargeTest, ScanEventsCarryTheSessionId) {
  AccessLog& log = AccessLog::Global();
  log.ResetForTest();
  auto db = ObsDb();
  constexpr size_t kPeople = 400;
  {
    Session session = db->OpenSession();
    for (size_t i = 0; i < kPeople; ++i) {
      Value person = Person("p" + std::to_string(i), static_cast<int64_t>(i));
      ASSERT_TRUE(session.CreateObject("person", std::move(person)).ok());
    }
  }
  odb::Predicate predicate = *odb::ParsePredicate("age >= 0");
  odb::exec::ScanSpec spec;
  spec.class_name = "person";
  spec.predicate = &predicate;
  spec.batch_size = 64;
  SessionEntry entry(/*session_id=*/4242, /*trace_id=*/0, /*opened_ns=*/0);
  std::string path = testing::TempDir() + "/ode_access_scan.trace";
  ASSERT_TRUE(log.StartCapture(path).ok());
  {
    ProfiledOp op(&entry, "scan");
    Result<odb::exec::ScanResult> scanned =
        odb::exec::ExecuteScan(db.get(), spec);
    ASSERT_TRUE(scanned.ok());
    EXPECT_EQ(scanned->rows.size(), kPeople);
    EXPECT_GT(scanned->stats.batches, 1u);
  }
  ASSERT_TRUE(log.StopCapture().ok());

  bool found = false;
  for (const ClassHeat& heat : log.SnapshotProfile().classes) {
    if (std::string_view(heat.class_label) == "person") {
      found = true;
      EXPECT_EQ(heat.by_op[static_cast<size_t>(AccessOp::kScan)], kPeople);
    }
  }
  EXPECT_TRUE(found);
  Result<AccessTrace> trace = ReadAccessTrace(path);
  ASSERT_TRUE(trace.ok());
  size_t scans = 0;
  for (const AccessTraceRecord& record : trace->records) {
    if (record.kind != AccessTraceRecord::Kind::kEvent ||
        record.event.op != AccessOp::kScan) {
      continue;
    }
    ++scans;
    EXPECT_EQ(record.event.session_id, entry.session_id());
  }
  EXPECT_EQ(scans, kPeople);
  log.ResetForTest();
  std::remove(path.c_str());
}

TEST(AccessChargeTest, BatchedScansChargeScanEvents) {
  AccessLog& log = AccessLog::Global();
  log.ResetForTest();
  auto db = ObsDb();
  Session session = db->OpenSession();
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(
        session.CreateObject("person", Person("p" + std::to_string(i), i))
            .ok());
  }
  log.Start();
  odb::RawRecordBatch batch;
  ASSERT_TRUE(db->ScanRawRecords("person", 0, 6, &batch).ok());
  EXPECT_EQ(batch.records.size(), 6u);
  AccessProfile profile = log.SnapshotProfile();
  bool found = false;
  for (const ClassHeat& heat : profile.classes) {
    if (std::string_view(heat.class_label) == "person") {
      found = true;
      EXPECT_EQ(heat.by_op[static_cast<size_t>(AccessOp::kScan)], 6u);
    }
  }
  EXPECT_TRUE(found);
  log.ResetForTest();
}

// --- Capture → replay --------------------------------------------------

// The PR's acceptance criterion: replaying a captured workload against
// the same database reproduces the per-class access counts exactly and
// the object-attributed page-heat ranking (top-10 set) of the capture.
TEST(AccessReplayTest, ReplayReproducesClassCountsAndPageHeat) {
  AccessLog& log = AccessLog::Global();
  log.ResetForTest();
  auto db = ObsDb();
  std::vector<Oid> people;
  {
    Session session = db->OpenSession();
    Result<Oid> dept = session.CreateObject("dept", Dept("eng"));
    ASSERT_TRUE(dept.ok());
    for (int i = 0; i < 12; ++i) {
      Result<Oid> oid = session.CreateObject(
          "person", Person("p" + std::to_string(i), 20 + i, *dept));
      ASSERT_TRUE(oid.ok());
      people.push_back(*oid);
    }
  }

  std::string path = testing::TempDir() + "/ode_access_replay.trace";
  ASSERT_TRUE(log.StartCapture(path).ok());
  {
    Session session = db->OpenSession();
    // Skewed point reads: early objects are hotter.
    for (size_t i = 0; i < people.size(); ++i) {
      size_t reads = i < 4 ? 3 : 1;
      for (size_t r = 0; r < reads; ++r) {
        ASSERT_TRUE(session.GetObject(people[i]).ok());
      }
    }
    // One batched scan over the cluster.
    odb::RawRecordBatch batch;
    ASSERT_TRUE(
        db->ScanRawRecords("person", 0, people.size(), &batch).ok());
    EXPECT_EQ(batch.records.size(), people.size());
  }
  Result<uint64_t> written = log.StopCapture();
  ASSERT_TRUE(written.ok());
  EXPECT_GT(*written, 0u);
  log.Stop();

  AccessProfile captured = log.SnapshotProfile();
  std::map<std::string, uint64_t> captured_counts = captured.class_counts;
  std::map<uint64_t, uint64_t> captured_heat = ObjectPageHeat(captured);
  std::set<uint64_t> captured_top = TopObjectPages(captured, 10);
  ASSERT_FALSE(captured_counts.empty());
  ASSERT_FALSE(captured_heat.empty());

  log.ResetForTest();
  Result<odb::ReplayReport> report = odb::ReplayAccessTrace(db.get(), path);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->events_missing, 0u);
  EXPECT_EQ(report->events_failed, 0u);
  EXPECT_EQ(report->events_total,
            report->events_replayed);
  EXPECT_EQ(report->torn_tail_bytes, 0u);
  // Replay restored the recorder to its pre-replay (reset ⇒ off) state.
  EXPECT_FALSE(log.enabled());

  AccessProfile replayed = log.SnapshotProfile();
  // Per-class totals match exactly (mutations replay as reads; totals
  // fold all ops together).
  EXPECT_EQ(replayed.class_counts, captured_counts);
  // Object-attributed page heat reproduces page for page on an
  // unchanged database — which subsumes the top-10 ranking check.
  EXPECT_EQ(ObjectPageHeat(replayed), captured_heat);
  EXPECT_EQ(TopObjectPages(replayed, 10), captured_top);
  log.ResetForTest();
  std::remove(path.c_str());
}

TEST(AccessReplayTest, ReplayCountsVanishedObjectsAsMissing) {
  AccessLog& log = AccessLog::Global();
  log.ResetForTest();
  auto db = ObsDb();
  Oid doomed;
  {
    Session session = db->OpenSession();
    Result<Oid> oid = session.CreateObject("dept", Dept("gone"));
    ASSERT_TRUE(oid.ok());
    doomed = *oid;
  }
  std::string path = testing::TempDir() + "/ode_access_replay_missing.trace";
  ASSERT_TRUE(log.StartCapture(path).ok());
  {
    Session session = db->OpenSession();
    ASSERT_TRUE(session.GetObject(doomed).ok());
  }
  ASSERT_TRUE(log.StopCapture().ok());
  log.ResetForTest();
  {
    Session session = db->OpenSession();
    ASSERT_TRUE(session.DeleteObject(doomed).ok());
  }
  Result<odb::ReplayReport> report = odb::ReplayAccessTrace(db.get(), path);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->events_total, 1u);
  EXPECT_EQ(report->events_replayed, 0u);
  EXPECT_EQ(report->events_missing, 1u);
  EXPECT_EQ(report->events_failed, 0u);
  log.ResetForTest();
  std::remove(path.c_str());
}

TEST(AccessReplayTest, ReplayRestoresAnEnabledRecorder) {
  AccessLog& log = AccessLog::Global();
  log.ResetForTest();
  auto db = ObsDb();
  std::string path = testing::TempDir() + "/ode_access_replay_restore.trace";
  ASSERT_TRUE(log.StartCapture(path).ok());
  ASSERT_TRUE(log.StopCapture().ok());
  log.Start(/*sample_period=*/8);
  Result<odb::ReplayReport> report = odb::ReplayAccessTrace(db.get(), path);
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(log.enabled());
  EXPECT_EQ(log.sample_period(), 8u);
  log.ResetForTest();
  std::remove(path.c_str());
}

// --- Time-series store -------------------------------------------------

TEST(TimeSeriesTest, TickFoldsCountersIntoHistory) {
  TimeSeriesStore store(/*resolution_ns=*/1, /*slots=*/8);
  Counter* c = Registry::Global().counter("access_ts.counter.fold");
  c->Add(5);
  store.TickOnce();
  c->Add(7);
  store.TickOnce();
  EXPECT_EQ(store.tick_count(), 2u);
  TimeSeries series = store.Series("access_ts.counter.fold");
  EXPECT_EQ(series.kind, MetricSample::Kind::kCounter);
  ASSERT_EQ(series.points.size(), 2u);
  EXPECT_EQ(series.points[0].value, 5);
  EXPECT_EQ(series.points[1].value, 12);
  EXPECT_GE(series.points[1].ts_ns, series.points[0].ts_ns);
}

TEST(TimeSeriesTest, RingWrapsKeepingNewestPoints) {
  TimeSeriesStore store(/*resolution_ns=*/1, /*slots=*/4);
  Counter* c = Registry::Global().counter("access_ts.counter.wrap");
  for (int i = 0; i < 6; ++i) {
    c->Increment();
    store.TickOnce();
  }
  TimeSeries series = store.Series("access_ts.counter.wrap");
  ASSERT_EQ(series.points.size(), 4u);  // oldest two fell off
  EXPECT_EQ(series.points[0].value, 3);
  EXPECT_EQ(series.points[3].value, 6);
}

TEST(TimeSeriesTest, HistogramPointsCarryQuantiles) {
  TimeSeriesStore store(/*resolution_ns=*/1, /*slots=*/8);
  Histogram* h = Registry::Global().histogram("access_ts.hist.quantiles");
  for (int i = 0; i < 100; ++i) h->Record(1000);
  store.TickOnce();
  TimeSeries series = store.Series("access_ts.hist.quantiles");
  EXPECT_EQ(series.kind, MetricSample::Kind::kHistogram);
  ASSERT_EQ(series.points.size(), 1u);
  EXPECT_EQ(series.points[0].count, 100u);
  EXPECT_GT(series.points[0].p50, 0u);
  EXPECT_GE(series.points[0].p99, series.points[0].p50);
}

TEST(TimeSeriesTest, RenderJsonCarriesSeriesAndRates) {
  TimeSeriesStore store(/*resolution_ns=*/1, /*slots=*/8);
  Counter* c = Registry::Global().counter("access_ts.counter.render");
  c->Add(3);
  store.TickOnce();
  c->Add(3);
  store.TickOnce();
  std::string json = store.RenderJson();
  EXPECT_NE(json.find("\"name\":\"access_ts.counter.render\""),
            std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"counter\""), std::string::npos);
  EXPECT_NE(json.find("\"rate_per_s\""), std::string::npos);
  EXPECT_NE(json.find("\"ticks\":2"), std::string::npos);
  TimeSeries unknown = store.Series("access_ts.counter.never_registered");
  EXPECT_TRUE(unknown.points.empty());
}

TEST(TimeSeriesTest, ConfigureRequiresStoppedStore) {
  TimeSeriesStore store;
  store.Start();
  EXPECT_TRUE(store.running());
  Status while_running = store.Configure(1000, 16);
  EXPECT_EQ(while_running.code(), StatusCode::kFailedPrecondition);
  store.Stop();
  EXPECT_FALSE(store.running());
  EXPECT_TRUE(store.Configure(1000, 16).ok());
  EXPECT_EQ(store.resolution_ns(), 1000u);
  EXPECT_EQ(store.slots(), 16u);
  EXPECT_TRUE(store.Configure(0, 16).IsInvalidArgument());
}

TEST(TimeSeriesTest, BackgroundTickAccumulatesHistory) {
  TimeSeriesStore store(/*resolution_ns=*/1000 * 1000, /*slots=*/64);
  Counter* c = Registry::Global().counter("access_ts.counter.bg");
  c->Add(1);
  store.Start();
  store.Start();  // idempotent
  // The loop folds once immediately; wait for at least one more tick.
  for (int i = 0; i < 200 && store.tick_count() < 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  store.Stop();
  EXPECT_GE(store.tick_count(), 2u);
  EXPECT_FALSE(store.Series("access_ts.counter.bg").points.empty());
  // Restartable after Stop.
  store.Start();
  store.Stop();
}

}  // namespace
}  // namespace ode::obs
