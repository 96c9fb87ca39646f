// Flight-recorder battery: causal trace propagation (within and across
// threads), the structured event journal, watchdog stall detection,
// Prometheus name hardening, and the telemetry HTTP endpoint.

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <chrono>
#include <cstring>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "common/access_log.h"
#include "common/journal.h"
#include "common/metrics.h"
#include "common/telemetry_http.h"
#include "common/timeseries.h"
#include "common/trace.h"
#include "common/watchdog.h"
#include "dynlink/lab_modules.h"
#include "odb/buffer_pool.h"
#include "odb/labdb.h"
#include "odeview/app.h"

namespace ode::obs {
namespace {

class FlightRecorderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Tracing::Clear();
    Tracing::Enable();
  }
  void TearDown() override {
    Tracing::Disable();
    Tracing::Clear();
  }
};

// --- Causal trace propagation ----------------------------------------

TEST_F(FlightRecorderTest, NestedSpansLinkToParents) {
  {
    ODE_TRACE_SPAN("outer");
    ODE_TRACE_SPAN("inner");
  }
  std::vector<TraceEvent> events = Tracing::SnapshotEvents();
  ASSERT_EQ(events.size(), 2u);
  const TraceEvent& inner =
      std::string(events[0].name) == "inner" ? events[0] : events[1];
  const TraceEvent& outer =
      std::string(events[0].name) == "outer" ? events[0] : events[1];
  EXPECT_NE(outer.trace_id, 0u);
  EXPECT_NE(outer.span_id, 0u);
  EXPECT_EQ(outer.parent_id, 0u);  // fresh root
  EXPECT_EQ(inner.trace_id, outer.trace_id);
  EXPECT_EQ(inner.parent_id, outer.span_id);
  EXPECT_NE(inner.span_id, outer.span_id);
}

TEST_F(FlightRecorderTest, SiblingSpansShareParentNotIds) {
  {
    ODE_TRACE_SPAN("parent");
    { ODE_TRACE_SPAN("a"); }
    { ODE_TRACE_SPAN("b"); }
  }
  std::unordered_map<std::string, TraceEvent> by_name;
  for (const TraceEvent& e : Tracing::SnapshotEvents()) by_name[e.name] = e;
  ASSERT_EQ(by_name.size(), 3u);
  EXPECT_EQ(by_name["a"].parent_id, by_name["parent"].span_id);
  EXPECT_EQ(by_name["b"].parent_id, by_name["parent"].span_id);
  EXPECT_NE(by_name["a"].span_id, by_name["b"].span_id);
}

TEST_F(FlightRecorderTest, CurrentContextTracksOpenSpan) {
  EXPECT_FALSE(CurrentTraceContext().valid());
  {
    ODE_TRACE_SPAN("scope");
    TraceContext ctx = CurrentTraceContext();
    EXPECT_TRUE(ctx.valid());
    EXPECT_NE(ctx.span_id, 0u);
  }
  EXPECT_FALSE(CurrentTraceContext().valid());
}

TEST_F(FlightRecorderTest, CrossThreadCaptureAndAdopt) {
  OpContext captured;
  {
    ODE_TRACE_SPAN("producer");
    captured = CurrentOpContext();
    std::thread worker([captured] {
      OpContextScope adopt(captured);
      ODE_TRACE_SPAN("consumer");
    });
    worker.join();
  }
  std::unordered_map<std::string, TraceEvent> by_name;
  for (const TraceEvent& e : Tracing::SnapshotEvents()) by_name[e.name] = e;
  ASSERT_EQ(by_name.size(), 2u);
  EXPECT_EQ(by_name["consumer"].trace_id, by_name["producer"].trace_id);
  EXPECT_EQ(by_name["consumer"].parent_id, by_name["producer"].span_id);
  EXPECT_NE(by_name["consumer"].thread_id, by_name["producer"].thread_id);
}

TEST_F(FlightRecorderTest, AdoptingDetachedContextStartsFreshTrace) {
  ODE_TRACE_SPAN("ambient");
  uint64_t ambient_trace = CurrentTraceContext().trace_id;
  {
    OpContextScope detach{OpContext{}};
    ODE_TRACE_SPAN("detached");
  }
  for (const TraceEvent& e : Tracing::SnapshotEvents()) {
    if (std::string(e.name) == "detached") {
      EXPECT_NE(e.trace_id, ambient_trace);
      EXPECT_EQ(e.parent_id, 0u);
    }
  }
}

TEST_F(FlightRecorderTest, PrefetchWorkerJoinsCallerTrace) {
  odb::MemPager pager;
  odb::PageId id = 0;
  {
    odb::BufferPool writer_pool(&pager, /*capacity=*/8);
    Result<odb::PageHandle> page = writer_pool.NewPage();
    ASSERT_TRUE(page.ok());
    id = page->id();
    page->MarkDirty();
    page->Release();
    ASSERT_TRUE(writer_pool.FlushAll().ok());
  }
  // A fresh pool: the page exists in the pager but is not cached, so
  // the prefetch actually dispatches to the worker thread.
  odb::BufferPool pool(&pager, /*capacity=*/8);
  Tracing::Clear();
  uint64_t caller_trace = 0;
  {
    ODE_TRACE_SPAN("caller");
    caller_trace = CurrentTraceContext().trace_id;
    pool.Prefetch(id);
    pool.WaitForPrefetches();
  }
  bool saw_prefetch_fetch = false;
  for (const TraceEvent& e : Tracing::SnapshotEvents()) {
    if (std::string(e.name) == "pool.fetch" && e.trace_id == caller_trace) {
      saw_prefetch_fetch = true;
      EXPECT_NE(e.parent_id, 0u);
    }
  }
  EXPECT_TRUE(saw_prefetch_fetch)
      << "prefetch worker's fetch span did not adopt the caller's context";
}

// --- The acceptance criterion: a browse cascade's span tree ----------

// Walks parent links from `event` up to the root; true if `ancestor`
// is on the path.
bool DescendsFrom(const TraceEvent& event, uint64_t ancestor_span,
                  const std::unordered_map<uint64_t, TraceEvent>& by_span) {
  uint64_t parent = event.parent_id;
  for (int hops = 0; parent != 0 && hops < 256; ++hops) {
    if (parent == ancestor_span) return true;
    auto it = by_span.find(parent);
    if (it == by_span.end()) return false;
    parent = it->second.parent_id;
  }
  return false;
}

TEST_F(FlightRecorderTest, CascadeSpansFormOneTreePerGesture) {
  auto db = std::move(*odb::Database::CreateInMemory("lab"));
  ASSERT_TRUE(odb::BuildLabDatabase(db.get()).ok());
  view::OdeViewApp app(200, 80);
  ASSERT_TRUE(dynlink::RegisterLabDisplayModules(app.repository(), "lab",
                                                 db->schema())
                  .ok());
  ASSERT_TRUE(app.AddDatabaseBorrowed(db.get()).ok());
  ASSERT_TRUE(app.OpenInitialWindow().ok());
  // Tracing is on (fixture), so the session opened here gets a causal
  // anchor for its gestures.
  Result<view::DbInteractor*> interactor = app.OpenDatabase("lab");
  ASSERT_TRUE(interactor.ok());
  Result<view::BrowseNode*> node = (*interactor)->OpenObjectSet("employee");
  ASSERT_TRUE(node.ok());
  // A child window: its per-cascade re-resolution fetches objects
  // *inside* the cascade span.
  ASSERT_TRUE((*node)->Next().ok());
  Result<view::BrowseNode*> dept = (*node)->FollowReference("dept");
  ASSERT_TRUE(dept.ok());

  Tracing::Clear();
  ASSERT_TRUE((*node)->Next().ok());

  std::vector<TraceEvent> events = Tracing::SnapshotEvents();
  std::unordered_map<uint64_t, TraceEvent> by_span;
  for (const TraceEvent& e : events) by_span[e.span_id] = e;

  const TraceEvent* cascade = nullptr;
  for (const TraceEvent& e : events) {
    if (std::string(e.name) == "view.sync_cascade") {
      cascade = &e;
      break;
    }
  }
  ASSERT_NE(cascade, nullptr);
  // The cascade hangs off the session anchor, never floats free.
  EXPECT_NE(cascade->parent_id, 0u);
  EXPECT_NE(cascade->trace_id, 0u);

  // Every storage-layer span recorded during the cascade's lifetime is
  // a descendant of the cascade span.
  uint64_t cascade_start = cascade->start_ns;
  uint64_t cascade_end = cascade->start_ns + cascade->duration_ns;
  int checked = 0;
  for (const TraceEvent& e : events) {
    std::string name = e.name;
    if (name != "pool.fetch" && name != "db.get_object") continue;
    if (e.start_ns < cascade_start || e.start_ns > cascade_end) continue;
    ++checked;
    EXPECT_TRUE(DescendsFrom(e, cascade->span_id, by_span))
        << name << " span " << e.span_id << " inside the cascade window "
        << "does not descend from the cascade span";
  }
  EXPECT_GT(checked, 0) << "no storage spans inside the cascade — the "
                           "child re-resolution should have fetched";

  // Same property re-verified through the JSON export (what CI and
  // chrome://tracing consume).
  std::string json = Tracing::ExportChromeJson();
  EXPECT_NE(json.find("\"view.sync_cascade\""), std::string::npos);
  EXPECT_NE(json.find("\"parent\":" + std::to_string(cascade->parent_id)),
            std::string::npos);
}

// --- Chrome trace export well-formedness -----------------------------

// Minimal recursive-descent JSON validator: accepts exactly the RFC
// 8259 value grammar (no trailing garbage), which is what
// chrome://tracing requires of the export.
class JsonValidator {
 public:
  explicit JsonValidator(std::string_view text) : text_(text) {}

  bool Validate() {
    SkipWs();
    if (!Value()) return false;
    SkipWs();
    return pos_ == text_.size();
  }

 private:
  bool Value() {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{': return Object();
      case '[': return Array();
      case '"': return String();
      case 't': return Literal("true");
      case 'f': return Literal("false");
      case 'n': return Literal("null");
      default: return Number();
    }
  }
  bool Object() {
    ++pos_;  // '{'
    SkipWs();
    if (Peek() == '}') { ++pos_; return true; }
    while (true) {
      SkipWs();
      if (!String()) return false;
      SkipWs();
      if (Peek() != ':') return false;
      ++pos_;
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') { ++pos_; continue; }
      if (Peek() == '}') { ++pos_; return true; }
      return false;
    }
  }
  bool Array() {
    ++pos_;  // '['
    SkipWs();
    if (Peek() == ']') { ++pos_; return true; }
    while (true) {
      SkipWs();
      if (!Value()) return false;
      SkipWs();
      if (Peek() == ',') { ++pos_; continue; }
      if (Peek() == ']') { ++pos_; return true; }
      return false;
    }
  }
  bool String() {
    if (Peek() != '"') return false;
    ++pos_;
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (c == '"') { ++pos_; return true; }
      if (static_cast<unsigned char>(c) < 0x20) return false;  // raw control
      if (c == '\\') {
        ++pos_;
        if (pos_ >= text_.size()) return false;
        char esc = text_[pos_];
        if (esc == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= text_.size() || !std::isxdigit(static_cast<unsigned char>(text_[pos_]))) {
              return false;
            }
          }
        } else if (std::strchr("\"\\/bfnrt", esc) == nullptr) {
          return false;
        }
      }
      ++pos_;
    }
    return false;  // unterminated
  }
  bool Number() {
    size_t start = pos_;
    if (Peek() == '-') ++pos_;
    while (std::isdigit(static_cast<unsigned char>(Peek()))) ++pos_;
    if (Peek() == '.') {
      ++pos_;
      while (std::isdigit(static_cast<unsigned char>(Peek()))) ++pos_;
    }
    if (Peek() == 'e' || Peek() == 'E') {
      ++pos_;
      if (Peek() == '+' || Peek() == '-') ++pos_;
      while (std::isdigit(static_cast<unsigned char>(Peek()))) ++pos_;
    }
    return pos_ > start && std::isdigit(static_cast<unsigned char>(text_[pos_ - 1]));
  }
  bool Literal(const char* word) {
    size_t len = std::strlen(word);
    if (text_.substr(pos_, len) != word) return false;
    pos_ += len;
    return true;
  }
  char Peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  void SkipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
};

TEST_F(FlightRecorderTest, ChromeTraceExportIsWellFormedJson) {
  {
    ODE_TRACE_SPAN("export.root");
    { ODE_TRACE_SPAN("export.child \"quoted\"\n"); }
    { ODE_TRACE_SPAN("export.sibling"); }
  }
  std::string json = Tracing::ExportChromeJson();
  EXPECT_TRUE(JsonValidator(json).Validate())
      << "export is not valid JSON:\n" << json;

  // Every emitted event is a complete-duration ("ph":"X") event — there
  // are no begin/end pairs to mismatch — and each carries the causal
  // identity (trace/span/parent) in its args.
  size_t events = 0, complete = 0, with_ids = 0;
  for (size_t at = json.find("{\"name\""); at != std::string::npos;
       at = json.find("{\"name\"", at + 1)) {
    ++events;
    size_t end = json.find('}', at);  // args is the last, nested object
    ASSERT_NE(end, std::string::npos);
    std::string_view event(json.data() + at, end - at + 1);
    if (event.find("\"ph\":\"X\"") != std::string_view::npos) ++complete;
    if (event.find("\"trace\":") != std::string_view::npos &&
        event.find("\"span\":") != std::string_view::npos &&
        event.find("\"parent\":") != std::string_view::npos) {
      ++with_ids;
    }
  }
  EXPECT_EQ(events, 3u);
  EXPECT_EQ(complete, events);
  EXPECT_EQ(with_ids, events);
  // Both spans of one gesture share the root's trace id.
  std::vector<TraceEvent> raw = Tracing::SnapshotEvents();
  ASSERT_FALSE(raw.empty());
  EXPECT_NE(json.find("\"trace\":" + std::to_string(raw[0].trace_id)),
            std::string::npos);
}

TEST_F(FlightRecorderTest, ChromeTraceExportEmptyRingIsStillValid) {
  Tracing::Clear();
  std::string json = Tracing::ExportChromeJson();
  EXPECT_TRUE(JsonValidator(json).Validate()) << json;
  EXPECT_NE(json.find("\"traceEvents\":[]"), std::string::npos);
}

// --- Journal ---------------------------------------------------------

TEST(JournalTest, RetainsNewestTailAfterWrap) {
  Journal journal(/*capacity=*/64);
  EXPECT_EQ(journal.capacity(), 64u);
  for (int i = 0; i < 128; ++i) {
    journal.Append(JournalEvent::kMark, i);
  }
  EXPECT_EQ(journal.appended(), 128u);
  EXPECT_EQ(journal.dropped(), 0u);
  std::vector<JournalRecord> tail = journal.Snapshot();
  ASSERT_EQ(tail.size(), 64u);
  // Oldest-first, strictly sequential, and exactly the newest half.
  for (size_t i = 0; i < tail.size(); ++i) {
    EXPECT_EQ(tail[i].seq, 65 + i);
    EXPECT_EQ(tail[i].arg0, static_cast<int64_t>(64 + i));
    EXPECT_EQ(tail[i].type, JournalEvent::kMark);
  }
}

TEST(JournalTest, CapacityRoundsUpToPowerOfTwo) {
  Journal journal(/*capacity=*/100);
  EXPECT_EQ(journal.capacity(), 128u);
  Journal tiny(/*capacity=*/1);
  EXPECT_EQ(tiny.capacity(), 8u);
}

TEST(JournalTest, RecordsCarryTraceContext) {
  Tracing::Clear();
  Tracing::Enable();
  Journal journal(/*capacity=*/16);
  journal.Append(JournalEvent::kMark, 1);  // outside any span
  uint64_t span_id = 0;
  {
    ODE_TRACE_SPAN("journal.ctx");
    span_id = CurrentTraceContext().span_id;
    journal.Append(JournalEvent::kMark, 2);
  }
  std::vector<JournalRecord> tail = journal.Snapshot();
  ASSERT_EQ(tail.size(), 2u);
  EXPECT_EQ(tail[0].span_id, 0u);
  EXPECT_EQ(tail[1].span_id, span_id);
  EXPECT_NE(tail[1].trace_id, 0u);
  Tracing::Disable();
  Tracing::Clear();
}

TEST(JournalTest, ExportJsonLinesIsWellFormed) {
  Journal journal(/*capacity=*/16);
  journal.Append(JournalEvent::kSessionOpen, 7);
  journal.Append(JournalEvent::kCascadeStart, 3, 2,
                 Journal::InternLabel("employee"));
  journal.Append(JournalEvent::kMark, 0, 0,
                 Journal::InternLabel("needs \"escaping\"\n"));
  std::string lines = journal.ExportJsonLines();
  // One line per record, each a JSON object, plus the loss-accounting
  // trailer (`journal_stats`).
  size_t newlines = 0;
  for (char c : lines) newlines += c == '\n';
  EXPECT_EQ(newlines, 4u);
  EXPECT_NE(lines.find("\"type\":\"session_open\""), std::string::npos);
  EXPECT_NE(lines.find("\"type\":\"journal_stats\""), std::string::npos);
  EXPECT_NE(lines.find("\"appended\":3"), std::string::npos);
  EXPECT_NE(lines.find("\"dropped\":0"), std::string::npos);
  EXPECT_NE(lines.find("\"overwritten\":0"), std::string::npos);
  EXPECT_NE(lines.find("\"type\":\"cascade_start\""), std::string::npos);
  EXPECT_NE(lines.find("\"detail\":\"employee\""), std::string::npos);
  // The quote and newline inside the label arrive escaped.
  EXPECT_NE(lines.find("needs \\\"escaping\\\"\\n"), std::string::npos);
}

TEST(JournalTest, ExportPublishesLossCountersIntoRegistry) {
  Counter* appended = Registry::Global().counter("obs.journal.appended");
  uint64_t before = appended->value();
  Journal::Global().Append(JournalEvent::kMark, 0, 0,
                           Journal::InternLabel("loss-metrics-probe"));
  Journal::Global().Append(JournalEvent::kMark, 1);
  std::string lines = Journal::Global().ExportJsonLines();
  EXPECT_NE(lines.find("\"type\":\"journal_stats\""), std::string::npos);
  // The export moved the registry counter forward by at least the two
  // appends above (the watermark is monotone, so repeated exports do
  // not double-count).
  uint64_t after = appended->value();
  EXPECT_GE(after, before + 2);
  (void)Journal::Global().ExportJsonLines();
  EXPECT_EQ(appended->value(), after);
}

TEST(JournalTest, InternLabelIsStableAndDeduplicated) {
  const char* a = Journal::InternLabel("stable-label");
  std::string copy = "stable-";
  copy += "label";  // different buffer, same contents
  const char* b = Journal::InternLabel(copy);
  EXPECT_EQ(a, b);
  EXPECT_STREQ(a, "stable-label");
}

TEST(JournalTest, RenderTextShowsNewestRecords) {
  Journal journal(/*capacity=*/16);
  for (int i = 0; i < 5; ++i) journal.Append(JournalEvent::kEpochBump, i);
  std::string text = journal.RenderText(/*max_records=*/3);
  EXPECT_NE(text.find("epoch_bump"), std::string::npos);
  EXPECT_NE(text.find("#5"), std::string::npos);
  EXPECT_EQ(text.find("#1 "), std::string::npos);  // truncated away
}

// --- Metric-name hardening -------------------------------------------

TEST(MetricNameTest, ValidationRules) {
  EXPECT_TRUE(IsValidMetricName("pool.fetch.hits"));
  EXPECT_TRUE(IsValidMetricName("watchdog_stalls_total"));
  EXPECT_TRUE(IsValidMetricName("_private:scope"));
  EXPECT_FALSE(IsValidMetricName(""));
  EXPECT_FALSE(IsValidMetricName("9starts.with.digit"));
  EXPECT_FALSE(IsValidMetricName("has space"));
  EXPECT_FALSE(IsValidMetricName("has{brace}"));
  EXPECT_FALSE(IsValidMetricName("has\"quote"));
  EXPECT_FALSE(IsValidMetricName("has\nnewline"));
}

TEST(MetricNameTest, InvalidNamesAreQuarantined) {
  Registry registry;
  uint64_t rejected_before =
      registry.counter("obs.invalid_metric_names")->value();
  Counter* bad = registry.counter("bad name{evil=\"x\"}");
  Counter* quarantine = registry.counter("obs.invalid_metric");
  EXPECT_EQ(bad, quarantine);
  EXPECT_EQ(registry.counter("obs.invalid_metric_names")->value(),
            rejected_before + 1);
  bad->Increment();
  std::string prometheus = registry.RenderPrometheus();
  EXPECT_EQ(prometheus.find("bad name"), std::string::npos);
  EXPECT_NE(prometheus.find("obs_invalid_metric"), std::string::npos);
}

TEST(MetricNameTest, HelpTextIsEscapedInPrometheusExport) {
  Registry registry;
  registry.counter("escaped.help")->Increment();
  registry.SetHelp("escaped.help", "line one\nline two \\ backslash");
  std::string prometheus = registry.RenderPrometheus();
  EXPECT_NE(
      prometheus.find("# HELP escaped_help line one\\nline two \\\\ "
                      "backslash"),
      std::string::npos);
  // The raw newline must not appear inside the HELP line.
  EXPECT_EQ(prometheus.find("line one\nline two"), std::string::npos);
}

// --- Hold registry and watchdog --------------------------------------

TEST(HoldRegistryTest, ClaimReleaseRoundTrip) {
  size_t before = HoldRegistry::Snapshot().size();
  {
    ScopedHold hold("test.hold");
    std::vector<HoldRegistry::HoldInfo> holds = HoldRegistry::Snapshot();
    ASSERT_EQ(holds.size(), before + 1);
    bool found = false;
    for (const auto& info : holds) {
      if (std::string(info.what) == "test.hold") {
        found = true;
        EXPECT_NE(info.since_ns, 0u);
      }
    }
    EXPECT_TRUE(found);
  }
  EXPECT_EQ(HoldRegistry::Snapshot().size(), before);
}

TEST(WatchdogTest, ProgressingSpanIsNotFlagged) {
  Tracing::Clear();
  Tracing::Enable();
  Watchdog watchdog;
  WatchdogOptions options;
  options.scan_interval = std::chrono::milliseconds(60000);
  options.span_deadline = std::chrono::milliseconds(60);
  options.hold_deadline = std::chrono::milliseconds(60);
  options.install_crash_handler = false;
  ASSERT_TRUE(watchdog.Start(options).ok());
  uint64_t stalls_before = watchdog.stalls();
  {
    ODE_TRACE_SPAN("long.but.busy");
    // Keep opening children past the deadline: thread activity stays
    // fresh, so the old parent span must not be flagged.
    auto until = std::chrono::steady_clock::now() +
                 std::chrono::milliseconds(150);
    while (std::chrono::steady_clock::now() < until) {
      ODE_TRACE_SPAN("child.tick");
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    watchdog.ScanOnce();
    EXPECT_EQ(watchdog.stalls(), stalls_before);
  }
  watchdog.Stop();
  Tracing::Disable();
  Tracing::Clear();
}

TEST(WatchdogTest, IdleSpanPastDeadlineIsFlaggedOnce) {
  Tracing::Clear();
  Tracing::Enable();
  Watchdog watchdog;
  WatchdogOptions options;
  options.scan_interval = std::chrono::milliseconds(60000);
  options.span_deadline = std::chrono::milliseconds(50);
  options.hold_deadline = std::chrono::milliseconds(50);
  options.install_crash_handler = false;
  ASSERT_TRUE(watchdog.Start(options).ok());
  uint64_t stalls_before = watchdog.stalls();
  uint64_t journal_before = Journal::Global().appended();
  {
    ODE_TRACE_SPAN("wedged");
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    watchdog.ScanOnce();
    EXPECT_EQ(watchdog.stalls(), stalls_before + 1);
    // Already-flagged spans are not re-reported.
    watchdog.ScanOnce();
    EXPECT_EQ(watchdog.stalls(), stalls_before + 1);
  }
  // The stall arrived in the journal with the span's name.
  EXPECT_GT(Journal::Global().appended(), journal_before);
  bool found = false;
  for (const JournalRecord& record : Journal::Global().Snapshot()) {
    if (record.type == JournalEvent::kWatchdogStall &&
        record.detail != nullptr &&
        std::string(record.detail) == "wedged") {
      found = true;
      EXPECT_EQ(record.arg1, 0);  // span stall, not a hold
    }
  }
  EXPECT_TRUE(found);
  watchdog.Stop();
  Tracing::Disable();
  Tracing::Clear();
}

TEST(WatchdogTest, StuckHoldIsFlagged) {
  Tracing::Clear();
  Tracing::Enable();
  Watchdog watchdog;
  WatchdogOptions options;
  options.scan_interval = std::chrono::milliseconds(60000);
  options.span_deadline = std::chrono::milliseconds(50);
  options.hold_deadline = std::chrono::milliseconds(50);
  options.install_crash_handler = false;
  ASSERT_TRUE(watchdog.Start(options).ok());
  uint64_t stalls_before = watchdog.stalls();
  {
    ScopedHold hold("test.stuck_latch");
    std::this_thread::sleep_for(std::chrono::milliseconds(120));
    watchdog.ScanOnce();
  }
  EXPECT_EQ(watchdog.stalls(), stalls_before + 1);
  bool found = false;
  for (const JournalRecord& record : Journal::Global().Snapshot()) {
    if (record.type == JournalEvent::kWatchdogStall &&
        record.detail != nullptr &&
        std::string(record.detail) == "test.stuck_latch") {
      found = true;
      EXPECT_EQ(record.arg1, 1);  // hold stall
    }
  }
  EXPECT_TRUE(found);
  watchdog.Stop();
  Tracing::Disable();
  Tracing::Clear();
}

TEST(WatchdogTest, StatusReportListsConfiguration) {
  Watchdog watchdog;
  std::string report = watchdog.StatusReport();
  EXPECT_NE(report.find("running: no"), std::string::npos);
  EXPECT_NE(report.find("span_deadline_ms"), std::string::npos);
  EXPECT_NE(report.find("stalls_total"), std::string::npos);
}

TEST(WatchdogTest, StallCounterSurfacesInPrometheusExport) {
  // The ISSUE-specified exposition name is the sanitized dotted name.
  Registry::Global().counter("watchdog.stalls.total");
  std::string prometheus = Registry::Global().RenderPrometheus();
  EXPECT_NE(prometheus.find("watchdog_stalls_total"), std::string::npos);
}

// --- Telemetry endpoint ----------------------------------------------

// Minimal blocking HTTP GET against 127.0.0.1:`port`.
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

TEST(TelemetryServerTest, ServesMetricsJournalAndTrace) {
  Registry::Global().counter("telemetry.smoke")->Increment();
  Journal::Global().Append(JournalEvent::kMark, 0, 0,
                           Journal::InternLabel("telemetry-smoke"));
  TelemetryServer server;
  ASSERT_TRUE(server.Start(/*port=*/0).ok());
  ASSERT_NE(server.port(), 0);

  std::string metrics = HttpGet(server.port(), "/metrics");
  EXPECT_NE(metrics.find("200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("# TYPE"), std::string::npos);
  EXPECT_NE(metrics.find("telemetry_smoke"), std::string::npos);

  std::string journal = HttpGet(server.port(), "/journal");
  EXPECT_NE(journal.find("200 OK"), std::string::npos);
  EXPECT_NE(journal.find("application/x-ndjson"), std::string::npos);
  EXPECT_NE(journal.find("telemetry-smoke"), std::string::npos);

  std::string trace = HttpGet(server.port(), "/trace");
  EXPECT_NE(trace.find("200 OK"), std::string::npos);
  EXPECT_NE(trace.find("traceEvents"), std::string::npos);

  std::string health = HttpGet(server.port(), "/healthz");
  EXPECT_NE(health.find("ok"), std::string::npos);

  std::string missing = HttpGet(server.port(), "/no-such-page");
  EXPECT_NE(missing.find("404"), std::string::npos);

  server.Stop();
  EXPECT_FALSE(server.running());
}

TEST(TelemetryServerTest, ServesHeatmapAndTimeseries) {
  AccessLog& log = AccessLog::Global();
  log.ResetForTest();
  log.Start();
  log.Record(AccessOp::kGet, 5, 1, Journal::InternLabel("scraped_class"), 9);
  log.RecordAffinity(5, 1, Journal::InternLabel("scraped_class"), 5, 2,
                     Journal::InternLabel("scraped_class"));
  Registry::Global().counter("telemetry.ts_smoke")->Increment();
  TimeSeriesStore::Global().TickOnce();

  TelemetryServer server;
  ASSERT_TRUE(server.Start(/*port=*/0).ok());

  std::string heatmap = HttpGet(server.port(), "/heatmap");
  EXPECT_NE(heatmap.find("200 OK"), std::string::npos);
  EXPECT_NE(heatmap.find("application/json"), std::string::npos);
  EXPECT_NE(heatmap.find("\"page\":9"), std::string::npos);
  EXPECT_NE(heatmap.find("\"class\":\"scraped_class\""), std::string::npos);
  EXPECT_NE(heatmap.find("\"src\":\"c5:o1\""), std::string::npos);
  // The body (after the blank header separator) is valid JSON.
  size_t body_at = heatmap.find("\r\n\r\n");
  ASSERT_NE(body_at, std::string::npos);
  EXPECT_TRUE(JsonValidator(
                  std::string_view(heatmap).substr(body_at + 4))
                  .Validate());

  std::string timeseries = HttpGet(server.port(), "/timeseries");
  EXPECT_NE(timeseries.find("200 OK"), std::string::npos);
  EXPECT_NE(timeseries.find("application/json"), std::string::npos);
  EXPECT_NE(timeseries.find("telemetry.ts_smoke"), std::string::npos);
  body_at = timeseries.find("\r\n\r\n");
  ASSERT_NE(body_at, std::string::npos);
  EXPECT_TRUE(JsonValidator(
                  std::string_view(timeseries).substr(body_at + 4))
                  .Validate());

  server.Stop();
  log.ResetForTest();
}

TEST(TelemetryServerTest, StartTwiceFails) {
  TelemetryServer server;
  ASSERT_TRUE(server.Start(0).ok());
  EXPECT_FALSE(server.Start(0).ok());
  server.Stop();
}

TEST(TelemetryServerTest, RestartsAfterStop) {
  TelemetryServer server;
  ASSERT_TRUE(server.Start(0).ok());
  server.Stop();
  ASSERT_TRUE(server.Start(0).ok());
  std::string health = HttpGet(server.port(), "/healthz");
  EXPECT_NE(health.find("200 OK"), std::string::npos);
  server.Stop();
}

#if GTEST_HAS_DEATH_TEST
TEST(CrashHandlerDeathTest, DumpsFlightRecorderOnFatalSignal) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Watchdog::InstallCrashHandler();
        Journal::Global().Append(JournalEvent::kMark, 0, 0,
                                 Journal::InternLabel("pre-crash"));
        std::abort();
      },
      "ode flight recorder");
}
#endif  // GTEST_HAS_DEATH_TEST

}  // namespace
}  // namespace ode::obs
