// Thread-stress battery for the concurrent storage engine: sharded
// BufferPool, thread-safe HeapFile, and multi-session Database. These
// tests are the ones CI runs under TSan; they must be deterministic in
// outcome (assertions) even though interleavings vary.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/access_log.h"
#include "common/journal.h"
#include "common/lock_rank.h"
#include "common/timeseries.h"
#include "common/metrics.h"
#include "common/op_profile.h"
#include "common/telemetry_http.h"
#include "common/trace.h"
#include "common/watchdog.h"
#include "odb/buffer_pool.h"
#include "odb/cluster/advisor.h"
#include "odb/cluster/plan.h"
#include "odb/database.h"
#include "odb/exec/executor.h"
#include "odb/exec/explain.h"
#include "odb/heap_file.h"
#include "odb/integrity.h"
#include "odb/labdb.h"
#include "odb/pager.h"
#include "odb/predicate.h"

namespace ode::odb {
namespace {

constexpr int kThreads = 8;

/// Deterministic per-thread xorshift so runs are reproducible.
struct Rng {
  uint64_t state;
  explicit Rng(uint64_t seed) : state(seed * 2654435769u + 1) {}
  uint64_t Next() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  }
  uint64_t Below(uint64_t n) { return Next() % n; }
};

std::string PayloadFor(uint64_t id) {
  std::string payload((id % 50) + 1, static_cast<char>('a' + id % 26));
  payload += std::to_string(id);
  return payload;
}

// --- BufferPool under contention --------------------------------------

// 8 threads hammer one sharded pool with a mix of pinned reads, writes,
// and eviction pressure (capacity < working set). Each page holds one
// u64 slot per thread; a thread only ever writes its own slot, so after
// a flush every slot must equal the number of increments that thread
// performed on that page — any torn or lost write breaks the tally.
TEST(PoolConcurrencyTest, MixedPinReadWriteEvictNoLostWrites) {
  constexpr int kPages = 24;
  constexpr int kOpsPerThread = 2000;

  MemPager pager;
  for (int i = 0; i < kPages; ++i) ASSERT_TRUE(pager.Allocate().ok());
  BufferPool pool(&pager, /*capacity=*/8, /*shards=*/4);

  // increments[t][p] = how often thread t bumped its slot on page p.
  std::vector<std::vector<uint64_t>> increments(
      kThreads, std::vector<uint64_t>(kPages, 0));

  // With 8 threads pinning against 2-frame shards, a shard can be
  // transiently exhausted (every frame pinned by a peer) — that is
  // correct pool behavior, so fetches retry on FailedPrecondition.
  auto fetch_retry = [&pool](PageId id,
                             PageIntent intent) -> Result<PageHandle> {
    while (true) {
      Result<PageHandle> handle = pool.Fetch(id, intent);
      if (handle.ok() ||
          handle.status().code() != StatusCode::kFailedPrecondition) {
        return handle;
      }
      std::this_thread::yield();
    }
  };

  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&increments, &fetch_retry, t] {
      Rng rng(0xC0FFEE + t);
      for (int op = 0; op < kOpsPerThread; ++op) {
        PageId id = static_cast<PageId>(rng.Below(kPages));
        if (rng.Below(4) == 0) {
          // Shared read: sum all slots; the latch guarantees we never
          // observe a torn u64.
          Result<PageHandle> handle = fetch_retry(id, PageIntent::kRead);
          ASSERT_TRUE(handle.ok()) << handle.status().ToString();
          uint64_t sum = 0;
          for (int s = 0; s < kThreads; ++s) {
            uint64_t v = 0;
            std::memcpy(&v, handle->page()->bytes() + s * sizeof(uint64_t),
                        sizeof(uint64_t));
            sum += v;
          }
          (void)sum;
        } else {
          Result<PageHandle> handle = fetch_retry(id, PageIntent::kWrite);
          ASSERT_TRUE(handle.ok()) << handle.status().ToString();
          uint64_t v = 0;
          char* slot = handle->page()->bytes() + t * sizeof(uint64_t);
          std::memcpy(&v, slot, sizeof(uint64_t));
          ++v;
          std::memcpy(slot, &v, sizeof(uint64_t));
          handle->MarkDirty();
          ++increments[t][id];
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();

  ASSERT_TRUE(pool.FlushAll().ok());
  for (int p = 0; p < kPages; ++p) {
    Page page;
    ASSERT_TRUE(pager.Read(static_cast<PageId>(p), &page).ok());
    for (int t = 0; t < kThreads; ++t) {
      uint64_t v = 0;
      std::memcpy(&v, page.bytes() + t * sizeof(uint64_t), sizeof(uint64_t));
      EXPECT_EQ(v, increments[t][p])
          << "thread " << t << " page " << p << " lost writes";
    }
  }

  BufferPool::Stats stats = pool.stats();
  EXPECT_EQ(stats.lookups, stats.hits + stats.misses);
  EXPECT_GE(stats.lookups,
            static_cast<uint64_t>(kThreads) * kOpsPerThread);
  EXPECT_GT(stats.evictions, 0u);  // capacity 8 < 24 hot pages
}

// Pins from several threads must never allow eviction of a held frame:
// every handle's bytes stay coherent for its lifetime.
TEST(PoolConcurrencyTest, ConcurrentPinsBlockEviction) {
  constexpr int kPages = 16;
  MemPager pager;
  for (int i = 0; i < kPages; ++i) ASSERT_TRUE(pager.Allocate().ok());
  BufferPool pool(&pager, /*capacity=*/kPages, /*shards=*/4);

  // Stamp each page with its id so readers can verify identity.
  for (PageId id = 0; id < kPages; ++id) {
    Result<PageHandle> handle = pool.Fetch(id, PageIntent::kWrite);
    ASSERT_TRUE(handle.ok());
    std::memcpy(handle->page()->bytes(), &id, sizeof(id));
    handle->MarkDirty();
  }

  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&pool, t] {
      Rng rng(17 + t);
      for (int op = 0; op < 3000; ++op) {
        PageId id = static_cast<PageId>(rng.Below(kPages));
        Result<PageHandle> handle = pool.Fetch(id, PageIntent::kRead);
        while (!handle.ok() &&
               handle.status().code() == StatusCode::kFailedPrecondition) {
          std::this_thread::yield();  // shard transiently exhausted
          handle = pool.Fetch(id, PageIntent::kRead);
        }
        ASSERT_TRUE(handle.ok()) << handle.status().ToString();
        PageId stamped = kNoPage;
        std::memcpy(&stamped, handle->page()->bytes(), sizeof(stamped));
        ASSERT_EQ(stamped, id) << "frame recycled while pinned";
      }
    });
  }
  for (std::thread& w : workers) w.join();
}

// --- HeapFile: parallel scans racing an inserter -----------------------

TEST(HeapConcurrencyTest, ConcurrentScansDuringInserts) {
  constexpr uint64_t kRecords = 300;

  MemPager pager;
  BufferPool pool(&pager, /*capacity=*/64);
  FreeList free_list(&pool, kNoPage);
  Result<HeapFile> created = HeapFile::Create(&pool, &free_list);
  ASSERT_TRUE(created.ok());
  HeapFile heap = std::move(*created);

  std::atomic<bool> done{false};
  std::thread writer([&heap, &done] {
    for (uint64_t id = 1; id <= kRecords; ++id) {
      ASSERT_TRUE(heap.Insert(id, PayloadFor(id)).ok());
    }
    done.store(true, std::memory_order_release);
  });

  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&heap, &done, t] {
      Rng rng(31 * (t + 1));
      while (!done.load(std::memory_order_acquire)) {
        // A scan sees some prefix-closed subset of the inserts; every
        // visible record must read back intact.
        std::vector<uint64_t> ids = heap.AllIds();
        for (uint64_t id : ids) {
          Result<std::string> payload = heap.Get(id);
          ASSERT_TRUE(payload.ok()) << payload.status().ToString();
          ASSERT_EQ(*payload, PayloadFor(id));
        }
        // Random point lookups race the writer too.
        uint64_t probe = rng.Below(kRecords) + 1;
        Result<std::string> payload = heap.Get(probe);
        if (payload.ok()) {
          ASSERT_EQ(*payload, PayloadFor(probe));
        }
        std::this_thread::yield();
      }
    });
  }
  writer.join();
  for (std::thread& r : readers) r.join();

  EXPECT_EQ(heap.count(), kRecords);
  // Full batch-read pass over the final heap.
  std::string arena;
  std::vector<HeapFile::RecordSpan> spans;
  uint64_t after = 0;
  uint64_t seen = 0;
  while (heap.RecordsInto(after, /*forward=*/true, 16, &arena, &spans).ok()) {
    for (const HeapFile::RecordSpan& span : spans) {
      ++seen;
      EXPECT_EQ(arena.substr(span.offset, span.length),
                PayloadFor(span.local_id));
      after = span.local_id;
    }
  }
  EXPECT_EQ(seen, kRecords);
}

// --- Database: many sessions, one engine ------------------------------

TEST(DatabaseConcurrencyTest, MultiSessionCreateAndRead) {
  constexpr int kPerSession = 50;
  constexpr char kSchema[] = R"(
persistent class person {
public:
  string name;
  int age;
  constraint age >= 0;
};
)";

  auto db = std::move(*Database::CreateInMemory("stress"));
  ASSERT_TRUE(db->DefineSchema(kSchema).ok());

  std::vector<std::thread> workers;
  std::vector<std::vector<Oid>> created(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&db, &created, t] {
      Session session = db->OpenSession();
      for (int i = 0; i < kPerSession; ++i) {
        std::string name =
            "p" + std::to_string(t) + "_" + std::to_string(i);
        Result<Oid> oid = session.CreateObject(
            "person", Value::Struct({{"name", Value::String(name)},
                                     {"age", Value::Int(t * 100 + i)}}));
        ASSERT_TRUE(oid.ok()) << oid.status().ToString();
        created[t].push_back(*oid);
        // Read our own write back through the same session.
        Result<ObjectBuffer> buffer = session.GetObject(*oid);
        ASSERT_TRUE(buffer.ok()) << buffer.status().ToString();
        ASSERT_EQ(buffer->value.FindField("name")->AsString(), name);
        // And sequence/scan while others insert.
        if (i % 10 == 0) {
          Result<std::vector<Oid>> scan = session.ScanCluster("person");
          ASSERT_TRUE(scan.ok());
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();

  EXPECT_EQ(*db->ClusterCount("person"),
            static_cast<uint64_t>(kThreads) * kPerSession);
  EXPECT_EQ(db->active_sessions(), 0);  // all sessions closed

  // Ids must be unique across sessions.
  std::vector<uint64_t> locals;
  for (const auto& per_thread : created) {
    for (Oid oid : per_thread) locals.push_back(oid.local);
  }
  std::sort(locals.begin(), locals.end());
  EXPECT_EQ(std::adjacent_find(locals.begin(), locals.end()), locals.end());

  // Every object reads back with the value its creator stored.
  Session session = db->OpenSession();
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerSession; ++i) {
      Result<ObjectBuffer> buffer = session.GetObject(created[t][i]);
      ASSERT_TRUE(buffer.ok());
      EXPECT_EQ(buffer->value.FindField("age")->AsInt(), t * 100 + i);
    }
  }
}

TEST(DatabaseConcurrencyTest, ConcurrentUpdatesDontLoseObjects) {
  constexpr char kSchema[] = R"(
persistent class counter {
public:
  int value;
};
)";
  auto db = std::move(*Database::CreateInMemory("updates"));
  ASSERT_TRUE(db->DefineSchema(kSchema).ok());

  // One object per thread: updates to distinct objects must all stick.
  std::vector<Oid> oids;
  for (int t = 0; t < kThreads; ++t) {
    oids.push_back(*db->CreateObject(
        "counter", Value::Struct({{"value", Value::Int(0)}})));
  }

  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&db, &oids, t] {
      Session session = db->OpenSession();
      for (int i = 1; i <= 100; ++i) {
        ASSERT_TRUE(session
                        .UpdateObject(oids[t], Value::Struct({{"value",
                                                  Value::Int(i)}}))
                        .ok());
      }
    });
  }
  for (std::thread& w : workers) w.join();

  for (int t = 0; t < kThreads; ++t) {
    ObjectBuffer buffer = *db->GetObject(oids[t]);
    EXPECT_EQ(buffer.value.FindField("value")->AsInt(), 100);
    EXPECT_EQ(buffer.version, 101u);
  }
}

// --- Prefetcher --------------------------------------------------------

TEST(PrefetchTest, PrefetchWarmsPages) {
  constexpr int kPages = 32;
  MemPager pager;
  for (int i = 0; i < kPages; ++i) ASSERT_TRUE(pager.Allocate().ok());
  BufferPool pool(&pager, /*capacity=*/kPages);

  for (PageId id = 0; id < kPages; ++id) pool.Prefetch(id);
  pool.WaitForPrefetches();

  for (PageId id = 0; id < kPages; ++id) {
    EXPECT_TRUE(pool.Cached(id)) << "page " << id << " not prefetched";
  }
  BufferPool::Stats stats = pool.stats();
  EXPECT_GT(stats.prefetches, 0u);

  // Every fetch is now a hit.
  uint64_t misses_before = stats.misses;
  for (PageId id = 0; id < kPages; ++id) {
    ASSERT_TRUE(pool.Fetch(id).ok());
  }
  EXPECT_EQ(pool.stats().misses, misses_before);
}

TEST(PrefetchTest, HeapSequencingSchedulesReadAhead) {
  MemPager pager;
  // Pool smaller than the heap so sequencing actually crosses pages
  // that fell out of the cache (a warm pool schedules nothing).
  BufferPool pool(&pager, /*capacity=*/4);
  FreeList free_list(&pool, kNoPage);
  HeapFile heap = std::move(*HeapFile::Create(&pool, &free_list));

  // Enough records that the heap far outgrows the pool, so the batch
  // read's read-ahead targets are genuinely cold.
  constexpr uint64_t kRecords = 2000;
  for (uint64_t id = 1; id <= kRecords; ++id) {
    ASSERT_TRUE(heap.Insert(id, PayloadFor(id)).ok());
  }
  ASSERT_GT(*heap.PageCount(), 8u);

  // Walk the heap the way the object-set cursor does: 16-record batch
  // reads, each warming the page after it.
  std::string arena;
  std::vector<HeapFile::RecordSpan> spans;
  uint64_t after = 0;
  uint64_t seen = 0;
  while (heap.RecordsInto(after, /*forward=*/true, 16, &arena, &spans).ok()) {
    seen += spans.size();
    after = spans.back().local_id;
  }
  EXPECT_EQ(seen, kRecords);
  pool.WaitForPrefetches();
  EXPECT_GT(pool.stats().prefetches, 0u)
      << "sequencing a multi-page heap should schedule read-ahead";
}

// --- Scaling smoke test ------------------------------------------------

// Reports read throughput single- vs multi-threaded. Logged rather than
// asserted: CI machines vary too much for a hard ratio check, but the
// numbers make regressions visible in the test record.
TEST(ScalingTest, ParallelScanThroughput) {
  constexpr int kPages = 64;
  MemPager pager;
  for (int i = 0; i < kPages; ++i) ASSERT_TRUE(pager.Allocate().ok());
  BufferPool pool(&pager, /*capacity=*/kPages, /*shards=*/8);
  for (PageId id = 0; id < kPages; ++id) {
    ASSERT_TRUE(pool.Fetch(id).ok());  // warm
  }

  auto run = [&pool](int threads, int ops_per_thread) {
    std::vector<std::thread> workers;
    auto start = std::chrono::steady_clock::now();
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([&pool, t, ops_per_thread] {
        Rng rng(97 + t);
        for (int op = 0; op < ops_per_thread; ++op) {
          Result<PageHandle> handle =
              pool.Fetch(static_cast<PageId>(rng.Below(kPages)));
          ASSERT_TRUE(handle.ok());
        }
      });
    }
    for (std::thread& w : workers) w.join();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };

  constexpr int kOps = 50000;
  double single = run(1, kOps * 4);
  double multi = run(4, kOps);
  ::testing::Test::RecordProperty("single_thread_seconds", single);
  ::testing::Test::RecordProperty("four_thread_seconds", multi);
  // Same total work; multi should not be dramatically slower.
  EXPECT_GT(single, 0.0);
  EXPECT_GT(multi, 0.0);
}

// --- Observability under contention -----------------------------------

// Writers hammer shared counters/histograms and emit trace spans, other
// threads churn owned instruments (exercising the retiring deleters),
// and a reader thread concurrently snapshots and renders every export
// format. TSan is the real assertion here; the tallies at the end catch
// lost updates.
TEST(ObsStressTest, MetricsAndSpansUnderConcurrentExport) {
  obs::Registry& registry = obs::Registry::Global();
  obs::Counter* shared_counter =
      registry.counter("concurrency_test.obs.counter");
  obs::Histogram* shared_hist =
      registry.histogram("concurrency_test.obs.hist");
  obs::Tracing::Clear();
  obs::Tracing::Enable();
  // Run the whole stress with the flight recorder live: a fast-scan
  // watchdog reading open spans and journal appends racing the span
  // writers. TSan checks the cross-component interactions.
  obs::WatchdogOptions watchdog_options;
  watchdog_options.scan_interval = std::chrono::milliseconds(5);
  watchdog_options.span_deadline = std::chrono::milliseconds(10000);
  watchdog_options.hold_deadline = std::chrono::milliseconds(10000);
  watchdog_options.install_crash_handler = false;
  obs::Watchdog stress_watchdog;
  ASSERT_TRUE(stress_watchdog.Start(watchdog_options).ok());

  constexpr int kOpsPerThread = 4000;
  constexpr int kOwnerRounds = 200;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> owned_total{0};
  std::vector<std::thread> workers;

  // Writers: shared instruments + trace spans.
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([shared_counter, shared_hist, t] {
      Rng rng(131 + t);
      for (int op = 0; op < kOpsPerThread; ++op) {
        ODE_TRACE_SPAN("concurrency_test.obs.span");
        shared_counter->Increment();
        shared_hist->Record(rng.Below(1 << 20));
        if (op % 64 == 0) {
          obs::Journal::Global().Append(obs::JournalEvent::kMark, op, t);
        }
      }
    });
  }
  // Owner churners: create, bump, and destroy owned instruments so the
  // retiring deleters race against the snapshot reader.
  for (int t = 0; t < 2; ++t) {
    workers.emplace_back([&registry, &owned_total, t] {
      Rng rng(977 + t);
      for (int round = 0; round < kOwnerRounds; ++round) {
        auto counter =
            registry.NewOwnedCounter("concurrency_test.obs.owned");
        auto hist =
            registry.NewOwnedHistogram("concurrency_test.obs.owned_hist");
        uint64_t bumps = rng.Below(16) + 1;
        counter->Add(bumps);
        hist->Record(bumps);
        owned_total.fetch_add(bumps, std::memory_order_relaxed);
      }
    });
  }
  // Reader: exports everything, repeatedly, while the above runs.
  std::thread reader([&registry, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      std::vector<obs::MetricSample> samples = registry.Snapshot();
      EXPECT_FALSE(samples.empty());
      EXPECT_FALSE(registry.RenderJson().empty());
      EXPECT_FALSE(registry.RenderPrometheus().empty());
      EXPECT_FALSE(obs::Tracing::ExportChromeJson().empty());
      EXPECT_FALSE(obs::Journal::Global().ExportJsonLines().empty());
    }
  });

  for (std::thread& w : workers) w.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();
  stress_watchdog.Stop();
  obs::Tracing::Disable();

  EXPECT_EQ(shared_counter->value(),
            static_cast<uint64_t>(kThreads) * kOpsPerThread);
  EXPECT_EQ(shared_hist->count(),
            static_cast<uint64_t>(kThreads) * kOpsPerThread);
  // Every owned bump must be visible post-retirement (all owners died).
  uint64_t exported = 0;
  uint64_t exported_hist_count = 0;
  for (const obs::MetricSample& s : registry.Snapshot()) {
    if (s.name == "concurrency_test.obs.owned") {
      exported = static_cast<uint64_t>(s.value);
    }
    if (s.name == "concurrency_test.obs.owned_hist") {
      exported_hist_count = s.count;
    }
  }
  EXPECT_EQ(exported, owned_total.load());
  EXPECT_EQ(exported_hist_count, 2u * kOwnerRounds);
  // Spans either landed in a ring buffer or were counted as dropped.
  EXPECT_EQ(obs::Tracing::CapturedCount() + obs::Tracing::DroppedCount(),
            static_cast<size_t>(kThreads) * kOpsPerThread);
  obs::Tracing::Clear();
}

// The journal ring under concurrent producers and a racing consumer:
// appends never block or tear, the retained tail is a strictly
// increasing run of sequence numbers no longer than one ring, and
// every append is accounted for (committed or counted dropped).
TEST(ObsStressTest, JournalConcurrentWritersAndWrap) {
  obs::Journal journal(/*capacity=*/256);
  constexpr int kAppendsPerThread = 5000;
  std::atomic<bool> stop{false};

  std::thread reader([&journal, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      std::vector<obs::JournalRecord> tail = journal.Snapshot();
      EXPECT_LE(tail.size(), journal.capacity());
      for (size_t i = 1; i < tail.size(); ++i) {
        EXPECT_LT(tail[i - 1].seq, tail[i].seq);
      }
      (void)journal.ExportJsonLines();
    }
  });

  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&journal, t] {
      for (int i = 0; i < kAppendsPerThread; ++i) {
        journal.Append(obs::JournalEvent::kMark, i, t);
      }
    });
  }
  for (std::thread& w : writers) w.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();

  EXPECT_EQ(journal.appended(),
            static_cast<uint64_t>(kThreads) * kAppendsPerThread);
  std::vector<obs::JournalRecord> tail = journal.Snapshot();
  EXPECT_LE(tail.size(), journal.capacity());
  EXPECT_GE(tail.size() + journal.dropped(), journal.capacity());
  for (size_t i = 1; i < tail.size(); ++i) {
    EXPECT_LT(tail[i - 1].seq, tail[i].seq);
  }
  // The newest retained record is from the final ring generation (the
  // very last append may itself have lost its claim race and dropped).
  if (!tail.empty()) {
    EXPECT_LE(tail.back().seq, journal.appended());
    EXPECT_GE(tail.back().seq + journal.capacity(), journal.appended());
  }
}

// --- Lock-rank validator under the full engine ------------------------

// The whole battery above exercises every lock in the engine; this case
// drives a representative multi-session DDL+DML mix and asserts that the
// rank validator saw *zero* violations — i.e. the engine's real
// acquisition orders all fit the documented partial order. Runs in
// kCount mode so an ordering bug fails the assertion (with the journal
// carrying the record) instead of aborting the battery.
TEST(LockRankBatteryTest, EngineWorkloadProducesNoRankViolations) {
  LockRankValidator::SetMode(LockRankValidator::Mode::kCount);
  const uint64_t before = LockRankValidator::violations();

  auto db_or = Database::CreateInMemory("rankdb");
  ASSERT_TRUE(db_or.ok()) << db_or.status().ToString();
  Database* db = db_or->get();
  ASSERT_TRUE(db->DefineSchema("persistent class Item { int n; };").ok());

  constexpr int kPerThread = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([db, t] {
      Session session = db->OpenSession();
      Rng rng(static_cast<uint64_t>(t) + 99);
      std::vector<Oid> mine;
      for (int i = 0; i < kPerThread; ++i) {
        switch (rng.Below(4)) {
          case 0: {
            auto oid = session.CreateObject(
                "Item", Value::Struct({{"n", Value::Int(i)}}));
            if (oid.ok()) mine.push_back(*oid);
            break;
          }
          case 1:
            if (!mine.empty()) {
              (void)session.GetObject(mine[rng.Below(mine.size())]);
            }
            break;
          case 2:
            if (!mine.empty()) {
              (void)session.UpdateObject(
                  mine[rng.Below(mine.size())],
                  Value::Struct({{"n", Value::Int(-i)}}));
            }
            break;
          default:
            (void)session.ScanCluster("Item");
            break;
        }
      }
      EXPECT_EQ(LockRankValidator::HeldCount(), 0u);
    });
  }
  for (std::thread& t : threads) t.join();
  ASSERT_TRUE(db->Sync().ok());

  EXPECT_EQ(LockRankValidator::violations(), before)
      << "engine workload broke the documented lock order; check the "
         "lockrank_violation records in the journal";
}

// --- Batched executor under concurrency --------------------------------

/// A database holding 500 `Item`s whose `n` is non-negative.
std::unique_ptr<Database> ItemDb(std::string name) {
  auto db_or = Database::CreateInMemory(std::move(name));
  EXPECT_TRUE(db_or.ok()) << db_or.status().ToString();
  std::unique_ptr<Database> db = std::move(*db_or);
  EXPECT_TRUE(
      db->DefineSchema("persistent class Item { int n; string tag; };").ok());
  Session session = db->OpenSession();
  for (int i = 0; i < 500; ++i) {
    EXPECT_TRUE(
        session
            .CreateObject("Item",
                          Value::Struct({{"n", Value::Int(i)},
                                         {"tag", Value::String(
                                                     PayloadFor(i))}}))
            .ok());
  }
  return db;
}

/// One writer: creates, updates and deletes `Item`s until `stop`.
/// Updates write a negative `n`, which no `n >= 0` reader may return.
void MutateItemsUntil(Database* db, uint64_t seed,
                      const std::atomic<bool>& stop) {
  Session session = db->OpenSession();
  Rng rng(seed);
  std::vector<Oid> mine;
  for (uint64_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
    switch (rng.Below(3)) {
      case 0: {
        auto oid = session.CreateObject(
            "Item", Value::Struct({{"n", Value::Int(static_cast<int64_t>(i))},
                                   {"tag", Value::String(PayloadFor(i))}}));
        if (oid.ok()) mine.push_back(*oid);
        break;
      }
      case 1:
        if (!mine.empty()) {
          (void)session.UpdateObject(
              mine[rng.Below(mine.size())],
              Value::Struct({{"n", Value::Int(-1 - static_cast<int64_t>(i))},
                             {"tag", Value::String("updated")}}));
        }
        break;
      default:
        if (!mine.empty()) {
          size_t at = rng.Below(mine.size());
          (void)session.DeleteObject(mine[at]);
          mine.erase(mine.begin() + static_cast<ptrdiff_t>(at));
        }
        break;
    }
  }
}

// Batched scans on four threads race against writers creating,
// updating, and deleting objects in the scanned cluster. Outcomes
// depend on the interleaving, so the assertions check invariants
// instead of counts: every result is sorted by id with no duplicates,
// every matched row actually satisfies the predicate (updates write
// non-matching values, so a torn read would surface here), and the
// scanners honor the documented lock order. CI runs this binary under
// TSan.
TEST(ExecConcurrencyTest, ScansDuringMutationsStayConsistent) {
  LockRankValidator::SetMode(LockRankValidator::Mode::kCount);
  const uint64_t before = LockRankValidator::violations();

  std::unique_ptr<Database> owned = ItemDb("execdb");
  Database* db = owned.get();

  auto predicate_or = ParsePredicate("n >= 0");
  ASSERT_TRUE(predicate_or.ok());
  const Predicate predicate = *predicate_or;

  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 2; ++t) {
    writers.emplace_back([db, t, &stop] {
      MutateItemsUntil(db, static_cast<uint64_t>(t) + 4242, stop);
    });
  }

  std::vector<std::thread> scanners;
  for (int t = 0; t < 4; ++t) {
    scanners.emplace_back([db, &predicate] {
      for (int iter = 0; iter < 25; ++iter) {
        exec::ScanSpec spec;
        spec.class_name = "Item";
        spec.predicate = &predicate;
        spec.project_all = true;
        spec.batch_size = 16;
        auto result = exec::ExecuteScan(db, spec);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        Oid previous = Oid::Null();
        for (const exec::ScanRow& row : result->rows) {
          EXPECT_TRUE(previous < row.oid);  // sorted, no duplicates
          previous = row.oid;
          const Value* n = row.value.FindField("n");
          ASSERT_NE(n, nullptr);
          EXPECT_GE(n->AsInt(), 0);
        }
        EXPECT_EQ(result->stats.rows_matched, result->rows.size());
      }
      EXPECT_EQ(LockRankValidator::HeldCount(), 0u);
    });
  }

  for (std::thread& s : scanners) s.join();
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& w : writers) w.join();

  EXPECT_EQ(LockRankValidator::violations(), before)
      << "concurrent scans broke the documented lock order";
}

// Object-set cursors step through the cluster while writers mutate it.
// Each cursor reverses direction every 97 steps and at either end. The
// assertions check invariants: every step moves strictly past the
// previous object in its direction, every buffer a filtered cursor
// returns satisfies the predicate on its own value (updates write
// non-matching values, so a buffer decoded from other bytes than the
// ones tested would surface here), and the documented lock order holds.
TEST(CursorConcurrencyTest, ReversingCursorsDuringMutationsStayConsistent) {
  LockRankValidator::SetMode(LockRankValidator::Mode::kCount);
  const uint64_t before = LockRankValidator::violations();
  std::unique_ptr<Database> owned = ItemDb("cursordb");
  Database* db = owned.get();
  const Predicate predicate = *ParsePredicate("n >= 0");

  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 2; ++t) {
    writers.emplace_back([db, t, &stop] {
      MutateItemsUntil(db, static_cast<uint64_t>(t) + 777, stop);
    });
  }

  std::vector<std::thread> cursors;
  for (int t = 0; t < 4; ++t) {
    cursors.emplace_back([db, t, &predicate] {
      const bool filtered = t % 2 == 0;
      ObjectCursor cursor = filtered ? ObjectCursor(db, "Item", predicate)
                                     : ObjectCursor(db, "Item");
      bool forward = true;
      int run = 0;
      Oid last = Oid::Null();
      for (int step = 0; step < 1500; ++step) {
        Result<ObjectBuffer> buffer = forward ? cursor.Next() : cursor.Prev();
        if (!buffer.ok()) {
          ASSERT_TRUE(buffer.status().IsOutOfRange())
              << buffer.status().ToString();
          forward = !forward;
          run = 0;
          continue;
        }
        if (!last.IsNull()) {
          EXPECT_TRUE(forward ? last < buffer->oid : buffer->oid < last)
              << last.ToString() << " then " << buffer->oid.ToString();
        }
        last = buffer->oid;
        if (filtered) {
          const Value* n = buffer->value.FindField("n");
          ASSERT_NE(n, nullptr);
          EXPECT_GE(n->AsInt(), 0);
        }
        if (++run == 97) {
          forward = !forward;
          run = 0;
        }
      }
      EXPECT_EQ(LockRankValidator::HeldCount(), 0u);
    });
  }

  for (std::thread& c : cursors) c.join();
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& w : writers) w.join();

  EXPECT_EQ(LockRankValidator::violations(), before)
      << "stepping cursors broke the documented lock order";
}

// --- WAL: group commit, checkpoints, and eviction under fire -----------

// Per-pool instruments are owned counters; only the registry snapshot
// sees their sum (the shared `counter()` instance stays at zero).
int64_t SnapshotCounter(const std::string& name) {
  for (const obs::MetricSample& sample :
       obs::Registry::Global().Snapshot()) {
    if (sample.name == name) return sample.value;
  }
  return 0;
}

TEST(WalConcurrencyTest, GroupCommitCheckpointsEvictionNoRankViolations) {
  const uint64_t violations_before = LockRankValidator::violations();
  const uint64_t commits_before =
      obs::Registry::Global().counter("wal.commits")->value();
  const uint64_t fsyncs_before =
      obs::Registry::Global().counter("wal.fsyncs")->value();
  const int64_t evictions_before = SnapshotCounter("pool.evictions");

  const std::string path = testing::TempDir() + "/odeview_wal_stress.db";
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
  DatabaseOptions options;
  // Small enough that the ~500-page working set churns through the pool
  // (eviction must ride the WAL flush gate), but a shard still has to
  // hold one transaction's pinned pages plus its no-steal frames — 16
  // was below that floor and writers saw transient shard exhaustion.
  options.buffer_pool_pages = 64;
  options.wal_checkpoint_bytes = 256 * 1024;  // frequent auto-checkpoints
  {
    auto db = std::move(*Database::CreateOnDisk(path, "walstress", options));
    ASSERT_TRUE(db->DefineSchema(R"(
persistent class item {
public:
  string payload;
};
)")
                    .ok());

    std::atomic<bool> stop{false};
    std::atomic<uint64_t> created{0};
    std::atomic<uint64_t> deleted{0};
    // A dedicated thread forces explicit two-phase checkpoints while
    // writers hold group-commit leadership and eviction gates on the
    // log — the cross-product the rank order must keep deadlock-free.
    std::thread checkpointer([&db, &stop] {
      while (!stop.load(std::memory_order_relaxed)) {
        ASSERT_TRUE(db->Checkpoint().ok());
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    });

    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&db, &created, &deleted, t] {
        Rng rng(1000 + static_cast<uint64_t>(t));
        Session session = db->OpenSession();
        std::vector<Oid> mine;
        for (int i = 0; i < 120; ++i) {
          uint64_t op = rng.Next() % 10;
          if (op < 6 || mine.empty()) {
            // Occasional multi-page payloads route the commit through
            // several captured frames.
            size_t size = (rng.Next() % 7 == 0) ? 3000 : 80;
            Result<Oid> oid = session.CreateObject(
                "item", Value::Struct({{"payload",
                                        Value::String(std::string(
                                            size,
                                            static_cast<char>('a' + t)))}}));
            ASSERT_TRUE(oid.ok()) << oid.status().ToString();
            mine.push_back(*oid);
            created.fetch_add(1, std::memory_order_relaxed);
          } else if (op < 8) {
            Oid victim = mine[rng.Next() % mine.size()];
            Status updated = session.UpdateObject(
                victim,
                Value::Struct({{"payload", Value::String("upd")}}));
            ASSERT_TRUE(updated.ok()) << updated.ToString();
          } else {
            size_t index = rng.Next() % mine.size();
            Status removed = session.DeleteObject(mine[index]);
            ASSERT_TRUE(removed.ok()) << removed.ToString();
            mine.erase(mine.begin() + static_cast<long>(index));
            deleted.fetch_add(1, std::memory_order_relaxed);
          }
          EXPECT_EQ(LockRankValidator::HeldCount(), 0u);
        }
      });
    }
    for (std::thread& w : workers) w.join();
    stop.store(true, std::memory_order_relaxed);
    checkpointer.join();

    EXPECT_EQ(*db->ClusterCount("item"), created.load() - deleted.load());
    EXPECT_EQ(LockRankValidator::violations(), violations_before)
        << "group commit / checkpoint / eviction broke the lock order";

    // The commit path went through the WAL, and group commit actually
    // batched: strictly fewer fsyncs than commits would mean nothing
    // here (checkpoints sync too), but both instruments must move.
    EXPECT_GT(obs::Registry::Global().counter("wal.commits")->value(),
              commits_before);
    EXPECT_GT(obs::Registry::Global().counter("wal.fsyncs")->value(),
              fsyncs_before);
    // The pool really churned: the WAL-before-data eviction gate was
    // exercised, not just clean-frame recycling.
    EXPECT_GT(SnapshotCounter("pool.evictions"), evictions_before);
  }

  // Crash-less reopen still runs restart recovery on whatever tail the
  // last checkpoint left; the surviving state must be consistent.
  auto reopened = Database::OpenOnDisk(path, options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_GT(*(*reopened)->ClusterCount("item"), 0u);
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
}

// --- Profiled queries under concurrency --------------------------------

// The acceptance battery for the profiling layer: 8 sessions run
// profiled queries (plain ops, executor scans, EXPLAIN ANALYZE) with
// the slow-op threshold at 1 ns so *every* op takes the SlowOpLog
// mutex, while a scraper thread concurrently renders /sessions and
// /slow the way the telemetry endpoint does. TSan checks the memory
// model; the rank validator checks that the two new obs locks slot
// into the documented order with zero violations.
TEST(ProfiledQueryBatteryTest, EightProfiledSessionsUnderConcurrentScrapes) {
  LockRankValidator::SetMode(LockRankValidator::Mode::kCount);
  const uint64_t before = LockRankValidator::violations();

  auto db_or = Database::CreateInMemory("profdb");
  ASSERT_TRUE(db_or.ok()) << db_or.status().ToString();
  Database* db = db_or->get();
  LabDbConfig config;
  config.employees = 120;
  ASSERT_TRUE(BuildLabDatabase(db, config).ok());

  obs::SlowOpLog::Global().ResetForTest();
  const uint64_t threshold_before = obs::SlowOpLog::Global().threshold_ns();
  obs::SlowOpLog::Global().set_threshold_ns(1);

  Predicate predicate = *ParsePredicate("age > 40");
  std::atomic<bool> stop{false};
  std::thread scraper([&stop] {
    while (!stop.load(std::memory_order_acquire)) {
      std::string sessions = obs::SessionRegistry::Global().RenderJson();
      EXPECT_NE(sessions.find('['), std::string::npos);
      (void)obs::SessionRegistry::Global().Snapshot();
      std::string slow = obs::SlowOpLog::Global().RenderJson();
      EXPECT_NE(slow.find('['), std::string::npos);
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([db, &predicate, t] {
      Session session = db->OpenSession();
      Rng rng(7000 + static_cast<uint64_t>(t));
      for (int i = 0; i < 60; ++i) {
        switch (rng.Below(4)) {
          case 0: {
            auto ids = session.Select("employee", predicate);
            ASSERT_TRUE(ids.ok()) << ids.status().ToString();
            break;
          }
          case 1: {
            auto ids = session.ScanCluster("employee");
            ASSERT_TRUE(ids.ok()) << ids.status().ToString();
            if (!ids->empty()) (void)session.GetObject(ids->front());
            break;
          }
          case 2: {
            auto explained =
                db->ExplainSelect("employee", predicate, /*analyze=*/true);
            ASSERT_TRUE(explained.ok()) << explained.status().ToString();
            EXPECT_GT(explained->totals.rows_scanned, 0u);
            break;
          }
          default: {
            exec::ScanSpec spec;
            spec.class_name = "employee";
            spec.predicate = &predicate;
            obs::ProfiledOp op(session.entry(), "scan");
            auto result = exec::ExecuteScan(db, spec);
            ASSERT_TRUE(result.ok()) << result.status().ToString();
            break;
          }
        }
        EXPECT_EQ(LockRankValidator::HeldCount(), 0u);
      }
      EXPECT_GE(session.entry()->ops_completed(), 1u);
      EXPECT_GT(session.entry()->totals().Snapshot().rows_scanned, 0u);
    });
  }
  for (std::thread& w : workers) w.join();
  stop.store(true, std::memory_order_release);
  scraper.join();

  EXPECT_GE(obs::SlowOpLog::Global().recorded(), 1u);
  obs::SlowOpLog::Global().set_threshold_ns(threshold_before);
  obs::SlowOpLog::Global().ResetForTest();

  EXPECT_EQ(LockRankValidator::violations(), before)
      << "profiled queries broke the documented lock order";
}

// --- Telemetry endpoint shutdown race -----------------------------------

namespace {
std::string ScrapeOnce(uint16_t port, const char* path) {
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
  std::string request = std::string("GET ") + path + " HTTP/1.0\r\n\r\n";
  (void)::send(fd, request.data(), request.size(), 0);
  std::string response;
  char buffer[2048];
  ssize_t n;
  while ((n = ::recv(fd, buffer, sizeof(buffer), 0)) > 0) {
    response.append(buffer, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}
}  // namespace

// Scrapers hammer every endpoint while the main thread stops the
// server. Scrapes racing the shutdown may fail to connect or read a
// short response — both fine — but the Stop must fully join the accept
// thread with no use-after-free or leaked socket (TSan + ASan CI).
TEST(TelemetryShutdownTest, ConcurrentScrapesDuringStop) {
  obs::TelemetryServer server;
  ASSERT_TRUE(server.Start(/*port=*/0).ok());
  const uint16_t port = server.port();

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> ok_scrapes{0};
  const char* kPaths[] = {"/metrics", "/metrics.json", "/sessions",
                          "/slow",    "/healthz",      "/nope"};
  std::vector<std::thread> scrapers;
  for (int t = 0; t < 4; ++t) {
    scrapers.emplace_back([&, t] {
      uint64_t i = static_cast<uint64_t>(t);
      while (!stop.load(std::memory_order_acquire)) {
        std::string response = ScrapeOnce(port, kPaths[i++ % 6]);
        if (response.find("HTTP/1.0") != std::string::npos) {
          ok_scrapes.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  // Let the scrapers land some successful requests first.
  while (ok_scrapes.load(std::memory_order_relaxed) < 8) {
    std::this_thread::yield();
  }
  server.Stop();  // races in-flight accepts/responses
  stop.store(true, std::memory_order_release);
  for (std::thread& s : scrapers) s.join();
  EXPECT_GE(ok_scrapes.load(), 8u);

  // Stop is idempotent and the port is genuinely released: a second
  // server can bind it immediately.
  server.Stop();
  obs::TelemetryServer second;
  ASSERT_TRUE(second.Start(port).ok());
  EXPECT_NE(ScrapeOnce(port, "/healthz").find("200 OK"), std::string::npos);
  second.Stop();
}

// The access observatory under fire: real sessions charging the global
// recorder through heap/pool (holding engine locks), direct recorder
// traffic, a live capture file, and scrapers pulling heat maps, ring
// snapshots, and time-series folds the whole time. TSan checks the
// lock-free structures; the rank validator must see zero violations —
// i.e. the capture mutex (rank 185) and time-series mutex (rank 182)
// really do sit above every engine lock a charge site can hold.
TEST(ObsStressTest, AccessRecorderAndScrapersUnderLoad) {
  LockRankValidator::SetMode(LockRankValidator::Mode::kCount);
  const uint64_t violations_before = LockRankValidator::violations();

  obs::AccessLog& log = obs::AccessLog::Global();
  log.ResetForTest();
  std::string capture_path =
      testing::TempDir() + "/ode_access_stress.trace";
  ASSERT_TRUE(log.StartCapture(capture_path).ok());
  log.Start(/*sample_period=*/2);

  obs::TimeSeriesStore store(/*resolution_ns=*/1000 * 1000, /*slots=*/32);
  store.Start();

  auto db_or = Database::CreateInMemory("obsstress");
  ASSERT_TRUE(db_or.ok());
  Database* db = db_or->get();
  ASSERT_TRUE(
      db->DefineSchema("persistent class Item { int n; };").ok());

  constexpr int kPerThread = 400;
  std::atomic<bool> stop{false};
  std::vector<std::thread> workers;

  // Engine writers: sessions create/read/scan, charging the recorder
  // from inside heap and pool code paths.
  for (int t = 0; t < kThreads / 2; ++t) {
    workers.emplace_back([db, t] {
      Session session = db->OpenSession();
      Rng rng(311 + t);
      std::vector<Oid> mine;
      for (int i = 0; i < kPerThread; ++i) {
        switch (rng.Below(3)) {
          case 0: {
            auto oid = session.CreateObject(
                "Item", Value::Struct({{"n", Value::Int(i)}}));
            if (oid.ok()) mine.push_back(*oid);
            break;
          }
          case 1:
            if (!mine.empty()) {
              (void)session.GetObject(mine[rng.Below(mine.size())]);
            }
            break;
          default:
            (void)session.ScanCluster("Item");
            break;
        }
      }
    });
  }
  // Direct recorder writers: raw events, page touches, affinity edges.
  const char* stress_label = obs::Journal::InternLabel("stress.direct");
  for (int t = 0; t < kThreads / 2; ++t) {
    workers.emplace_back([&log, stress_label, t] {
      Rng rng(733 + t);
      for (int i = 0; i < kPerThread; ++i) {
        log.Record(static_cast<obs::AccessOp>(rng.Below(5)), 90 + t,
                   rng.Below(64), stress_label, rng.Below(32));
        log.RecordPageTouch(rng.Below(32));
        if (i % 16 == 0) {
          log.RecordAffinity(90 + t, rng.Below(8), stress_label, 91,
                             rng.Below(8), stress_label);
        }
      }
    });
  }
  // Scrapers: everything a telemetry client or shell can pull, pulled
  // continuously while writers run.
  std::vector<std::thread> scrapers;
  for (int t = 0; t < 2; ++t) {
    scrapers.emplace_back([&log, &store, &stop] {
      while (!stop.load(std::memory_order_relaxed)) {
        EXPECT_FALSE(log.RenderHeatmapJson().empty());
        (void)log.SnapshotProfile(/*top_pages=*/16, /*top_edges=*/16);
        EXPECT_FALSE(store.RenderJson().empty());
        store.TickOnce();
      }
    });
  }

  for (std::thread& w : workers) w.join();
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& s : scrapers) s.join();
  store.Stop();

  Result<uint64_t> written = log.StopCapture();
  ASSERT_TRUE(written.ok());
  EXPECT_GT(*written, 0u);
  EXPECT_GT(log.recorded(), 0u);
  // The captured file reads back cleanly even after concurrent writes.
  Result<obs::AccessTrace> trace = obs::ReadAccessTrace(capture_path);
  ASSERT_TRUE(trace.ok());
  EXPECT_EQ(trace->torn_tail_bytes, 0u);
  EXPECT_FALSE(trace->records.empty());

  EXPECT_EQ(LockRankValidator::violations(), violations_before)
      << "recorder/scraper stress broke the documented lock order";
  log.ResetForTest();
  std::remove(capture_path.c_str());
}

// --- Online re-clustering under load -----------------------------------

// A recluster thread repeatedly plans and applies page-group moves
// while readers chase the same objects and a writer churns the tail of
// the cluster. Relocation must be invisible to every other session:
// GetObject on a moved oid keeps returning the stored payload, scans
// never see duplicates, and the lock-rank validator records zero
// violations (Recluster holds the schema lock shared, then the per-heap
// lock, then pool latches — the documented order). CI runs this binary
// under TSan, so torn reads of a half-relocated record would also
// surface here.
TEST(ClusterConcurrencyTest, ReclusterDuringReadsAndWritesStaysCoherent) {
  LockRankValidator::SetMode(LockRankValidator::Mode::kCount);
  const uint64_t before = LockRankValidator::violations();

  auto db_or = Database::CreateInMemory("reclusterdb");
  ASSERT_TRUE(db_or.ok()) << db_or.status().ToString();
  Database* db = db_or->get();
  ASSERT_TRUE(db->DefineSchema(R"(
persistent class rec {
public:
  int idx;
  string pad;
};
)")
                  .ok());

  // Seed a multi-page cluster: fat pads force records onto many pages
  // so there is always something worth regrouping.
  constexpr int kSeed = 64;
  std::vector<Oid> seeded;
  for (int i = 0; i < kSeed; ++i) {
    std::string pad((i % 2) ? 700 : 40, 'x');
    seeded.push_back(*db->CreateObject(
        "rec", Value::Struct({{"idx", Value::Int(i)},
                              {"pad", Value::String(pad)}})));
  }

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reclusters{0};
  std::vector<std::thread> threads;

  // Recluster thread: plan from a synthetic affinity chain over the
  // seeded oids (consecutive pairs), apply, repeat. Alternating the
  // chain offset keeps every round planning real moves.
  threads.emplace_back([db, &seeded, &stop, &reclusters] {
    for (int round = 0; !stop.load(std::memory_order_relaxed); ++round) {
      obs::AccessProfile profile;
      const size_t offset = static_cast<size_t>(round % 2);
      for (size_t i = offset; i + 1 < seeded.size(); i += 2) {
        obs::AffinityEdge edge;
        edge.src_cluster = seeded[i].cluster;
        edge.src_local = seeded[i].local;
        edge.dst_cluster = seeded[i + 1].cluster;
        edge.dst_local = seeded[i + 1].local;
        edge.count = 8;
        profile.edges.push_back(edge);
      }
      auto plan = cluster::BuildClusterPlan(db, profile);
      ASSERT_TRUE(plan.ok()) << plan.status().ToString();
      Status applied = db->Recluster(*plan);
      ASSERT_TRUE(applied.ok()) << applied.ToString();
      reclusters.fetch_add(1, std::memory_order_relaxed);
      EXPECT_EQ(LockRankValidator::HeldCount(), 0u);
    }
  });

  // Reader threads: chase seeded objects and scan while pages move
  // underneath them. A moved oid must keep resolving to its payload.
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([db, &seeded, &stop, t] {
      Session session = db->OpenSession();
      Rng rng(static_cast<uint64_t>(t) + 1234);
      while (!stop.load(std::memory_order_relaxed)) {
        Oid oid = seeded[rng.Below(seeded.size())];
        Result<ObjectBuffer> buffer = session.GetObject(oid);
        ASSERT_TRUE(buffer.ok()) << buffer.status().ToString();
        int64_t idx = buffer->value.FindField("idx")->AsInt();
        size_t pad_len = buffer->value.FindField("pad")->AsString().size();
        EXPECT_EQ(pad_len, (idx % 2) ? 700u : 40u)
            << "relocated record returned a foreign payload";
        if (rng.Below(32) == 0) {
          Result<std::vector<Oid>> scan = session.ScanCluster("rec");
          ASSERT_TRUE(scan.ok());
          std::vector<uint64_t> locals;
          for (Oid o : *scan) locals.push_back(o.local);
          std::sort(locals.begin(), locals.end());
          EXPECT_EQ(std::adjacent_find(locals.begin(), locals.end()),
                    locals.end())
              << "scan saw a record twice mid-relocation";
        }
      }
      EXPECT_EQ(LockRankValidator::HeldCount(), 0u);
    });
  }

  // Writer thread: churn objects beyond the seeded set so relocation
  // races insert/delete on the same heap's free list and tail pages.
  threads.emplace_back([db, &stop] {
    Session session = db->OpenSession();
    Rng rng(777);
    std::vector<Oid> mine;
    while (!stop.load(std::memory_order_relaxed)) {
      if (mine.size() < 16 || rng.Below(2) == 0) {
        auto oid = session.CreateObject(
            "rec",
            Value::Struct({{"idx", Value::Int(1000)},
                           {"pad", Value::String(std::string(40, 'w'))}}));
        ASSERT_TRUE(oid.ok()) << oid.status().ToString();
        mine.push_back(*oid);
      } else {
        Oid victim = mine.back();
        mine.pop_back();
        ASSERT_TRUE(session.DeleteObject(victim).ok());
      }
    }
    for (Oid oid : mine) ASSERT_TRUE(session.DeleteObject(oid).ok());
    EXPECT_EQ(LockRankValidator::HeldCount(), 0u);
  });

  // Let the battery run until the recluster thread has applied a
  // meaningful number of rounds (bounded by a wall-clock escape hatch
  // so a stuck build fails rather than hangs).
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (reclusters.load(std::memory_order_relaxed) < 12 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : threads) t.join();
  EXPECT_GE(reclusters.load(), 12u) << "recluster thread made no progress";

  // Every seeded object survived every move with its payload intact.
  Session session = db->OpenSession();
  for (int i = 0; i < kSeed; ++i) {
    Result<ObjectBuffer> buffer = session.GetObject(seeded[i]);
    ASSERT_TRUE(buffer.ok()) << buffer.status().ToString();
    EXPECT_EQ(buffer->value.FindField("idx")->AsInt(), i);
  }
  EXPECT_EQ(*db->ClusterCount("rec"), static_cast<uint64_t>(kSeed));
  Result<std::vector<IntegrityIssue>> issues = CheckIntegrity(db);
  ASSERT_TRUE(issues.ok()) << issues.status().ToString();
  EXPECT_TRUE(issues->empty());

  EXPECT_EQ(LockRankValidator::violations(), before)
      << "recluster broke the documented lock order; check the "
         "lockrank_violation records in the journal";
}

}  // namespace
}  // namespace ode::odb
