// Failure injection: a pager decorator with several failure models
// (operation budget, sync-only failures, torn sector writes),
// verifying that I/O errors propagate as Status through every storage
// layer instead of crashing or corrupting state — and that the WAL
// turns the surviving failure modes back into consistent state.

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "odb/buffer_pool.h"
#include "odb/catalog.h"
#include "odb/heap_file.h"
#include "odb/pager.h"
#include "odb/wal.h"

namespace ode::odb {
namespace {

/// Wraps a MemPager with an injectable failure model:
///  - kFailOps: after `budget` successful operations every call fails
///    with IOError (a full disk / dead device).
///  - kSyncFail: reads/writes succeed but `Sync()` fails — a device
///    that acknowledges writes it cannot make durable.
///  - kTornWrite: `Write()` persists only the first `kTornBytes` of
///    the page and reports success — a power cut mid-sector.
class FlakyPager final : public Pager {
 public:
  enum class Mode { kFailOps, kSyncFail, kTornWrite };
  static constexpr size_t kTornBytes = 512;

  explicit FlakyPager(int budget) : budget_(budget) {}

  void set_budget(int budget) { budget_ = budget; }
  void set_mode(Mode mode) { mode_ = mode; }

  Result<PageId> Allocate() override {
    ODE_RETURN_IF_ERROR(Spend());
    return inner_.Allocate();
  }
  Status Read(PageId id, Page* page) override {
    ODE_RETURN_IF_ERROR(Spend());
    return inner_.Read(id, page);
  }
  Status Write(PageId id, const Page& page) override {
    ODE_RETURN_IF_ERROR(Spend());
    if (mode_ == Mode::kTornWrite) {
      // Persist a torn image: old (or zero) content with only the
      // first kTornBytes of the new page applied.
      Page merged;
      merged.Zero();
      if (id < inner_.page_count()) {
        ODE_RETURN_IF_ERROR(inner_.Read(id, &merged));
      }
      std::memcpy(merged.bytes(), page.bytes(), kTornBytes);
      return inner_.Write(id, merged);
    }
    return inner_.Write(id, page);
  }
  uint32_t page_count() const override { return inner_.page_count(); }
  Status Sync() override {
    if (mode_ == Mode::kSyncFail) {
      return Status::IOError("injected fsync failure");
    }
    ODE_RETURN_IF_ERROR(Spend());
    return inner_.Sync();
  }

 private:
  Status Spend() {
    if (mode_ != Mode::kFailOps) return Status::OK();
    if (budget_ <= 0) return Status::IOError("injected device failure");
    --budget_;
    return Status::OK();
  }

  MemPager inner_;
  Mode mode_ = Mode::kFailOps;
  int budget_;
};

TEST(FailureInjectionTest, FetchSurfacesReadErrors) {
  FlakyPager pager(1);
  BufferPool pool(&pager, 4);
  PageId id = *pager.Allocate();  // spends the budget
  Result<PageHandle> handle = pool.Fetch(id);
  ASSERT_FALSE(handle.ok());
  EXPECT_EQ(handle.status().code(), StatusCode::kIOError);
}

TEST(FailureInjectionTest, EvictionWritebackFailureSurfaces) {
  FlakyPager pager(1000);
  BufferPool pool(&pager, 1);
  PageId a = *pager.Allocate();
  PageId b = *pager.Allocate();
  {
    PageHandle handle = *pool.Fetch(a);
    handle.page()->bytes()[0] = 'x';
    handle.MarkDirty();
  }
  pager.set_budget(0);  // the write-back during eviction must fail
  Result<PageHandle> handle = pool.Fetch(b);
  ASSERT_FALSE(handle.ok());
  EXPECT_EQ(handle.status().code(), StatusCode::kIOError);
  // After the device "recovers", the dirty page is still intact in the
  // pool and can be flushed.
  pager.set_budget(1000);
  ASSERT_TRUE(pool.FlushAll().ok());
  Page raw;
  ASSERT_TRUE(pager.Read(a, &raw).ok());
  EXPECT_EQ(raw.bytes()[0], 'x');
}

TEST(FailureInjectionTest, HeapOperationsPropagateErrors) {
  FlakyPager pager(1000);
  BufferPool pool(&pager, 4);
  FreeList free_list(&pool, kNoPage);
  HeapFile heap = *HeapFile::Create(&pool, &free_list);
  ASSERT_TRUE(heap.Insert(1, "payload").ok());
  ASSERT_TRUE(pool.FlushAll().ok());
  pager.set_budget(0);
  // Reads may still hit the pool cache; force a miss by exceeding
  // capacity with inserts, which must fail cleanly.
  Status status = Status::OK();
  for (int i = 2; i < 200 && status.ok(); ++i) {
    status = heap.Insert(static_cast<uint64_t>(i), std::string(800, 'x'));
  }
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIOError);
  // Recovery: once I/O works again, the heap keeps functioning.
  pager.set_budget(100000);
  EXPECT_TRUE(heap.Insert(9999, "after recovery").ok());
  EXPECT_EQ(*heap.Get(9999), "after recovery");
}

TEST(FailureInjectionTest, CatalogPersistFailureSurfaces) {
  FlakyPager pager(1000);
  BufferPool pool(&pager, 8);
  Catalog catalog = *Catalog::Format(&pool, "flaky");
  ClassDef def;
  def.name = "c";
  ASSERT_TRUE(catalog.mutable_schema()->AddClass(def).ok());
  pager.set_budget(0);
  // Persist needs fresh pages for the catalog blob once the pool's
  // frames are exhausted; with a dead device it must fail, not crash.
  Status status = Status::OK();
  for (int i = 0; i < 64 && status.ok(); ++i) {
    ClassDef more;
    more.name = "filler_" + std::to_string(i);
    // Bloat the schema so the blob spans several fresh pages.
    more.source = std::string(2048, 's');
    ASSERT_TRUE(catalog.mutable_schema()->AddClass(more).ok());
    status = catalog.Persist();
  }
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIOError);
}

// --- WAL-aware durability cases --------------------------------------------

/// Builds a MemWalStore preloaded with `bytes` (the crash image a
/// power loss would leave behind) for handing to recovery.
std::unique_ptr<MemWalStore> CrashImageStore(const std::string& bytes) {
  auto store = std::make_unique<MemWalStore>();
  EXPECT_TRUE(store->Append(bytes).ok());
  return store;
}

TEST(WalFailureInjectionTest, CommitNotClaimedUntilFsync) {
  // A commit whose fsync fails must surface IOError, and a crash at
  // that point must lose the transaction: durability is claimed only
  // after the log sync succeeded.
  auto store = std::make_unique<MemWalStore>();
  MemWalStore* raw = store.get();
  WalOptions wal_options;
  auto wal = *Wal::Create(std::move(store), wal_options);

  MemPager pager;
  BufferPool pool(&pager, 8);
  pool.SetWal(wal.get());

  raw->set_fail_syncs(true);
  {
    WalTransactionScope txn(wal.get(), /*txn_mu=*/nullptr);
    PageHandle handle = *pool.NewPage();
    handle.page()->bytes()[0] = 'd';
    handle.MarkDirty();
    handle.Release();
    Status committed = txn.Commit();
    ASSERT_FALSE(committed.ok());
    EXPECT_EQ(committed.code(), StatusCode::kIOError);
  }

  // Power loss now: only the synced prefix (the file header written at
  // Create) survives. Recovery must find zero committed transactions.
  {
    MemPager crash_pager;
    WalRecoveryStats stats;
    auto recovered = Wal::OpenAndRecover(CrashImageStore(raw->durable_bytes()),
                                         &crash_pager, wal_options, &stats);
    ASSERT_TRUE(recovered.ok());
    EXPECT_EQ(stats.committed_txns, 0u);
    EXPECT_EQ(stats.pages_redone, 0u);
  }

  // The device recovers; the already-appended records become durable
  // and a crash after that point preserves the transaction.
  raw->set_fail_syncs(false);
  ASSERT_TRUE(wal->WaitCommitDurable(wal->next_lsn()).ok());
  {
    MemPager crash_pager;
    WalRecoveryStats stats;
    auto recovered = Wal::OpenAndRecover(CrashImageStore(raw->durable_bytes()),
                                         &crash_pager, wal_options, &stats);
    ASSERT_TRUE(recovered.ok());
    EXPECT_EQ(stats.committed_txns, 1u);
    EXPECT_EQ(stats.pages_redone, 1u);
    Page raw_page;
    ASSERT_TRUE(crash_pager.Read(0, &raw_page).ok());
    EXPECT_EQ(raw_page.bytes()[0], 'd');
  }
}

TEST(WalFailureInjectionTest, DataFileSyncFailureSurfaces) {
  // A data-file fsync failure must propagate out of pool.Sync() rather
  // than being swallowed (writes alone do not make pages durable).
  FlakyPager pager(1 << 30);
  BufferPool pool(&pager, 4);
  {
    PageHandle handle = *pool.NewPage();
    handle.page()->bytes()[0] = 's';
    handle.MarkDirty();
  }
  pager.set_mode(FlakyPager::Mode::kSyncFail);
  Status status = pool.Sync();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIOError);
  pager.set_mode(FlakyPager::Mode::kFailOps);
  EXPECT_TRUE(pool.Sync().ok());
}

TEST(WalFailureInjectionTest, TornDataPageRepairedByReplay) {
  // A torn data-page write (power cut mid-sector) is invisible to the
  // writer — the pager reports success. Replaying the committed
  // after-image from the log must restore the full page.
  auto store = std::make_unique<MemWalStore>();
  MemWalStore* raw = store.get();
  WalOptions wal_options;
  auto wal = *Wal::Create(std::move(store), wal_options);

  FlakyPager pager(1 << 30);
  BufferPool pool(&pager, 4);
  pool.SetWal(wal.get());

  PageId id = kNoPage;
  {
    WalTransactionScope txn(wal.get(), /*txn_mu=*/nullptr);
    PageHandle handle = *pool.NewPage();
    id = handle.id();
    for (size_t i = 0; i < kPageUsableSize; ++i) {
      handle.page()->bytes()[i] = static_cast<char>('a' + i % 23);
    }
    handle.MarkDirty();
    handle.Release();
    ASSERT_TRUE(txn.Commit().ok());
  }

  // The flush tears the page: only the first 512 bytes reach "disk".
  pager.set_mode(FlakyPager::Mode::kTornWrite);
  ASSERT_TRUE(pool.FlushAll().ok());
  pager.set_mode(FlakyPager::Mode::kFailOps);
  {
    Page torn;
    ASSERT_TRUE(pager.Read(id, &torn).ok());
    EXPECT_EQ(torn.bytes()[FlakyPager::kTornBytes], '\0')
        << "test premise: the tail of the page must have been lost";
  }

  // Crash + restart: recovery replays the committed image over the
  // torn page.
  WalRecoveryStats stats;
  auto recovered = Wal::OpenAndRecover(CrashImageStore(raw->contents()),
                                       &pager, wal_options, &stats);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(stats.committed_txns, 1u);
  EXPECT_GE(stats.pages_redone, 1u);
  Page repaired;
  ASSERT_TRUE(pager.Read(id, &repaired).ok());
  for (size_t i = 0; i < kPageUsableSize; ++i) {
    ASSERT_EQ(repaired.bytes()[i], static_cast<char>('a' + i % 23))
        << "byte " << i << " not restored";
  }
}

TEST(WalFailureInjectionTest, PerCommitFsyncModeStillDurable) {
  // group_commit=false (the bench baseline) must still make every
  // commit durable before returning.
  auto store = std::make_unique<MemWalStore>();
  MemWalStore* raw = store.get();
  WalOptions wal_options;
  wal_options.group_commit = false;
  auto wal = *Wal::Create(std::move(store), wal_options);
  MemPager pager;
  BufferPool pool(&pager, 4);
  pool.SetWal(wal.get());
  {
    WalTransactionScope txn(wal.get(), /*txn_mu=*/nullptr);
    PageHandle handle = *pool.NewPage();
    handle.page()->bytes()[7] = 'g';
    handle.MarkDirty();
    handle.Release();
    ASSERT_TRUE(txn.Commit().ok());
  }
  EXPECT_EQ(wal->durable_lsn(), wal->next_lsn());
  EXPECT_EQ(raw->durable_bytes().size(), raw->contents().size());
}

// --- Recovery refuses a log it cannot read ---------------------------------

/// A log holding one committed transaction that wrote page 0.
std::string CommittedLog() {
  auto store = std::make_unique<MemWalStore>();
  MemWalStore* raw = store.get();
  auto wal = *Wal::Create(std::move(store), WalOptions{});
  MemPager pager;
  BufferPool pool(&pager, 4);
  pool.SetWal(wal.get());
  {
    WalTransactionScope txn(wal.get(), /*txn_mu=*/nullptr);
    PageHandle handle = *pool.NewPage();
    handle.page()->bytes()[0] = 'c';
    handle.MarkDirty();
    handle.Release();
    EXPECT_TRUE(txn.Commit().ok());
  }
  return raw->contents();
}

/// Forwards to a store the test keeps, so the bytes recovery leaves
/// behind stay readable after it returns (even when it fails).
class KeptStore final : public WalStore {
 public:
  explicit KeptStore(MemWalStore* store) : store_(store) {}
  Status Append(std::string_view bytes) override {
    return store_->Append(bytes);
  }
  Status Sync() override { return store_->Sync(); }
  Result<std::string> ReadAll() override { return store_->ReadAll(); }
  Status Reset(std::string_view header) override {
    return store_->Reset(header);
  }
  Status TruncateTo(uint64_t size) override {
    return store_->TruncateTo(size);
  }
  uint64_t size() const override { return store_->size(); }

 private:
  MemWalStore* store_;
};

TEST(WalFailureInjectionTest, OtherVersionLogIsRefusedUntouched) {
  // Version 1 had this layout with the zlib CRC-32. Recovery reads the
  // version before any checksum, so a committed transaction in a
  // version-1 log is refused, never dropped as a torn tail.
  std::string log = CommittedLog();
  log[8] = 1;  // the version u32 follows the 8-byte magic
  MemWalStore kept;
  ASSERT_TRUE(kept.Append(log).ok());
  MemPager pager;
  auto recovered = Wal::OpenAndRecover(std::make_unique<KeptStore>(&kept),
                                       &pager, WalOptions{});
  ASSERT_FALSE(recovered.ok());
  EXPECT_EQ(recovered.status().code(), StatusCode::kUnimplemented);
  EXPECT_NE(recovered.status().message().find("version 1"), std::string::npos)
      << recovered.status().message();
  EXPECT_NE(recovered.status().message().find("version 2"), std::string::npos)
      << recovered.status().message();
  EXPECT_EQ(kept.contents(), log);
  EXPECT_EQ(pager.page_count(), 0u) << "nothing may be redone";
}

TEST(WalFailureInjectionTest, CorruptHeaderWithRecordsIsRefusedUntouched) {
  // A checkpoint's reset fsyncs the header before any record is
  // appended, so a header that fails its magic or its checksum with
  // bytes behind it is corruption, not a torn write.
  const std::string log = CommittedLog();
  const std::string one_record_byte = log.substr(0, Wal::kHeaderSize + 1);
  // Byte 0 is in the magic, 16 in base_lsn, 24 in the checksum.
  for (const std::string& intact : {log, one_record_byte}) {
    for (size_t at : {0u, 16u, 24u}) {
      std::string bad = intact;
      bad[at] = static_cast<char>(bad[at] ^ 0x5a);
      MemWalStore kept;
      ASSERT_TRUE(kept.Append(bad).ok());
      MemPager pager;
      auto recovered = Wal::OpenAndRecover(std::make_unique<KeptStore>(&kept),
                                           &pager, WalOptions{});
      ASSERT_FALSE(recovered.ok()) << "byte " << at << " of " << bad.size();
      EXPECT_EQ(recovered.status().code(), StatusCode::kCorruption);
      EXPECT_EQ(kept.contents(), bad);
      EXPECT_EQ(pager.page_count(), 0u);
    }
  }
}

TEST(WalFailureInjectionTest, LogNoLongerThanItsHeaderStartsClean) {
  // A reset cut before its fsync leaves at most a header's worth of
  // bytes, and a data file as of the checkpoint: a clean log. So does
  // a checkpoint of version 1, whose bare header holds no records.
  const std::string log = CommittedLog();
  std::string bad_checksum = log.substr(0, Wal::kHeaderSize);
  bad_checksum[24] = static_cast<char>(bad_checksum[24] ^ 0x5a);
  std::string version1 = log.substr(0, Wal::kHeaderSize);
  version1[8] = 1;
  std::vector<std::string> images = {bad_checksum, version1};
  for (size_t cut = 0; cut < Wal::kHeaderSize; ++cut) {
    images.push_back(log.substr(0, cut));
  }
  for (const std::string& image : images) {
    MemWalStore kept;
    ASSERT_TRUE(kept.Append(image).ok());
    MemPager pager;
    WalRecoveryStats stats;
    auto recovered = Wal::OpenAndRecover(std::make_unique<KeptStore>(&kept),
                                         &pager, WalOptions{}, &stats);
    ASSERT_TRUE(recovered.ok())
        << image.size() << " bytes: " << recovered.status().ToString();
    EXPECT_EQ(stats.torn_bytes, image.size());
    EXPECT_EQ(stats.committed_txns, 0u);
    // The fresh header reads back clean.
    WalRecoveryStats again;
    ASSERT_TRUE(Wal::OpenAndRecover(CrashImageStore(kept.contents()), &pager,
                                    WalOptions{}, &again)
                    .ok());
    EXPECT_EQ(again.torn_bytes, 0u);
  }
}

}  // namespace
}  // namespace ode::odb
