#ifndef ODEVIEW_ODB_WAL_H_
#define ODEVIEW_ODB_WAL_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "common/threading.h"
#include "odb/page.h"
#include "odb/pager.h"

namespace ode::odb {

/// The write-ahead log (DESIGN.md §10 "Durability").
///
/// Physical redo logging with a no-steal buffer policy: every page a
/// write transaction dirties is captured as a full after-image record
/// when its handle is released, a commit record seals the transaction,
/// and group commit batches the fsyncs of concurrent committers. The
/// buffer pool never writes a page to the data file before (a) its
/// transaction committed and (b) the log is durable up to the page's
/// LSN — so restart recovery only ever needs to *redo* committed
/// transactions (losers never reached the data file and, because write
/// transactions are serialized by `Database::wal_txn_mu_`, they are
/// always a strict suffix of the log).
///
/// LSNs are logical byte positions: `base_lsn` of the current log file
/// plus the record's end offset. They survive checkpoints (a reset
/// starts the new file at the old `next_lsn`), so page-LSN trailers
/// stay monotonic for the life of the database.

/// Byte-level backend of the log. All mutating calls are serialized by
/// the owning `Wal`; `size()` may race them (tracked atomically).
/// Split out so failure-injection tests can substitute a store whose
/// `Sync()` fails or that models a power-loss durable prefix.
class WalStore {
 public:
  virtual ~WalStore() = default;
  /// Appends bytes at the current end of the log.
  virtual Status Append(std::string_view bytes) = 0;
  /// Makes all appended bytes durable.
  virtual Status Sync() = 0;
  /// The entire log contents (recovery scan).
  virtual Result<std::string> ReadAll() = 0;
  /// Replaces the log with just `header` and makes that durable.
  virtual Status Reset(std::string_view header) = 0;
  /// Drops everything past `size` (torn-tail truncation).
  virtual Status TruncateTo(uint64_t size) = 0;
  virtual uint64_t size() const = 0;
};

/// File-descriptor backed store (the real one).
class FdWalStore final : public WalStore {
 public:
  static Result<std::unique_ptr<FdWalStore>> Open(const std::string& path);
  ~FdWalStore() override;

  Status Append(std::string_view bytes) override;
  Status Sync() override;
  Result<std::string> ReadAll() override;
  Status Reset(std::string_view header) override;
  Status TruncateTo(uint64_t size) override;
  uint64_t size() const override {
    return size_.load(std::memory_order_acquire);
  }

 private:
  FdWalStore(int fd, uint64_t size, std::string path)
      : fd_(fd), size_(size), path_(std::move(path)) {}

  int fd_;
  std::atomic<uint64_t> size_;
  std::string path_;
};

/// In-memory store with a power-loss model for tests: `Sync()` rolls
/// the durable watermark forward (or fails when a failure budget is
/// armed), and `durable_bytes()` is what a crash would leave behind.
class MemWalStore final : public WalStore {
 public:
  Status Append(std::string_view bytes) override;
  Status Sync() override;
  Result<std::string> ReadAll() override;
  Status Reset(std::string_view header) override;
  Status TruncateTo(uint64_t size) override;
  uint64_t size() const override;

  /// When true every `Sync()` fails (appends still succeed).
  void set_fail_syncs(bool fail);
  /// The durable prefix — what survives a simulated power loss.
  std::string durable_bytes() const;
  /// The full volatile contents (synced or not).
  std::string contents() const;

 private:
  /// Rank kWalStore (78): the owning `Wal` serializes every mutating
  /// call under rank 75, so this only ever nests directly beneath it
  /// (and above nothing — store calls never call out).
  mutable Mutex mu_{LockRank::kWalStore};
  std::string bytes_ ODE_GUARDED_BY(mu_);
  uint64_t synced_ ODE_GUARDED_BY(mu_) = 0;
  bool fail_syncs_ ODE_GUARDED_BY(mu_) = false;
};

struct WalOptions {
  /// When false, `Sync()` is never called and every append is treated
  /// as durable immediately (throughput over durability; tests).
  bool sync = true;
  /// Group commit: a committer whose LSN another session's fsync
  /// already covered returns without syncing. When false every commit
  /// performs its own fsync (the bench baseline).
  bool group_commit = true;
};

enum class WalRecordType : uint8_t {
  kPageImage = 1,  ///< payload: page id u32 + full page image
  kCommit = 2,     ///< seals `txn`
  kCheckpoint = 3, ///< reserved marker (recovery treats it as a no-op)
};

/// One scanned record (tooling/test hook, see `Wal::Inspect`).
struct WalRecordInfo {
  uint64_t offset = 0;   ///< file offset of the record start
  uint64_t end_offset = 0;  ///< file offset just past the record
  WalRecordType type = WalRecordType::kCheckpoint;
  uint64_t txn = 0;
  PageId page = kNoPage;  ///< only for kPageImage
};

/// What restart recovery found and did.
struct WalRecoveryStats {
  uint64_t scanned_bytes = 0;
  uint64_t records = 0;
  uint64_t committed_txns = 0;
  uint64_t pages_redone = 0;
  uint64_t torn_bytes = 0;  ///< invalid tail dropped (0 = clean log)
};

class Wal {
 public:
  /// Fixed log-file header: magic u64 | version u32 | reserved u32 |
  /// base_lsn u64 | crc u32 | pad u32.
  static constexpr size_t kHeaderSize = 32;
  /// Per-record header: payload_len u32 | type u8 | txn u64 | crc u32.
  static constexpr size_t kRecordHeaderSize = 17;

  /// Creates a fresh (truncated) log at `path`.
  static Result<std::unique_ptr<Wal>> Create(const std::string& path,
                                             const WalOptions& options);
  /// Opens the log at `path`, truncates any torn tail, replays every
  /// committed transaction into `pager` (ARIES analysis + redo; undo
  /// is vacuous under no-steal), syncs the pager, and resets the log.
  /// A log with records behind a header it cannot trust is refused,
  /// leaving log and data file untouched: `Unimplemented` for another
  /// version, `Corruption` for a bad magic or checksum. A log no
  /// longer than its header holds no records and always starts clean.
  static Result<std::unique_ptr<Wal>> OpenAndRecover(
      const std::string& path, Pager* pager, const WalOptions& options,
      WalRecoveryStats* stats = nullptr);

  /// Store-injected variants (failure-injection and fuzz tests).
  static Result<std::unique_ptr<Wal>> Create(std::unique_ptr<WalStore> store,
                                             const WalOptions& options);
  static Result<std::unique_ptr<Wal>> OpenAndRecover(
      std::unique_ptr<WalStore> store, Pager* pager,
      const WalOptions& options, WalRecoveryStats* stats = nullptr);

  /// Parses raw log bytes (header + records) up to the first invalid
  /// record. Never fails on a torn tail — it just stops there; a
  /// missing/corrupt header yields an empty vector.
  static Result<std::vector<WalRecordInfo>> Inspect(std::string_view bytes);

  /// Allocates a transaction id (process-monotonic).
  uint64_t BeginTxn() { return next_txn_.fetch_add(1); }

  /// Appends a full-page after-image for `txn`, stamping the record's
  /// end LSN into the page's trailer first (so the image carries its
  /// own LSN). Returns the end LSN. Caller holds the frame's exclusive
  /// latch.
  Result<uint64_t> AppendPageImage(uint64_t txn, PageId page_id, Page* page);

  /// Appends the commit record for `txn` (does not wait for
  /// durability — pair with `WaitCommitDurable`).
  Result<uint64_t> AppendCommit(uint64_t txn);

  /// Blocks until the log is durable up to `lsn`. Group commit: the
  /// first waiter becomes the leader and fsyncs with the mutex
  /// dropped; later waiters covered by that fsync return without
  /// syncing. With `group_commit` off each commit syncs itself.
  Status WaitCommitDurable(uint64_t lsn);

  /// WAL-before-data gate for the buffer pool: make the log durable up
  /// to `lsn` before a page with that LSN may be written back.
  Status FlushUntil(uint64_t lsn);

  /// Truncates the log to an empty file based at the current
  /// `next_lsn`. Caller contract (checkpoint phase 2): no write
  /// transaction in flight, every committed page flushed to the data
  /// file, and the data file synced.
  Status ResetLog();

  uint64_t next_lsn() const;
  uint64_t durable_lsn() const;
  /// Current log file size in bytes.
  uint64_t size_bytes() const { return store_->size(); }
  /// File offset of the durable watermark (crash-harness hook: bytes
  /// beyond this offset may legally be lost by a power cut).
  uint64_t durable_file_bytes() const;

  const WalOptions& options() const { return options_; }
  WalStore* store() { return store_.get(); }

 private:
  Wal(std::unique_ptr<WalStore> store, const WalOptions& options,
      uint64_t base_lsn);

  Result<uint64_t> AppendLocked(WalRecordType type, uint64_t txn,
                                std::string_view payload)
      ODE_REQUIRES(mu_);
  Status WaitDurableInternal(uint64_t target, bool force_own_sync);

  std::unique_ptr<WalStore> store_;
  const WalOptions options_;
  std::atomic<uint64_t> next_txn_{1};

  /// Rank kWal (75): above frame latches and pool shards (eviction
  /// gates on durability from inside a shard), below the pager. Never
  /// held across an fsync — the flush leader drops it first.
  mutable Mutex mu_{LockRank::kWal};
  CondVar flushed_cv_;
  uint64_t base_lsn_ ODE_GUARDED_BY(mu_);
  uint64_t next_lsn_ ODE_GUARDED_BY(mu_);
  uint64_t durable_lsn_ ODE_GUARDED_BY(mu_);
  bool flushing_ ODE_GUARDED_BY(mu_) = false;
};

/// Flag pair of one captured buffer frame (the pool registers these
/// with the current transaction scope; commit publishes through them).
struct WalFrameRef {
  std::atomic<uint64_t>* page_lsn;
  std::atomic<bool>* uncommitted;
};

/// RAII write-transaction scope. While one is current (thread-local),
/// the buffer pool captures every dirtied page it releases into the
/// WAL under this scope's transaction id. The scope holds the
/// database's write-transaction mutex (`txn_mu`, rank kWalTxn) from
/// construction until the commit record is appended — serializing
/// writers so uncommitted transactions are always a strict log suffix
/// — and releases it before waiting on the group-commit fsync, so the
/// next writer proceeds while this one waits for the disk.
///
/// `Commit()` appends the commit record, marks the captured frames
/// flushable, and waits for durability. A scope destroyed without
/// `Commit()` (an error path after pages were already dirtied) is
/// *finalized*: the commit record is appended but not awaited — the
/// in-memory mutation already happened, so crash atomicity is only
/// guaranteed per successfully-committed operation.
///
/// With `wal == nullptr` (in-memory databases) the scope is a no-op.
class WalTransactionScope {
 public:
  WalTransactionScope(Wal* wal, Mutex* txn_mu) ODE_NO_THREAD_SAFETY_ANALYSIS;
  ~WalTransactionScope() ODE_NO_THREAD_SAFETY_ANALYSIS;

  WalTransactionScope(const WalTransactionScope&) = delete;
  WalTransactionScope& operator=(const WalTransactionScope&) = delete;

  Status Commit() ODE_NO_THREAD_SAFETY_ANALYSIS;

  /// The calling thread's innermost active scope (nullptr outside any).
  static WalTransactionScope* Current();

  Wal* wal() const { return wal_; }
  uint64_t txn_id() const { return txn_; }
  bool has_captures() const { return !frames_.empty(); }

  /// Called by the buffer pool after appending a page image.
  void RecordCapturedFrame(const WalFrameRef& ref) { frames_.push_back(ref); }
  /// Called by the buffer pool when an image append failed; poisons
  /// the scope so Commit reports the error.
  void NoteCaptureFailure(const Status& status) {
    if (capture_error_.ok()) capture_error_ = status;
  }

 private:
  void ReleaseTxnMutex() ODE_NO_THREAD_SAFETY_ANALYSIS;
  /// Clears the frames' uncommitted flags and raises their flush gate
  /// to the commit LSN (a page may then only reach the data file once
  /// its whole transaction is durable).
  void PublishFrames(uint64_t commit_lsn);

  Wal* wal_;
  Mutex* txn_mu_;
  bool mu_held_ = false;
  uint64_t txn_ = 0;
  std::vector<WalFrameRef> frames_;
  Status capture_error_;
  bool committed_ = false;
  WalTransactionScope* prev_ = nullptr;
};

}  // namespace ode::odb

#endif  // ODEVIEW_ODB_WAL_H_
