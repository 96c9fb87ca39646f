#include "odb/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <set>

#include "common/coding.h"
#include "common/journal.h"
#include "common/metrics.h"
#include "common/op_profile.h"
#include "common/trace.h"

namespace ode::odb {

namespace {

constexpr uint64_t kWalMagic = 0x4f4445574c303155ull;  // "ODEWL01U"
/// 2: CRC-32C checksums (version 1 used the zlib CRC-32).
constexpr uint32_t kWalVersion = 2;

// Log instruments (process-wide; the WAL has no per-instance stats
// API, matching the pager's convention).
obs::Counter& RecordsAppended() {
  static obs::Counter* c =
      obs::Registry::Global().counter("wal.records.appended");
  return *c;
}
obs::Counter& BytesAppended() {
  static obs::Counter* c =
      obs::Registry::Global().counter("wal.bytes.appended");
  return *c;
}
obs::Counter& Commits() {
  static obs::Counter* c = obs::Registry::Global().counter("wal.commits");
  return *c;
}
obs::Counter& Fsyncs() {
  static obs::Counter* c = obs::Registry::Global().counter("wal.fsyncs");
  return *c;
}
obs::Counter& Checkpoints() {
  static obs::Counter* c = obs::Registry::Global().counter("wal.checkpoints");
  return *c;
}
obs::Counter& RecoveryRuns() {
  static obs::Counter* c =
      obs::Registry::Global().counter("wal.recovery.runs");
  return *c;
}
obs::Counter& RecoveryPagesRedone() {
  static obs::Counter* c =
      obs::Registry::Global().counter("wal.recovery.pages_redone");
  return *c;
}
obs::Counter& RecoveryCommittedTxns() {
  static obs::Counter* c =
      obs::Registry::Global().counter("wal.recovery.committed_txns");
  return *c;
}
obs::Counter& RecoveryTornBytes() {
  static obs::Counter* c =
      obs::Registry::Global().counter("wal.recovery.torn_bytes");
  return *c;
}
obs::Histogram& CommitWaitNs() {
  static obs::Histogram* h =
      obs::Registry::Global().histogram("wal.commit.wait_ns");
  return *h;
}

std::string EncodeWalHeader(uint64_t base_lsn) {
  std::string header;
  PutFixed64(&header, kWalMagic);
  PutFixed32(&header, kWalVersion);
  PutFixed32(&header, 0);  // reserved
  PutFixed64(&header, base_lsn);
  PutFixed32(&header, Crc32c(std::string_view(header)));
  PutFixed32(&header, 0);  // pad to kHeaderSize
  return header;
}

/// Returns the base LSN. A header of another version fails with
/// `Unimplemented` naming both versions; a truncated or corrupt one
/// with `Corruption`.
Result<uint64_t> DecodeWalHeader(std::string_view bytes) {
  if (bytes.size() < Wal::kHeaderSize) {
    return Status::Corruption("wal header truncated");
  }
  if (DecodeFixed64(bytes.data()) != kWalMagic) {
    return Status::Corruption("bad wal magic");
  }
  uint32_t version = DecodeFixed32(bytes.data() + 8);
  if (version != kWalVersion) {
    return Status::Unimplemented(
        "unsupported wal version " + std::to_string(version) +
        " (this build reads version " + std::to_string(kWalVersion) + ")");
  }
  uint32_t crc = DecodeFixed32(bytes.data() + 24);
  if (Crc32c(bytes.substr(0, 24)) != crc) {
    return Status::Corruption("wal header checksum mismatch");
  }
  return DecodeFixed64(bytes.data() + 16);
}

/// One parsed record during the recovery scan (payload views into the
/// scanned buffer).
struct ScannedRecord {
  WalRecordInfo info;
  std::string_view payload;
};

/// Walks records from `kHeaderSize` to the first invalid/torn one.
/// Returns the file offset just past the last valid record.
uint64_t ScanWalRecords(std::string_view bytes,
                        std::vector<ScannedRecord>* out) {
  // Cap a record's payload well above any legal record so a garbage
  // length field can't send the scanner far past the torn point.
  constexpr size_t kMaxPayload = kPageSize + 64;
  size_t offset = Wal::kHeaderSize;
  while (bytes.size() - offset >= Wal::kRecordHeaderSize) {
    const char* p = bytes.data() + offset;
    uint32_t payload_len = DecodeFixed32(p);
    uint8_t type = static_cast<uint8_t>(p[4]);
    uint64_t txn = DecodeFixed64(p + 5);
    uint32_t crc = DecodeFixed32(p + 13);
    if (payload_len > kMaxPayload) break;
    if (bytes.size() - offset - Wal::kRecordHeaderSize < payload_len) break;
    std::string_view payload =
        bytes.substr(offset + Wal::kRecordHeaderSize, payload_len);
    // CRC covers type + txn + payload (everything the length and crc
    // fields describe).
    uint32_t actual = Crc32c(bytes.substr(offset + 4, 9));
    actual = Crc32c(payload, actual);
    if (actual != crc) break;
    if (type != static_cast<uint8_t>(WalRecordType::kPageImage) &&
        type != static_cast<uint8_t>(WalRecordType::kCommit) &&
        type != static_cast<uint8_t>(WalRecordType::kCheckpoint)) {
      break;
    }
    ScannedRecord rec;
    rec.info.offset = offset;
    rec.info.end_offset = offset + Wal::kRecordHeaderSize + payload_len;
    rec.info.type = static_cast<WalRecordType>(type);
    rec.info.txn = txn;
    if (rec.info.type == WalRecordType::kPageImage &&
        payload.size() >= sizeof(uint32_t)) {
      rec.info.page = DecodeFixed32(payload.data());
    }
    rec.payload = payload;
    if (out != nullptr) out->push_back(rec);
    offset = static_cast<size_t>(rec.info.end_offset);
  }
  return offset;
}

/// Grows the data file with zeroed pages until `id` is writable.
Status EnsureAllocated(Pager* pager, PageId id) {
  Page zero;
  zero.Zero();
  while (pager->page_count() < id) {
    ODE_RETURN_IF_ERROR(pager->Write(pager->page_count(), zero));
  }
  return Status::OK();
}

}  // namespace

// --- FdWalStore -------------------------------------------------------

Result<std::unique_ptr<FdWalStore>> FdWalStore::Open(
    const std::string& path) {
  int fd = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
  if (fd < 0) {
    return Status::IOError("cannot open wal file '" + path + "': " +
                           std::strerror(errno));
  }
  off_t end = ::lseek(fd, 0, SEEK_END);
  if (end < 0) {
    ::close(fd);
    return Status::IOError("cannot size wal file '" + path + "'");
  }
  return std::unique_ptr<FdWalStore>(
      new FdWalStore(fd, static_cast<uint64_t>(end), path));
}

FdWalStore::~FdWalStore() {
  if (fd_ >= 0) ::close(fd_);
}

Status FdWalStore::Append(std::string_view bytes) {
  const char* src = bytes.data();
  size_t remaining = bytes.size();
  auto offset = static_cast<off_t>(size_.load(std::memory_order_relaxed));
  while (remaining > 0) {
    ssize_t n = ::pwrite(fd_, src, remaining, offset);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return Status::IOError("short write to wal '" + path_ + "'");
    }
    src += n;
    offset += n;
    remaining -= static_cast<size_t>(n);
  }
  size_.fetch_add(bytes.size(), std::memory_order_release);
  return Status::OK();
}

Status FdWalStore::Sync() {
  if (::fsync(fd_) != 0) {
    return Status::IOError("fsync failed for wal '" + path_ + "'");
  }
  return Status::OK();
}

Result<std::string> FdWalStore::ReadAll() {
  uint64_t size = size_.load(std::memory_order_acquire);
  std::string out(size, '\0');
  size_t done = 0;
  while (done < size) {
    ssize_t n = ::pread(fd_, out.data() + done, size - done,
                        static_cast<off_t>(done));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      return Status::IOError("short read from wal '" + path_ + "'");
    }
    done += static_cast<size_t>(n);
  }
  return out;
}

Status FdWalStore::Reset(std::string_view header) {
  if (::ftruncate(fd_, 0) != 0) {
    return Status::IOError("truncate failed for wal '" + path_ + "'");
  }
  size_.store(0, std::memory_order_release);
  ODE_RETURN_IF_ERROR(Append(header));
  return Sync();
}

Status FdWalStore::TruncateTo(uint64_t size) {
  if (::ftruncate(fd_, static_cast<off_t>(size)) != 0) {
    return Status::IOError("truncate failed for wal '" + path_ + "'");
  }
  size_.store(size, std::memory_order_release);
  return Status::OK();
}

// --- MemWalStore ------------------------------------------------------

Status MemWalStore::Append(std::string_view bytes) {
  MutexLock lock(mu_);
  bytes_.append(bytes);
  return Status::OK();
}

Status MemWalStore::Sync() {
  MutexLock lock(mu_);
  if (fail_syncs_) return Status::IOError("injected wal sync failure");
  synced_ = bytes_.size();
  return Status::OK();
}

Result<std::string> MemWalStore::ReadAll() {
  MutexLock lock(mu_);
  return bytes_;
}

Status MemWalStore::Reset(std::string_view header) {
  MutexLock lock(mu_);
  if (fail_syncs_) return Status::IOError("injected wal sync failure");
  bytes_.assign(header.data(), header.size());
  synced_ = bytes_.size();
  return Status::OK();
}

Status MemWalStore::TruncateTo(uint64_t size) {
  MutexLock lock(mu_);
  if (size < bytes_.size()) bytes_.resize(size);
  synced_ = std::min<uint64_t>(synced_, bytes_.size());
  return Status::OK();
}

uint64_t MemWalStore::size() const {
  MutexLock lock(mu_);
  return bytes_.size();
}

void MemWalStore::set_fail_syncs(bool fail) {
  MutexLock lock(mu_);
  fail_syncs_ = fail;
}

std::string MemWalStore::durable_bytes() const {
  MutexLock lock(mu_);
  return bytes_.substr(0, synced_);
}

std::string MemWalStore::contents() const {
  MutexLock lock(mu_);
  return bytes_;
}

// --- Wal --------------------------------------------------------------

Wal::Wal(std::unique_ptr<WalStore> store, const WalOptions& options,
         uint64_t base_lsn)
    : store_(std::move(store)),
      options_(options),
      base_lsn_(base_lsn),
      next_lsn_(base_lsn),
      durable_lsn_(base_lsn) {}

Result<std::unique_ptr<Wal>> Wal::Create(const std::string& path,
                                         const WalOptions& options) {
  ODE_ASSIGN_OR_RETURN(std::unique_ptr<FdWalStore> store,
                       FdWalStore::Open(path));
  return Create(std::unique_ptr<WalStore>(std::move(store)), options);
}

Result<std::unique_ptr<Wal>> Wal::Create(std::unique_ptr<WalStore> store,
                                         const WalOptions& options) {
  ODE_RETURN_IF_ERROR(store->Reset(EncodeWalHeader(0)));
  return std::unique_ptr<Wal>(new Wal(std::move(store), options, 0));
}

Result<std::unique_ptr<Wal>> Wal::OpenAndRecover(const std::string& path,
                                                 Pager* pager,
                                                 const WalOptions& options,
                                                 WalRecoveryStats* stats) {
  ODE_ASSIGN_OR_RETURN(std::unique_ptr<FdWalStore> store,
                       FdWalStore::Open(path));
  return OpenAndRecover(std::unique_ptr<WalStore>(std::move(store)), pager,
                        options, stats);
}

Result<std::unique_ptr<Wal>> Wal::OpenAndRecover(
    std::unique_ptr<WalStore> store, Pager* pager, const WalOptions& options,
    WalRecoveryStats* stats) {
  ODE_TRACE_SPAN("wal.recover");
  ODE_ASSIGN_OR_RETURN(std::string bytes, store->ReadAll());
  obs::Journal::Global().Append(obs::JournalEvent::kWalRecoveryStart,
                                static_cast<int64_t>(bytes.size()));
  RecoveryRuns().Increment();
  WalRecoveryStats local;
  WalRecoveryStats* out = stats != nullptr ? stats : &local;
  *out = WalRecoveryStats{};
  out->scanned_bytes = bytes.size();

  Result<uint64_t> base = DecodeWalHeader(bytes);
  if (!base.ok()) {
    // The log is left untouched unless it is provably empty: records
    // behind the header may be committed transactions that never
    // reached the data file. A checkpoint's Reset makes its header
    // durable before any record is appended, so a bad header with
    // bytes behind it is corruption, not a torn write.
    if (bytes.size() > kHeaderSize) {
      if (base.status().code() == StatusCode::kUnimplemented) {
        return base.status();
      }
      return Status::Corruption(base.status().message() + " with " +
                                std::to_string(bytes.size() - kHeaderSize) +
                                " bytes of records behind it");
    }
    // Empty (fresh database), a Reset cut before its fsync, or the bare
    // header a checkpoint of an older version leaves. The data file
    // stands as of its last checkpoint, which is consistent by
    // construction; start a clean log.
    if (!bytes.empty()) {
      out->torn_bytes = bytes.size();
      RecoveryTornBytes().Add(bytes.size());
      obs::Journal::Global().Append(obs::JournalEvent::kWalTornTail,
                                    static_cast<int64_t>(bytes.size()));
    }
    ODE_RETURN_IF_ERROR(store->Reset(EncodeWalHeader(0)));
    obs::Journal::Global().Append(obs::JournalEvent::kWalRecoveryEnd, 0, 0);
    return std::unique_ptr<Wal>(new Wal(std::move(store), options, 0));
  }

  std::vector<ScannedRecord> records;
  uint64_t valid_end = ScanWalRecords(bytes, &records);
  if (valid_end < bytes.size()) {
    uint64_t torn = bytes.size() - valid_end;
    out->torn_bytes = torn;
    RecoveryTornBytes().Add(torn);
    obs::Journal::Global().Append(obs::JournalEvent::kWalTornTail,
                                  static_cast<int64_t>(torn));
  }
  out->records = records.size();

  // Analysis: the set of sealed transactions.
  std::set<uint64_t> committed;
  for (const ScannedRecord& rec : records) {
    if (rec.info.type == WalRecordType::kCommit) committed.insert(rec.info.txn);
  }
  out->committed_txns = committed.size();

  // Redo: replay committed after-images in log order. Loser images are
  // skipped; under no-steal none of their bytes ever reached the data
  // file, so skipping *is* the undo phase.
  //
  // Growth bound: pages are allocated contiguously, so any page this
  // log can legally mention is below the data file's current page
  // count plus one page per image record (a freshly-allocated page has
  // at least one image in the log that created it). A forged page id
  // past that bound would otherwise make EnsureAllocated grow the data
  // file by up to 4 billion pages.
  uint64_t image_records = 0;
  for (const ScannedRecord& rec : records) {
    if (rec.info.type == WalRecordType::kPageImage) ++image_records;
  }
  const uint64_t max_page_bound =
      (pager != nullptr ? pager->page_count() : 0) + image_records;
  uint64_t max_txn = 0;
  for (const ScannedRecord& rec : records) {
    max_txn = std::max(max_txn, rec.info.txn);
    if (rec.info.type != WalRecordType::kPageImage) continue;
    if (committed.find(rec.info.txn) == committed.end()) continue;
    if (rec.payload.size() != sizeof(uint32_t) + kPageSize) {
      return Status::Corruption("wal page-image payload size mismatch");
    }
    if (pager == nullptr) continue;  // no file to bound or redo against
    if (rec.info.page >= max_page_bound) {
      return Status::Corruption(
          "wal page image for page " + std::to_string(rec.info.page) +
          " exceeds the file growth bound " + std::to_string(max_page_bound));
    }
    Page image;
    std::memcpy(image.bytes(), rec.payload.data() + sizeof(uint32_t),
                kPageSize);
    ODE_RETURN_IF_ERROR(EnsureAllocated(pager, rec.info.page));
    ODE_RETURN_IF_ERROR(pager->Write(rec.info.page, image));
    out->pages_redone += 1;
  }
  if (pager != nullptr && out->pages_redone > 0) {
    ODE_RETURN_IF_ERROR(pager->Sync());
  }
  RecoveryPagesRedone().Add(out->pages_redone);
  RecoveryCommittedTxns().Add(out->committed_txns);

  // The replayed state is durable; retire the log. LSNs stay monotonic
  // by basing the fresh file at the old end.
  uint64_t end_lsn = *base + (valid_end - kHeaderSize);
  ODE_RETURN_IF_ERROR(store->Reset(EncodeWalHeader(end_lsn)));
  obs::Journal::Global().Append(
      obs::JournalEvent::kWalRecoveryEnd,
      static_cast<int64_t>(out->pages_redone),
      static_cast<int64_t>(out->committed_txns));
  auto wal = std::unique_ptr<Wal>(new Wal(std::move(store), options, end_lsn));
  wal->next_txn_.store(max_txn + 1);
  return wal;
}

Result<std::vector<WalRecordInfo>> Wal::Inspect(std::string_view bytes) {
  std::vector<WalRecordInfo> out;
  if (!DecodeWalHeader(bytes).ok()) return out;
  std::vector<ScannedRecord> records;
  ScanWalRecords(bytes, &records);
  out.reserve(records.size());
  for (const ScannedRecord& rec : records) out.push_back(rec.info);
  return out;
}

Result<uint64_t> Wal::AppendLocked(WalRecordType type, uint64_t txn,
                                   std::string_view payload) {
  std::string rec;
  rec.reserve(kRecordHeaderSize + payload.size());
  PutFixed32(&rec, static_cast<uint32_t>(payload.size()));
  rec.push_back(static_cast<char>(type));
  PutFixed64(&rec, txn);
  uint32_t crc = Crc32c(std::string_view(rec).substr(4));
  crc = Crc32c(payload, crc);
  PutFixed32(&rec, crc);
  rec.append(payload);
  ODE_RETURN_IF_ERROR(store_->Append(rec));
  next_lsn_ += rec.size();
  if (!options_.sync) durable_lsn_ = next_lsn_;
  RecordsAppended().Increment();
  BytesAppended().Add(rec.size());
  if (auto* profile = obs::CurrentOpProfile()) {
    profile->wal_bytes_logged += rec.size();
  }
  return next_lsn_;
}

Result<uint64_t> Wal::AppendPageImage(uint64_t txn, PageId page_id,
                                      Page* page) {
  MutexLock lock(mu_);
  // The record's end LSN is known before the image is copied, so the
  // page trailer can carry its own LSN inside the logged image.
  uint64_t end_lsn =
      next_lsn_ + kRecordHeaderSize + sizeof(uint32_t) + kPageSize;
  page->set_lsn(end_lsn);
  std::string payload;
  payload.reserve(sizeof(uint32_t) + kPageSize);
  PutFixed32(&payload, page_id);
  payload.append(page->bytes(), kPageSize);
  return AppendLocked(WalRecordType::kPageImage, txn, payload);
}

Result<uint64_t> Wal::AppendCommit(uint64_t txn) {
  MutexLock lock(mu_);
  Commits().Increment();
  return AppendLocked(WalRecordType::kCommit, txn, {});
}

Status Wal::WaitCommitDurable(uint64_t lsn) {
  obs::ScopedLatencyTimer timer(&CommitWaitNs());
  obs::OpProfile* profile = obs::CurrentOpProfile();
  if (profile == nullptr) {
    return WaitDurableInternal(lsn, /*force_own_sync=*/!options_.group_commit);
  }
  auto start = std::chrono::steady_clock::now();
  Status status =
      WaitDurableInternal(lsn, /*force_own_sync=*/!options_.group_commit);
  auto elapsed = std::chrono::steady_clock::now() - start;
  profile->wal_commit_wait_ns += static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count());
  return status;
}

Status Wal::FlushUntil(uint64_t lsn) {
  return WaitDurableInternal(lsn, /*force_own_sync=*/false);
}

Status Wal::WaitDurableInternal(uint64_t target, bool force_own_sync) {
  if (!options_.sync) return Status::OK();
  bool synced_myself = false;
  MutexLock lock(mu_);
  while (true) {
    if (durable_lsn_ >= target && (!force_own_sync || synced_myself)) {
      return Status::OK();
    }
    if (flushing_) {
      // A leader's fsync is in flight; it covers every byte appended
      // before it started. Wait for its verdict and re-check.
      flushed_cv_.Wait(lock);
      continue;
    }
    flushing_ = true;
    uint64_t upto = next_lsn_;
    lock.Unlock();
    // The group-commit window: appends (and new waiters) pile up while
    // the leader syncs without holding the mutex.
    Status synced = store_->Sync();
    lock.Lock();
    flushing_ = false;
    if (synced.ok()) {
      durable_lsn_ = std::max(durable_lsn_, upto);
      Fsyncs().Increment();
    }
    flushed_cv_.NotifyAll();
    if (!synced.ok()) return synced;
    synced_myself = true;
  }
}

Status Wal::ResetLog() {
  MutexLock lock(mu_);
  while (flushing_) flushed_cv_.Wait(lock);
  uint64_t released = next_lsn_ - base_lsn_;
  ODE_RETURN_IF_ERROR(store_->Reset(EncodeWalHeader(next_lsn_)));
  base_lsn_ = next_lsn_;
  durable_lsn_ = next_lsn_;
  Checkpoints().Increment();
  obs::Journal::Global().Append(obs::JournalEvent::kWalCheckpoint,
                                static_cast<int64_t>(released));
  return Status::OK();
}

uint64_t Wal::next_lsn() const {
  MutexLock lock(mu_);
  return next_lsn_;
}

uint64_t Wal::durable_lsn() const {
  MutexLock lock(mu_);
  return durable_lsn_;
}

uint64_t Wal::durable_file_bytes() const {
  MutexLock lock(mu_);
  return kHeaderSize + (durable_lsn_ - base_lsn_);
}

// --- WalTransactionScope ----------------------------------------------

namespace {
thread_local WalTransactionScope* tls_scope = nullptr;
}  // namespace

WalTransactionScope* WalTransactionScope::Current() { return tls_scope; }

WalTransactionScope::WalTransactionScope(Wal* wal, Mutex* txn_mu)
    : wal_(wal), txn_mu_(txn_mu) {
  if (wal_ == nullptr) return;
  if (txn_mu_ != nullptr) {
    txn_mu_->Lock();
    mu_held_ = true;
  }
  txn_ = wal_->BeginTxn();
  prev_ = tls_scope;
  tls_scope = this;
}

WalTransactionScope::~WalTransactionScope() {
  if (wal_ == nullptr) return;
  if (!committed_) {
    // Error path after pages may already have been dirtied: finalize
    // without awaiting durability. If nothing was captured there is
    // nothing to seal.
    if (!frames_.empty() && capture_error_.ok()) {
      Result<uint64_t> lsn = wal_->AppendCommit(txn_);
      if (lsn.ok()) {
        PublishFrames(*lsn);
      }
      // On append failure the frames stay flagged uncommitted: their
      // images are not in the log, so they must never reach the data
      // file. The frames pin until the process exits — acceptable on
      // a dead log device.
    }
  }
  ReleaseTxnMutex();
  tls_scope = prev_;
}

Status WalTransactionScope::Commit() {
  committed_ = true;
  if (wal_ == nullptr) return Status::OK();
  Status result = capture_error_;
  uint64_t target = 0;
  bool sealed = false;
  if (result.ok() && !frames_.empty()) {
    Result<uint64_t> lsn = wal_->AppendCommit(txn_);
    if (lsn.ok()) {
      target = *lsn;
      sealed = true;
      PublishFrames(target);
    } else {
      result = lsn.status();
    }
  }
  // Early lock release: the commit record's position is fixed, so the
  // next writer may proceed while this one waits for the fsync.
  ReleaseTxnMutex();
  if (result.ok() && sealed) {
    result = wal_->WaitCommitDurable(target);
  }
  return result;
}

void WalTransactionScope::ReleaseTxnMutex() {
  if (mu_held_) {
    txn_mu_->Unlock();
    mu_held_ = false;
  }
}

void WalTransactionScope::PublishFrames(uint64_t commit_lsn) {
  for (const WalFrameRef& ref : frames_) {
    // Raise the flush gate to the commit LSN: a page may only be
    // written back once its whole transaction is durable (otherwise a
    // flushed page could survive a crash that loses the commit).
    ref.page_lsn->store(commit_lsn, std::memory_order_relaxed);
    ref.uncommitted->store(false, std::memory_order_release);
  }
}

}  // namespace ode::odb
