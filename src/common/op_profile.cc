#include "common/op_profile.h"

#include <chrono>
#include <sstream>

#include "common/journal.h"

namespace ode::obs {

namespace {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// The caller's context with `profile` attached and, for a session op,
/// the session's id.
OpContext ProfiledContext(OpProfile* profile, const SessionEntry* session) {
  OpContext ctx = CurrentOpContext();
  ctx.profile = profile;
  if (session != nullptr) ctx.session_id = session->session_id();
  return ctx;
}

}  // namespace

void AppendOpProfileStatsJson(std::ostringstream& os,
                              const OpProfileStats& s) {
  os << "\"pool_lookups\":" << s.pool_lookups
     << ",\"pool_hits\":" << s.pool_hits
     << ",\"pages_read\":" << s.pool_misses
     << ",\"pager_reads\":" << s.pager_reads
     << ",\"pager_writes\":" << s.pager_writes
     << ",\"heap_records\":" << s.heap_records
     << ",\"arena_bytes\":" << s.arena_bytes
     << ",\"cluster_prefetches\":" << s.cluster_prefetches
     << ",\"rows_scanned\":" << s.rows_scanned
     << ",\"rows_matched\":" << s.rows_matched
     << ",\"rows_skipped_decode\":" << s.rows_skipped_decode
     << ",\"predicate_evals\":" << s.predicate_evals
     << ",\"batches\":" << s.batches
     << ",\"partitions\":" << s.partitions
     << ",\"join_build_rows\":" << s.join_build_rows
     << ",\"join_probe_rows\":" << s.join_probe_rows
     << ",\"join_pairs\":" << s.join_pairs
     << ",\"lock_wait_ns\":" << s.lock_wait_ns
     << ",\"wal_commit_wait_ns\":" << s.wal_commit_wait_ns
     << ",\"wal_bytes_logged\":" << s.wal_bytes_logged;
}

OpProfileStats& OpProfileStats::operator+=(const OpProfileStats& other) {
  pool_lookups += other.pool_lookups;
  pool_hits += other.pool_hits;
  pool_misses += other.pool_misses;
  pager_reads += other.pager_reads;
  pager_writes += other.pager_writes;
  heap_records += other.heap_records;
  arena_bytes += other.arena_bytes;
  cluster_prefetches += other.cluster_prefetches;
  rows_scanned += other.rows_scanned;
  rows_matched += other.rows_matched;
  rows_skipped_decode += other.rows_skipped_decode;
  predicate_evals += other.predicate_evals;
  batches += other.batches;
  partitions += other.partitions;
  join_build_rows += other.join_build_rows;
  join_probe_rows += other.join_probe_rows;
  join_pairs += other.join_pairs;
  lock_wait_ns += other.lock_wait_ns;
  wal_commit_wait_ns += other.wal_commit_wait_ns;
  wal_bytes_logged += other.wal_bytes_logged;
  return *this;
}

OpProfileStats OpProfile::Snapshot() const {
  OpProfileStats s;
  s.pool_lookups = pool_lookups_.load(std::memory_order_relaxed);
  s.pool_hits = pool_hits_.load(std::memory_order_relaxed);
  s.pool_misses = pool_misses_.load(std::memory_order_relaxed);
  s.pager_reads = pager_reads_.load(std::memory_order_relaxed);
  s.pager_writes = pager_writes_.load(std::memory_order_relaxed);
  s.heap_records = heap_records_.load(std::memory_order_relaxed);
  s.arena_bytes = arena_bytes_.load(std::memory_order_relaxed);
  s.cluster_prefetches = cluster_prefetches_.load(std::memory_order_relaxed);
  s.rows_scanned = rows_scanned_.load(std::memory_order_relaxed);
  s.rows_matched = rows_matched_.load(std::memory_order_relaxed);
  s.rows_skipped_decode =
      rows_skipped_decode_.load(std::memory_order_relaxed);
  s.predicate_evals = predicate_evals_.load(std::memory_order_relaxed);
  s.batches = batches_.load(std::memory_order_relaxed);
  s.partitions = partitions_.load(std::memory_order_relaxed);
  s.join_build_rows = join_build_rows_.load(std::memory_order_relaxed);
  s.join_probe_rows = join_probe_rows_.load(std::memory_order_relaxed);
  s.join_pairs = join_pairs_.load(std::memory_order_relaxed);
  s.lock_wait_ns = lock_wait_ns_.load(std::memory_order_relaxed);
  s.wal_commit_wait_ns =
      wal_commit_wait_ns_.load(std::memory_order_relaxed);
  s.wal_bytes_logged = wal_bytes_logged_.load(std::memory_order_relaxed);
  return s;
}

void OpProfile::MergeInto(OpProfile* dest) const {
  OpProfileStats s = Snapshot();
  dest->pool_lookups_.fetch_add(s.pool_lookups, std::memory_order_relaxed);
  dest->pool_hits_.fetch_add(s.pool_hits, std::memory_order_relaxed);
  dest->pool_misses_.fetch_add(s.pool_misses, std::memory_order_relaxed);
  dest->pager_reads_.fetch_add(s.pager_reads, std::memory_order_relaxed);
  dest->pager_writes_.fetch_add(s.pager_writes, std::memory_order_relaxed);
  dest->heap_records_.fetch_add(s.heap_records, std::memory_order_relaxed);
  dest->arena_bytes_.fetch_add(s.arena_bytes, std::memory_order_relaxed);
  dest->cluster_prefetches_.fetch_add(s.cluster_prefetches,
                                      std::memory_order_relaxed);
  dest->rows_scanned_.fetch_add(s.rows_scanned, std::memory_order_relaxed);
  dest->rows_matched_.fetch_add(s.rows_matched, std::memory_order_relaxed);
  dest->rows_skipped_decode_.fetch_add(s.rows_skipped_decode,
                                       std::memory_order_relaxed);
  dest->predicate_evals_.fetch_add(s.predicate_evals,
                                   std::memory_order_relaxed);
  dest->batches_.fetch_add(s.batches, std::memory_order_relaxed);
  dest->partitions_.fetch_add(s.partitions, std::memory_order_relaxed);
  dest->join_build_rows_.fetch_add(s.join_build_rows,
                                   std::memory_order_relaxed);
  dest->join_probe_rows_.fetch_add(s.join_probe_rows,
                                   std::memory_order_relaxed);
  dest->join_pairs_.fetch_add(s.join_pairs, std::memory_order_relaxed);
  dest->lock_wait_ns_.fetch_add(s.lock_wait_ns, std::memory_order_relaxed);
  dest->wal_commit_wait_ns_.fetch_add(s.wal_commit_wait_ns,
                                      std::memory_order_relaxed);
  dest->wal_bytes_logged_.fetch_add(s.wal_bytes_logged,
                                    std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// SessionRegistry

SessionRegistry& SessionRegistry::Global() {
  // Leaked: sessions may close during static destruction.
  static SessionRegistry* registry = new SessionRegistry();
  return *registry;
}

std::shared_ptr<SessionEntry> SessionRegistry::Register(uint64_t session_id,
                                                        uint64_t trace_id) {
  auto entry =
      std::make_shared<SessionEntry>(session_id, trace_id, NowNs());
  MutexLock lock(mu_);
  sessions_[session_id] = entry;
  return entry;
}

void SessionRegistry::Unregister(uint64_t session_id) {
  MutexLock lock(mu_);
  sessions_.erase(session_id);
}

std::vector<std::shared_ptr<SessionEntry>> SessionRegistry::Snapshot() const {
  std::vector<std::shared_ptr<SessionEntry>> out;
  MutexLock lock(mu_);
  out.reserve(sessions_.size());
  for (const auto& [id, entry] : sessions_) out.push_back(entry);
  return out;
}

size_t SessionRegistry::size() const {
  MutexLock lock(mu_);
  return sessions_.size();
}

std::string SessionRegistry::RenderJson() const {
  std::vector<std::shared_ptr<SessionEntry>> entries = Snapshot();
  uint64_t now = NowNs();
  std::ostringstream os;
  os << "[";
  bool first = true;
  for (const auto& entry : entries) {
    if (!first) os << ",";
    first = false;
    const char* op = entry->current_op();
    os << "{\"session_id\":" << entry->session_id()
       << ",\"trace_id\":" << entry->trace_id() << ",\"current_op\":";
    if (op != nullptr) {
      os << "\"" << op << "\""
         << ",\"op_elapsed_ns\":" << (now - entry->op_started_ns());
    } else {
      os << "null";
    }
    os << ",\"open_ns\":" << (now - entry->opened_ns())
       << ",\"ops_completed\":" << entry->ops_completed()
       << ",\"busy_ns\":" << entry->busy_ns() << ",\"totals\":{";
    AppendOpProfileStatsJson(os,entry->totals().Snapshot());
    os << "}}";
  }
  os << "]";
  return os.str();
}

// ---------------------------------------------------------------------------
// SlowOpLog

SlowOpLog& SlowOpLog::Global() {
  static SlowOpLog* log = new SlowOpLog();
  return *log;
}

void SlowOpLog::Record(const char* op, uint64_t session_id,
                       uint64_t trace_id, uint64_t duration_ns,
                       const OpProfileStats& stats) {
  SlowOpRecord record;
  record.seq = recorded_.fetch_add(1, std::memory_order_relaxed) + 1;
  record.ts_ns = NowNs();
  record.duration_ns = duration_ns;
  record.session_id = session_id;
  record.trace_id = trace_id;
  record.op = op;
  record.stats = stats;
  {
    MutexLock lock(mu_);
    if (ring_.size() < kCapacity) {
      ring_.push_back(record);
    } else {
      ring_[next_] = record;
    }
    next_ = (next_ + 1) % kCapacity;
  }
  Journal::Global().Append(JournalEvent::kSlowOp,
                           static_cast<int64_t>(duration_ns),
                           static_cast<int64_t>(session_id), op);
}

std::vector<SlowOpRecord> SlowOpLog::Snapshot() const {
  MutexLock lock(mu_);
  std::vector<SlowOpRecord> out;
  out.reserve(ring_.size());
  if (ring_.size() < kCapacity) {
    out = ring_;
  } else {
    // `next_` is the oldest slot once the ring has wrapped.
    for (size_t i = 0; i < kCapacity; ++i) {
      out.push_back(ring_[(next_ + i) % kCapacity]);
    }
  }
  return out;
}

std::string SlowOpLog::RenderJson() const {
  std::vector<SlowOpRecord> records = Snapshot();
  std::ostringstream os;
  os << "[";
  bool first = true;
  for (const SlowOpRecord& r : records) {
    if (!first) os << ",";
    first = false;
    os << "{\"seq\":" << r.seq << ",\"ts_ns\":" << r.ts_ns
       << ",\"duration_ns\":" << r.duration_ns
       << ",\"session_id\":" << r.session_id
       << ",\"trace_id\":" << r.trace_id << ",\"op\":\""
       << (r.op != nullptr ? r.op : "?") << "\",\"stats\":{";
    AppendOpProfileStatsJson(os,r.stats);
    os << "}}";
  }
  os << "]";
  return os.str();
}

void SlowOpLog::ResetForTest() {
  MutexLock lock(mu_);
  ring_.clear();
  next_ = 0;
  recorded_.store(0, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// ProfiledOp

ProfiledOp::ProfiledOp(SessionEntry* session, const char* op_name)
    : parent_(CurrentOpProfile()),
      session_(session),
      op_name_(op_name),
      start_ns_(NowNs()),
      scope_(ProfiledContext(&profile_, session)) {
  if (session_ != nullptr) session_->BeginOp(op_name_, start_ns_);
}

ProfiledOp::~ProfiledOp() {
  uint64_t duration = NowNs() - start_ns_;
  // The scope is still installed here (members are destroyed after this
  // body), so the snapshot covers every charge of the op.
  if (session_ != nullptr) {
    profile_.MergeInto(&session_->totals());
    session_->EndOp(duration);
  }
  if (parent_ != nullptr) profile_.MergeInto(parent_);
  uint64_t threshold = SlowOpLog::Global().threshold_ns();
  if (threshold != 0 && duration >= threshold) {
    SlowOpLog::Global().Record(
        op_name_, session_ != nullptr ? session_->session_id() : 0,
        session_ != nullptr ? session_->trace_id() : 0, duration,
        profile_.Snapshot());
  }
}

}  // namespace ode::obs
