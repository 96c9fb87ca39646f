#ifndef ODEVIEW_COMMON_OP_PROFILE_H_
#define ODEVIEW_COMMON_OP_PROFILE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/thread_annotations.h"
#include "common/threading.h"
#include "common/trace.h"

namespace ode::obs {

/// A plain (non-atomic) snapshot of one operation's resource charges —
/// what EXPLAIN ANALYZE, the slow-op ring, and the session inspector
/// all render.
struct OpProfileStats {
  // Buffer pool (storage layer).
  uint64_t pool_lookups = 0;
  uint64_t pool_hits = 0;
  uint64_t pool_misses = 0;  ///< pages read into the pool for this op
  // Pager I/O (page reads/writes that reached the backend).
  uint64_t pager_reads = 0;
  uint64_t pager_writes = 0;
  // Heap layer.
  uint64_t heap_records = 0;  ///< records served by the batch read paths
  uint64_t arena_bytes = 0;   ///< raw record bytes appended to scan arenas
  // Clustering / prefetch.
  uint64_t cluster_prefetches = 0;  ///< affinity read-ahead pages issued
  // Executor.
  uint64_t rows_scanned = 0;
  uint64_t rows_matched = 0;
  uint64_t rows_skipped_decode = 0;  ///< attribute decodes avoided
  uint64_t predicate_evals = 0;
  uint64_t batches = 0;
  uint64_t partitions = 0;
  uint64_t join_build_rows = 0;
  uint64_t join_probe_rows = 0;
  uint64_t join_pairs = 0;
  // Waits.
  uint64_t lock_wait_ns = 0;        ///< blocking time in ranked mutexes
  uint64_t wal_commit_wait_ns = 0;  ///< group-commit / fsync waits
  uint64_t wal_bytes_logged = 0;    ///< WAL payload bytes appended

  OpProfileStats& operator+=(const OpProfileStats& other);
};

/// Appends `s` as a flat JSON object body (no surrounding braces) —
/// the shared rendering behind `/sessions`, `/slow`, and EXPLAIN
/// ANALYZE's JSON output. `pool_misses` is exported as "pages_read".
void AppendOpProfileStatsJson(std::ostringstream& os, const OpProfileStats& s);

/// The per-operation profiling context every engine layer charges into.
///
/// All fields are relaxed atomics: one profile may be charged from many
/// threads at once (parallel scan partitions adopt the caller's whole
/// `OpContext`, profile included). Charge sites pay one thread-local
/// pointer test when no profile is attached — the `CurrentOpProfile()`
/// null check — and a handful of relaxed adds when one is.
class OpProfile {
 public:
  OpProfile() = default;
  OpProfile(const OpProfile&) = delete;
  OpProfile& operator=(const OpProfile&) = delete;

  // --- Charge helpers (relaxed; callable from any thread) -------------
  void ChargePoolFetch(bool hit) {
    pool_lookups_.fetch_add(1, std::memory_order_relaxed);
    (hit ? pool_hits_ : pool_misses_).fetch_add(1, std::memory_order_relaxed);
  }
  void ChargePagerRead() {
    pager_reads_.fetch_add(1, std::memory_order_relaxed);
  }
  void ChargePagerWrite() {
    pager_writes_.fetch_add(1, std::memory_order_relaxed);
  }
  void ChargeHeapBatch(uint64_t records, uint64_t bytes) {
    heap_records_.fetch_add(records, std::memory_order_relaxed);
    arena_bytes_.fetch_add(bytes, std::memory_order_relaxed);
  }
  void ChargeClusterPrefetch(uint64_t pages) {
    cluster_prefetches_.fetch_add(pages, std::memory_order_relaxed);
  }
  void ChargeScan(uint64_t scanned, uint64_t matched, uint64_t skipped,
                  uint64_t evals, uint64_t batches, uint64_t partitions) {
    rows_scanned_.fetch_add(scanned, std::memory_order_relaxed);
    rows_matched_.fetch_add(matched, std::memory_order_relaxed);
    rows_skipped_decode_.fetch_add(skipped, std::memory_order_relaxed);
    predicate_evals_.fetch_add(evals, std::memory_order_relaxed);
    batches_.fetch_add(batches, std::memory_order_relaxed);
    partitions_.fetch_add(partitions, std::memory_order_relaxed);
  }
  void ChargeJoin(uint64_t build, uint64_t probe, uint64_t pairs) {
    join_build_rows_.fetch_add(build, std::memory_order_relaxed);
    join_probe_rows_.fetch_add(probe, std::memory_order_relaxed);
    join_pairs_.fetch_add(pairs, std::memory_order_relaxed);
  }
  void ChargeLockWait(uint64_t ns) {
    lock_wait_ns_.fetch_add(ns, std::memory_order_relaxed);
  }
  void ChargeWalCommitWait(uint64_t ns) {
    wal_commit_wait_ns_.fetch_add(ns, std::memory_order_relaxed);
  }
  void ChargeWalBytes(uint64_t bytes) {
    wal_bytes_logged_.fetch_add(bytes, std::memory_order_relaxed);
  }

  /// A consistent-enough copy (relaxed loads; concurrent charges may or
  /// may not be included — totals of a finished op are exact).
  OpProfileStats Snapshot() const;

  /// Adds this profile's current charges into `dest` (relaxed adds).
  void MergeInto(OpProfile* dest) const;

 private:
  std::atomic<uint64_t> pool_lookups_{0};
  std::atomic<uint64_t> pool_hits_{0};
  std::atomic<uint64_t> pool_misses_{0};
  std::atomic<uint64_t> pager_reads_{0};
  std::atomic<uint64_t> pager_writes_{0};
  std::atomic<uint64_t> heap_records_{0};
  std::atomic<uint64_t> arena_bytes_{0};
  std::atomic<uint64_t> cluster_prefetches_{0};
  std::atomic<uint64_t> rows_scanned_{0};
  std::atomic<uint64_t> rows_matched_{0};
  std::atomic<uint64_t> rows_skipped_decode_{0};
  std::atomic<uint64_t> predicate_evals_{0};
  std::atomic<uint64_t> batches_{0};
  std::atomic<uint64_t> partitions_{0};
  std::atomic<uint64_t> join_build_rows_{0};
  std::atomic<uint64_t> join_probe_rows_{0};
  std::atomic<uint64_t> join_pairs_{0};
  std::atomic<uint64_t> lock_wait_ns_{0};
  std::atomic<uint64_t> wal_commit_wait_ns_{0};
  std::atomic<uint64_t> wal_bytes_logged_{0};
};

/// One live session as the inspector sees it. `current_op` is a
/// pointer to a string with static storage duration (same contract as
/// journal details) or nullptr when the session is idle.
class SessionEntry {
 public:
  SessionEntry(uint64_t session_id, uint64_t trace_id, uint64_t opened_ns)
      : session_id_(session_id), trace_id_(trace_id), opened_ns_(opened_ns) {}

  uint64_t session_id() const { return session_id_; }
  uint64_t trace_id() const { return trace_id_; }
  uint64_t opened_ns() const { return opened_ns_; }
  OpProfile& totals() { return totals_; }
  const OpProfile& totals() const { return totals_; }

  void BeginOp(const char* name, uint64_t now_ns) {
    op_started_ns_.store(now_ns, std::memory_order_relaxed);
    current_op_.store(name, std::memory_order_release);
  }
  void EndOp(uint64_t duration_ns) {
    current_op_.store(nullptr, std::memory_order_release);
    ops_completed_.fetch_add(1, std::memory_order_relaxed);
    busy_ns_.fetch_add(duration_ns, std::memory_order_relaxed);
  }

  /// Current op name (nullptr = idle) and when it started.
  const char* current_op() const {
    return current_op_.load(std::memory_order_acquire);
  }
  uint64_t op_started_ns() const {
    return op_started_ns_.load(std::memory_order_relaxed);
  }
  uint64_t ops_completed() const {
    return ops_completed_.load(std::memory_order_relaxed);
  }
  uint64_t busy_ns() const {
    return busy_ns_.load(std::memory_order_relaxed);
  }

 private:
  const uint64_t session_id_;
  const uint64_t trace_id_;
  const uint64_t opened_ns_;
  OpProfile totals_;
  std::atomic<const char*> current_op_{nullptr};
  std::atomic<uint64_t> op_started_ns_{0};
  std::atomic<uint64_t> ops_completed_{0};
  std::atomic<uint64_t> busy_ns_{0};
};

/// Process-wide directory of open sessions, the `/sessions` endpoint's
/// data source. Lives obs-side (not in the engine) so the telemetry
/// endpoint keeps its "registry data only" separation: the engine
/// registers/unregisters entries, the inspector only reads them.
class SessionRegistry {
 public:
  static SessionRegistry& Global();

  SessionRegistry() = default;
  SessionRegistry(const SessionRegistry&) = delete;
  SessionRegistry& operator=(const SessionRegistry&) = delete;

  std::shared_ptr<SessionEntry> Register(uint64_t session_id,
                                         uint64_t trace_id);
  void Unregister(uint64_t session_id);

  /// Open sessions, id-ascending.
  std::vector<std::shared_ptr<SessionEntry>> Snapshot() const;
  size_t size() const;

  /// JSON array: one object per open session with its current op,
  /// trace id, and cumulative resource totals.
  std::string RenderJson() const;

 private:
  mutable Mutex mu_{LockRank::kSessionRegistry};
  std::map<uint64_t, std::shared_ptr<SessionEntry>> sessions_
      ODE_GUARDED_BY(mu_);
};

/// One parked slow operation.
struct SlowOpRecord {
  uint64_t seq = 0;  ///< 1-based; monotonically increasing
  uint64_t ts_ns = 0;
  uint64_t duration_ns = 0;
  uint64_t session_id = 0;  ///< 0 = not session-bound
  uint64_t trace_id = 0;
  const char* op = nullptr;  ///< static storage duration
  OpProfileStats stats;
};

/// Bounded overwrite ring of full profiles for operations that ran
/// longer than the configured threshold — the `/slow` endpoint's data
/// source. Recording is off the hot path (only ops already past the
/// threshold pay the mutex), so a plain lock-guarded ring suffices.
class SlowOpLog {
 public:
  static constexpr size_t kCapacity = 128;
  /// Default threshold: 50 ms. 0 disables slow-op capture entirely.
  static constexpr uint64_t kDefaultThresholdNs = 50'000'000;

  static SlowOpLog& Global();

  SlowOpLog() = default;
  SlowOpLog(const SlowOpLog&) = delete;
  SlowOpLog& operator=(const SlowOpLog&) = delete;

  uint64_t threshold_ns() const {
    return threshold_ns_.load(std::memory_order_relaxed);
  }
  void set_threshold_ns(uint64_t ns) {
    threshold_ns_.store(ns, std::memory_order_relaxed);
  }

  /// Parks one record (oldest entry overwritten when full) and appends
  /// a `slow_op` journal record. Callers check the threshold first.
  void Record(const char* op, uint64_t session_id, uint64_t trace_id,
              uint64_t duration_ns, const OpProfileStats& stats);

  /// Records ever parked (including overwritten ones).
  uint64_t recorded() const {
    return recorded_.load(std::memory_order_relaxed);
  }

  /// The retained tail, oldest first.
  std::vector<SlowOpRecord> Snapshot() const;

  /// JSON array, oldest first.
  std::string RenderJson() const;

  void ResetForTest();

 private:
  std::atomic<uint64_t> threshold_ns_{kDefaultThresholdNs};
  std::atomic<uint64_t> recorded_{0};
  mutable Mutex mu_{LockRank::kSlowOpLog};
  std::vector<SlowOpRecord> ring_ ODE_GUARDED_BY(mu_);  ///< ring, wraps
  size_t next_ ODE_GUARDED_BY(mu_) = 0;
};

/// RAII around one profiled operation: installs the caller's context
/// with a fresh `OpProfile` (and, when a session entry is given, the
/// session's id) for the scope, and on destruction
///  * merges the charges into the enclosing profile (if any), so
///    nested ops aggregate upward,
///  * merges them into `session->totals()` and stamps the session's
///    current-op state (when a session entry is given),
///  * parks the full profile in the `SlowOpLog` when the op ran longer
///    than the threshold, and
///  * restores the caller's context.
/// `op_name` must have static storage duration.
class ProfiledOp {
 public:
  ProfiledOp(SessionEntry* session, const char* op_name);
  explicit ProfiledOp(const char* op_name) : ProfiledOp(nullptr, op_name) {}
  ~ProfiledOp();

  ProfiledOp(const ProfiledOp&) = delete;
  ProfiledOp& operator=(const ProfiledOp&) = delete;

  OpProfile* profile() { return &profile_; }
  uint64_t start_ns() const { return start_ns_; }

 private:
  OpProfile profile_;
  OpProfile* parent_;  ///< enclosing profile at construction (may be null)
  SessionEntry* session_;
  const char* op_name_;
  uint64_t start_ns_;
  OpContextScope scope_;  ///< installs the op's context; last member: first out
};

/// Runs `body` with `*nested` as the thread's profile (trace ids and
/// session unchanged), stores its wall time in `*elapsed_ns`, then
/// merges `*nested` into the enclosing profile, if any, so session
/// totals and slow-op records still see the work. This is how EXPLAIN
/// ANALYZE attributes charges to one plan operator.
template <typename Body>
auto RunNestedProfile(OpProfile* nested, uint64_t* elapsed_ns, Body body)
    -> decltype(body()) {
  OpContext inner = CurrentOpContext();
  OpProfile* enclosing = inner.profile;
  inner.profile = nested;
  uint64_t start = Tracing::NowNanos();
  decltype(body()) result = [&] {
    OpContextScope scope(inner);
    return body();
  }();
  *elapsed_ns = Tracing::NowNanos() - start;
  if (enclosing != nullptr) nested->MergeInto(enclosing);
  return result;
}

}  // namespace ode::obs

#endif  // ODEVIEW_COMMON_OP_PROFILE_H_
