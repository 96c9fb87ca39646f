#ifndef ODEVIEW_COMMON_OP_PROFILE_H_
#define ODEVIEW_COMMON_OP_PROFILE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <iterator>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/thread_annotations.h"
#include "common/threading.h"
#include "common/trace.h"

namespace ode::obs {

/// One operation's resource charges: the numbers EXPLAIN ANALYZE, the
/// slow-op ring and the session inspector render. Only the thread
/// running the operation writes it (see `OpContext`), so the counters
/// are plain integers.
struct OpProfile {
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
  uint64_t join_build_rows = 0;
  uint64_t join_probe_rows = 0;
  uint64_t join_pairs = 0;
  // Waits.
  uint64_t lock_wait_ns = 0;        ///< blocking time in ranked mutexes
  uint64_t wal_commit_wait_ns = 0;  ///< group-commit / fsync waits
  uint64_t wal_bytes_logged = 0;    ///< WAL payload bytes appended

  OpProfile& operator+=(const OpProfile& other);
};

/// One counter of `OpProfile` and the name its JSON rendering uses.
struct OpProfileCounter {
  const char* json_name;
  uint64_t OpProfile::*member;
};

/// Every counter of `OpProfile`, in JSON rendering order. Code that
/// treats the counters alike (adding, rendering, the session totals)
/// loops over this table instead of naming them.
inline constexpr OpProfileCounter kOpProfileCounters[] = {
    {"pool_lookups", &OpProfile::pool_lookups},
    {"pool_hits", &OpProfile::pool_hits},
    {"pages_read", &OpProfile::pool_misses},
    {"pager_reads", &OpProfile::pager_reads},
    {"pager_writes", &OpProfile::pager_writes},
    {"heap_records", &OpProfile::heap_records},
    {"arena_bytes", &OpProfile::arena_bytes},
    {"cluster_prefetches", &OpProfile::cluster_prefetches},
    {"rows_scanned", &OpProfile::rows_scanned},
    {"rows_matched", &OpProfile::rows_matched},
    {"rows_skipped_decode", &OpProfile::rows_skipped_decode},
    {"predicate_evals", &OpProfile::predicate_evals},
    {"batches", &OpProfile::batches},
    {"join_build_rows", &OpProfile::join_build_rows},
    {"join_probe_rows", &OpProfile::join_probe_rows},
    {"join_pairs", &OpProfile::join_pairs},
    {"lock_wait_ns", &OpProfile::lock_wait_ns},
    {"wal_commit_wait_ns", &OpProfile::wal_commit_wait_ns},
    {"wal_bytes_logged", &OpProfile::wal_bytes_logged},
};
static_assert(sizeof(OpProfile) ==
                  std::size(kOpProfileCounters) * sizeof(uint64_t),
              "every OpProfile counter needs a kOpProfileCounters row");

/// Appends `s` as a flat JSON object body (no surrounding braces) —
/// the shared rendering behind `/sessions`, `/slow`, and EXPLAIN
/// ANALYZE's JSON output. `pool_misses` is exported as "pages_read".
void AppendOpProfileStatsJson(std::ostringstream& os, const OpProfile& s);

/// A session's running totals: the one copy of a profile that other
/// threads read while it grows (the `/sessions` endpoint renders it
/// while the session's ops add into it), hence atomic.
class SessionTotals {
 public:
  /// Adds one finished op: a relaxed add per non-zero counter.
  void Add(const OpProfile& op);
  /// A copy of the totals; an op being added meanwhile may show in
  /// part.
  OpProfile Snapshot() const;

 private:
  std::array<std::atomic<uint64_t>, std::size(kOpProfileCounters)>
      counters_{};
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
  SessionTotals& totals() { return totals_; }
  const SessionTotals& totals() const { return totals_; }

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
  SessionTotals totals_;
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
  OpProfile stats;
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
              uint64_t duration_ns, const OpProfile& stats);

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
///  * adds the charges into the enclosing profile (if any), so nested
///    ops aggregate upward,
///  * adds them into `session->totals()` and stamps the session's
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
/// adds `*nested` into the enclosing profile, if any, so session
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
  if (enclosing != nullptr) *enclosing += *nested;
  return result;
}

}  // namespace ode::obs

#endif  // ODEVIEW_COMMON_OP_PROFILE_H_
