#ifndef ODEVIEW_ODB_DATABASE_H_
#define ODEVIEW_ODB_DATABASE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/journal.h"
#include "common/metrics.h"
#include "common/op_profile.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "common/threading.h"
#include "common/trace.h"
#include "common/status.h"
#include "odb/buffer_pool.h"
#include "odb/catalog.h"
#include "odb/exec/compiled_predicate.h"
#include "odb/heap_file.h"
#include "odb/object_record.h"
#include "odb/oid.h"
#include "odb/pager.h"
#include "odb/predicate.h"
#include "odb/schema.h"
#include "odb/value.h"
#include "odb/wal.h"

namespace ode::odb {

namespace exec {
// Defined in odb/exec/explain.h (which includes this header — the
// explain API is therefore only forward-declared here).
struct ExplainResult;
}  // namespace exec

namespace cluster {
// Defined in odb/cluster/plan.h. The odb core only forward-declares
// the clustering subsystem (ode-lint enforces that no core file
// includes odb/cluster/); Database::Recluster's body lives in
// odb/cluster/reorganizer.cc.
struct ClusterPlan;
}  // namespace cluster

/// The in-memory copy of a persistent object — the paper's "object
/// buffer" that the object manager hands to display functions.
struct ObjectBuffer {
  Oid oid;
  std::string class_name;
  uint32_t version = 1;
  Value value;
};

/// One batch from the raw scan primitive: consecutive records of a
/// cluster, in scan order, their stored `ObjectRecord` bytes packed back
/// to back in one arena. The batched executor and `ObjectCursor` decode
/// the spans under a projection mask instead of materializing full
/// buffers; reusing the batch across calls makes the raw read
/// allocation-free once warm.
struct RawRecordBatch {
  ClusterId cluster = 0;
  std::string arena;
  std::vector<HeapFile::RecordSpan> records;

  std::string_view bytes(const HeapFile::RecordSpan& span) const {
    return std::string_view(arena).substr(span.offset, span.length);
  }
  void clear() {
    cluster = 0;
    arena.clear();
    records.clear();
  }
};

/// A record of one trigger firing (the simulated trigger action queue).
struct TriggerFiring {
  std::string class_name;
  Oid oid;
  std::string trigger_name;
  std::string action;
  TriggerEvent event = TriggerEvent::kUpdate;
};

/// Tuning knobs for a database instance.
struct DatabaseOptions {
  /// Buffer-pool frames (pages held in memory).
  size_t buffer_pool_pages = 256;
  /// Versions retained per object of a `versioned` class (oldest
  /// versions are dropped beyond the limit).
  size_t version_history_limit = 8;
  /// On-disk databases: checkpoint (flush + truncate the WAL) after a
  /// commit leaves the log larger than this many bytes.
  size_t wal_checkpoint_bytes = 4u << 20;
  /// On-disk databases: fsync the WAL on commit. Off = no durability
  /// guarantee on power loss (crash consistency is still preserved —
  /// recovery replays whatever prefix survived).
  bool wal_sync = true;
  /// Batch concurrent commits behind one fsync (see WalOptions).
  bool wal_group_commit = true;
};

class Session;

/// One Ode database: schema catalog + clusters of persistent objects.
///
/// This is the stand-in for the Ode object manager the paper's OdeView
/// calls into: it materializes stored objects into `ObjectBuffer`s,
/// sequences through clusters (`reset` / `next` / `previous`, via
/// `ObjectCursor`), filters with selection predicates, and enforces O++
/// constraints/triggers.
///
/// Thread-safety: object-level operations (create/get/update/delete,
/// cursor steps, scans, selects) may be called from any number of
/// threads — open a `Session` per worker with `OpenSession()`. Schema
/// operations (DefineSchema/AddClass/AlterClass/DropClass) and
/// `Sync()` take an exclusive lock that drains all in-flight object
/// operations first. Accessors returning references into internal
/// state (`schema()`, `trigger_log()`) are only stable while no
/// concurrent schema change / DML runs; the same holds for a
/// `schema().Layout()` pointer, which the next schema change replaces.
class Database {
 public:
  /// Creates a volatile database (MemPager).
  static Result<std::unique_ptr<Database>> CreateInMemory(
      std::string name, DatabaseOptions options = {});
  /// Creates a new database file at `path`.
  static Result<std::unique_ptr<Database>> CreateOnDisk(
      const std::string& path, std::string name,
      DatabaseOptions options = {});
  /// Opens an existing database file.
  static Result<std::unique_ptr<Database>> OpenOnDisk(
      const std::string& path, DatabaseOptions options = {});

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  const std::string& name() const;
  const Schema& schema() const { return catalog_->schema(); }

  // --- Schema (DDL) ---------------------------------------------------

  /// Parses O++ DDL and adds every class it defines (creating clusters
  /// for persistent classes). Validates the combined schema and
  /// persists the catalog. OdeView itself never calls this: schema
  /// changes happen out-of-band, which is why the paper dynamic-links
  /// display functions instead of compiling them in.
  Status DefineSchema(std::string_view ddl);

  /// Adds one class programmatically.
  Status AddClass(ClassDef def);

  /// Drops a class; its cluster must be empty and no other class may
  /// derive from or reference it.
  Status DropClass(const std::string& class_name);

  /// Schema evolution: replaces the definition of an existing class
  /// and migrates every stored object of that class (and of its
  /// descendants, whose effective member set may change):
  ///  * members added by the new definition are filled with defaults;
  ///  * members removed are dropped from stored objects;
  ///  * members whose type changed are reset to the new default;
  ///  * bases may not change (that would reparent clusters).
  /// The caller is expected to notify open OdeViews via
  /// `DbInteractor::OnClassChanged` afterwards.
  Status AlterClass(ClassDef def);

  Result<const ClassDef*> GetClass(const std::string& class_name) const {
    return schema().GetClass(class_name);
  }

  // --- Objects (DML) --------------------------------------------------

  /// Creates a persistent object of `class_name` from `value`
  /// (type-checked, constraint-checked; fires on_create triggers).
  Result<Oid> CreateObject(const std::string& class_name, Value value);

  /// Materializes the stored object into an ObjectBuffer.
  Result<ObjectBuffer> GetObject(Oid oid);

  /// Fetches a historical version of an object of a versioned class.
  Result<ObjectBuffer> GetObjectVersion(Oid oid, uint32_t version);

  /// Lists retained version numbers, oldest first (current included).
  Result<std::vector<uint32_t>> ListVersions(Oid oid);

  /// Replaces the object's value (type/constraint-checked; bumps the
  /// version; retains history for versioned classes; fires triggers).
  Status UpdateObject(Oid oid, Value value);

  /// Deletes the object (fires on_delete triggers).
  Status DeleteObject(Oid oid);

  // --- Clusters (stepping through one is `ObjectCursor`'s job) --------

  Result<uint64_t> ClusterCount(const std::string& class_name);
  Result<ClusterId> ClusterOf(const std::string& class_name) const;
  Result<std::string> ClassOfCluster(ClusterId id) const;

  /// Counter bumped by every successful mutation (schema changes and
  /// object create/update/delete). Lets cursors and caches detect that
  /// previously fetched state may be stale.
  uint64_t mutation_epoch() const {
    return mutation_epoch_.load(std::memory_order_acquire);
  }

  /// OIDs of every object in the cluster, creation order.
  Result<std::vector<Oid>> ScanCluster(const std::string& class_name);

  /// Deep extent: the class's own cluster plus the clusters of all its
  /// descendants (e.g. employees *and* managers), creation order
  /// within each cluster, base cluster first.
  Result<std::vector<Oid>> ScanClusterDeep(const std::string& class_name);

  /// OIDs of objects satisfying `predicate`, creation order (§5.2:
  /// the object manager filters objects retrieved from the database).
  /// Runs on the batched executor: projection is pushed into the
  /// record decode and the predicate is evaluated in compiled form.
  Result<std::vector<Oid>> Select(const std::string& class_name,
                                  const Predicate& predicate);

  /// EXPLAIN [ANALYZE] for a `Select` over one class: the static plan
  /// (strategy, projection, compiled program size), plus — with
  /// `analyze` — the executed plan's rows, pages, and wall time.
  Result<exec::ExplainResult> ExplainSelect(const std::string& class_name,
                                            const Predicate& predicate,
                                            bool analyze);

  /// EXPLAIN [ANALYZE] for a join between two classes (predicate over
  /// `left.<attr>` / `right.<attr>` paths).
  Result<exec::ExplainResult> ExplainJoin(const std::string& left_class,
                                          const std::string& right_class,
                                          const Predicate& predicate,
                                          bool analyze);

  /// The one raw read records leave a cluster by, for the executor and
  /// `ObjectCursor`: up to `limit` (local id, record bytes) pairs with
  /// id greater than `from` (ascending), or less than `from` when
  /// `forward` is false (descending), in one lock round-trip. An
  /// exhausted scan returns an empty batch (never OutOfRange). The
  /// schema lock is held per call, not across the whole scan, so scans
  /// interleave with mutations; callers needing a stable snapshot bound
  /// the scan by `mutation_epoch()`. `*out` is cleared (capacity
  /// retained) before anything can fail, then refilled, so a looping
  /// caller reuses the arena instead of reallocating per batch.
  Status ScanRawRecords(const std::string& class_name, uint64_t from,
                        size_t limit, RawRecordBatch* out,
                        bool forward = true);

  // --- Triggers --------------------------------------------------------

  /// Fired triggers since the last `ClearTriggerLog()`.
  /// Lock-free read by design: returns a reference into `trigger_log_`,
  /// so it cannot hold `trigger_mu_` for the caller. Only stable while
  /// no concurrent DML runs (see the class comment); tests and the
  /// single-threaded UI read it between operations.
  const std::vector<TriggerFiring>& trigger_log() const
      ODE_NO_THREAD_SAFETY_ANALYSIS {
    return trigger_log_;
  }
  void ClearTriggerLog() {
    MutexLock lock(trigger_mu_);
    trigger_log_.clear();
  }

  // --- Maintenance -----------------------------------------------------

  /// Applies a clustering plan online: moves records page-by-page so
  /// each plan group shares a heap page. Runs under the shared schema
  /// lock with one WAL transaction per page group (full-page redo
  /// images — a kill -9 mid-recluster recovers to a group boundary),
  /// and OIDs stay stable because lookups resolve through the heap's
  /// id→location directory. Records deleted since the plan was built
  /// are skipped. Defined in odb/cluster/reorganizer.cc.
  Status Recluster(const cluster::ClusterPlan& plan);

  /// Physical placement (page, slot, stored bytes) of every record of
  /// `class_name`'s cluster — the clustering advisor's packing input.
  Result<std::vector<HeapFile::Placement>> ClusterPlacements(
      const std::string& class_name);

  /// Flushes dirty pages, persists the catalog, and (on-disk) runs a
  /// checkpoint so the data file alone holds the full state.
  Status Sync();

  /// Checkpoints the WAL: flushes every committed dirty page, syncs the
  /// data file, and truncates the log. Phase 1 runs fuzzy (concurrent
  /// writers keep going); phase 2 briefly quiesces writers. No-op for
  /// in-memory databases beyond a flush.
  Status Checkpoint();

  /// Text report of every metric in the global `obs::Registry` — the
  /// runtime inspector's data source. Deliberately consumes only
  /// registry data (never engine internals), mirroring the paper's
  /// separation between the application and the tool observing it.
  std::string DumpTelemetry() const;

  BufferPool* buffer_pool() { return pool_.get(); }
  /// The write-ahead log (nullptr for in-memory databases).
  Wal* wal() { return wal_.get(); }
  const DatabaseOptions& options() const { return options_; }

  // --- Sessions ---------------------------------------------------------

  /// Opens a session: a lightweight handle for one concurrent client
  /// (one browser window / worker thread). Sessions forward to the
  /// database's thread-safe object operations and are tracked so the
  /// engine knows how many clients are active.
  Session OpenSession();
  /// Sessions currently open.
  int active_sessions() const {
    return active_sessions_->load(std::memory_order_relaxed);
  }

 private:
  friend class Session;
  Database(std::unique_ptr<Pager> pager, std::unique_ptr<BufferPool> pool,
           DatabaseOptions options)
      : pager_(std::move(pager)),
        pool_(std::move(pool)),
        options_(options) {}

  /// Loads (and caches) the heap file of a cluster. The returned
  /// pointer stays valid only while `schema_mu_` is held (a schema
  /// change may drop the heap).
  Result<HeapFile*> GetHeap(ClusterId id) ODE_REQUIRES_SHARED(schema_mu_);

  /// Unlocked implementations (callers hold `schema_mu_`).
  Result<ObjectBuffer> GetObjectUnlocked(Oid oid)
      ODE_REQUIRES_SHARED(schema_mu_);
  void BumpMutationEpoch() {
    uint64_t epoch =
        mutation_epoch_.fetch_add(1, std::memory_order_release) + 1;
    static obs::Counter* bumps =
        obs::Registry::Global().counter("db.epoch_bumps");
    bumps->Increment();
    obs::Journal::Global().Append(obs::JournalEvent::kEpochBump,
                                  static_cast<int64_t>(epoch));
  }
  Result<std::vector<Oid>> ScanClusterUnlocked(const std::string& class_name)
      ODE_REQUIRES_SHARED(schema_mu_);

  /// Adds classes, each persistent one with its cluster, and persists
  /// the catalog; a rejected batch leaves the catalog untouched.
  Status AddClassesLocked(std::vector<ClassDef> defs)
      ODE_REQUIRES(schema_mu_);

  /// Checkpoint body (callers hold `schema_mu_` in either mode).
  Status CheckpointLocked() ODE_REQUIRES_SHARED(schema_mu_);
  /// Checkpoints when the log has outgrown `wal_checkpoint_bytes`
  /// (called after DML commits; must not hold `wal_txn_mu_`).
  Status MaybeCheckpointLocked() ODE_REQUIRES_SHARED(schema_mu_);

  /// Runs constraint checks for the class and its ancestors.
  Status CheckConstraints(const std::string& class_name, const Value& value)
      ODE_REQUIRES_SHARED(schema_mu_);

  /// Evaluates and logs triggers for `event`.
  Status FireTriggers(const std::string& class_name, Oid oid,
                      TriggerEvent event, const Value& value)
      ODE_REQUIRES_SHARED(schema_mu_);

  /// The class's own `list` entries, then each ancestor's, nearest
  /// first (constraints and triggers are inherited).
  template <typename T>
  Result<std::vector<const T*>> Inherited(
      const std::string& class_name, std::vector<T> ClassDef::*list) const;

  std::unique_ptr<Pager> pager_;
  std::unique_ptr<BufferPool> pool_;
  /// Set at open for on-disk databases, before the pool learns about
  /// it via `SetWal`; null for in-memory databases. Destroyed after the
  /// pool (member order), which never touches it post-destruction.
  std::unique_ptr<Wal> wal_;
  DatabaseOptions options_;
  /// Set once at open (before the database is shared) and never
  /// reseated, so the optional itself is read lock-free; the catalog
  /// *contents* follow schema_mu_ (exclusive for schema mutation,
  /// shared for reads) except the per-cluster id watermarks, which the
  /// catalog guards with its own id mutex.
  std::optional<Catalog> catalog_;

  /// Schema operations exclusive, object operations shared. Lock order
  /// (see docs/LOCKING.md for the full rank table): schema (10) ->
  /// heaps map (20) -> heap rwlock (30) -> catalog id (35) / trigger
  /// (36) / predicate (37) -> free list (50) -> frame latch (60) ->
  /// pool shard (70) -> pager (80).
  mutable SharedMutex schema_mu_{LockRank::kDbSchema};
  /// Serializes write transactions (rank kWalTxn, 15): held by a
  /// `WalTransactionScope` from the start of a logged operation until
  /// its commit record is appended — so uncommitted log records are
  /// always a strict suffix — and by checkpoint phase 2 to quiesce
  /// writers. Watchdog-visible: a wedged writer surfaces as a stall.
  Mutex wal_txn_mu_{LockRank::kWalTxn, "db.wal_txn_lock"};
  /// Guards the heaps_ map (per-heap state has its own rwlock).
  Mutex heaps_mu_{LockRank::kDbHeaps};
  Mutex trigger_mu_{LockRank::kDbTrigger};
  Mutex predicate_mu_{LockRank::kDbPredicate};
  std::map<ClusterId, HeapFile> heaps_ ODE_GUARDED_BY(heaps_mu_);
  std::vector<TriggerFiring> trigger_log_ ODE_GUARDED_BY(trigger_mu_);
  /// Parsed-predicate cache for constraints/trigger conditions.
  std::map<std::string, Predicate> predicate_cache_
      ODE_GUARDED_BY(predicate_mu_);
  std::atomic<uint64_t> next_session_id_{1};
  /// Bumped by every successful mutation; see mutation_epoch().
  std::atomic<uint64_t> mutation_epoch_{0};
  /// Shared with every Session so closing one stays safe even if the
  /// database object was destroyed first (UI code tears interactors
  /// down after their database).
  std::shared_ptr<std::atomic<int>> active_sessions_ =
      std::make_shared<std::atomic<int>>(0);
};

/// A handle for one concurrent client of a Database — the unit the
/// paper's per-window interactors hold. All methods forward to the
/// database's thread-safe object operations, so different sessions may
/// run on different worker threads simultaneously. Movable, not
/// copyable; closing (destroying) a session only drops the client
/// count, it never blocks.
class Session {
 public:
  Session() = default;
  Session(Session&& other) noexcept { *this = std::move(other); }
  Session& operator=(Session&& other) noexcept;
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;
  ~Session();

  bool valid() const { return db_ != nullptr; }
  uint64_t id() const { return id_; }
  Database* database() { return db_; }

  /// The context a gesture of this session runs under: the session's
  /// id and its causal anchor, the zero-length `db.session` span
  /// recorded when the session opened (zero trace ids when tracing was
  /// off), with no profile. Browse cascades adopt it so a Chrome trace
  /// groups every gesture under its session and the access recorder
  /// stamps the session on every event.
  obs::OpContext context() const {
    return obs::OpContext{trace_context_.trace_id, trace_context_.span_id,
                          id_, nullptr};
  }

  /// The session's inspector entry (`/sessions`): live current-op
  /// state plus cumulative resource totals. Null for a
  /// default-constructed (invalid) session.
  obs::SessionEntry* entry() { return entry_.get(); }

  Result<Oid> CreateObject(const std::string& class_name, Value value);
  Result<ObjectBuffer> GetObject(Oid oid);
  Result<ObjectBuffer> GetObjectVersion(Oid oid, uint32_t version);
  Result<std::vector<uint32_t>> ListVersions(Oid oid);
  Status UpdateObject(Oid oid, Value value);
  Status DeleteObject(Oid oid);

  Result<std::vector<Oid>> ScanCluster(const std::string& class_name);
  Result<std::vector<Oid>> Select(const std::string& class_name,
                                  const Predicate& predicate);

 private:
  friend class Database;
  Session(Database* db, uint64_t id,
          std::shared_ptr<std::atomic<int>> counter)
      : db_(db), id_(id), counter_(std::move(counter)) {}

  Database* db_ = nullptr;
  uint64_t id_ = 0;
  /// Co-owned session counter; see Database::active_sessions_.
  std::shared_ptr<std::atomic<int>> counter_;
  obs::TraceContext trace_context_;
  /// Inspector entry; registered by OpenSession, unregistered on close.
  /// Shared with the registry so a `/sessions` scrape racing a close
  /// reads a still-valid entry.
  std::shared_ptr<obs::SessionEntry> entry_;
};

/// Stateful cursor over one cluster with an optional selection
/// predicate — the model behind the object-set window's `reset`,
/// `next`, and `previous` buttons.
///
/// Reads through `Database::ScanRawRecords`, the raw batch read the
/// executor's `Select` uses, and evaluates the predicate the way
/// `Select` does: each candidate is decoded under the predicate's
/// projection mask and tested with the compiled predicate, and only a
/// match is fully decoded into a buffer.
class ObjectCursor {
 public:
  /// Creates a cursor over `class_name`; no object is current until
  /// the first `Next()` (or after `Reset()`).
  ObjectCursor(Database* db, std::string class_name)
      : db_(db), class_name_(std::move(class_name)) {}
  ObjectCursor(Database* db, std::string class_name,
               const Predicate& predicate)
      : db_(db),
        class_name_(std::move(class_name)),
        // Compiled once here; stepping then evaluates the slot
        // program instead of re-walking the tree per object.
        compiled_(exec::CompiledPredicate::Compile(predicate)),
        mask_(ProjectionMask::FromPaths(predicate.AttributePaths())) {}

  const std::string& class_name() const { return class_name_; }
  bool has_current() const { return current_.has_value(); }
  Result<Oid> Current() const;

  /// Forgets the position; the next `Next()` yields the first object.
  void Reset() { current_.reset(); }

  /// Advances to the next / previous matching object and returns its
  /// buffer; OutOfRange at either end (position is kept).
  Result<ObjectBuffer> Next();
  Result<ObjectBuffer> Prev();

 private:
  Result<ObjectBuffer> Step(bool forward);
  /// Refills the lookahead with the batch after (`forward`) or before
  /// `pos`, or from the cluster edge when `pos` is empty.
  Status Fetch(bool forward, const std::optional<Oid>& pos);

  Database* db_;
  std::string class_name_;
  /// Always true (no program) for an unfiltered cursor, whose mask is
  /// then never used.
  exec::CompiledPredicate compiled_;
  ProjectionMask mask_;
  /// Per-cursor evaluation state (field-index hints); cursors are
  /// single-threaded.
  exec::CompiledPredicate::Scratch scratch_;
  std::optional<Oid> current_;

  /// Raw records ahead of the cursor, fetched one batch per lock
  /// round-trip. Valid only while the database's mutation epoch is
  /// unchanged; `lookahead_anchor_` is the position the record at
  /// `lookahead_pos_` directly follows. Any mismatch just refetches,
  /// so observable behaviour is identical to stepping record-by-record.
  RawRecordBatch lookahead_;
  size_t lookahead_pos_ = 0;
  std::optional<Oid> lookahead_anchor_;
  bool lookahead_forward_ = true;
  uint64_t lookahead_epoch_ = 0;
};

}  // namespace ode::odb

#endif  // ODEVIEW_ODB_DATABASE_H_
