#ifndef ODEVIEW_ODB_EXEC_EXECUTOR_H_
#define ODEVIEW_ODB_EXEC_EXECUTOR_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/op_profile.h"
#include "common/result.h"
#include "odb/exec/batch_scanner.h"
#include "odb/exec/compiled_predicate.h"
#include "odb/oid.h"
#include "odb/predicate.h"
#include "odb/value.h"

namespace ode::odb {
class Database;
}  // namespace ode::odb

namespace ode::odb::exec {

/// One batched scan: which cluster, what to keep, how to run.
struct ScanSpec {
  std::string class_name;
  /// Filter; null (or `Predicate::True`) scans everything.
  const Predicate* predicate = nullptr;
  /// Extra attribute paths to materialize beyond the predicate's own
  /// (e.g. a displaylist). The mask is the union of both; with neither
  /// — and no filter — the scan returns ids without decoding records.
  const std::vector<std::string>* projection = nullptr;
  /// Decode records fully, ignoring the mask (legacy-shaped values).
  bool project_all = false;
  /// When false, matched rows carry only oid + version — the decoded
  /// value stays in the batch buffer (for id-only consumers like
  /// `Select`, which still need the decode for filtering).
  bool emit_values = true;
  size_t batch_size = kDefaultBatchSize;
  /// Test/demo hook: sleep this long after each batch, making the scan
  /// predictably slow (slow-op log demos, CI latency assertions).
  uint64_t injected_delay_ns_per_batch = 0;
};

struct ScanRow {
  Oid oid;
  uint32_t version = 0;
  /// Projected value (only masked attributes present); empty struct
  /// on the ids-only fast path.
  Value value;
};

struct ScanStats {
  uint64_t rows_scanned = 0;
  uint64_t rows_matched = 0;
  uint64_t batches = 0;
  uint64_t skipped_fields = 0;   ///< attribute decodes avoided
  uint64_t predicate_evals = 0;  ///< rows pushed through the filter
  uint64_t arena_bytes = 0;      ///< raw record bytes decoded
};

struct ScanResult {
  std::vector<ScanRow> rows;  ///< ascending local id
  ScanStats stats;
};

/// What a scan decodes, as `ExecuteScan` runs it and EXPLAIN reports
/// it.
struct ScanProjection {
  /// Top-level attributes the predicate and the projection read;
  /// unused under `project_all`.
  ProjectionMask mask;
  /// Nothing to decode and nothing to filter: ids come straight from
  /// the heap directory.
  bool ids_only = false;
};
ScanProjection PlanScanProjection(const ScanSpec& spec,
                                  const CompiledPredicate& compiled);

/// Runs a batched, filtered + projected scan on the calling thread.
/// Rows come back in ascending id order.
Result<ScanResult> ExecuteScan(Database* db, const ScanSpec& spec);

/// One join: predicate over `left.<attr>` / `right.<attr>` paths.
struct JoinSpec {
  std::string left_class;
  std::string right_class;
  const Predicate* predicate = nullptr;  ///< null joins every pair
  size_t batch_size = kDefaultBatchSize;
};

/// A join's two input scans, as `ExecuteJoin` runs them and EXPLAIN
/// reports them: each side decodes only the attributes the predicate
/// reads on that side, or all of them when it reads the side whole.
/// The specs point into this object, so it stays where it is built.
struct JoinInputs {
  JoinInputs(const JoinSpec& spec, const CompiledPredicate& compiled);
  JoinInputs(const JoinInputs&) = delete;
  JoinInputs& operator=(const JoinInputs&) = delete;

  std::vector<std::string> left_paths;
  std::vector<std::string> right_paths;
  ScanSpec left;
  ScanSpec right;
};

struct JoinStats {
  uint64_t build_rows = 0;  ///< hash-table entries (0 for nested loop)
  uint64_t probe_rows = 0;
  uint64_t pairs = 0;
  bool hash_join = false;
  bool built_left = false;  ///< which side the hash table held
};

struct JoinResult {
  /// Matching (left oid, right oid) pairs, sorted by (left id,
  /// right id) — the legacy nested-loop order.
  std::vector<std::pair<Oid, Oid>> pairs;
  JoinStats stats;
};

/// Per-phase actuals for EXPLAIN ANALYZE: wall time and resource
/// profile of the two input scans and the match phase. Filled only
/// when a caller passes it to `ExecuteJoin`; each scan phase charges
/// its own nested `OpProfile`, which is added back into the caller's
/// current profile so session totals stay exact.
struct JoinPhaseActuals {
  ScanStats left_scan;
  ScanStats right_scan;
  uint64_t left_ns = 0;
  uint64_t right_ns = 0;
  uint64_t match_ns = 0;
  obs::OpProfile left_profile;
  obs::OpProfile right_profile;
  obs::OpProfile match_profile;
};

/// Joins two clusters. An equality conjunct between one left and one
/// right attribute selects a hash join (build the smaller side, probe
/// the larger, re-check the full predicate on candidates); otherwise —
/// or when a key turns out non-scalar or NaN at runtime — a batched
/// nested loop evaluates the compiled predicate over every pair.
/// `actuals`, if non-null, receives per-phase timings and profiles.
Result<JoinResult> ExecuteJoin(Database* db, const JoinSpec& spec,
                               JoinPhaseActuals* actuals = nullptr);

}  // namespace ode::odb::exec

#endif  // ODEVIEW_ODB_EXEC_EXECUTOR_H_
