#ifndef ODEVIEW_ODB_EXEC_EXPLAIN_H_
#define ODEVIEW_ODB_EXEC_EXPLAIN_H_

#include <string>
#include <utility>
#include <vector>

#include "common/op_profile.h"
#include "common/result.h"
#include "odb/exec/executor.h"

namespace ode::odb::exec {

/// One operator of an explained plan. Plain EXPLAIN fills only the
/// static description (`op` + `props`); EXPLAIN ANALYZE additionally
/// runs the query and fills the actuals.
struct PlanNode {
  std::string op;  ///< "scan", "hash-join", "nested-loop-join", ...
  /// Static plan properties, in display order ("class" -> "employee",
  /// "predicate" -> "salary > 50", ...).
  std::vector<std::pair<std::string, std::string>> props;
  std::vector<PlanNode> children;

  // --- Actuals (EXPLAIN ANALYZE only) ---------------------------------
  bool analyzed = false;
  uint64_t time_ns = 0;
  uint64_t rows_out = 0;
  obs::OpProfile actual;  ///< resource charges attributed here
};

/// A fully explained query: the operator tree plus (for ANALYZE) the
/// whole-query wall time and resource totals, which equal the sum of
/// the per-operator actuals.
struct ExplainResult {
  PlanNode root;
  bool analyzed = false;
  uint64_t total_ns = 0;
  obs::OpProfile totals;

  /// Indented text rendering (the shell's output).
  std::string RenderText() const;
  /// JSON rendering (tooling / the telemetry consumers).
  std::string RenderJson() const;
};

/// Reports whether `predicate` carries a `left.x == right.y` equality
/// conjunct usable as a hash-join key — the strategy EXPLAIN predicts.
/// On success the side-stripped key paths are returned.
bool FindHashJoinKey(const Predicate& predicate, std::string* left_path,
                     std::string* right_path);

/// Explains (and with `analyze` runs) a batched scan. The static plan
/// reports the scan strategy (ids-only fast path vs masked decode),
/// the compiled predicate program size, and the batch size; ANALYZE
/// adds per-operator rows/pages/time from a nested `OpProfile` that
/// is added back into the caller's current profile.
Result<ExplainResult> ExplainScan(Database* db, const ScanSpec& spec,
                                  bool analyze);

/// Explains (and with `analyze` runs) a join. The plan is a join node
/// over two scan children; ANALYZE attributes each phase's rows,
/// pages, and wall time to its node via `JoinPhaseActuals`.
Result<ExplainResult> ExplainJoin(Database* db, const JoinSpec& spec,
                                  bool analyze);

}  // namespace ode::odb::exec

#endif  // ODEVIEW_ODB_EXEC_EXPLAIN_H_
