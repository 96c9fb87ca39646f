#include "odb/exec/explain.h"

#include <cstdio>
#include <sstream>

#include "common/strings.h"
#include "odb/exec/compiled_predicate.h"
#include "odb/predicate.h"

namespace ode::odb::exec {

namespace {

std::string FormatMs(uint64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", static_cast<double>(ns) / 1e6);
  return std::string(buf) + " ms";
}

/// The one-line actuals summary under each text-rendered operator:
/// the numbers someone tuning a query reaches for first. The full
/// charge set is in the JSON rendering.
void AppendActualText(std::ostringstream& os, const std::string& indent,
                      const PlanNode& node) {
  const obs::OpProfile& a = node.actual;
  os << indent << "actual: rows=" << node.rows_out
     << " time=" << FormatMs(node.time_ns) << " pages_read=" << a.pool_misses
     << " pool_hits=" << a.pool_hits << " rows_scanned=" << a.rows_scanned;
  if (a.lock_wait_ns != 0) {
    os << " lock_wait=" << FormatMs(a.lock_wait_ns);
  }
  if (a.wal_commit_wait_ns != 0) {
    os << " wal_wait=" << FormatMs(a.wal_commit_wait_ns);
  }
  if (a.cluster_prefetches != 0) {
    os << " cluster_prefetches=" << a.cluster_prefetches;
  }
  os << "\n";
}

void RenderNodeText(std::ostringstream& os, const PlanNode& node, int depth) {
  std::string indent(static_cast<size_t>(depth) * 2, ' ');
  os << indent << (depth == 0 ? "" : "-> ") << node.op << "\n";
  std::string prop_indent = indent + (depth == 0 ? "  " : "     ");
  for (const auto& [key, value] : node.props) {
    os << prop_indent << key << ": " << value << "\n";
  }
  if (node.analyzed) AppendActualText(os, prop_indent, node);
  for (const PlanNode& child : node.children) {
    RenderNodeText(os, child, depth + 1);
  }
}

/// `s` as a quoted JSON string.
std::string JsonString(std::string_view s) {
  std::string out = "\"";
  AppendJsonEscaped(&out, s);
  return out + "\"";
}

void RenderNodeJson(std::ostringstream& os, const PlanNode& node) {
  os << "{\"op\":" << JsonString(node.op) << ",\"props\":{";
  bool first = true;
  for (const auto& [key, value] : node.props) {
    if (!first) os << ",";
    first = false;
    os << JsonString(key) << ":" << JsonString(value);
  }
  os << "}";
  if (node.analyzed) {
    os << ",\"time_ns\":" << node.time_ns << ",\"rows\":" << node.rows_out
       << ",\"actual\":{";
    obs::AppendOpProfileStatsJson(os, node.actual);
    os << "}";
  }
  os << ",\"children\":[";
  for (size_t i = 0; i < node.children.size(); ++i) {
    if (i != 0) os << ",";
    RenderNodeJson(os, node.children[i]);
  }
  os << "]}";
}

/// Static description of one scan, from the same planning the executor
/// runs (used by both the top-level scan plan and a join's children).
PlanNode DescribeScan(const ScanSpec& spec) {
  PlanNode node;
  node.op = "scan";
  node.props.emplace_back("class", spec.class_name);
  node.props.emplace_back("predicate", spec.predicate != nullptr
                                           ? spec.predicate->ToString()
                                           : "true");
  CompiledPredicate compiled = spec.predicate != nullptr
                                   ? CompiledPredicate::Compile(*spec.predicate)
                                   : CompiledPredicate();
  ScanProjection projection = PlanScanProjection(spec, compiled);
  size_t attributes = projection.mask.size();
  node.props.emplace_back(
      "strategy", projection.ids_only ? "ids-only" : "batched-decode");
  node.props.emplace_back(
      "projection",
      spec.project_all
          ? "full"
          : (attributes == 0 ? "none"
                             : "masked (" + std::to_string(attributes) +
                                   " attributes)"));
  node.props.emplace_back(
      "compiled", std::to_string(compiled.nodes().size()) + " nodes, " +
                      std::to_string(compiled.slots().size()) + " slots");
  node.props.emplace_back("batch_size", std::to_string(spec.batch_size));
  return node;
}

void FillActuals(PlanNode* node, uint64_t time_ns, uint64_t rows_out,
                 const obs::OpProfile& actual) {
  node->analyzed = true;
  node->time_ns = time_ns;
  node->rows_out = rows_out;
  node->actual = actual;
}

}  // namespace

std::string ExplainResult::RenderText() const {
  std::ostringstream os;
  RenderNodeText(os, root, 0);
  if (analyzed) {
    const obs::OpProfile& t = totals;
    os << "totals: time=" << FormatMs(total_ns)
       << " pages_read=" << t.pool_misses << " pool_hits=" << t.pool_hits
       << " pager_reads=" << t.pager_reads
       << " rows_scanned=" << t.rows_scanned
       << " lock_wait=" << FormatMs(t.lock_wait_ns);
    if (t.cluster_prefetches != 0) {
      os << " cluster_prefetches=" << t.cluster_prefetches;
    }
    os << "\n";
  }
  return os.str();
}

std::string ExplainResult::RenderJson() const {
  std::ostringstream os;
  os << "{\"analyzed\":" << (analyzed ? "true" : "false");
  if (analyzed) {
    os << ",\"total_ns\":" << total_ns << ",\"totals\":{";
    obs::AppendOpProfileStatsJson(os, totals);
    os << "}";
  }
  os << ",\"plan\":";
  RenderNodeJson(os, root);
  os << "}";
  return os.str();
}

Result<ExplainResult> ExplainScan(Database* db, const ScanSpec& spec,
                                  bool analyze) {
  ExplainResult result;
  result.root = DescribeScan(spec);
  if (!analyze) return result;

  // A nested profile, so the plan's actuals carry exactly this scan's
  // charges.
  uint64_t elapsed = 0;
  ODE_ASSIGN_OR_RETURN(ScanResult scan,
                       obs::RunNestedProfile(&result.totals, &elapsed, [&] {
                         return ExecuteScan(db, spec);
                       }));

  result.analyzed = true;
  result.total_ns = elapsed;
  FillActuals(&result.root, elapsed, scan.stats.rows_matched, result.totals);
  return result;
}

Result<ExplainResult> ExplainJoin(Database* db, const JoinSpec& spec,
                                  bool analyze) {
  Predicate always = Predicate::True();
  const Predicate& predicate =
      spec.predicate != nullptr ? *spec.predicate : always;
  // Compiling up front both validates the predicate (EXPLAIN fails the
  // same way the join would) and sizes the program for the plan.
  ODE_ASSIGN_OR_RETURN(CompiledPredicate compiled,
                       CompiledPredicate::CompileJoin(predicate));

  ExplainResult result;
  PlanNode& root = result.root;
  std::string left_key, right_key;
  bool hash = FindHashJoinKey(predicate, &left_key, &right_key);
  root.op = hash ? "hash-join" : "nested-loop-join";
  root.props.emplace_back("predicate", predicate.ToString());
  if (hash) {
    root.props.emplace_back("key",
                            "left." + left_key + " = right." + right_key);
    root.props.emplace_back("note",
                            "falls back to nested loop on non-scalar keys");
  }
  root.props.emplace_back(
      "compiled", std::to_string(compiled.nodes().size()) + " nodes, " +
                      std::to_string(compiled.slots().size()) + " slots");
  root.props.emplace_back("batch_size", std::to_string(spec.batch_size));

  // The children are ExecuteJoin's inputs.
  JoinInputs inputs(spec, compiled);
  root.children.push_back(DescribeScan(inputs.left));
  root.children.push_back(DescribeScan(inputs.right));
  if (!analyze) return result;

  // One wrapper profile around the whole join: the per-phase profiles
  // ExecuteJoin collects are added into it (scans via RunJoinPhase, the
  // match charge directly), so the totals equal the sum of the three
  // per-operator actuals — the equivalence EXPLAIN ANALYZE promises.
  JoinPhaseActuals actuals;
  uint64_t elapsed = 0;
  ODE_ASSIGN_OR_RETURN(JoinResult out,
                       obs::RunNestedProfile(&result.totals, &elapsed, [&] {
                         return ExecuteJoin(db, spec, &actuals);
                       }));

  result.analyzed = true;
  result.total_ns = elapsed;
  // The runtime can downgrade a predicted hash join (non-scalar keys);
  // report what actually ran.
  root.op = out.stats.hash_join ? "hash-join" : "nested-loop-join";
  if (out.stats.hash_join) {
    root.props.emplace_back("built",
                            out.stats.built_left ? "left" : "right");
  }
  FillActuals(&root, actuals.match_ns, out.stats.pairs, actuals.match_profile);
  FillActuals(&root.children[0], actuals.left_ns,
              actuals.left_scan.rows_matched, actuals.left_profile);
  FillActuals(&root.children[1], actuals.right_ns,
              actuals.right_scan.rows_matched, actuals.right_profile);
  return result;
}

}  // namespace ode::odb::exec
