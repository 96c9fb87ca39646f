#include "odb/exec/executor.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <thread>
#include <unordered_map>

#include "common/access_log.h"
#include "common/journal.h"
#include "common/metrics.h"
#include "common/op_profile.h"
#include "common/trace.h"
#include "odb/database.h"
#include "odb/exec/compiled_predicate.h"
#include "odb/exec/explain.h"

namespace ode::odb::exec {

namespace {

obs::Counter& ExecBatches() {
  static obs::Counter* c = obs::Registry::Global().counter("exec.batches");
  return *c;
}
obs::Counter& ExecRowsScanned() {
  static obs::Counter* c =
      obs::Registry::Global().counter("exec.rows.scanned");
  return *c;
}
obs::Counter& ExecRowsMatched() {
  static obs::Counter* c =
      obs::Registry::Global().counter("exec.rows.matched");
  return *c;
}
obs::Counter& ExecRowsSkippedDecode() {
  static obs::Counter* c =
      obs::Registry::Global().counter("exec.rows.skipped_decode");
  return *c;
}
obs::Counter& ExecJoinBuildRows() {
  static obs::Counter* c =
      obs::Registry::Global().counter("exec.join.build_rows");
  return *c;
}
obs::Counter& ExecJoinProbeRows() {
  static obs::Counter* c =
      obs::Registry::Global().counter("exec.join.probe_rows");
  return *c;
}
obs::Counter& ExecJoinPairs() {
  static obs::Counter* c =
      obs::Registry::Global().counter("exec.join.pairs");
  return *c;
}
obs::Histogram& ExecScanLatency() {
  static obs::Histogram* h =
      obs::Registry::Global().histogram("exec.scan.latency_ns");
  return *h;
}

uint64_t MonotonicNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Scans the cluster batch by batch, filtering each batch through the
/// compiled predicate.
Status ScanBatches(Database* db, const ScanSpec& spec,
                   const CompiledPredicate& compiled,
                   const ProjectionMask* mask, ScanResult* out) {
  BatchScanner scanner(db, spec.class_name, mask, spec.batch_size);
  CompiledPredicate::Scratch scratch;
  RowBatch batch;
  while (true) {
    ODE_ASSIGN_OR_RETURN(bool more, scanner.Next(&batch));
    if (!more) break;
    out->stats.batches += 1;
    out->stats.rows_scanned += batch.size();
    out->stats.skipped_fields += batch.skipped_fields;
    out->stats.arena_bytes += batch.arena_bytes;
    if (spec.injected_delay_ns_per_batch > 0) {
      std::this_thread::sleep_for(
          std::chrono::nanoseconds(spec.injected_delay_ns_per_batch));
    }
    if (!compiled.always_true()) {
      out->stats.predicate_evals += batch.size();
      ODE_RETURN_IF_ERROR(
          compiled.EvaluateBatch(batch.values.data(), batch.size(),
                                 &scratch));
    }
    size_t matched = batch.size();
    if (!compiled.always_true()) {
      matched = 0;
      for (size_t i = 0; i < batch.size(); ++i) matched += scratch.truth[i];
    }
    if (out->rows.capacity() < out->rows.size() + matched) {
      // Keep geometric growth: a bare reserve() per batch would
      // reallocate every batch on long scans.
      out->rows.reserve(
          std::max(out->rows.size() + matched, out->rows.capacity() * 2));
    }
    for (size_t i = 0; i < batch.size(); ++i) {
      if (!compiled.always_true() && scratch.truth[i] == 0) continue;
      ScanRow row;
      row.oid = Oid{batch.cluster, batch.locals[i]};
      row.version = batch.versions[i];
      if (spec.emit_values) row.value = std::move(batch.values[i]);
      out->rows.push_back(std::move(row));
    }
  }
  out->stats.rows_matched = out->rows.size();
  return Status::OK();
}

void PublishScanStats(const ScanStats& stats) {
  ExecBatches().Add(stats.batches);
  ExecRowsScanned().Add(stats.rows_scanned);
  ExecRowsMatched().Add(stats.rows_matched);
  ExecRowsSkippedDecode().Add(stats.skipped_fields);
  if (auto* profile = obs::CurrentOpProfile()) {
    profile->rows_scanned += stats.rows_scanned;
    profile->rows_matched += stats.rows_matched;
    profile->rows_skipped_decode += stats.skipped_fields;
    profile->predicate_evals += stats.predicate_evals;
    profile->batches += stats.batches;
  }
  obs::Journal::Global().Append(obs::JournalEvent::kExecScan,
                                static_cast<int64_t>(stats.rows_scanned),
                                static_cast<int64_t>(stats.rows_matched));
}

}  // namespace

ScanProjection PlanScanProjection(const ScanSpec& spec,
                                  const CompiledPredicate& compiled) {
  ScanProjection out;
  if (spec.project_all) return out;
  if (spec.predicate != nullptr) {
    for (const std::string& path : spec.predicate->AttributePaths()) {
      out.mask.AddPath(path);
    }
  }
  if (spec.projection != nullptr) {
    for (const std::string& path : *spec.projection) out.mask.AddPath(path);
  }
  out.ids_only = out.mask.size() == 0 && compiled.always_true();
  return out;
}

Result<ScanResult> ExecuteScan(Database* db, const ScanSpec& spec) {
  ODE_TRACE_SPAN("exec.scan");
  obs::ScopedLatencyTimer timer(&ExecScanLatency());
  CompiledPredicate compiled = spec.predicate != nullptr
                                   ? CompiledPredicate::Compile(*spec.predicate)
                                   : CompiledPredicate();
  ScanProjection projection = PlanScanProjection(spec, compiled);
  const ProjectionMask* mask_ptr =
      spec.project_all ? nullptr : &projection.mask;

  ScanResult result;
  if (projection.ids_only) {
    ODE_ASSIGN_OR_RETURN(std::vector<Oid> ids,
                         db->ScanCluster(spec.class_name));
    result.rows.reserve(ids.size());
    for (Oid oid : ids) {
      ScanRow row;
      row.oid = oid;
      result.rows.push_back(std::move(row));
    }
    result.stats.rows_scanned = ids.size();
    result.stats.rows_matched = ids.size();
    PublishScanStats(result.stats);
    return result;
  }

  ODE_RETURN_IF_ERROR(ScanBatches(db, spec, compiled, mask_ptr, &result));
  PublishScanStats(result.stats);
  return result;
}

namespace {

/// Flattens the top-level `&&` chain.
void CollectConjuncts(const Predicate& predicate,
                      std::vector<const Predicate*>* out) {
  if (predicate.kind() == Predicate::Kind::kAnd) {
    CollectConjuncts(predicate.children()[0], out);
    CollectConjuncts(predicate.children()[1], out);
    return;
  }
  out->push_back(&predicate);
}

struct EquiKey {
  bool found = false;
  std::string left_path;   ///< side-stripped
  std::string right_path;  ///< side-stripped
};

/// Finds a `left.x == right.y` conjunct usable as a hash-join key.
EquiKey FindEquiKey(const Predicate& predicate) {
  std::vector<const Predicate*> conjuncts;
  CollectConjuncts(predicate, &conjuncts);
  EquiKey key;
  for (const Predicate* conjunct : conjuncts) {
    if (conjunct->kind() != Predicate::Kind::kCompare ||
        conjunct->compare_op() != CompareOp::kEq) {
      continue;
    }
    const Operand& lhs = conjunct->compare_lhs();
    const Operand& rhs = conjunct->compare_rhs();
    if (lhs.kind != Operand::Kind::kAttribute ||
        rhs.kind != Operand::Kind::kAttribute) {
      continue;
    }
    auto split = [](const std::string& path, std::string_view* head,
                    std::string_view* rest) {
      size_t dot = path.find('.');
      *head = std::string_view(path).substr(0, dot);
      *rest = dot == std::string::npos
                  ? std::string_view{}
                  : std::string_view(path).substr(dot + 1);
    };
    std::string_view lhead, lrest, rhead, rrest;
    split(lhs.path, &lhead, &lrest);
    split(rhs.path, &rhead, &rrest);
    if (lrest.empty() || rrest.empty()) continue;
    if (lhead == "left" && rhead == "right") {
      key.left_path = std::string(lrest);
      key.right_path = std::string(rrest);
    } else if (lhead == "right" && rhead == "left") {
      key.left_path = std::string(rrest);
      key.right_path = std::string(lrest);
    } else {
      continue;  // same-side equality: no join key
    }
    key.found = true;
    return key;
  }
  return key;
}

enum class KeyState { kOk, kMissing, kUnhashable };

/// Normalizes a key value to hashable bytes matching the predicate
/// language's equality: numerics (bool/int/real) collapse to their
/// double, strings hash as bytes, null joins null. Non-scalar kinds —
/// and NaN, whose equality is not transitive across kinds in the
/// legacy evaluator — report kUnhashable so the join falls back to
/// the nested loop.
KeyState NormalizeKey(const Value* value, std::string* out) {
  out->clear();
  if (value == nullptr) return KeyState::kMissing;
  switch (value->kind()) {
    case ValueKind::kNull:
      out->push_back('n');
      return KeyState::kOk;
    case ValueKind::kBool:
    case ValueKind::kInt:
    case ValueKind::kReal: {
      Result<double> number = value->ToNumber();
      if (!number.ok()) return KeyState::kUnhashable;
      double d = *number;
      if (std::isnan(d)) return KeyState::kUnhashable;
      if (d == 0.0) d = 0.0;  // collapse -0.0 into +0.0
      out->push_back('d');
      out->append(reinterpret_cast<const char*>(&d), sizeof(d));
      return KeyState::kOk;
    }
    case ValueKind::kString:
      out->push_back('s');
      out->append(value->AsString());
      return KeyState::kOk;
    default:
      return KeyState::kUnhashable;
  }
}

/// Computes normalized keys for every row; false if any key is
/// unhashable (the caller abandons the hash join).
bool ComputeKeys(const std::vector<ScanRow>& rows, const std::string& path,
                 std::vector<std::string>* keys,
                 std::vector<uint8_t>* present) {
  keys->assign(rows.size(), {});
  present->assign(rows.size(), 0);
  for (size_t i = 0; i < rows.size(); ++i) {
    const Value* v = rows[i].value.FindPath(path);
    switch (NormalizeKey(v, &(*keys)[i])) {
      case KeyState::kOk:
        (*present)[i] = 1;
        break;
      case KeyState::kMissing:
        break;  // cannot satisfy the equality conjunct: joins nothing
      case KeyState::kUnhashable:
        return false;
    }
  }
  return true;
}

}  // namespace

namespace {

/// Runs `body` with `*out_profile`, cleared, as a nested profile when
/// `actuals` is wanted, recording wall time and the phase's charges.
/// With no actuals requested the body runs directly under the caller's
/// profile.
template <typename Body>
auto RunJoinPhase(bool collect, uint64_t* out_ns, obs::OpProfile* out_profile,
                  Body body) -> decltype(body()) {
  if (!collect) return body();
  *out_profile = {};
  return obs::RunNestedProfile(out_profile, out_ns, body);
}

}  // namespace

JoinInputs::JoinInputs(const JoinSpec& spec,
                       const CompiledPredicate& compiled) {
  for (const CompiledPredicate::Slot& slot : compiled.slots()) {
    bool is_left = slot.side == CompiledPredicate::Side::kLeft;
    if (slot.parts.empty()) {
      (is_left ? left : right).project_all = true;
    } else {
      (is_left ? left_paths : right_paths).push_back(slot.dotted);
    }
  }
  left.class_name = spec.left_class;
  left.projection = &left_paths;
  left.batch_size = spec.batch_size;
  right.class_name = spec.right_class;
  right.projection = &right_paths;
  right.batch_size = spec.batch_size;
}

Result<JoinResult> ExecuteJoin(Database* db, const JoinSpec& spec,
                               JoinPhaseActuals* actuals) {
  ODE_TRACE_SPAN("exec.join");
  Predicate always = Predicate::True();
  const Predicate& predicate =
      spec.predicate != nullptr ? *spec.predicate : always;
  ODE_ASSIGN_OR_RETURN(CompiledPredicate compiled,
                       CompiledPredicate::CompileJoin(predicate));

  JoinInputs inputs(spec, compiled);
  const bool collect = actuals != nullptr;
  JoinPhaseActuals scratch_actuals;
  JoinPhaseActuals& act = collect ? *actuals : scratch_actuals;
  ODE_ASSIGN_OR_RETURN(
      ScanResult lefts,
      RunJoinPhase(collect, &act.left_ns, &act.left_profile,
                   [&] { return ExecuteScan(db, inputs.left); }));
  ODE_ASSIGN_OR_RETURN(
      ScanResult rights,
      RunJoinPhase(collect, &act.right_ns, &act.right_profile,
                   [&] { return ExecuteScan(db, inputs.right); }));
  act.left_scan = lefts.stats;
  act.right_scan = rights.stats;

  uint64_t match_start = collect ? MonotonicNs() : 0;
  JoinResult out;
  CompiledPredicate::Scratch scratch;
  EquiKey key = FindEquiKey(predicate);
  bool hashed = false;
  if (key.found) {
    std::vector<std::string> left_keys, right_keys;
    std::vector<uint8_t> left_present, right_present;
    if (ComputeKeys(lefts.rows, key.left_path, &left_keys, &left_present) &&
        ComputeKeys(rights.rows, key.right_path, &right_keys,
                    &right_present)) {
      hashed = true;
      out.stats.hash_join = true;
      out.stats.built_left = lefts.rows.size() <= rights.rows.size();
      const std::vector<ScanRow>& build =
          out.stats.built_left ? lefts.rows : rights.rows;
      const std::vector<ScanRow>& probe =
          out.stats.built_left ? rights.rows : lefts.rows;
      const std::vector<std::string>& build_keys =
          out.stats.built_left ? left_keys : right_keys;
      const std::vector<std::string>& probe_keys =
          out.stats.built_left ? right_keys : left_keys;
      const std::vector<uint8_t>& build_present =
          out.stats.built_left ? left_present : right_present;
      const std::vector<uint8_t>& probe_present =
          out.stats.built_left ? right_present : left_present;
      std::unordered_map<std::string, std::vector<uint32_t>> table;
      table.reserve(build.size());
      for (size_t i = 0; i < build.size(); ++i) {
        if (!build_present[i]) continue;
        table[build_keys[i]].push_back(static_cast<uint32_t>(i));
        out.stats.build_rows += 1;
      }
      out.stats.probe_rows = probe.size();
      for (size_t p = 0; p < probe.size(); ++p) {
        if (!probe_present[p]) continue;
        auto bucket = table.find(probe_keys[p]);
        if (bucket == table.end()) continue;
        for (uint32_t b : bucket->second) {
          const ScanRow& lrow =
              out.stats.built_left ? build[b] : probe[p];
          const ScanRow& rrow =
              out.stats.built_left ? probe[p] : build[b];
          // Residual: the *full* predicate re-runs over the candidate
          // pair, so hash-bucket collisions and the remaining
          // conjuncts resolve with the exact legacy semantics.
          ODE_ASSIGN_OR_RETURN(
              bool match,
              compiled.EvaluatePair(lrow.value, rrow.value, &scratch));
          if (match) out.pairs.emplace_back(lrow.oid, rrow.oid);
        }
      }
    }
  }
  if (!hashed) {
    // Batched nested loop: still avoids the legacy path's per-pair
    // object fetch and combined-struct allocation.
    out.stats.probe_rows = lefts.rows.size() * rights.rows.size();
    for (const ScanRow& lrow : lefts.rows) {
      for (const ScanRow& rrow : rights.rows) {
        ODE_ASSIGN_OR_RETURN(
            bool match,
            compiled.EvaluatePair(lrow.value, rrow.value, &scratch));
        if (match) out.pairs.emplace_back(lrow.oid, rrow.oid);
      }
    }
  }
  std::sort(out.pairs.begin(), out.pairs.end(),
            [](const std::pair<Oid, Oid>& a, const std::pair<Oid, Oid>& b) {
              if (a.first.local != b.first.local) {
                return a.first.local < b.first.local;
              }
              return a.second.local < b.second.local;
            });
  out.stats.pairs = out.pairs.size();
  // Join row flow is reference affinity: each matched pair is an edge
  // the clustering advisor can mine for co-location candidates.
  if (obs::AccessLog::Global().enabled() && !out.pairs.empty()) {
    const char* left_label = obs::Journal::InternLabel(spec.left_class);
    const char* right_label = obs::Journal::InternLabel(spec.right_class);
    for (const auto& [left_oid, right_oid] : out.pairs) {
      obs::AccessLog::Global().RecordAffinity(
          left_oid.cluster, left_oid.local, left_label, right_oid.cluster,
          right_oid.local, right_label);
    }
  }
  ExecJoinBuildRows().Add(out.stats.build_rows);
  ExecJoinProbeRows().Add(out.stats.probe_rows);
  ExecJoinPairs().Add(out.stats.pairs);
  if (auto* profile = obs::CurrentOpProfile()) {
    profile->join_build_rows += out.stats.build_rows;
    profile->join_probe_rows += out.stats.probe_rows;
    profile->join_pairs += out.stats.pairs;
  }
  if (collect) {
    act.match_ns = MonotonicNs() - match_start;
    // The match phase touches no storage (both sides are already
    // materialized), so its profile is the join-row charge alone.
    act.match_profile.join_build_rows = out.stats.build_rows;
    act.match_profile.join_probe_rows = out.stats.probe_rows;
    act.match_profile.join_pairs = out.stats.pairs;
  }
  obs::Journal::Global().Append(obs::JournalEvent::kExecJoin,
                                static_cast<int64_t>(out.stats.build_rows),
                                static_cast<int64_t>(out.stats.pairs));
  return out;
}

bool FindHashJoinKey(const Predicate& predicate, std::string* left_path,
                     std::string* right_path) {
  EquiKey key = FindEquiKey(predicate);
  if (!key.found) return false;
  *left_path = key.left_path;
  *right_path = key.right_path;
  return true;
}

}  // namespace ode::odb::exec
