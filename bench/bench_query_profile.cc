// Profiling-overhead matrix for the query-profiling layer.
//
// Each workload runs in two (or three) flavors:
//   *_ProfilingOff — no profile attached: the per-charge-site cost is
//     one thread-local pointer test. CI gates this flavor against
//     BENCH_BASELINE.json at 5% tolerance — the "near-zero cost when
//     disabled" contract.
//   *_ProfilingOn — an OpProfile attached for the duration: every
//     charge site pays a few plain adds into the calling thread's
//     profile.
//   *_SessionProfiled — the full ProfiledOp path a real session op
//     takes (fresh profile, one relaxed add per non-zero counter into
//     the session totals, slow-op threshold check). CI gates the on/off
//     ratio instead of absolute time, so the check is
//     machine-independent (compare_bench.py --ratio).

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "common/op_profile.h"
#include "odb/exec/explain.h"
#include "odb/predicate.h"

namespace ode::bench {
namespace {

odb::LabDbConfig BenchConfig() {
  odb::LabDbConfig config;
  config.employees = 400;
  return config;
}

odb::Predicate AgePredicate() {
  return ValueOrDie(odb::ParsePredicate("age > 40"), "parse predicate");
}

void BM_SelectProfilingOff(benchmark::State& state) {
  LabSession session = LabSession::Create(BenchConfig());
  odb::Predicate predicate = AgePredicate();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ValueOrDie(session.db->Select("employee", predicate), "select"));
  }
}
BENCHMARK(BM_SelectProfilingOff);

void BM_SelectProfilingOn(benchmark::State& state) {
  LabSession session = LabSession::Create(BenchConfig());
  odb::Predicate predicate = AgePredicate();
  obs::OpProfile profile;
  obs::OpContextScope scope(obs::OpContext{.profile = &profile});
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ValueOrDie(session.db->Select("employee", predicate), "select"));
  }
  state.counters["rows_scanned"] =
      static_cast<double>(profile.rows_scanned);
}
BENCHMARK(BM_SelectProfilingOn);

void BM_SelectSessionProfiled(benchmark::State& state) {
  LabSession session = LabSession::Create(BenchConfig());
  odb::Predicate predicate = AgePredicate();
  odb::Session db_session = session.db->OpenSession();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ValueOrDie(db_session.Select("employee", predicate), "select"));
  }
}
BENCHMARK(BM_SelectSessionProfiled);

void BM_GetObjectProfilingOff(benchmark::State& state) {
  LabSession session = LabSession::Create(BenchConfig());
  odb::Oid first =
      ValueOrDie(session.db->ScanCluster("employee"), "scan").front();
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ValueOrDie(session.db->GetObject(first), "get"));
  }
}
BENCHMARK(BM_GetObjectProfilingOff);

void BM_GetObjectProfilingOn(benchmark::State& state) {
  LabSession session = LabSession::Create(BenchConfig());
  odb::Oid first =
      ValueOrDie(session.db->ScanCluster("employee"), "scan").front();
  obs::OpProfile profile;
  obs::OpContextScope scope(obs::OpContext{.profile = &profile});
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ValueOrDie(session.db->GetObject(first), "get"));
  }
}
BENCHMARK(BM_GetObjectProfilingOn);

// The ladder's session-op rung: the point read every browse fetch makes.
void BM_GetObjectSessionProfiled(benchmark::State& state) {
  LabSession session = LabSession::Create(BenchConfig());
  odb::Oid first =
      ValueOrDie(session.db->ScanCluster("employee"), "scan").front();
  odb::Session db_session = session.db->OpenSession();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ValueOrDie(db_session.GetObject(first), "get"));
  }
}
BENCHMARK(BM_GetObjectSessionProfiled);

// EXPLAIN ANALYZE's own cost relative to just running the query: the
// plan rendering plus the nested profile should stay a thin wrapper.
void BM_ExplainAnalyzeSelect(benchmark::State& state) {
  LabSession session = LabSession::Create(BenchConfig());
  odb::Predicate predicate = AgePredicate();
  for (auto _ : state) {
    auto explained =
        session.db->ExplainSelect("employee", predicate, /*analyze=*/true);
    CheckOk(explained.status(), "explain analyze");
    benchmark::DoNotOptimize(explained->totals.rows_scanned);
  }
}
BENCHMARK(BM_ExplainAnalyzeSelect);

}  // namespace
}  // namespace ode::bench

ODE_BENCH_MAIN();
