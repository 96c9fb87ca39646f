// Overhead matrix for the access-pattern recorder.
//
// The reference-chase-style workload (point reads + a batched scan)
// runs in four flavors:
//   BM_ChaseControl      — recorder never started this flavor: each
//     charge site costs one relaxed load. CI gates
//     BM_ChaseRecorderOff : BM_ChaseControl at 1.05x — stopping the
//     recorder must return the engine to its undisturbed cost.
//   BM_ChaseRecorderOff  — recorder started then stopped before the
//     timed loop (tables allocated, counters warm, still one load).
//   BM_ChaseRecorderSampled — recorder on at 1-in-16 sampling, the
//     always-on production posture.
//   BM_ChaseRecorderFull — recorder on unsampled: every access pays
//     the heat-table CAS. CI gates Full : Off at 1.5x.
// Plus the scrape side: BM_HeatmapRender / BM_ProfileSnapshot against
// a populated recorder.

#include <benchmark/benchmark.h>

#include "bench/bench_scatter.h"
#include "bench/bench_util.h"
#include "common/access_log.h"

namespace ode::bench {
namespace {

odb::LabDbConfig BenchConfig() {
  odb::LabDbConfig config;
  config.employees = 400;
  return config;
}

/// One "chase": a handful of point reads plus 16 cursor steps (one
/// batched read, 16 full decodes) — the access mix a browse cascade
/// generates.
void RunChase(odb::Session& session, const std::vector<odb::Oid>& oids) {
  for (size_t i = 0; i < 8 && i < oids.size(); ++i) {
    benchmark::DoNotOptimize(ValueOrDie(session.GetObject(oids[i]), "get"));
  }
  odb::ObjectCursor cursor(session.database(), "employee");
  for (int i = 0; i < 16; ++i) {
    benchmark::DoNotOptimize(ValueOrDie(cursor.Next(), "scan"));
  }
}

std::vector<odb::Oid> ChaseOids(odb::Database* db) {
  std::vector<odb::Oid> oids = ValueOrDie(db->ScanCluster("employee"), "scan");
  if (oids.size() > 16) oids.resize(16);
  return oids;
}

void BM_ChaseControl(benchmark::State& state) {
  obs::AccessLog::Global().ResetForTest();  // recorder off, tables cold
  LabSession session = LabSession::Create(BenchConfig());
  std::vector<odb::Oid> oids = ChaseOids(session.db.get());
  odb::Session db_session = session.db->OpenSession();
  for (auto _ : state) {
    RunChase(db_session, oids);
  }
}
BENCHMARK(BM_ChaseControl);

void BM_ChaseRecorderOff(benchmark::State& state) {
  obs::AccessLog& log = obs::AccessLog::Global();
  log.ResetForTest();
  LabSession session = LabSession::Create(BenchConfig());
  std::vector<odb::Oid> oids = ChaseOids(session.db.get());
  odb::Session db_session = session.db->OpenSession();
  // Exercise then stop: a recorder that has run must cost the same as
  // one that never did.
  log.Start();
  RunChase(db_session, oids);
  log.Stop();
  for (auto _ : state) {
    RunChase(db_session, oids);
  }
}
BENCHMARK(BM_ChaseRecorderOff);

void BM_ChaseRecorderSampled(benchmark::State& state) {
  obs::AccessLog& log = obs::AccessLog::Global();
  log.ResetForTest();
  LabSession session = LabSession::Create(BenchConfig());
  std::vector<odb::Oid> oids = ChaseOids(session.db.get());
  odb::Session db_session = session.db->OpenSession();
  log.Start(/*sample_period=*/16);
  for (auto _ : state) {
    RunChase(db_session, oids);
  }
  state.counters["recorded"] = static_cast<double>(log.recorded());
  log.Stop();
}
BENCHMARK(BM_ChaseRecorderSampled);

void BM_ChaseRecorderFull(benchmark::State& state) {
  obs::AccessLog& log = obs::AccessLog::Global();
  log.ResetForTest();
  LabSession session = LabSession::Create(BenchConfig());
  std::vector<odb::Oid> oids = ChaseOids(session.db.get());
  odb::Session db_session = session.db->OpenSession();
  log.Start(/*sample_period=*/1);
  for (auto _ : state) {
    RunChase(db_session, oids);
  }
  state.counters["recorded"] = static_cast<double>(log.recorded());
  log.Stop();
}
BENCHMARK(BM_ChaseRecorderFull);

/// Scrape cost against a recorder populated by a full-rate run.
void BM_HeatmapRender(benchmark::State& state) {
  obs::AccessLog& log = obs::AccessLog::Global();
  log.ResetForTest();
  LabSession session = LabSession::Create(BenchConfig());
  std::vector<odb::Oid> oids = ChaseOids(session.db.get());
  odb::Session db_session = session.db->OpenSession();
  log.Start();
  for (int i = 0; i < 64; ++i) RunChase(db_session, oids);
  for (auto _ : state) {
    benchmark::DoNotOptimize(log.RenderHeatmapJson());
  }
  log.Stop();
}
BENCHMARK(BM_HeatmapRender);

void BM_ProfileSnapshot(benchmark::State& state) {
  obs::AccessLog& log = obs::AccessLog::Global();
  log.ResetForTest();
  LabSession session = LabSession::Create(BenchConfig());
  std::vector<odb::Oid> oids = ChaseOids(session.db.get());
  odb::Session db_session = session.db->OpenSession();
  log.Start();
  for (int i = 0; i < 64; ++i) RunChase(db_session, oids);
  for (auto _ : state) {
    benchmark::DoNotOptimize(log.SnapshotProfile());
  }
  log.Stop();
}
BENCHMARK(BM_ProfileSnapshot);

/// Full-rate recorder over the scattered hot-chain chase — the exact
/// workload whose profile feeds the clustering advisor. Uses the same
/// fixture as bench_cluster_reorg.cc so recorder overhead and reorg
/// payoff are measured against an identical layout.
void BM_ScatteredChaseRecorderFull(benchmark::State& state) {
  obs::AccessLog& log = obs::AccessLog::Global();
  log.ResetForTest();
  ScatteredBenchDb lab =
      MakeScatteredBenchDb(/*hot_count=*/64, /*cold_per_hot=*/4,
                           /*pool_pages=*/16);
  odb::Session db_session = lab.db->OpenSession();
  log.Start(/*sample_period=*/1);
  for (auto _ : state) {
    ChaseHotChain(db_session, lab.hot);
  }
  state.counters["recorded"] = static_cast<double>(log.recorded());
  log.Stop();
}
BENCHMARK(BM_ScatteredChaseRecorderFull);

}  // namespace
}  // namespace ode::bench

ODE_BENCH_MAIN();
