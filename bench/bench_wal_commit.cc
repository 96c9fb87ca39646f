// Group commit vs per-commit fsync.
//
// Every committed write transaction must make the log durable before
// it is acknowledged. The baseline (`group=0`) fsyncs once per commit;
// group commit (`group=1`) lets one leader's fsync cover every
// follower whose commit record it flushed. The win shows up under
// concurrency: N sessions commit with ~1 fsync per batch instead of N.
//
// Args: {group_commit, sessions}. Each iteration runs `sessions`
// threads x kCommitsPerThread acknowledged commits against an on-disk
// database; `fsyncs_per_commit` reports the measured batching factor
// from the wal.* instruments.
//
// BM_Crc32c/4096 times the log's checksum over one page image, the
// bytes every logged page costs on append and again on recovery.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/coding.h"
#include "common/metrics.h"
#include "odb/database.h"

namespace ode::bench {
namespace {

constexpr int kCommitsPerThread = 4;

constexpr char kSchema[] = R"(
persistent class entry {
public:
  string payload;
};
)";

void BM_WalCommit(benchmark::State& state) {
  const bool group = state.range(0) != 0;
  const int sessions = static_cast<int>(state.range(1));
  const std::string path = "/tmp/ode_bench_wal_" +
                           std::to_string(state.range(0)) + "_" +
                           std::to_string(sessions) + ".db";
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());

  odb::DatabaseOptions options;
  options.wal_group_commit = group;
  auto db = ValueOrDie(odb::Database::CreateOnDisk(path, "bench", options),
                       "create db");
  CheckOk(db->DefineSchema(kSchema), "schema");

  obs::Counter* commits = obs::Registry::Global().counter("wal.commits");
  obs::Counter* fsyncs = obs::Registry::Global().counter("wal.fsyncs");
  const uint64_t commits_before = commits->value();
  const uint64_t fsyncs_before = fsyncs->value();

  const odb::Value payload =
      odb::Value::Struct({{"payload", odb::Value::String("forty-two bytes "
                                                         "of durable data")}});
  for (auto _ : state) {
    std::vector<std::thread> workers;
    workers.reserve(static_cast<size_t>(sessions));
    for (int t = 0; t < sessions; ++t) {
      workers.emplace_back([&db, &payload] {
        odb::Session session = db->OpenSession();
        for (int i = 0; i < kCommitsPerThread; ++i) {
          benchmark::DoNotOptimize(
              ValueOrDie(session.CreateObject("entry", payload), "create"));
        }
      });
    }
    for (std::thread& w : workers) w.join();
  }

  const double committed =
      static_cast<double>(commits->value() - commits_before);
  if (committed > 0) {
    state.counters["fsyncs_per_commit"] =
        static_cast<double>(fsyncs->value() - fsyncs_before) / committed;
  }
  state.SetItemsProcessed(state.iterations() * sessions * kCommitsPerThread);

  db.reset();
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
}
BENCHMARK(BM_WalCommit)
    ->Args({0, 1})
    ->Args({1, 1})
    ->Args({0, 4})
    ->Args({1, 4})
    ->Args({0, 8})
    ->Args({1, 8})
    ->Unit(benchmark::kMicrosecond)
    ->UseRealTime();

void BM_Crc32c(benchmark::State& state) {
  std::string bytes(static_cast<size_t>(state.range(0)), '\0');
  for (size_t i = 0; i < bytes.size(); ++i) {
    bytes[i] = static_cast<char>(i * 131);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(Crc32c(bytes));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32c)->Arg(4096);

}  // namespace
}  // namespace ode::bench

ODE_BENCH_MAIN();
