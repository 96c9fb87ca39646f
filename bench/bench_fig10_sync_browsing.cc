// Figure 10: synchronized browsing — clicking `next` on the employee
// object set refreshes the whole network of windows hanging off it,
// open or closed.

#include <benchmark/benchmark.h>

#include "bench/bench_scatter.h"
#include "bench/bench_util.h"
#include "odb/buffer_pool.h"
#include "odb/cluster/advisor.h"
#include "odb/cluster/plan.h"
#include "odb/cluster/prefetch.h"

namespace ode::bench {
namespace {

view::BrowseNode* BuildChain(view::BrowseNode* node, int depth,
                             bool displays_open) {
  for (int i = 0; i < depth; ++i) {
    const char* member = (i % 2 == 0) ? "dept" : "head";
    node = ValueOrDie(node->FollowReference(member), "follow");
    // Display state is per class and the chain alternates two classes,
    // so from the third link on the text display is already open; a
    // second toggle would close it for every node of that class.
    if (displays_open && !node->IsFormatOpen("text")) {
      CheckOk(node->ToggleFormat("text"), "open text");
    }
  }
  return node;
}

void BM_SyncPropagationByDepth(benchmark::State& state) {
  int depth = static_cast<int>(state.range(0));
  bool displays_open = state.range(1) == 1;
  LabSession session = LabSession::Create();
  view::BrowseNode* root =
      ValueOrDie(session.interactor->OpenObjectSet("employee"), "set");
  CheckOk(root->Next(), "next");
  BuildChain(root, depth, displays_open);
  for (auto _ : state) {
    if (!root->Next().ok()) CheckOk(root->Reset(), "reset");
  }
  state.counters["windows"] = root->SubtreeSize();
  state.SetLabel(displays_open ? "displays open" : "panels only");
}
BENCHMARK(BM_SyncPropagationByDepth)
    ->Args({1, 0})
    ->Args({4, 0})
    ->Args({16, 0})
    ->Args({64, 0})
    ->Args({1, 1})
    ->Args({4, 1})
    ->Args({16, 1});

void BM_SyncPropagationByFanout(benchmark::State& state) {
  // A bushy network: the employee's dept with all its set members and
  // references followed, replicated via multiple children.
  LabSession session = LabSession::Create();
  view::BrowseNode* root =
      ValueOrDie(session.interactor->OpenObjectSet("employee"), "set");
  CheckOk(root->Next(), "next");
  view::BrowseNode* dept = ValueOrDie(root->FollowReference("dept"), "d");
  (void)ValueOrDie(root->FollowReference("boss"), "boss");
  (void)ValueOrDie(dept->FollowReferenceSet("employees"), "emps");
  (void)ValueOrDie(dept->FollowReferenceSet("projects"), "projects");
  (void)ValueOrDie(dept->FollowReference("head"), "head");
  for (auto _ : state) {
    if (!root->Next().ok()) CheckOk(root->Reset(), "reset");
  }
  state.counters["windows"] = root->SubtreeSize();
}
BENCHMARK(BM_SyncPropagationByFanout);

void BM_SyncRefreshClosedWindows(benchmark::State& state) {
  // Paper §4.4: refreshing happens even for closed windows. Measure a
  // chain whose display windows are all closed.
  LabSession session = LabSession::Create();
  view::BrowseNode* root =
      ValueOrDie(session.interactor->OpenObjectSet("employee"), "set");
  CheckOk(root->Next(), "next");
  view::BrowseNode* dept = ValueOrDie(root->FollowReference("dept"), "d");
  CheckOk(dept->ToggleFormat("text"), "open");
  session.app->server()
      ->FindWindow(dept->DisplayWindow("text"))
      ->set_open(false);
  for (auto _ : state) {
    if (!root->Next().ok()) CheckOk(root->Reset(), "reset");
  }
}
BENCHMARK(BM_SyncRefreshClosedWindows);

void BM_UnsynchronizedBaseline(benchmark::State& state) {
  // Ablation: sequencing with no children — the cost of `next` alone,
  // to isolate what synchronized propagation adds.
  LabSession session = LabSession::Create();
  view::BrowseNode* root =
      ValueOrDie(session.interactor->OpenObjectSet("employee"), "set");
  for (auto _ : state) {
    if (!root->Next().ok()) CheckOk(root->Reset(), "reset");
  }
}
BENCHMARK(BM_UnsynchronizedBaseline);

// --- Browse cascade vs physical layout ---------------------------------
//
// The storage-level shape of a synchronized-browsing cascade: each
// `next` refreshes a network of windows, touching a chain of related
// objects in affinity order. Over a scattered heap every hop is a page
// fetch; after the advisor's plan is applied (and its affinity
// prefetcher installed) the chain shares pages and upcoming ones are
// scheduled ahead. Both flavors export `pool_misses` so the payoff is
// a same-run counter ratio, immune to machine noise.

void CascadeLoop(benchmark::State& state, ScatteredBenchDb& lab) {
  odb::Session session = lab.db->OpenSession();
  ChaseHotChain(session, lab.hot);  // prime: cold start does not count
  lab.db->buffer_pool()->WaitForPrefetches();
  const uint64_t misses_before = lab.db->buffer_pool()->stats().misses;
  for (auto _ : state) {
    ChaseHotChain(session, lab.hot);
  }
  lab.db->buffer_pool()->WaitForPrefetches();
  odb::BufferPool::Stats stats = lab.db->buffer_pool()->stats();
  state.counters["pool_misses"] = benchmark::Counter(
      static_cast<double>(stats.misses - misses_before),
      benchmark::Counter::kAvgIterations);
  state.counters["prefetched"] =
      static_cast<double>(stats.cluster_prefetches);
}

void BM_SyncCascadeScattered(benchmark::State& state) {
  ScatteredBenchDb lab = MakeScatteredBenchDb(
      /*hot_count=*/64, /*cold_per_hot=*/4, /*pool_pages=*/16);
  CascadeLoop(state, lab);
}
BENCHMARK(BM_SyncCascadeScattered);

void BM_SyncCascadeReclustered(benchmark::State& state) {
  ScatteredBenchDb lab = MakeScatteredBenchDb(
      /*hot_count=*/64, /*cold_per_hot=*/4, /*pool_pages=*/16);
  obs::AccessProfile profile = ChainProfile(lab.hot, /*weight=*/8);
  odb::cluster::ClusterPlan plan = ValueOrDie(
      odb::cluster::BuildClusterPlan(lab.db.get(), profile), "plan");
  CheckOk(lab.db->Recluster(plan), "recluster");
  auto source = ValueOrDie(
      odb::cluster::BuildAffinityPrefetchSource(lab.db.get(), profile),
      "prefetch source");
  lab.db->buffer_pool()->SetPrefetchSource(source);
  lab.db->buffer_pool()->SetReadAheadPolicy(
      odb::ReadAheadPolicy::kAffinity);
  CascadeLoop(state, lab);
}
BENCHMARK(BM_SyncCascadeReclustered);

}  // namespace
}  // namespace ode::bench

ODE_BENCH_MAIN();
